//! The parallel experiment executor.
//!
//! Experiment grids are embarrassingly parallel at the `(cell × rep)`
//! grain: every repetition derives its seeds from `(cell.seed, rep)`
//! alone (see [`crate::runner`]), so repetitions can run on any thread in
//! any order and still produce the exact numbers a serial loop would.
//! The executor exploits that:
//!
//! 1. every runnable cell is flattened into `(cell index, rep)` work
//!    units, in `(cell, rep)` order, before the batch starts;
//! 2. each worker takes the next unit index off one shared atomic
//!    cursor until the index runs past the last unit, so a worker that
//!    drew cheap units simply takes more of them and an expensive cell
//!    cannot strand the grid on one core. A one-worker batch drains on
//!    the calling thread, a larger one on `workers` scoped threads;
//! 3. each worker hands back its outcomes tagged with their unit index,
//!    and they are folded in index order — the merge is the serial loop
//!    replayed, so parallel output is **bit-identical** to serial output
//!    for a fixed seed (asserted by `parity_with_serial_reference`
//!    below).
//!
//! Progress is reported through an optional callback; it fires once per
//! completed unit, from whichever worker finished it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use crate::config::ExperimentCell;
use crate::error::RunError;
use crate::runner::{CellResult, ExperimentRunner};

/// A progress tick: one `(cell × rep)` unit finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Progress {
    /// Units finished so far (including this one).
    pub completed: usize,
    /// Total units scheduled for the batch.
    pub total: usize,
    /// Index into the submitted cell slice of the finished unit.
    pub cell: usize,
    /// Repetition index of the finished unit.
    pub rep: u32,
}

/// Wall-clock accounting for one batch. Purely observational — the
/// timings never feed back into scheduling or results, so parallel
/// output stays bit-identical to serial.
#[derive(Debug, Clone, Default)]
pub struct ExecStats {
    /// Worker threads the batch actually used.
    pub workers: usize,
    /// `(cell × rep)` units executed.
    pub units: usize,
    /// Wall time for the whole batch, from flattening the cells to the
    /// end of the merge.
    pub wall: Duration,
    /// Units each worker took off the cursor and completed.
    pub worker_units: Vec<usize>,
    /// Time each worker spent inside repetitions (excludes taking units
    /// off the cursor and waiting for the batch to end).
    pub worker_busy: Vec<Duration>,
    /// Frame-pool counters aggregated over the batch's workers. Each
    /// worker resets its thread's counters when it starts draining, so
    /// its end snapshot is exactly its batch contribution, on a scoped
    /// thread and on the calling thread alike; the aggregate's
    /// `live_peak` sums per-worker peaks and is therefore an upper bound
    /// on the true simultaneous peak.
    pub pool: bytes::pool::PoolStats,
}

impl ExecStats {
    /// Mean per-unit execution time, if any units ran.
    pub fn mean_unit(&self) -> Option<Duration> {
        let busy: Duration = self.worker_busy.iter().sum();
        (self.units > 0).then(|| busy / self.units as u32)
    }

    /// One-line human summary for benches and CLI `--verbose` output.
    pub fn summary(&self) -> String {
        let mean = self
            .mean_unit()
            .map_or_else(|| "n/a".to_string(), |d| format!("{:.2?}", d));
        format!(
            "{} units on {} workers in {:.2?} (mean {mean}/unit, spread {:?})",
            self.units, self.workers, self.wall, self.worker_units
        )
    }
}

/// Shared-cursor scheduler for experiment cells.
///
/// ```
/// use bnm_core::exec::Executor;
/// use bnm_core::{ExperimentCell, RuntimeSel};
/// use bnm_browser::BrowserKind;
/// use bnm_methods::MethodId;
/// use bnm_time::OsKind;
///
/// let cell = ExperimentCell::builder(
///     MethodId::XhrGet,
///     RuntimeSel::Browser(BrowserKind::Chrome),
///     OsKind::Ubuntu1204,
/// )
/// .reps(4)
/// .build()
/// .unwrap();
/// let results = Executor::new().run(std::slice::from_ref(&cell));
/// assert_eq!(results[0].as_ref().unwrap().d1.len(), 4);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Executor {
    workers: usize,
}

impl Executor {
    /// An executor sized to the machine (`available_parallelism`).
    pub fn new() -> Executor {
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Executor { workers }
    }

    /// An executor with an explicit worker count (clamped to ≥ 1).
    pub fn with_workers(workers: usize) -> Executor {
        Executor {
            workers: workers.max(1),
        }
    }

    /// A single-worker executor: runs units in submission order on the
    /// calling thread, no threads spawned.
    pub fn serial() -> Executor {
        Executor { workers: 1 }
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Run a batch of cells; one `Result` per input cell, in input order.
    ///
    /// Unrunnable cells (Table 2) yield `Err(RunError::Unrunnable)`
    /// without scheduling any work; every other cell in the batch still
    /// completes.
    pub fn run(&self, cells: &[ExperimentCell]) -> Vec<Result<CellResult, RunError>> {
        self.run_with_progress(cells, |_| {})
    }

    /// [`run`](Executor::run) with a progress callback.
    ///
    /// The callback fires once per finished `(cell × rep)` unit and may
    /// be called concurrently from worker threads; `completed` is
    /// monotone per observer but ticks for different cells interleave
    /// arbitrarily.
    pub fn run_with_progress<F>(
        &self,
        cells: &[ExperimentCell],
        on_progress: F,
    ) -> Vec<Result<CellResult, RunError>>
    where
        F: Fn(Progress) + Sync,
    {
        self.run_with_stats(cells, on_progress).0
    }

    /// [`run_with_progress`](Executor::run_with_progress), additionally
    /// reporting wall-clock [`ExecStats`] for the batch. The stats are
    /// observational only; results are unaffected.
    pub fn run_with_stats<F>(
        &self,
        cells: &[ExperimentCell],
        on_progress: F,
    ) -> (Vec<Result<CellResult, RunError>>, ExecStats)
    where
        F: Fn(Progress) + Sync,
    {
        let batch_start = Instant::now();
        let mut slots: Vec<Result<CellResult, RunError>> = Vec::with_capacity(cells.len());
        let mut units: Vec<(usize, u32)> = Vec::new();
        for (idx, cell) in cells.iter().enumerate() {
            if cell.is_runnable() {
                slots.push(Ok(CellResult::default()));
                units.extend((0..cell.reps).map(|rep| (idx, rep)));
            } else {
                slots.push(Err(RunError::unrunnable(cell)));
            }
        }

        let total = units.len();
        let workers = self.workers.min(total.max(1));
        // Both counters publish no other data: the atomic add hands each
        // index out once under any ordering, and the outcomes travel
        // back through the joins.
        let cursor = AtomicUsize::new(0);
        let completed = AtomicUsize::new(0);
        let drain = || {
            // The worker's pool contribution is its thread's counter
            // delta from here to the end of the drain; resetting makes
            // the end snapshot that delta directly.
            bytes::pool::reset_stats();
            let mut outcomes = Vec::new();
            let mut busy = Duration::ZERO;
            loop {
                let unit = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(&(cell, rep)) = units.get(unit) else {
                    break;
                };
                let unit_start = Instant::now();
                outcomes.push((unit, ExperimentRunner::run_rep_traced(&cells[cell], rep)));
                busy += unit_start.elapsed();
                on_progress(Progress {
                    completed: completed.fetch_add(1, Ordering::Relaxed) + 1,
                    total,
                    cell,
                    rep,
                });
            }
            (outcomes, busy, bytes::pool::stats())
        };
        let drained = if workers == 1 {
            vec![drain()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..workers).map(|_| scope.spawn(drain)).collect();
                // Join explicitly: unlike the scope's implicit wait, a
                // join returns only once each worker thread has fully
                // exited and handed its allocator arena back, so the next
                // batch's workers reuse those arenas instead of growing
                // new ones.
                handles
                    .into_iter()
                    .map(|h| {
                        h.join()
                            .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                    })
                    .collect()
            })
        };

        let mut stats = ExecStats {
            workers,
            units: total,
            ..ExecStats::default()
        };
        let mut outcomes = Vec::with_capacity(total);
        for (worker_outcomes, busy, pool) in drained {
            stats.worker_units.push(worker_outcomes.len());
            stats.worker_busy.push(busy);
            stats.pool.absorb(&pool);
            outcomes.extend(worker_outcomes);
        }
        // Unit-index order is `(cell, rep)` order — exactly the order the
        // serial loop folds them in, which is what makes parallel output
        // bit-identical to serial. The fold itself lives on CellResult
        // so the monitor and any other replay path aggregate identically.
        outcomes.sort_unstable_by_key(|&(unit, _)| unit);
        for (unit, outcome) in outcomes {
            let cell = units[unit].0;
            let Ok(result) = &mut slots[cell] else {
                unreachable!("units are only scheduled for runnable cells");
            };
            result.fold_outcome(outcome, cells[cell].streaming.session_retention);
        }
        stats.wall = batch_start.elapsed();
        (slots, stats)
    }
}

impl Default for Executor {
    fn default() -> Self {
        Executor::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeSel;
    use bnm_browser::BrowserKind;
    use bnm_methods::MethodId;
    use bnm_time::OsKind;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn grid() -> Vec<ExperimentCell> {
        [
            (MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204),
            (
                MethodId::WebSocket,
                BrowserKind::Firefox,
                OsKind::Ubuntu1204,
            ),
            (MethodId::Dom, BrowserKind::Opera, OsKind::Windows7),
        ]
        .into_iter()
        .map(|(m, b, os)| ExperimentCell::paper(m, RuntimeSel::Browser(b), os).with_reps(6))
        .collect()
    }

    /// The tentpole guarantee: parallel output is bit-identical to the
    /// serial reference, for every cell, at a fixed seed.
    #[test]
    fn parity_with_serial_reference() {
        let cells = grid();
        let serial = Executor::serial().run(&cells);
        let parallel = Executor::with_workers(4).run(&cells);
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            assert_eq!(s.d1, p.d1);
            assert_eq!(s.d2, p.d2);
            assert_eq!(s.failures, p.failures);
            assert_eq!(s.excluded_rounds, p.excluded_rounds);
            assert_eq!(s.measurements.len(), p.measurements.len());
        }
    }

    #[test]
    fn unrunnable_cell_fails_without_sinking_the_batch() {
        let mut cells = grid();
        cells.insert(
            1,
            ExperimentCell::paper(
                MethodId::WebSocket,
                RuntimeSel::Browser(BrowserKind::Ie9),
                OsKind::Windows7,
            )
            .with_reps(6),
        );
        let results = Executor::with_workers(3).run(&cells);
        assert!(matches!(results[1], Err(RunError::Unrunnable { .. })));
        for (i, r) in results.iter().enumerate() {
            if i != 1 {
                let r = r.as_ref().unwrap();
                assert_eq!(r.d1.len(), 6, "cell {i} completed despite the bad cell");
            }
        }
    }

    #[test]
    fn progress_ticks_once_per_unit() {
        let cells = grid();
        let total_units: usize = cells.iter().map(|c| c.reps as usize).sum();
        let ticks = AtomicUsize::new(0);
        let max_completed = AtomicUsize::new(0);
        Executor::with_workers(4).run_with_progress(&cells, |p| {
            ticks.fetch_add(1, Ordering::Relaxed);
            max_completed.fetch_max(p.completed, Ordering::Relaxed);
            assert_eq!(p.total, total_units);
            assert!(p.cell < 3);
        });
        assert_eq!(ticks.load(Ordering::Relaxed), total_units);
        assert_eq!(max_completed.load(Ordering::Relaxed), total_units);
    }

    #[test]
    fn zero_reps_yields_an_empty_ok_result() {
        let cells = vec![ExperimentCell::paper(
            MethodId::XhrGet,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        )
        .with_reps(0)];
        let r = Executor::new().run(&cells);
        let r = r[0].as_ref().unwrap();
        assert!(r.d1.is_empty() && r.d2.is_empty() && r.failures == 0);
    }

    #[test]
    fn empty_batch_is_fine() {
        assert!(Executor::new().run(&[]).is_empty());
    }

    #[test]
    fn stats_account_for_every_unit() {
        let cells = grid();
        let total: usize = cells.iter().map(|c| c.reps as usize).sum();
        let (results, stats) = Executor::with_workers(4).run_with_stats(&cells, |_| {});
        assert_eq!(results.len(), cells.len());
        assert_eq!(stats.units, total);
        assert_eq!(stats.workers, 4);
        assert_eq!(stats.worker_units.len(), stats.workers);
        assert_eq!(stats.worker_units.iter().sum::<usize>(), total);
        assert!(stats.mean_unit().is_some());
        assert!(stats.summary().contains("workers"));
        let (_, empty) = Executor::new().run_with_stats(&[], |_| {});
        assert_eq!(empty.mean_unit(), None);
    }

    #[test]
    fn worker_counts_are_clamped() {
        assert_eq!(Executor::with_workers(0).workers(), 1);
        assert!(Executor::new().workers() >= 1);
    }
}
