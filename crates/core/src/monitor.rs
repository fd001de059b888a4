//! Continuous monitoring: repeated measurement rounds folded into
//! bounded-memory windows over virtual time.
//!
//! Batch runs ([`ExperimentRunner::try_run`]) execute N repetitions,
//! retain everything and report once. The ROADMAP's north star is a
//! long-running service, and that inverts the shape: rounds arrive
//! forever, nothing can be retained per-round, and the summary must be
//! pollable *mid-run*. [`Monitor`] is that loop:
//!
//! * it drives the cell's scenario one repetition at a time over a
//!   virtual clock (one round period apart, 1 s unless
//!   [`Monitor::with_period`] says otherwise), reusing the exact batch
//!   repetition machinery — a monitored round is bit-identical to the
//!   same `(cell, rep)` of a batch run;
//! * each round's Δd samples (every session of the crowd), exclusions
//!   and failures fold into one ring of per-pan records (a pan is one
//!   second of virtual time), plus lifetime sketches — memory is
//!   bounded by the longest window and the sketch resolution, never by
//!   the round count;
//! * [`Monitor::snapshot`] can be called at any point and yields a
//!   [`ReportSnapshot`] — the same summary shape
//!   [`CellResult::summary`](crate::runner::CellResult::summary)
//!   produces for batch runs — whose windows (the last 1 s, 10 s and
//!   1 min, ending at the pan of the last round) merge their suffix of
//!   the ring, and whose quantiles carry the sketch's documented
//!   relative-error bound.
//!
//! Note one deliberate difference from the batch flat `d1`/`d2`
//! vectors: the monitor folds *all* sessions' measurements into its
//! windows (a crowd-wide view), while batch summaries digest the
//! reference session. Parity tests therefore compare the monitor
//! against exact quantiles over all sessions of the equivalent batch
//! repetitions.

use std::collections::VecDeque;

use bnm_sim::time::{SimDuration, SimTime};
use bnm_stats::QuantileSketch;

use crate::config::ExperimentCell;
use crate::error::RunError;
use crate::report::{DistSummary, ReportSnapshot, WindowReport};
use crate::runner::ExperimentRunner;

/// Width of a pan, the tumbling interval every window is built from.
const PAN: SimDuration = SimDuration::from_secs(1);

/// The windows, as `(label, span in pans)`: the last second, ten
/// seconds and minute of virtual time.
const WINDOWS: [(&str, u64); 3] = [("1s", 1), ("10s", 10), ("1m", 60)];

/// Pans the ring keeps: the longest window's span.
const RING_PANS: u64 = WINDOWS[2].1;

/// One pan's share of every window: what the rounds whose virtual time
/// falls inside it contributed. Its sketches use the default accuracy
/// (`DEFAULT_ALPHA`), like the lifetime digests.
#[derive(Debug, Clone, Default)]
struct Pan {
    index: u64,
    d1: QuantileSketch,
    d2: QuantileSketch,
    rounds: u64,
    excluded: u64,
    failures: u64,
}

/// Memory gauges of a running monitor. Each is bounded by the longest
/// window and the sketch resolution — a parity test asserts they stay
/// flat between round 100 and round 1,000 of the same run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MonitorFootprint {
    /// Pans in the ring (at most 60).
    pub pans: usize,
    /// Occupied sketch buckets summed over the ring's pans and the two
    /// lifetime sketches.
    pub sketch_buckets: usize,
}

/// The continuous measurement loop. See the module docs.
///
/// A `Monitor` is deterministic: two monitors built from the same cell
/// and period, stepped the same number of times, produce `==`
/// [`ReportSnapshot`]s — each round derives entirely from
/// `(cell.seed, rep)`.
#[derive(Debug, Clone)]
pub struct Monitor {
    cell: ExperimentCell,
    period: SimDuration,
    /// The pans of the last minute that held a round, ascending index;
    /// the newest is the pan of the last round.
    pans: VecDeque<Pan>,
    lifetime_d1: QuantileSketch,
    lifetime_d2: QuantileSketch,
    rounds_run: u64,
    excluded: u64,
    failures: u64,
    next_rep: u32,
    now: SimTime,
}

impl Monitor {
    /// A monitor over `cell` with one round per second of virtual time.
    pub fn new(cell: ExperimentCell) -> Result<Monitor, RunError> {
        Monitor::with_period(cell, SimDuration::from_secs(1))
    }

    /// A monitor whose rounds fire `period` of virtual time apart.
    ///
    /// Fails up-front with [`RunError::Unrunnable`] for a cell the
    /// runtime cannot execute (so the loop cannot spin failures
    /// forever) or [`RunError::InvalidInput`] for a zero period.
    pub fn with_period(cell: ExperimentCell, period: SimDuration) -> Result<Monitor, RunError> {
        if period == SimDuration::ZERO {
            return Err(RunError::InvalidInput("round period must be positive"));
        }
        if !cell.is_runnable() {
            return Err(RunError::unrunnable(&cell));
        }
        Ok(Monitor {
            cell,
            period,
            pans: VecDeque::new(),
            lifetime_d1: QuantileSketch::default(),
            lifetime_d2: QuantileSketch::default(),
            rounds_run: 0,
            excluded: 0,
            failures: 0,
            next_rep: 0,
            now: SimTime::ZERO,
        })
    }

    /// The monitored cell.
    pub fn cell(&self) -> &ExperimentCell {
        &self.cell
    }

    /// Current virtual time (seconds the monitor has covered so far).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Rounds attempted so far.
    pub fn rounds_run(&self) -> u64 {
        self.rounds_run
    }

    /// Run one measurement round at the current virtual time, fold it
    /// into its pan and the lifetime digests, then advance the clock by
    /// the round period.
    ///
    /// The round is the batch repetition `next_rep` of the same cell —
    /// bit-identical to what `ExperimentRunner::try_run` would have
    /// produced for that rep — so a monitor replaying N rounds sees
    /// exactly the samples of an N-rep batch run.
    pub fn step(&mut self) {
        let index = self.now.as_nanos() / PAN.as_nanos();
        let oldest = index.saturating_sub(RING_PANS - 1);
        while self.pans.front().is_some_and(|p| p.index < oldest) {
            self.pans.pop_front();
        }
        if self.pans.back().is_none_or(|p| p.index != index) {
            self.pans.push_back(Pan {
                index,
                ..Pan::default()
            });
        }
        let pan = self.pans.back_mut().expect("the round's pan exists");
        pan.rounds += 1;
        match ExperimentRunner::run_rep_traced(&self.cell, self.next_rep) {
            Ok(rep) => {
                pan.excluded += rep.excluded as u64;
                self.excluded += rep.excluded as u64;
                for m in &rep.measurements {
                    let v = m.delta_d_ms();
                    let (lifetime, windowed) = match m.round {
                        1 => (&mut self.lifetime_d1, &mut pan.d1),
                        _ => (&mut self.lifetime_d2, &mut pan.d2),
                    };
                    lifetime.insert(v);
                    windowed.insert(v);
                }
            }
            Err(_) => {
                pan.failures += 1;
                self.failures += 1;
            }
        }
        self.rounds_run += 1;
        self.next_rep += 1;
        self.now += self.period;
    }

    /// Step until `duration` of virtual time has elapsed.
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.now + duration;
        while self.now < end {
            self.step();
        }
    }

    /// One window's report: the pans within `span` pans of the last
    /// round's, merged oldest first.
    fn window(&self, label: &str, span: u64) -> WindowReport {
        let last = self.pans.back().map_or(0, |p| p.index);
        let start = self.pans.partition_point(|p| p.index + span <= last);
        let mut d1 = QuantileSketch::default();
        let mut d2 = QuantileSketch::default();
        let (mut rounds, mut excluded_rounds, mut failures) = (0, 0, 0);
        for p in self.pans.range(start..) {
            d1.merge(&p.d1);
            d2.merge(&p.d2);
            rounds += p.rounds;
            excluded_rounds += p.excluded;
            failures += p.failures;
        }
        let mut pooled = d1.clone();
        pooled.merge(&d2);
        WindowReport {
            label: label.into(),
            span_secs: Some(span as f64 * PAN.as_secs_f64()),
            rounds,
            excluded_rounds,
            failures,
            d1: DistSummary::of_sketch(&d1),
            d2: DistSummary::of_sketch(&d2),
            pooled: DistSummary::of_sketch(&pooled),
        }
    }

    /// Poll the current state: per-window digests plus the lifetime
    /// `"total"` window, in bounded time and memory. Callable mid-run
    /// as often as desired; it never perturbs the measurement loop.
    pub fn snapshot(&self) -> ReportSnapshot {
        let mut windows: Vec<WindowReport> = WINDOWS
            .iter()
            .map(|&(label, span)| self.window(label, span))
            .collect();
        let mut pooled = self.lifetime_d1.clone();
        pooled.merge(&self.lifetime_d2);
        windows.push(WindowReport {
            label: "total".into(),
            span_secs: None,
            rounds: self.rounds_run,
            excluded_rounds: self.excluded,
            failures: self.failures,
            d1: DistSummary::of_sketch(&self.lifetime_d1),
            d2: DistSummary::of_sketch(&self.lifetime_d2),
            pooled: DistSummary::of_sketch(&pooled),
        });
        ReportSnapshot {
            label: self.cell.label(),
            at_secs: self.now.as_secs_f64(),
            rounds: self.rounds_run,
            samples: self.lifetime_d1.count() + self.lifetime_d2.count(),
            excluded_rounds: self.excluded,
            failures: self.failures,
            relative_error_bound: self.lifetime_d1.relative_error_bound(),
            windows,
            datagram: None,
            link: None,
        }
    }

    /// Current memory gauges (see [`MonitorFootprint`]).
    pub fn footprint(&self) -> MonitorFootprint {
        let ring: usize = self
            .pans
            .iter()
            .map(|p| p.d1.bucket_count() + p.d2.bucket_count())
            .sum();
        MonitorFootprint {
            pans: self.pans.len(),
            sketch_buckets: ring
                + self.lifetime_d1.bucket_count()
                + self.lifetime_d2.bucket_count(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ContentionSpec, RuntimeSel, StreamingSpec};
    use bnm_browser::BrowserKind;
    use bnm_methods::MethodId;
    use bnm_sim::Impairment;
    use bnm_time::OsKind;

    fn cell(reps: u32) -> ExperimentCell {
        ExperimentCell::builder(
            MethodId::XhrGet,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        )
        .reps(reps)
        .seed(0x5E17_0001)
        .build()
        .unwrap()
    }

    #[test]
    fn zero_period_is_rejected() {
        assert!(matches!(
            Monitor::with_period(cell(1), SimDuration::ZERO),
            Err(RunError::InvalidInput(_))
        ));
    }

    #[test]
    fn unrunnable_cells_are_rejected_up_front() {
        // IE9 has no WebSocket support in the paper's matrix (Table 2).
        let c = ExperimentCell::builder(
            MethodId::WebSocket,
            RuntimeSel::Browser(BrowserKind::Ie9),
            OsKind::Windows7,
        )
        .build_unchecked();
        assert!(matches!(Monitor::new(c), Err(RunError::Unrunnable { .. })));
    }

    #[test]
    fn monitored_rounds_match_batch_reps() {
        let c = cell(3);
        let batch = ExperimentRunner::try_run(&c).unwrap();
        let mut m = Monitor::new(c).unwrap();
        for _ in 0..3 {
            m.step();
        }
        let snap = m.snapshot();
        assert_eq!(snap.rounds, 3);
        assert_eq!(snap.total().d1.count as usize, batch.d1.len());
        // Same reps, same samples: lifetime min/max are exact in the
        // sketch, so they must equal the batch extremes.
        let exact = DistSummary::of_samples(&batch.d1);
        assert_eq!(snap.total().d1.min, exact.min);
        assert_eq!(snap.total().d1.max, exact.max);
    }

    #[test]
    fn windows_rotate_with_virtual_time() {
        let mut m = Monitor::new(cell(12)).unwrap();
        for _ in 0..12 {
            m.step();
        }
        let snap = m.snapshot();
        let labels: Vec<&str> = snap.windows.iter().map(|w| w.label.as_str()).collect();
        assert_eq!(labels, ["1s", "10s", "1m", "total"]);
        assert_eq!(snap.windows[0].rounds, 1, "tumbling window: last round");
        assert_eq!(snap.windows[1].rounds, 10, "sliding window: last ten");
        assert_eq!(snap.windows[2].rounds, 12);
        assert_eq!(snap.total().rounds, 12);
        // Each clean single-client round contributes one d1 + one d2.
        assert_eq!(snap.windows[0].d1.count, 1);
        assert_eq!(snap.windows[1].d1.count, 10);
    }

    #[test]
    fn snapshots_are_deterministic() {
        let c = cell(4)
            .clone()
            .with_streaming(StreamingSpec::serve())
            .with_contention(ContentionSpec::clients(3).with_server_link_rate(2_000_000));
        let run = |c: &ExperimentCell| {
            let mut m = Monitor::new(c.clone()).unwrap();
            m.run_for(SimDuration::from_secs(4));
            m.snapshot()
        };
        let a = run(&c);
        let b = run(&c);
        assert_eq!(a, b, "same cell, same steps, same snapshot bits");
        assert_eq!(a.at_secs, 4.0);
    }

    #[test]
    fn footprint_gauges_track_pans_and_buckets() {
        let mut m = Monitor::new(cell(20)).unwrap();
        assert_eq!(m.footprint(), MonitorFootprint::default());
        m.run_for(SimDuration::from_secs(20));
        let f = m.footprint();
        // 20 one-second rounds fill 20 pans of the 60-pan ring.
        assert_eq!(f.pans, 20);
        assert!(f.sketch_buckets > 0);
    }

    /// What the rounds whose pan lies in `(last - span, last]` add up
    /// to, summed from the batch repetitions the monitor replays.
    #[derive(Debug, Default, PartialEq)]
    struct Expected {
        rounds: u64,
        excluded: u64,
        failures: u64,
        d1: u64,
        d2: u64,
    }

    /// Step a monitor at `period` past 70 s of virtual time and,
    /// after every step, hold each window to an independent model built
    /// from `ExperimentRunner::run_rep_traced` outcomes. Returns the
    /// final snapshot.
    fn check_windows(c: &ExperimentCell, period: SimDuration) -> ReportSnapshot {
        let mut m = Monitor::with_period(c.clone(), period).unwrap();
        let pan_of = |k: u64| k * period.as_nanos() / 1_000_000_000;
        let mut outcomes = Vec::new();
        while m.now() <= SimTime::from_secs(70) {
            let k = outcomes.len() as u64;
            outcomes.push(match ExperimentRunner::run_rep_traced(c, k as u32) {
                Ok(rep) => {
                    let d1 = rep.measurements.iter().filter(|r| r.round == 1).count();
                    let d2 = rep.measurements.len() - d1;
                    (rep.excluded as u64, 0, d1 as u64, d2 as u64)
                }
                Err(_) => (0, 1, 0, 0),
            });
            m.step();
            let snap = m.snapshot();
            let last = pan_of(k);
            for (w, span) in snap.windows.iter().zip([1, 10, 60]) {
                let mut want = Expected::default();
                for (j, &(excluded, failures, d1, d2)) in outcomes.iter().enumerate() {
                    if pan_of(j as u64) + span > last {
                        want.rounds += 1;
                        want.excluded += excluded;
                        want.failures += failures;
                        want.d1 += d1;
                        want.d2 += d2;
                    }
                }
                let got = Expected {
                    rounds: w.rounds,
                    excluded: w.excluded_rounds,
                    failures: w.failures,
                    d1: w.d1.count,
                    d2: w.d2.count,
                };
                assert_eq!(got, want, "{period:?} round {k}, window {}", w.label);
            }
        }
        m.snapshot()
    }

    #[test]
    fn windows_hold_the_rounds_of_their_pans_at_any_period() {
        // Several rounds per pan, one per pan, empty pans between
        // rounds, and rounds more than the longest window apart; the
        // loss gives the counters exclusions to carry.
        let lossy = cell(1).with_impairment(Impairment::loss(0.1));
        let excluded: u64 = [250, 1_000, 1_250, 7_000, 61_000]
            .into_iter()
            .map(|ms| check_windows(&lossy, SimDuration::from_millis(ms)).excluded_rounds)
            .sum();
        assert!(excluded > 0, "the loss must give the counters exclusions");
        // A cell whose every round fails carries failures instead.
        let failing = cell(1).with_contention(ContentionSpec::clients(1).with_server_link_rate(0));
        let failed = check_windows(&failing, SimDuration::from_millis(7_000));
        assert_eq!(failed.failures, failed.rounds);
    }
}
