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
//!   virtual clock ([`MonitorConfig::round_period`] apart), reusing the
//!   exact batch repetition machinery — a monitored round is
//!   bit-identical to the same `(cell, rep)` of a batch run;
//! * each round's Δd samples (every session of the crowd), exclusions
//!   and failures fold incrementally into tumbling + sliding windows
//!   (1 s / 10 s / 1 min of virtual time by default) backed by
//!   [`bnm_stats::WindowedSketch`] and [`bnm_obs::WindowedCounter`],
//!   plus lifetime sketches — memory is bounded by the window spans and
//!   the sketch resolution, never by the round count;
//! * [`Monitor::snapshot`] can be called at any point and yields a
//!   [`ReportSnapshot`] — the same summary shape
//!   [`CellResult::summary`](crate::runner::CellResult::summary)
//!   produces for batch runs — whose quantiles carry the sketch's
//!   documented relative-error bound.
//!
//! Note one deliberate difference from the batch flat `d1`/`d2`
//! vectors: the monitor folds *all* sessions' measurements into its
//! windows (a crowd-wide view), while batch summaries digest the
//! reference session. Parity tests therefore compare the monitor
//! against exact quantiles over all sessions of the equivalent batch
//! repetitions.

use bnm_obs::WindowedCounter;
use bnm_sim::time::{SimDuration, SimTime};
use bnm_stats::sketch::DEFAULT_ALPHA;
use bnm_stats::{QuantileSketch, WindowedSketch};

use crate::config::ExperimentCell;
use crate::error::RunError;
use crate::report::{DistSummary, ReportSnapshot, WindowReport};
use crate::runner::ExperimentRunner;

/// Shape of the monitoring loop: how often rounds fire and how the
/// aggregation windows tile virtual time.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorConfig {
    /// Virtual time between consecutive measurement rounds.
    pub round_period: SimDuration,
    /// The tumbling base interval windows are built from.
    pub pan: SimDuration,
    /// Window spans, in pans. A `1` is a tumbling window of one pan;
    /// larger values slide. The default (with 1 s pans) is
    /// `[1, 10, 60]` — last second, last ten seconds, last minute.
    pub window_pans: Vec<u32>,
    /// Sketch accuracy (DDSketch α) for every window and the lifetime
    /// digests; must lie in `(0, 1)`, and the sketch clamps it further
    /// to `[1e-4, 0.25]`.
    pub alpha: f64,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            round_period: SimDuration::from_secs(1),
            pan: SimDuration::from_secs(1),
            window_pans: vec![1, 10, 60],
            alpha: DEFAULT_ALPHA,
        }
    }
}

impl MonitorConfig {
    fn validate(&self) -> Result<(), RunError> {
        if self.round_period == SimDuration::ZERO {
            return Err(RunError::InvalidInput("round_period must be positive"));
        }
        if self.pan == SimDuration::ZERO {
            return Err(RunError::InvalidInput("pan must be positive"));
        }
        if self.window_pans.is_empty() {
            return Err(RunError::InvalidInput("at least one window is required"));
        }
        if self.window_pans.contains(&0) {
            return Err(RunError::InvalidInput("window spans must be positive"));
        }
        // Checked here because the sketch's `f64::clamp` passes NaN
        // through.
        if !self.alpha.is_finite() || self.alpha <= 0.0 || self.alpha >= 1.0 {
            return Err(RunError::InvalidInput("alpha must lie in (0, 1)"));
        }
        Ok(())
    }
}

/// Human label for a window span: `"1s"`, `"10s"`, `"1m"`, `"500ms"`.
fn span_label(span: SimDuration) -> String {
    let ns = span.as_nanos();
    const SEC: u64 = 1_000_000_000;
    if ns >= 60 * SEC && ns.is_multiple_of(60 * SEC) {
        format!("{}m", ns / (60 * SEC))
    } else if ns >= SEC && ns.is_multiple_of(SEC) {
        format!("{}s", ns / SEC)
    } else {
        format!("{}ms", ns / 1_000_000)
    }
}

/// One aggregation window's live state.
#[derive(Debug, Clone)]
struct MonitorWindow {
    label: String,
    span: SimDuration,
    d1: WindowedSketch,
    d2: WindowedSketch,
    rounds: WindowedCounter,
    excluded: WindowedCounter,
    failures: WindowedCounter,
}

impl MonitorWindow {
    fn new(pan: SimDuration, span_pans: u32, alpha: f64) -> MonitorWindow {
        let pan_ns = pan.as_nanos();
        let span = SimDuration::from_nanos(pan_ns.saturating_mul(span_pans as u64));
        MonitorWindow {
            label: span_label(span),
            span,
            d1: WindowedSketch::new(alpha, pan_ns, span_pans as usize),
            d2: WindowedSketch::new(alpha, pan_ns, span_pans as usize),
            rounds: WindowedCounter::new(pan_ns, span_pans as usize),
            excluded: WindowedCounter::new(pan_ns, span_pans as usize),
            failures: WindowedCounter::new(pan_ns, span_pans as usize),
        }
    }

    fn report(&self) -> WindowReport {
        let d1 = self.d1.merged();
        let d2 = self.d2.merged();
        let mut pooled = d1.clone();
        pooled.merge(&d2);
        WindowReport {
            label: self.label.clone(),
            span_secs: Some(self.span.as_secs_f64()),
            rounds: self.rounds.total(),
            excluded_rounds: self.excluded.total(),
            failures: self.failures.total(),
            d1: DistSummary::of_sketch(&d1),
            d2: DistSummary::of_sketch(&d2),
            pooled: DistSummary::of_sketch(&pooled),
        }
    }
}

/// Memory gauges of a running monitor. Each is bounded by the window
/// spans and sketch resolution — a parity test asserts they stay flat
/// between round 100 and round 1,000 of the same run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MonitorFootprint {
    /// Live sketch pans summed over all windows (d1 + d2).
    pub sketch_pans: usize,
    /// Occupied sketch buckets summed over all windows and the two
    /// lifetime sketches.
    pub sketch_buckets: usize,
    /// Live counter pans summed over all windows.
    pub counter_pans: usize,
}

/// The continuous measurement loop. See the module docs.
///
/// A `Monitor` is deterministic: two monitors built from the same cell
/// and config, stepped the same number of times, produce `==`
/// [`ReportSnapshot`]s — each round derives entirely from
/// `(cell.seed, rep)`.
#[derive(Debug, Clone)]
pub struct Monitor {
    cell: ExperimentCell,
    cfg: MonitorConfig,
    windows: Vec<MonitorWindow>,
    lifetime_d1: QuantileSketch,
    lifetime_d2: QuantileSketch,
    rounds_run: u64,
    excluded: u64,
    failures: u64,
    next_rep: u32,
    now: SimTime,
}

impl Monitor {
    /// A monitor over `cell` with the default window layout
    /// (1 s rounds; 1 s / 10 s / 1 min windows).
    pub fn new(cell: ExperimentCell) -> Result<Monitor, RunError> {
        Monitor::with_config(cell, MonitorConfig::default())
    }

    /// A monitor with an explicit [`MonitorConfig`].
    ///
    /// Fails up-front with [`RunError::Unrunnable`] for a cell the
    /// runtime cannot execute (so the loop cannot spin failures
    /// forever) or [`RunError::InvalidInput`] for a bad config.
    pub fn with_config(cell: ExperimentCell, cfg: MonitorConfig) -> Result<Monitor, RunError> {
        cfg.validate()?;
        if !cell.is_runnable() {
            return Err(RunError::unrunnable(&cell));
        }
        let windows = cfg
            .window_pans
            .iter()
            .map(|span| MonitorWindow::new(cfg.pan, *span, cfg.alpha))
            .collect();
        let lifetime = QuantileSketch::new(cfg.alpha);
        Ok(Monitor {
            cell,
            cfg,
            windows,
            lifetime_d1: lifetime.clone(),
            lifetime_d2: lifetime,
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

    /// Run one measurement round at the current virtual time and fold
    /// it into every window, then advance the clock by
    /// [`MonitorConfig::round_period`].
    ///
    /// The round is the batch repetition `next_rep` of the same cell —
    /// bit-identical to what `ExperimentRunner::try_run` would have
    /// produced for that rep — so a monitor replaying N rounds sees
    /// exactly the samples of an N-rep batch run.
    pub fn step(&mut self) {
        let t = self.now.as_nanos();
        for w in &mut self.windows {
            w.d1.advance(t);
            w.d2.advance(t);
            w.rounds.advance(t);
            w.excluded.advance(t);
            w.failures.advance(t);
        }
        match ExperimentRunner::run_rep_traced(&self.cell, self.next_rep) {
            Ok(rep) => {
                for w in &mut self.windows {
                    w.rounds.add(t, 1);
                    w.excluded.add(t, rep.excluded as u64);
                }
                self.excluded += rep.excluded as u64;
                for m in &rep.measurements {
                    let v = m.delta_d_ms();
                    match m.round {
                        1 => {
                            self.lifetime_d1.insert(v);
                            for w in &mut self.windows {
                                w.d1.record(t, v);
                            }
                        }
                        _ => {
                            self.lifetime_d2.insert(v);
                            for w in &mut self.windows {
                                w.d2.record(t, v);
                            }
                        }
                    }
                }
            }
            Err(_) => {
                for w in &mut self.windows {
                    w.rounds.add(t, 1);
                    w.failures.add(t, 1);
                }
                self.failures += 1;
            }
        }
        self.rounds_run += 1;
        self.next_rep += 1;
        self.now += self.cfg.round_period;
    }

    /// Step until `duration` of virtual time has elapsed.
    pub fn run_for(&mut self, duration: SimDuration) {
        let end = self.now + duration;
        while self.now < end {
            self.step();
        }
    }

    /// Poll the current state: per-window digests plus the lifetime
    /// `"total"` window, in bounded time and memory. Callable mid-run
    /// as often as desired; it never perturbs the measurement loop.
    pub fn snapshot(&self) -> ReportSnapshot {
        let mut windows: Vec<WindowReport> =
            self.windows.iter().map(MonitorWindow::report).collect();
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
        let mut f = MonitorFootprint {
            sketch_buckets: self.lifetime_d1.bucket_count() + self.lifetime_d2.bucket_count(),
            ..MonitorFootprint::default()
        };
        for w in &self.windows {
            f.sketch_pans += w.d1.live_pans() + w.d2.live_pans();
            f.sketch_buckets += w.d1.bucket_count() + w.d2.bucket_count();
            f.counter_pans +=
                w.rounds.live_pans() + w.excluded.live_pans() + w.failures.live_pans();
        }
        f
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ContentionSpec, RuntimeSel, StreamingSpec};
    use bnm_browser::BrowserKind;
    use bnm_methods::MethodId;
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
    fn invalid_configs_are_rejected() {
        let bad = MonitorConfig {
            window_pans: vec![],
            ..MonitorConfig::default()
        };
        assert!(matches!(
            Monitor::with_config(cell(1), bad),
            Err(RunError::InvalidInput(_))
        ));
        let zero_pan = MonitorConfig {
            pan: SimDuration::ZERO,
            ..MonitorConfig::default()
        };
        assert!(Monitor::with_config(cell(1), zero_pan).is_err());
        for alpha in [f64::NAN, f64::INFINITY, 0.0, 1.0] {
            let cfg = MonitorConfig {
                alpha,
                ..MonitorConfig::default()
            };
            assert!(
                matches!(
                    Monitor::with_config(cell(1), cfg),
                    Err(RunError::InvalidInput(_))
                ),
                "alpha {alpha} accepted"
            );
        }
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
        let cfg = MonitorConfig {
            window_pans: vec![1, 2],
            ..MonitorConfig::default()
        };
        let mut m = Monitor::with_config(cell(8), cfg).unwrap();
        for _ in 0..5 {
            m.step();
        }
        let snap = m.snapshot();
        assert_eq!(snap.windows.len(), 3, "two windows + total");
        assert_eq!(snap.windows[0].label, "1s");
        assert_eq!(snap.windows[1].label, "2s");
        assert_eq!(snap.total().label, "total");
        assert_eq!(snap.windows[0].rounds, 1, "tumbling window: last round");
        assert_eq!(snap.windows[1].rounds, 2, "sliding window: last two");
        assert_eq!(snap.total().rounds, 5);
        // Each clean single-client round contributes one d1 + one d2.
        assert_eq!(snap.windows[0].d1.count, 1);
        assert_eq!(snap.windows[1].d1.count, 2);
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
        // 1+10+60-pan windows, 20 rounds: the 1s window holds 1 pan,
        // the 10s window 10, the 1m window all 20 — per series.
        assert_eq!(f.sketch_pans, 2 * (1 + 10 + 20));
        assert!(f.sketch_buckets > 0);
        assert_eq!(
            f.counter_pans,
            1 + 10 + 20,
            "rounds counters only (no exclusions)"
        );
    }

    #[test]
    fn span_labels_humanize() {
        assert_eq!(span_label(SimDuration::from_secs(1)), "1s");
        assert_eq!(span_label(SimDuration::from_secs(10)), "10s");
        assert_eq!(span_label(SimDuration::from_secs(60)), "1m");
        assert_eq!(span_label(SimDuration::from_secs(120)), "2m");
        assert_eq!(span_label(SimDuration::from_millis(500)), "500ms");
    }
}
