//! The four workloads. Each has a set-up (construction plus one untimed
//! warm-up unit at a separate seed), an untraced loop that gives the
//! end-to-end metrics, a serial traced loop that gives the per-layer
//! split, and output checks that hold for every seed.
//!
//! All loads are closed loops driven from this process: the next unit
//! starts when the previous batch (or monitor round) has finished. Each
//! loop runs at least a fixed number of units, then until `--seconds`
//! have passed; the digest and `yield_share` cover only that fixed
//! prefix, so they repeat exactly for a given seed.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use bnm_browser::BrowserKind;
use bnm_core::battery::{BatteryEntry, ScenarioOutcome};
use bnm_core::recommend::appraise_snapshot;
use bnm_core::{
    run_battery, BatteryConfig, BatteryReport, BatteryScenario, CellBuilder, CellResult,
    ContentionSpec, ExecStats, Executor, ExperimentCell, ExperimentRunner, FaultSpec, Impairment,
    LinkDynamics, LinkShape, Monitor, RateSchedule, Render, RunError, RuntimeSel, StreamingSpec,
};
use bnm_methods::MethodId;
use bnm_sim::link::LinkSpec;
use bnm_sim::SimDuration;
use bnm_time::OsKind;

use crate::replay::{self, UnitCounts};
use crate::spans::{layer_table, Span, Tracer};
use crate::stats::{derive_seed, median, percentile, tail_percentile, Fnv64};

/// Set-ups per run: at least [`SETUP_MIN`], more while they have taken
/// less than [`SETUP_SECONDS`], at most [`SETUP_MAX`]; `setup_s` is
/// their lower quartile (see [`Measured`]), so a cheap set-up is timed
/// often enough to be steady.
const SETUP_MIN: usize = 3;
const SETUP_MAX: usize = 15;
const SETUP_SECONDS: f64 = 1.0;
/// Frame loss on the impaired workloads.
const LOSS: f64 = 0.02;

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// What a workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    pub failed_checks: Vec<String>,
    /// Repetitions attempted.
    pub attempted: u64,
    /// Repetitions that failed.
    pub failed: u64,
    /// FNV-64 of the rendered outputs of the fixed unit prefix.
    pub digest: Option<u64>,
    pub spans: Vec<Span>,
}

impl Outcome {
    fn metric(&mut self, name: impl Into<String>, value: f64, unit: &str) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit: unit.into(),
        });
    }

    fn check(&mut self, ok: bool, failure: impl FnOnce() -> String) {
        if !ok {
            self.failed_checks.push(failure());
        }
    }

    /// The lower quartile (see [`Measured`]), the median and the
    /// highest supported tail of a latency sample, with its count.
    fn latency(&mut self, name: &str, ms: &[f64]) {
        self.metric(format!("{name}.p25"), percentile(ms, 25.0), "ms");
        self.metric(format!("{name}.p50"), median(ms), "ms");
        if let Some(p) = tail_percentile(ms.len()) {
            self.metric(format!("{name}.p{p}"), percentile(ms, p), "ms");
        }
        self.metric(format!("{name}.n"), ms.len() as f64, "count");
    }
}

/// Run workload `name` for `seconds`, untraced (end-to-end metrics) or
/// traced (per-layer metrics). Inputs derive from `seed` alone.
pub fn run(name: &str, seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let ws = derive_seed(seed, name);
    let mut out = Outcome::default();
    match name {
        "battery" => drive(&mut out, seconds, traced, || Battery::setup(ws)),
        "crowd-lossy" => drive(&mut out, seconds, traced, || Crowd::setup(ws, &CROWD_LOSSY)),
        "serve-monitor" => drive(&mut out, seconds, traced, || Serve::setup(ws)),
        "dgram-crowd" => drive(&mut out, seconds, traced, || Crowd::setup(ws, &DGRAM_CROWD)),
        _ => return Err(format!("unknown workload {name:?}")),
    }
    Ok(out)
}

trait Workload {
    fn timed(&mut self, seconds: f64, out: &mut Outcome);
    fn traced(&mut self, seconds: f64, out: &mut Outcome);
}

fn drive<W: Workload>(out: &mut Outcome, seconds: f64, traced: bool, setup: impl Fn() -> W) {
    let mut times = Vec::new();
    let mut w = None;
    while times.len() < SETUP_MIN
        || (times.len() < SETUP_MAX && times.iter().sum::<f64>() < SETUP_SECONDS)
    {
        let (built, dt) = timed(&setup);
        times.push(dt.as_secs_f64());
        w = Some(built);
    }
    let mut w = w.expect("at least one set-up");
    if traced {
        w.traced(seconds, out);
    } else {
        w.timed(seconds, out);
        out.metric("setup_s", percentile(&times, 25.0), "s");
        out.metric("peak_rss_kib", peak_rss_kib(), "KiB");
    }
}

/// Keeps a loop going for at least `min` units, then until `seconds`.
struct Loop {
    started: Instant,
    seconds: f64,
    min: usize,
}

impl Loop {
    fn new(seconds: f64, min: usize) -> Loop {
        Loop {
            started: Instant::now(),
            seconds,
            min,
        }
    }

    fn more(&self, done: usize) -> bool {
        done < self.min || self.started.elapsed().as_secs_f64() < self.seconds
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Probe rounds a cell's repetitions attempt: every client runs the
/// method's plan once per repetition.
fn attempted_rounds(cell: &ExperimentCell) -> u64 {
    u64::from(cell.clients)
        * u64::from(cell.method.plan(cell.timing_override).rounds)
        * u64::from(cell.reps)
}

/// Share of the machine's cores an executor batch kept busy.
fn busy_share(stats: &ExecStats, cores: usize) -> f64 {
    let busy: Duration = stats.worker_busy.iter().sum();
    busy.as_secs_f64() / (cores as f64 * stats.wall.as_secs_f64())
}

/// Run one executor batch, recording each unit's wall time: from its
/// worker's previous completion (or the batch start) to its own.
fn run_timed_units(
    exec: &Executor,
    cell: &ExperimentCell,
    unit_ms: &mut Vec<f64>,
) -> Result<CellResult, RunError> {
    let start = Instant::now();
    let last = Mutex::new(HashMap::new());
    let done = Mutex::new(Vec::new());
    let mut results = exec.run_with_progress(std::slice::from_ref(cell), |_| {
        let now = Instant::now();
        let prev = last
            .lock()
            .expect("no progress callback panics holding the lock")
            .insert(std::thread::current().id(), now)
            .unwrap_or(start);
        done.lock()
            .expect("no progress callback panics holding the lock")
            .push(ms(now - prev));
    });
    unit_ms.extend(done.into_inner().expect("lock released"));
    results.pop().expect("one result per cell")
}

/// The end-to-end metrics every workload reports.
///
/// The gated times are the lower quartile of a run's unit times, and the
/// gated rate the upper quartile of its unit rates: what the program
/// does when the host leaves it alone. On a shared machine, neighbours
/// slow a varying part of every run; that part moved the median by up
/// to 20% from run to run while the fast quartile moved by 2–10%. The
/// median and the tail are reported too.
struct Measured {
    /// Attempted rounds per wall second, one sample per batch.
    rates: Vec<f64>,
    unit_ms: Vec<f64>,
    report_ms: Vec<f64>,
    /// Δd samples and attempted rounds over the fixed prefix.
    prefix_samples: u64,
    prefix_rounds: u64,
    digest: Fnv64,
}

impl Measured {
    fn new() -> Measured {
        Measured {
            rates: Vec::new(),
            unit_ms: Vec::new(),
            report_ms: Vec::new(),
            prefix_samples: 0,
            prefix_rounds: 0,
            digest: Fnv64::new(),
        }
    }

    fn batch(&mut self, rounds: u64, wall: Duration) {
        self.rates.push(rounds as f64 / wall.as_secs_f64());
    }

    fn finish(self, out: &mut Outcome) {
        out.metric("rounds_per_s", percentile(&self.rates, 75.0), "rounds/s");
        out.latency("unit_ms", &self.unit_ms);
        out.latency("report_ms", &self.report_ms);
        out.metric(
            "yield_share",
            self.prefix_samples as f64 / self.prefix_rounds as f64,
            "ratio",
        );
        out.digest = Some(self.digest.finish());
    }
}

/// State of a traced run: spans, per-unit counts and the replay's
/// agreement with the runner.
struct TracedRun {
    t: Tracer,
    units: usize,
    replayed: Duration,
    reference: Duration,
    counts: Vec<UnitCounts>,
    pool: Vec<bytes::pool::PoolStats>,
}

impl TracedRun {
    fn new() -> TracedRun {
        TracedRun {
            t: Tracer::new(),
            units: 0,
            replayed: Duration::ZERO,
            reference: Duration::ZERO,
            counts: Vec::new(),
            pool: Vec::new(),
        }
    }

    /// Drive one `(cell, rep)` unit with spans, fold it into `acc` when
    /// the workload folds, and check it against `run_rep_traced`.
    fn unit(
        &mut self,
        cell: &ExperimentCell,
        rep: u32,
        acc: Option<&mut CellResult>,
        out: &mut Outcome,
    ) {
        let runner = || timed(|| ExperimentRunner::run_rep_traced(cell, rep));
        // Alternate which side runs first so neither always meets the
        // caches the other warmed.
        let mut reference = (self.units % 2 == 1).then(runner);
        let mut counts = UnitCounts::default();
        bytes::pool::reset_stats();
        let (outcome, replay) = self.t.span("bench.unit", |t| {
            let (o, replay) = timed(|| replay::rep(t, cell, rep, &mut counts));
            if let Some(acc) = acc {
                let retention = cell.streaming.session_retention;
                t.span("core.runner.fold", |_| {
                    acc.fold_outcome(o.clone(), retention)
                });
            }
            (o, replay)
        });
        self.pool.push(bytes::pool::stats());
        let (reference, reference_time) = reference.take().unwrap_or_else(runner);
        self.units += 1;
        self.replayed += replay;
        self.reference += reference_time;
        self.counts.push(counts);
        out.attempted += 1;
        out.failed += u64::from(outcome.is_err());
        out.check(format!("{outcome:?}") == format!("{reference:?}"), || {
            format!(
                "traced replay diverged from run_rep_traced on {} rep {rep}",
                cell.label()
            )
        });
        if let Ok(o) = &outcome {
            let broken = o
                .datagram
                .iter()
                .filter(|(_, d)| d.delivered + d.lost_upstream + d.lost_downstream != d.sent)
                .count();
            out.check(broken == 0, || {
                format!(
                    "{} rep {rep}: probe verdicts do not add up to probes sent in {broken} sessions",
                    cell.label()
                )
            });
        }
    }

    /// Time a report under its own root span.
    fn report<R>(&mut self, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.t.span("bench.report", f)
    }

    fn finish(self, busy_share: f64, out: &mut Outcome) {
        let spans = self.t.spans();
        let (rows, unattributed) = layer_table(spans);
        for row in &rows {
            out.metric(format!("{}.self_ms", row.name), row.self_ms, "ms");
            out.metric(format!("{}.share", row.name), row.share, "ratio");
        }
        out.metric("bench.unattributed_share", unattributed, "ratio");
        out.check(unattributed <= 0.05, || {
            format!(
                "traced spans leave {:.1}% of unit wall time unattributed",
                unattributed * 100.0
            )
        });
        let per_unit = |f: &dyn Fn(&UnitCounts) -> u64| {
            median(&self.counts.iter().map(|c| f(c) as f64).collect::<Vec<_>>())
        };
        let sim_ns: u64 = spans
            .iter()
            .filter(|s| s.name == "sim.run")
            .map(Span::dur_ns)
            .sum();
        let events: u64 = self.counts.iter().map(|c| c.events).sum();
        out.metric("sim.events", per_unit(&|c| c.events), "count");
        out.metric(
            "sim.events_per_s",
            events as f64 / (sim_ns as f64 / 1e9),
            "1/s",
        );
        out.metric("sim.queue_drops", per_unit(&|c| c.queue_drops), "count");
        out.metric(
            "sim.queue_peak_bytes",
            per_unit(&|c| c.queue_peak_bytes),
            "bytes",
        );
        out.metric("capture.records", per_unit(&|c| c.capture_records), "count");
        let pool_median = |f: fn(&bytes::pool::PoolStats) -> f64| {
            median(&self.pool.iter().map(f).collect::<Vec<_>>())
        };
        let (reused, allocated) = self
            .pool
            .iter()
            .fold((0, 0), |(r, a), p| (r + p.reused, a + p.allocated));
        out.metric(
            "pool.allocated",
            pool_median(|p| p.allocated as f64),
            "count",
        );
        out.metric(
            "pool.reuse_share",
            reused as f64 / (reused + allocated) as f64,
            "ratio",
        );
        out.metric(
            "pool.live_peak",
            pool_median(|p| p.live_peak as f64),
            "count",
        );
        out.metric("core.exec.busy_share", busy_share, "ratio");
        out.metric(
            "bench.replay_overhead_share",
            self.replayed.as_secs_f64() / self.reference.as_secs_f64() - 1.0,
            "ratio",
        );
        out.spans = self.t.spans().to_vec();
    }
}

// ---------------------------------------------------------------------
// battery

/// Repetitions per battery cell: `run_battery`'s full mode.
const BATTERY_REPS: u32 = 25;
/// Batteries always run (and digested) per run.
const MIN_BATTERIES: usize = 2;

/// `run_battery`'s method roster, copied so the benchmark can count the
/// battery's work and drive its cells; the run checks the copy against
/// the labels of every report.
const ROSTER: [(MethodId, BrowserKind, OsKind); 4] = [
    (MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204),
    (MethodId::WebSocket, BrowserKind::Chrome, OsKind::Ubuntu1204),
    (MethodId::FlashGet, BrowserKind::Opera, OsKind::Windows7),
    (MethodId::WebRtc, BrowserKind::Chrome, OsKind::Ubuntu1204),
];

/// `run_battery`'s scenario transformations, copied for the same reason.
fn apply(scenario: BatteryScenario, b: CellBuilder) -> CellBuilder {
    match scenario {
        BatteryScenario::Clean => b,
        BatteryScenario::Impaired => {
            let spec = FaultSpec {
                drop_chance: 0.02,
                ..FaultSpec::CLEAN
            };
            b.impairment(Impairment {
                up: spec,
                down: spec,
                jitter: SimDuration::from_millis(5),
            })
        }
        BatteryScenario::Contended => {
            b.contention(ContentionSpec::clients(8).with_server_link_rate(2_000_000))
        }
        BatteryScenario::Bufferbloat => {
            b.contention(ContentionSpec::clients(8).with_server_link_rate(400_000))
        }
        BatteryScenario::BufferbloatAqm => b
            .contention(ContentionSpec::clients(8).with_server_link_rate(400_000))
            .link_shape(LinkShape::symmetric(LinkDynamics::codel())),
        BatteryScenario::TimeVarying => b.link_shape(LinkShape {
            down_spec: Some(LinkSpec {
                rate_bps: 2_000_000,
                ..LinkSpec::fast_ethernet()
            }),
            down: LinkDynamics::scheduled(RateSchedule::OnOff {
                period: SimDuration::from_millis(200),
                on: SimDuration::from_millis(50),
                on_bps: 256_000,
            }),
            ..LinkShape::default()
        }),
    }
}

/// The battery's cells in `run_battery`'s order, with their scenario.
fn battery_cells(cfg: &BatteryConfig) -> Vec<(BatteryScenario, ExperimentCell)> {
    let mut cells = Vec::new();
    for scenario in BatteryScenario::ALL {
        for (method, browser, os) in ROSTER {
            let b = ExperimentCell::builder(method, RuntimeSel::Browser(browser), os)
                .reps(cfg.reps)
                .seed(cfg.seed);
            match apply(scenario, b).build() {
                Ok(cell) => cells.push((scenario, cell)),
                Err(RunError::Unrunnable { .. }) => {}
                Err(e) => panic!("battery cell {method:?} in {scenario:?} is invalid: {e}"),
            }
        }
    }
    cells
}

struct Battery {
    ws: u64,
    exec: Executor,
    cells: Vec<(BatteryScenario, ExperimentCell)>,
}

impl Battery {
    fn config(&self, label: &str) -> BatteryConfig {
        BatteryConfig {
            reps: BATTERY_REPS,
            seed: derive_seed(self.ws, label),
        }
    }

    fn setup(ws: u64) -> Battery {
        let mut b = Battery {
            ws,
            exec: Executor::new(),
            cells: Vec::new(),
        };
        let warm = b.config("warmup");
        let report = run_battery(&warm, &b.exec).expect("warm-up battery runs");
        black_box(report.to_json());
        b.cells = battery_cells(&warm);
        b
    }

    /// Repetitions of a report's cells that produced nothing: failures
    /// of appraised cells plus every repetition of a cell with no data.
    fn failed_reps(report: &BatteryReport) -> u64 {
        report
            .scenarios
            .iter()
            .map(|s| {
                s.entries.iter().map(|e| e.verdict.failures).sum::<u64>()
                    + s.no_data.len() as u64 * u64::from(BATTERY_REPS)
            })
            .sum()
    }

    fn check(&self, report: &BatteryReport, out: &mut Outcome) {
        out.check(report.scenarios.len() == BatteryScenario::ALL.len(), || {
            format!(
                "battery: {} scenario families reported",
                report.scenarios.len()
            )
        });
        for s in &report.scenarios {
            let name = s.scenario.name();
            out.check(!s.entries.is_empty(), || {
                format!("battery: scenario {name} has no entries")
            });
            let mut got: Vec<String> = s
                .entries
                .iter()
                .map(|e| e.verdict.label.clone())
                .chain(s.no_data.iter().cloned())
                .collect();
            let mut want: Vec<String> = self
                .cells
                .iter()
                .filter(|(sc, _)| *sc == s.scenario)
                .map(|(_, c)| c.label())
                .collect();
            got.sort();
            want.sort();
            out.check(got == want, || {
                format!("battery: labels of {name} differ from the benchmark's battery table: {got:?} vs {want:?}")
            });
        }
        let median_of = |scenario: BatteryScenario, method: MethodId| {
            let (_, cell) = self
                .cells
                .iter()
                .find(|(s, c)| *s == scenario && c.method == method)?;
            let label = cell.label();
            report
                .scenarios
                .iter()
                .find(|s| s.scenario == scenario)?
                .entries
                .iter()
                .find(|e| e.verdict.label == label)
                .map(|e| e.verdict.median_ms)
        };
        let ws = median_of(BatteryScenario::Clean, MethodId::WebSocket);
        out.check(ws.is_some_and(|m| m < 2.0), || {
            format!("battery: WebSocket clean median Δd {ws:?} ms is not below 2 ms")
        });
        let clean = median_of(BatteryScenario::Clean, MethodId::FlashGet);
        let bloat = median_of(BatteryScenario::Bufferbloat, MethodId::FlashGet);
        out.check(matches!((clean, bloat), (Some(c), Some(b)) if b > c), || {
            format!("battery: Flash GET bufferbloat median Δd {bloat:?} ms is not above its clean median {clean:?} ms")
        });
    }

    /// Session-0 Δd samples a report holds (the reference client's view
    /// the battery appraises) and the rounds that client attempted.
    fn yield_counts(&self, report: &BatteryReport) -> (u64, u64) {
        let samples = report
            .scenarios
            .iter()
            .flat_map(|s| &s.entries)
            .map(|e| e.verdict.samples)
            .sum();
        let rounds = self
            .cells
            .iter()
            .map(|(_, c)| attempted_rounds(c) / u64::from(c.clients))
            .sum();
        (samples, rounds)
    }

    /// Assemble the report from driven cells exactly as `run_battery`
    /// does: appraise each cell's summary, then rank per scenario.
    fn traced_report(
        t: &mut Tracer,
        cfg: BatteryConfig,
        cells: &[(BatteryScenario, ExperimentCell)],
        results: &[CellResult],
    ) -> BatteryReport {
        let mut scenarios: Vec<ScenarioOutcome> = BatteryScenario::ALL
            .iter()
            .map(|&scenario| ScenarioOutcome {
                scenario,
                entries: Vec::new(),
                no_data: Vec::new(),
            })
            .collect();
        for ((scenario, cell), result) in cells.iter().zip(results) {
            let snap = t.span("core.report.summary", |_| result.summary(cell));
            let si = BatteryScenario::ALL
                .iter()
                .position(|s| s == scenario)
                .expect("scenario is in ALL");
            match t.span("core.recommend.appraise", |_| appraise_snapshot(&snap)) {
                Some(verdict) => {
                    let score = verdict.score();
                    scenarios[si].entries.push(BatteryEntry {
                        verdict,
                        score,
                        link: snap.link,
                    });
                }
                None => scenarios[si].no_data.push(snap.label),
            }
        }
        for s in &mut scenarios {
            s.entries.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.verdict.label.cmp(&b.verdict.label))
            });
        }
        BatteryReport {
            config: cfg,
            scenarios,
        }
    }
}

impl Workload for Battery {
    fn timed(&mut self, seconds: f64, out: &mut Outcome) {
        let rounds_per_battery: u64 = self.cells.iter().map(|(_, c)| attempted_rounds(c)).sum();
        let reps_per_battery: u64 = self.cells.iter().map(|(_, c)| u64::from(c.reps)).sum();
        let mut m = Measured::new();
        let lp = Loop::new(seconds, MIN_BATTERIES);
        let mut i = 0;
        while lp.more(i) {
            let cfg = self.config(&format!("battery.{i}"));
            let (report, dt) = timed(|| run_battery(&cfg, &self.exec));
            m.batch(rounds_per_battery, dt);
            m.unit_ms.push(ms(dt));
            out.attempted += reps_per_battery;
            i += 1;
            let report = match report {
                Ok(r) => r,
                Err(e) => {
                    out.failed += reps_per_battery;
                    out.failed_checks
                        .push(format!("battery: run_battery failed: {e}"));
                    continue;
                }
            };
            let (json, dt) = timed(|| report.to_json());
            m.report_ms.push(ms(dt));
            out.failed += Self::failed_reps(&report);
            self.check(&report, out);
            if i <= MIN_BATTERIES {
                m.digest.update(json.as_bytes());
                let (samples, rounds) = self.yield_counts(&report);
                m.prefix_samples += samples;
                m.prefix_rounds += rounds;
            }
        }
        m.finish(out);
    }

    fn traced(&mut self, seconds: f64, out: &mut Outcome) {
        let mut tr = TracedRun::new();
        let lp = Loop::new(seconds, 1);
        let mut i = 0;
        while lp.more(i) {
            let cfg = self.config(&format!("battery.{i}"));
            let cells = battery_cells(&cfg);
            let mut results = vec![CellResult::default(); cells.len()];
            for ((_, cell), acc) in cells.iter().zip(&mut results) {
                for rep in 0..cell.reps {
                    tr.unit(cell, rep, Some(acc), out);
                }
            }
            let (report, json) = tr.report(|t| {
                let report = Self::traced_report(t, cfg, &cells, &results);
                let json = t.span("core.report.render", |_| report.to_json());
                (report, json)
            });
            if i == 0 {
                let direct = run_battery(&cfg, &self.exec).map(|r| r.to_json());
                out.check(direct.as_ref() == Ok(&json), || {
                    "battery: the traced reproduction differs from run_battery's report".into()
                });
            }
            self.check(&report, out);
            i += 1;
        }
        let first = battery_cells(&self.config("battery.0"));
        let cells: Vec<ExperimentCell> = first.into_iter().map(|(_, c)| c).collect();
        let (_, stats) = self.exec.run_with_stats(&cells, |_| {});
        tr.finish(busy_share(&stats, self.exec.workers()), out);
    }
}

// ---------------------------------------------------------------------
// crowd-lossy and dgram-crowd

/// A crowd workload: one cell of many clients per batch, one repetition
/// per executor worker.
struct CrowdSpec {
    name: &'static str,
    method: MethodId,
    clients: u32,
    /// Rate of the shared server access link, bits/s.
    link_bps: u64,
    streaming: StreamingSpec,
    /// Batches always run (and digested) per run.
    min_batches: usize,
}

/// ROADMAP's 1,000-client XHR tier under 2% loss, streamed, at the
/// contention sweep's 6,250 bps per client.
const CROWD_LOSSY: CrowdSpec = CrowdSpec {
    name: "crowd-lossy",
    method: MethodId::XhrGet,
    clients: 1000,
    link_bps: 6_250_000,
    streaming: StreamingSpec::bounded(64),
    min_batches: 1,
};

/// 64 WebRTC clients under 2% loss: batch capture matching dominates.
/// The 1 Mbps link is the narrowest at which every session's train is
/// stamped before the browser gives up on it (at 6,250 bps per client
/// most echoes arrive too late). Matching is pinned to one thread so
/// busy threads never exceed the executor's workers.
const DGRAM_CROWD: CrowdSpec = CrowdSpec {
    name: "dgram-crowd",
    method: MethodId::WebRtc,
    clients: 64,
    link_bps: 1_000_000,
    streaming: StreamingSpec::bounded(64).with_match_workers(1),
    min_batches: 2,
};

impl CrowdSpec {
    fn cell(&self, seed: u64, reps: u32) -> ExperimentCell {
        ExperimentCell::builder(
            self.method,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        )
        .reps(reps)
        .seed(seed)
        .contention(ContentionSpec::clients(self.clients).with_server_link_rate(self.link_bps))
        .impairment(Impairment::loss(LOSS))
        .streaming(self.streaming)
        .build()
        .expect("crowd cell is valid")
    }
}

struct Crowd {
    ws: u64,
    spec: &'static CrowdSpec,
    exec: Executor,
}

impl Crowd {
    fn setup(ws: u64, spec: &'static CrowdSpec) -> Crowd {
        let exec = Executor::new();
        let warm = spec.cell(derive_seed(ws, "warmup"), 1);
        black_box(exec.run(std::slice::from_ref(&warm)));
        Crowd { ws, spec, exec }
    }

    fn batch(&self, b: usize) -> ExperimentCell {
        self.spec.cell(
            derive_seed(self.ws, &format!("batch.{b}")),
            self.exec.workers() as u32,
        )
    }

    fn check(&self, cell: &ExperimentCell, r: &CellResult, out: &mut Outcome) {
        let name = self.spec.name;
        out.check(r.failures == 0, || {
            format!("{name}: {} failed repetitions", r.failures)
        });
        out.check(r.sessions.len() == cell.clients as usize, || {
            format!(
                "{name}: {} of {} sessions reported",
                r.sessions.len(),
                cell.clients
            )
        });
        // Every round of every session is accounted for: reliable
        // methods yield a sample or an exclusion per round, datagram
        // probes are delivered or lost in one direction.
        let rounds = attempted_rounds(cell) / u64::from(cell.clients * cell.reps)
            * u64::from(cell.reps - r.failures);
        let broken = r
            .sessions
            .iter()
            .filter(|s| match (&s.datagram, cell.method.is_datagram()) {
                (Some(d), true) => d.delivered + d.lost_upstream + d.lost_downstream != d.sent,
                (None, false) => s.count(1) + s.count(2) + u64::from(s.excluded_rounds) != rounds,
                _ => true,
            })
            .count();
        out.check(broken == 0, || {
            format!("{name}: rounds of {broken} sessions are not accounted for")
        });
    }
}

impl Workload for Crowd {
    fn timed(&mut self, seconds: f64, out: &mut Outcome) {
        let mut m = Measured::new();
        let lp = Loop::new(seconds, self.spec.min_batches);
        let mut b = 0;
        while lp.more(b) {
            let cell = self.batch(b);
            let (result, dt) = timed(|| run_timed_units(&self.exec, &cell, &mut m.unit_ms));
            m.batch(attempted_rounds(&cell), dt);
            out.attempted += u64::from(cell.reps);
            b += 1;
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    out.failed += u64::from(cell.reps);
                    out.failed_checks
                        .push(format!("{}: batch failed: {e}", self.spec.name));
                    continue;
                }
            };
            out.failed += u64::from(result.failures);
            let (json, dt) = timed(|| result.summary(&cell).to_json());
            m.report_ms.push(ms(dt));
            self.check(&cell, &result, out);
            if b <= self.spec.min_batches {
                m.digest.update(json.as_bytes());
                m.prefix_samples += result.summary(&cell).samples;
                m.prefix_rounds += attempted_rounds(&cell);
            }
        }
        m.finish(out);
    }

    fn traced(&mut self, seconds: f64, out: &mut Outcome) {
        let mut tr = TracedRun::new();
        let lp = Loop::new(seconds, 1);
        let (mut b, mut units) = (0, 0);
        while lp.more(units) {
            // Serial units are long here; stop between them, and report
            // on the repetitions the batch got through.
            let mut cell = self.batch(b);
            let mut acc = CellResult::default();
            let mut done = 0;
            while done < cell.reps && (done == 0 || lp.more(units)) {
                tr.unit(&cell, done, Some(&mut acc), out);
                done += 1;
                units += 1;
            }
            cell.reps = done;
            tr.report(|t| {
                let snap = t.span("core.report.summary", |_| acc.summary(&cell));
                black_box(t.span("core.report.render", |_| snap.to_json()));
            });
            self.check(&cell, &acc, out);
            b += 1;
        }
        let (_, stats) = self
            .exec
            .run_with_stats(std::slice::from_ref(&self.batch(0)), |_| {});
        tr.finish(busy_share(&stats, self.exec.workers()), out);
    }
}

// ---------------------------------------------------------------------
// serve-monitor

/// Clients of the monitored cell, sharing a 2 Mbps server link (the
/// battery's contended rate).
const SERVE_CLIENTS: u32 = 32;
const SERVE_LINK_BPS: u64 = 2_000_000;
/// Monitor rounds always run per run; the digest and yield are taken at
/// this round.
const MIN_ROUNDS: usize = 100;
/// Untimed rounds of the set-up's warm-up monitor.
const WARMUP_ROUNDS: usize = 8;
/// Untraced rounds timed for the traced run's busy share.
const PROBE_ROUNDS: usize = 50;

fn serve_cell(seed: u64) -> ExperimentCell {
    ExperimentCell::builder(
        MethodId::XhrGet,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(1)
    .seed(seed)
    .contention(ContentionSpec::clients(SERVE_CLIENTS).with_server_link_rate(SERVE_LINK_BPS))
    .impairment(Impairment::loss(LOSS))
    .streaming(StreamingSpec::serve())
    .build()
    .expect("serve cell is valid")
}

struct Serve {
    cell: ExperimentCell,
    monitor: Monitor,
}

impl Serve {
    fn setup(ws: u64) -> Serve {
        let cell = serve_cell(derive_seed(ws, "monitor"));
        let monitor = Monitor::new(cell.clone()).expect("serve cell is runnable");
        let mut warm =
            Monitor::new(serve_cell(derive_seed(ws, "warmup"))).expect("serve cell is runnable");
        for _ in 0..WARMUP_ROUNDS {
            warm.step();
            black_box(warm.snapshot().to_json());
        }
        Serve { cell, monitor }
    }

    fn check(&self, steps: usize, out: &mut Outcome) {
        let snap = self.monitor.snapshot();
        out.check(snap.rounds == steps as u64, || {
            format!(
                "serve-monitor: snapshot counts {} rounds after {steps} steps",
                snap.rounds
            )
        });
        let labels: Vec<&str> = snap.windows.iter().map(|w| w.label.as_str()).collect();
        out.check(labels == ["1s", "10s", "1m", "total"], || {
            format!("serve-monitor: snapshot windows are {labels:?}")
        });
        // Failed rounds yield neither samples nor exclusions.
        let rounds = attempted_rounds(&self.cell) * (steps as u64 - snap.failures);
        out.check(snap.samples + snap.excluded_rounds == rounds, || {
            format!(
                "serve-monitor: {} samples and {} exclusions for {rounds} rounds",
                snap.samples, snap.excluded_rounds
            )
        });
    }
}

impl Workload for Serve {
    fn timed(&mut self, seconds: f64, out: &mut Outcome) {
        let rounds_per_step = attempted_rounds(&self.cell);
        let mut m = Measured::new();
        let lp = Loop::new(seconds, MIN_ROUNDS);
        let mut steps = 0;
        while lp.more(steps) {
            // A round as a live dashboard pays for it: the step, then a
            // snapshot rendered for display.
            let t0 = Instant::now();
            self.monitor.step();
            let (json, report) = timed(|| self.monitor.snapshot().to_json());
            let dt = t0.elapsed();
            m.batch(rounds_per_step, dt);
            m.unit_ms.push(ms(dt));
            m.report_ms.push(ms(report));
            steps += 1;
            if steps == MIN_ROUNDS {
                m.digest.update(json.as_bytes());
                m.prefix_samples = self.monitor.snapshot().samples;
                m.prefix_rounds = rounds_per_step * steps as u64;
            }
        }
        out.attempted += steps as u64;
        out.failed += self.monitor.snapshot().failures;
        self.check(steps, out);
        m.finish(out);
    }

    fn traced(&mut self, seconds: f64, out: &mut Outcome) {
        let mut tr = TracedRun::new();
        let lp = Loop::new(seconds, 1);
        let mut steps = 0;
        while lp.more(steps) {
            // The monitor runs the same repetition again inside `step`;
            // that second run is the round's program path and is not a
            // span, so the layer shares describe one run of the round.
            tr.unit(&self.cell, steps as u32, None, out);
            self.monitor.step();
            steps += 1;
            tr.report(|t| {
                let snap = t.span("core.report.summary", |_| self.monitor.snapshot());
                black_box(t.span("core.report.render", |_| snap.to_json()));
            });
        }
        self.check(steps, out);
        let mut probe = Monitor::new(self.cell.clone()).expect("serve cell is runnable");
        let (busy, wall) = timed(|| {
            (0..PROBE_ROUNDS)
                .map(|_| timed(|| probe.step()).1)
                .sum::<Duration>()
        });
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        tr.finish(
            busy.as_secs_f64() / (cores as f64 * wall.as_secs_f64()),
            out,
        );
    }
}

// ---------------------------------------------------------------------

/// Peak resident set size of this process, KiB.
fn peak_rss_kib() -> f64 {
    /// Linux's 64-bit `struct rusage`: two `struct timeval`s, then
    /// fourteen `long`s of which `ru_maxrss` is the first.
    #[repr(C)]
    struct RUsage {
        _times: [i64; 4],
        maxrss: i64,
        _rest: [i64; 13],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut RUsage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut u = RUsage {
        _times: [0; 4],
        maxrss: 0,
        _rest: [0; 13],
    };
    // SAFETY: `u` is a live, writable value with the layout of the
    // `struct rusage` that 64-bit Linux's `getrusage` fills (the crate
    // refuses to build elsewhere), and RUSAGE_SELF is a valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut u) };
    if rc == 0 {
        u.maxrss as f64
    } else {
        f64::NAN
    }
}
