//! The full appraisal battery — `bnm battery`.
//!
//! One entry point that runs a representative method roster across the
//! canonical network scenarios — the clean paper testbed, an impaired
//! path, a contended access link, a deep drop-tail "bufferbloat" queue,
//! the same queue under a CoDel AQM, and a time-varying service rate —
//! then folds every cell's [`ReportSnapshot`] through
//! [`appraise_snapshot`] and ranks the methods per scenario by their
//! [`MeasuredVerdict::score`].
//!
//! The battery is scheduled through the ordinary [`Executor`], so the
//! scored report is bit-identical between serial and parallel runs at
//! the same seed: scoring is a pure function of each cell's snapshot,
//! and snapshots merge deterministically.

use std::fmt::Write as _;

use bnm_browser::BrowserKind;
use bnm_methods::MethodId;
use bnm_sim::link::LinkSpec;
use bnm_sim::time::SimDuration;
use bnm_sim::{FaultSpec, Impairment, LinkDynamics, LinkShape, RateSchedule};
use bnm_time::OsKind;

use crate::config::{CellBuilder, ContentionSpec, ExperimentCell, RuntimeSel};
use crate::error::RunError;
use crate::exec::Executor;
use crate::recommend::{appraise_snapshot, MeasuredVerdict};
use crate::report::{fmt_num, json_num, json_string, LinkReport, Render, ReportSnapshot};

/// The method roster every scenario is run against: one representative
/// per transport family, each on the browser/OS pairing the paper (or
/// the extension) exercised it on. Combinations a scenario cannot run
/// (Table 2 feature matrix) are skipped, not errors.
const ROSTER: [(MethodId, BrowserKind, OsKind); 4] = [
    (MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204),
    (MethodId::WebSocket, BrowserKind::Chrome, OsKind::Ubuntu1204),
    (MethodId::FlashGet, BrowserKind::Opera, OsKind::Windows7),
    (MethodId::WebRtc, BrowserKind::Chrome, OsKind::Ubuntu1204),
];

/// How many reps each cell gets in the two run modes.
const FULL_REPS: u32 = 25;
const QUICK_REPS: u32 = 5;

/// Battery parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatteryConfig {
    /// Repetitions per cell.
    pub reps: u32,
    /// Base seed shared by every cell (per-cell streams are derived).
    pub seed: u64,
}

impl Default for BatteryConfig {
    fn default() -> BatteryConfig {
        BatteryConfig {
            reps: FULL_REPS,
            seed: crate::config::DEFAULT_SEED,
        }
    }
}

impl BatteryConfig {
    /// The smoke-test configuration: few reps, same scenario coverage.
    pub fn quick() -> BatteryConfig {
        BatteryConfig {
            reps: QUICK_REPS,
            ..BatteryConfig::default()
        }
    }
}

/// The network scenarios the battery sweeps. Each is a deterministic
/// transformation of the paper's baseline cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatteryScenario {
    /// The unmodified Figure 2 testbed.
    Clean,
    /// 2 % symmetric loss plus 5 ms of path jitter.
    Impaired,
    /// Eight clients sharing a 2 Mbps server access link.
    Contended,
    /// Eight clients on a 0.4 Mbps link with the stock 256 KiB
    /// drop-tail queue — seconds of standing queue, the bufferbloat
    /// regime.
    Bufferbloat,
    /// The same bloated link under an RFC 8289 CoDel on both directions.
    BufferbloatAqm,
    /// A 2 Mbps downstream whose service rate collapses to 256 kbps for
    /// the first quarter of every 200 ms cycle (periodic cross-traffic).
    TimeVarying,
}

impl BatteryScenario {
    /// Every scenario, in report order.
    pub const ALL: [BatteryScenario; 6] = [
        BatteryScenario::Clean,
        BatteryScenario::Impaired,
        BatteryScenario::Contended,
        BatteryScenario::Bufferbloat,
        BatteryScenario::BufferbloatAqm,
        BatteryScenario::TimeVarying,
    ];

    /// Short machine-friendly name (CSV/JSON key).
    pub fn name(self) -> &'static str {
        match self {
            BatteryScenario::Clean => "clean",
            BatteryScenario::Impaired => "impaired",
            BatteryScenario::Contended => "contended",
            BatteryScenario::Bufferbloat => "bufferbloat",
            BatteryScenario::BufferbloatAqm => "bufferbloat-aqm",
            BatteryScenario::TimeVarying => "time-varying",
        }
    }

    /// One-line description for the text report.
    pub fn describe(self) -> &'static str {
        match self {
            BatteryScenario::Clean => "unimpaired paper testbed (Figure 2)",
            BatteryScenario::Impaired => "2% symmetric loss, 5 ms path jitter",
            BatteryScenario::Contended => "8 clients sharing a 2 Mbps server link",
            BatteryScenario::Bufferbloat => {
                "8 clients, 0.4 Mbps link, deep drop-tail queue (bufferbloat)"
            }
            BatteryScenario::BufferbloatAqm => "the bloated link under a CoDel AQM",
            BatteryScenario::TimeVarying => {
                "2 Mbps downstream dropping to 256 kbps a quarter of each 200 ms cycle"
            }
        }
    }

    /// Apply the scenario's network conditions to a cell builder.
    fn apply(self, b: CellBuilder) -> CellBuilder {
        match self {
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
}

/// One method's scored appraisal within one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryEntry {
    /// The measurement-backed verdict ([`appraise_snapshot`]).
    pub verdict: MeasuredVerdict,
    /// [`MeasuredVerdict::score`], cached at fold time.
    pub score: f64,
    /// Server-link queue telemetry for the cell (drops + peak depth).
    pub link: Option<LinkReport>,
}

/// All methods' entries for one scenario, best score first.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Which scenario this is.
    pub scenario: BatteryScenario,
    /// Scored entries, descending score (ties break on label).
    pub entries: Vec<BatteryEntry>,
    /// Cell labels that ran but produced no appraisable samples.
    pub no_data: Vec<String>,
}

impl ScenarioOutcome {
    /// The winning entry, if any method produced samples.
    pub fn best(&self) -> Option<&BatteryEntry> {
        self.entries.first()
    }
}

/// The scored battery report — one [`Render`]able covering every
/// scenario family with per-method verdicts and ranks.
#[derive(Debug, Clone, PartialEq)]
pub struct BatteryReport {
    /// The configuration the battery ran under.
    pub config: BatteryConfig,
    /// Per-scenario ranked outcomes, in [`BatteryScenario::ALL`] order.
    pub scenarios: Vec<ScenarioOutcome>,
}

/// Run the full battery on the given executor.
///
/// Builds every runnable `(scenario × roster)` cell, schedules them all
/// through `exec` in one batch (so the work parallelises across cells
/// *and* reps), then appraises and ranks each scenario's snapshots.
/// Table 2 `Unrunnable` combinations are skipped; any other build or
/// run error aborts the battery.
pub fn run_battery(cfg: &BatteryConfig, exec: &Executor) -> Result<BatteryReport, RunError> {
    let mut cells: Vec<ExperimentCell> = Vec::new();
    let mut owner: Vec<usize> = Vec::new();
    for (si, scenario) in BatteryScenario::ALL.iter().enumerate() {
        for (method, browser, os) in ROSTER {
            let b = ExperimentCell::builder(method, RuntimeSel::Browser(browser), os)
                .reps(cfg.reps)
                .seed(cfg.seed);
            match scenario.apply(b).build() {
                Ok(cell) => {
                    cells.push(cell);
                    owner.push(si);
                }
                Err(RunError::Unrunnable { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
    }

    let results = exec.run(&cells);
    let mut scenarios: Vec<ScenarioOutcome> = BatteryScenario::ALL
        .iter()
        .map(|s| ScenarioOutcome {
            scenario: *s,
            entries: Vec::new(),
            no_data: Vec::new(),
        })
        .collect();
    for ((cell, si), result) in cells.iter().zip(owner).zip(results) {
        let snap: ReportSnapshot = result?.summary(cell);
        match appraise_snapshot(&snap) {
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
    Ok(BatteryReport {
        config: *cfg,
        scenarios,
    })
}

impl BatteryEntry {
    fn queue_drops(&self) -> u64 {
        self.link
            .map(|l| l.down_queue_drops + l.up_queue_drops)
            .unwrap_or(0)
    }

    fn queue_peak(&self) -> u64 {
        self.link
            .map(|l| l.down_queue_peak_bytes.max(l.up_queue_peak_bytes))
            .unwrap_or(0)
    }
}

impl Render for BatteryReport {
    fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "bnm battery — scored method appraisal ({} reps/cell, seed {:#x})",
            self.config.reps, self.config.seed
        );
        for s in &self.scenarios {
            let _ = writeln!(out, "\n== {}: {}", s.scenario.name(), s.scenario.describe());
            let _ = writeln!(
                out,
                "{:<4} {:<28} {:<14} {:>6} {:>9} {:>8} {:>5} {:>5} {:>6} {:>8}",
                "rank",
                "method",
                "verdict",
                "score",
                "medΔd_ms",
                "iqr_ms",
                "n",
                "fail",
                "loss%",
                "qdrops"
            );
            for (i, e) in s.entries.iter().enumerate() {
                let v = &e.verdict;
                let _ = writeln!(
                    out,
                    "{:<4} {:<28} {:<14} {:>6.1} {:>9.3} {:>8.3} {:>5} {:>5} {:>6.2} {:>8}",
                    i + 1,
                    v.label,
                    format!("{:?}", v.verdict),
                    e.score,
                    v.median_ms,
                    v.iqr_ms,
                    v.samples,
                    v.failures,
                    v.loss_rate * 100.0,
                    e.queue_drops()
                );
            }
            for label in &s.no_data {
                let _ = writeln!(out, "-    {label:<22} (no appraisable samples)");
            }
        }
        out
    }

    fn to_json(&self) -> String {
        let mut out = String::from("{\"battery\":{");
        let _ = write!(
            out,
            "\"reps\":{},\"seed\":{},\"scenarios\":[",
            self.config.reps, self.config.seed
        );
        for (si, s) in self.scenarios.iter().enumerate() {
            if si > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"scenario\":{},\"description\":{},\"methods\":[",
                json_string(s.scenario.name()),
                json_string(s.scenario.describe())
            );
            for (i, e) in s.entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let v = &e.verdict;
                let _ = write!(
                    out,
                    "{{\"rank\":{},\"method\":{},\"verdict\":{},\"score\":{},\
                     \"median_ms\":{},\"iqr_ms\":{},\"samples\":{},\"failures\":{},\
                     \"loss_rate\":{},\"queue_drops\":{},\"queue_peak_bytes\":{}}}",
                    i + 1,
                    json_string(&v.label),
                    json_string(&format!("{:?}", v.verdict)),
                    json_num(e.score),
                    json_num(v.median_ms),
                    json_num(v.iqr_ms),
                    v.samples,
                    v.failures,
                    json_num(v.loss_rate),
                    e.queue_drops(),
                    e.queue_peak()
                );
            }
            out.push(']');
            if !s.no_data.is_empty() {
                let names: Vec<String> = s.no_data.iter().map(|l| json_string(l)).collect();
                let _ = write!(out, ",\"no_data\":[{}]", names.join(","));
            }
            out.push('}');
        }
        out.push_str("]}}");
        out.push('\n');
        out
    }

    fn to_csv(&self) -> String {
        let mut out = String::from(
            "scenario,rank,method,verdict,score,median_ms,iqr_ms,samples,failures,\
             loss_rate,queue_drops,queue_peak_bytes\n",
        );
        for s in &self.scenarios {
            for (i, e) in s.entries.iter().enumerate() {
                let v = &e.verdict;
                let label = if v.label.contains(',') {
                    format!("\"{}\"", v.label.replace('"', "\"\""))
                } else {
                    v.label.clone()
                };
                let _ = writeln!(
                    out,
                    "{},{},{},{:?},{},{},{},{},{},{},{},{}",
                    s.scenario.name(),
                    i + 1,
                    label,
                    v.verdict,
                    fmt_num(e.score),
                    fmt_num(v.median_ms),
                    fmt_num(v.iqr_ms),
                    v.samples,
                    v.failures,
                    fmt_num(v.loss_rate),
                    e.queue_drops(),
                    e.queue_peak()
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appraisal::Verdict;

    fn entry(label: &str, verdict: Verdict, median: f64) -> BatteryEntry {
        let v = MeasuredVerdict {
            label: label.to_string(),
            verdict,
            median_ms: median,
            iqr_ms: 1.0,
            samples: 10,
            failures: 0,
            loss_rate: 0.0,
        };
        let score = v.score();
        BatteryEntry {
            verdict: v,
            score,
            link: Some(LinkReport {
                down_queue_drops: 3,
                up_queue_drops: 1,
                down_queue_peak_bytes: 4096,
                up_queue_peak_bytes: 512,
            }),
        }
    }

    fn report() -> BatteryReport {
        BatteryReport {
            config: BatteryConfig::quick(),
            scenarios: vec![ScenarioOutcome {
                scenario: BatteryScenario::Clean,
                entries: vec![
                    entry("WebSocket / C (U)", Verdict::Accurate, 0.4),
                    entry("Flash GET / O (W)", Verdict::Calibratable, 80.0),
                ],
                no_data: vec!["Broken / C (U)".to_string()],
            }],
        }
    }

    #[test]
    fn scenarios_cover_five_distinct_families() {
        // The acceptance bar: clean, impaired, contended, bufferbloat
        // and time-varying must all be present (AQM rides along).
        let names: Vec<&str> = BatteryScenario::ALL.iter().map(|s| s.name()).collect();
        for required in [
            "clean",
            "impaired",
            "contended",
            "bufferbloat",
            "bufferbloat-aqm",
            "time-varying",
        ] {
            assert!(names.contains(&required), "missing scenario {required}");
        }
        assert_eq!(names.len(), 6);
    }

    #[test]
    fn scenario_transforms_build_valid_cells() {
        for scenario in BatteryScenario::ALL {
            let b = ExperimentCell::builder(
                MethodId::WebSocket,
                RuntimeSel::Browser(BrowserKind::Chrome),
                OsKind::Ubuntu1204,
            )
            .reps(1)
            .seed(7);
            let cell = scenario
                .apply(b)
                .build()
                .unwrap_or_else(|e| panic!("{scenario:?} must build: {e}"));
            match scenario {
                BatteryScenario::Clean => assert!(cell.link_shape.is_static()),
                BatteryScenario::BufferbloatAqm | BatteryScenario::TimeVarying => {
                    assert!(!cell.link_shape.is_static())
                }
                _ => {}
            }
        }
    }

    #[test]
    fn report_renders_ranked_rows_in_all_formats() {
        let r = report();
        let text = r.to_text();
        assert!(text.contains("== clean:"));
        assert!(text.contains("WebSocket / C (U)"));
        assert!(text.contains("no appraisable samples"));
        // WebSocket outranks Flash in the fixture.
        let ws = text.find("WebSocket").unwrap();
        let flash = text.find("Flash GET").unwrap();
        assert!(ws < flash);

        let json = r.to_json();
        assert!(json.starts_with("{\"battery\":{"));
        assert!(json.contains("\"scenario\":\"clean\""));
        assert!(json.contains("\"rank\":1,\"method\":\"WebSocket / C (U)\""));
        assert!(json.contains("\"no_data\":[\"Broken / C (U)\"]"));
        assert!(json.contains("\"queue_drops\":4"));
        assert!(json.contains("\"queue_peak_bytes\":4096"));

        let csv = r.to_csv();
        let mut lines = csv.lines();
        assert_eq!(
            lines.next().unwrap(),
            "scenario,rank,method,verdict,score,median_ms,iqr_ms,samples,failures,\
             loss_rate,queue_drops,queue_peak_bytes"
        );
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.contains("clean,1,"));
    }

    #[test]
    fn quick_battery_runs_and_ranks_deterministically() {
        // Tiny end-to-end run: every scenario family appears, scores are
        // finite, and the same config reproduces the identical report.
        let cfg = BatteryConfig {
            reps: 1,
            seed: 0xBA77_0001,
        };
        let exec = Executor::serial();
        let a = run_battery(&cfg, &exec).expect("battery runs");
        assert_eq!(a.scenarios.len(), BatteryScenario::ALL.len());
        for s in &a.scenarios {
            assert!(
                !s.entries.is_empty() || !s.no_data.is_empty(),
                "{:?} produced nothing",
                s.scenario
            );
            for e in &s.entries {
                assert!(e.score.is_finite() && (0.0..=100.0).contains(&e.score));
                assert!(e.link.is_some(), "batch snapshots carry link telemetry");
            }
            for pair in s.entries.windows(2) {
                assert!(pair[0].score >= pair[1].score, "entries must be ranked");
            }
        }
        let b = run_battery(&cfg, &exec).expect("battery reruns");
        assert_eq!(a.to_json(), b.to_json(), "same seed, same report");
    }
}
