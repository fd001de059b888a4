//! # bnm-core — the delay-accuracy appraisal library
//!
//! This crate is the paper's primary contribution, made executable: a
//! methodology for **quantifying the delay overhead** browser-based RTT
//! measurement adds, and for judging which methods are calibratable.
//!
//! The pipeline mirrors Section 3 of the paper exactly:
//!
//! 1. [`scenario`] builds the two-machine testbed of Figure 2 (hosts,
//!    switch, 100 Mbps links, the 50 ms netem delay on the server side,
//!    and a WinDump-style capture tap at each NIC) from a
//!    [`testbed::TestbedConfig`]: the paper's testbed is the one-session
//!    [`scenario::Scenario`], and [`scenario::ScenarioBuilder`] validates
//!    every scenario before it is wired.
//! 2. [`runner`] executes one experiment *cell* — (method × runtime × OS,
//!    repeated 50 times, two rounds each) — each repetition in a fresh
//!    simulation with its own seeded noise streams.
//! 3. [`matching`] recovers the ground-truth timestamps `tN_s`/`tN_r` by
//!    **parsing the captured packets** (Ethernet/IPv4/TCP/UDP) and
//!    locating the probe markers, never by asking the simulator.
//! 4. [`delta`] computes `Δd = (tB_r − tB_s) − (tN_r − tN_s)` (Eq. 1).
//! 5. [`appraisal`] turns the 50-sample sets into the paper's statistics
//!    (Tukey boxes, CDFs, mean ± 95% CI) and into trueness/precision
//!    verdicts; [`calibration`] derives per-cell calibration offsets;
//!    [`impact`] quantifies the jitter/throughput distortion of §2.2;
//!    [`recommend`] codifies the practical considerations of §5.
//! 6. [`server_side`] is the §7 extension: the same appraisal applied to
//!    the server's own processing overhead.
//!
//! Execution is fallible and parallel by default: [`exec::Executor`]
//! schedules `(cell × rep)` work units over `available_parallelism()`
//! work-stealing threads and merges deterministically, so results are
//! bit-identical to a serial run; [`error::RunError`] is the typed
//! error every `try_*` entry point reports instead of panicking.

pub mod appraisal;
pub mod attribution;
pub mod baseline;
pub mod battery;
pub mod calibration;
pub mod cli;
pub mod config;
pub mod delta;
pub mod error;
pub mod exec;
pub mod experiments;
pub mod frames;
pub mod impact;
pub mod matching;
pub mod monitor;
pub mod recommend;
pub mod report;
pub mod runner;
pub mod scenario;
pub mod server_side;
pub mod streaming;
pub mod sweep;
pub mod testbed;
pub mod throughput;

pub use appraisal::{Appraisal, Verdict};
pub use attribution::RoundAttribution;
pub use battery::{
    run_battery, BatteryConfig, BatteryEntry, BatteryReport, BatteryScenario, ScenarioOutcome,
};
pub use bnm_sim::{FaultSpec, Impairment, LinkDynamics, LinkShape, QueueDiscipline, RateSchedule};
pub use config::{
    CellBuilder, ContentionSpec, ExperimentCell, RuntimeSel, StreamingSpec, DEFAULT_SEED,
};
pub use delta::RoundMeasurement;
pub use error::RunError;
pub use exec::{ExecStats, Executor, Progress};
pub use matching::{MatchError, ParsedCapture, ProbeStatus, ProbeVerdict};
pub use monitor::{Monitor, MonitorFootprint};
pub use report::{
    DistSummary, LinkReport, Render, ReportFormat, ReportSnapshot, Table, TraceReport, Value,
    WindowReport,
};
pub use runner::{CellResult, ExperimentRunner, RepOutcome, SessionSamples};
pub use scenario::{Scenario, ScenarioBuilder, SessionSpec};
pub use streaming::{DiscardSink, ServerMarkerIndex, SessionMarkerSink};
pub use testbed::TestbedConfig;
