//! # bnm — Browser-based Network Measurement appraisal
//!
//! Facade crate re-exporting the full public API of the IMC'13
//! reproduction *"Appraising the Delay Accuracy in Browser-based Network
//! Measurement"*.
//!
//! ```
//! // The subcrates are re-exported under short names:
//! use bnm::sim::SimTime;
//! assert_eq!(SimTime::from_millis(50).as_nanos(), 50_000_000);
//! ```
//!
//! For experiment-driving code, `use bnm::prelude::*` pulls in the
//! working set in one line.

#![deny(deprecated)]

pub use bnm_browser as browser;
pub use bnm_core as core;
pub use bnm_http as http;
pub use bnm_methods as methods;
pub use bnm_obs as obs;
pub use bnm_sim as sim;
pub use bnm_stats as stats;
pub use bnm_tcp as tcp;
pub use bnm_time as timeapi;

// The working set for running experiments, at the top level: build cells
// with `CellBuilder`, run them (in parallel, deterministically) with
// `Executor` or `ExperimentRunner::try_run`, and handle `RunError`.
pub use bnm_core::exec::{self, ExecStats, Executor, Progress};
pub use bnm_core::{
    run_battery, Appraisal, BatteryConfig, BatteryReport, BatteryScenario, CellBuilder, CellResult,
    ContentionSpec, ExperimentCell, ExperimentRunner, FaultSpec, Impairment, LinkDynamics,
    LinkReport, LinkShape, Monitor, MonitorConfig, MonitorFootprint, QueueDiscipline, RateSchedule,
    Render, ReportFormat, ReportSnapshot, RunError, RuntimeSel, StreamingSpec, Verdict,
};

/// The curated working set for driving experiments.
///
/// Everything a typical driver binary needs — cell construction, the
/// fallible run API, appraisal, tracing/attribution, and the id/enum
/// types those take — without the long per-crate paths:
///
/// ```
/// use bnm::prelude::*;
///
/// let cell = ExperimentCell::builder(
///     MethodId::WebSocket,
///     RuntimeSel::Browser(BrowserKind::Chrome),
///     OsKind::Ubuntu1204,
/// )
/// .reps(2)
/// .build()
/// .unwrap();
/// let result = ExperimentRunner::try_run(&cell).unwrap();
/// assert_eq!(result.d1.len(), 2);
/// ```
pub mod prelude {
    pub use bnm_browser::BrowserKind;
    pub use bnm_core::attribution::RoundAttribution;
    pub use bnm_core::exec::{ExecStats, Executor, Progress};
    pub use bnm_core::{
        run_battery, Appraisal, BatteryConfig, BatteryReport, BatteryScenario, CellBuilder,
        CellResult, ContentionSpec, ExperimentCell, ExperimentRunner, FaultSpec, Impairment,
        LinkDynamics, LinkReport, LinkShape, Monitor, MonitorConfig, MonitorFootprint,
        QueueDiscipline, RateSchedule, Render, RepOutcome, ReportFormat, ReportSnapshot,
        RoundMeasurement, RunError, RuntimeSel, Scenario, ScenarioBuilder, SessionSamples,
        SessionSpec, StreamingSpec, TestbedConfig, Verdict,
    };
    pub use bnm_methods::MethodId;
    pub use bnm_obs::{Component, Trace, TraceData};
    pub use bnm_time::{OsKind, TimingApiKind};
}
