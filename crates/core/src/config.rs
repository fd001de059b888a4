//! Experiment-cell configuration.

use bnm_browser::BrowserKind;
use bnm_methods::MethodId;
use bnm_sim::time::SimDuration;
use bnm_sim::{Impairment, LinkShape};
use bnm_time::{OsKind, TimingApiKind};

use crate::error::RunError;

/// The master seed every front end runs at unless told otherwise: the
/// `bnm` subcommands, `bnm reproduce` and [`crate::BatteryConfig`].
pub const DEFAULT_SEED: u64 = 0xB32B_2013;

/// Which runtime executes the measurement code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RuntimeSel {
    /// A browser from Table 2.
    Browser(BrowserKind),
    /// The JDK `appletviewer` (Figure 4(b)).
    AppletViewer,
    /// A mobile WebKit browser (§7 extension; native methods only).
    MobileWebKit,
}

impl RuntimeSel {
    /// Figure label ("C (U)", "appletviewer (W)", …).
    pub fn figure_label(&self, os: OsKind) -> String {
        match self {
            RuntimeSel::Browser(b) => format!("{} ({})", b.initial(), os.initial()),
            RuntimeSel::AppletViewer => format!("appletviewer ({})", os.initial()),
            RuntimeSel::MobileWebKit => "M (mobile)".to_string(),
        }
    }
}

/// How many sessions share the testbed, and how narrow the shared
/// bottleneck is — the scale knobs of the `contend` extension as one
/// typed value.
///
/// Replaces the loose `.clients(n)` / `.server_link_rate(bps)` builder
/// pair (removed in 0.3.0): the two knobs are usually set together,
/// since contention over full fast Ethernet barely queues. The rate
/// applies at every client count, one included.
///
/// ```
/// use bnm_core::config::ContentionSpec;
///
/// let spec = ContentionSpec::clients(64).with_server_link_rate(400_000);
/// assert_eq!(spec.clients, 64);
/// assert_eq!(spec.server_link_rate_bps, Some(400_000));
/// assert_eq!(ContentionSpec::solo(), ContentionSpec::default());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContentionSpec {
    /// Concurrent measuring sessions sharing the testbed. 1 is the
    /// paper's single-client testbed.
    pub clients: u32,
    /// Server access link rate override, bits/s (`None` = the paper's
    /// 100 Mbps fast Ethernet), honoured whatever the client count.
    pub server_link_rate_bps: Option<u64>,
}

impl Default for ContentionSpec {
    fn default() -> Self {
        Self::solo()
    }
}

impl ContentionSpec {
    /// The paper's setup: one client, full-rate server link.
    pub const fn solo() -> ContentionSpec {
        ContentionSpec {
            clients: 1,
            server_link_rate_bps: None,
        }
    }

    /// `n` concurrent sessions over the default server link.
    pub const fn clients(n: u32) -> ContentionSpec {
        ContentionSpec {
            clients: n,
            server_link_rate_bps: None,
        }
    }

    /// Narrow the shared server access link to `rate_bps` bits/s.
    pub const fn with_server_link_rate(mut self, rate_bps: u64) -> ContentionSpec {
        self.server_link_rate_bps = Some(rate_bps);
        self
    }

    pub(crate) fn validate(&self) -> Result<(), RunError> {
        if self.clients == 0 {
            return Err(RunError::InvalidInput("clients must be >= 1"));
        }
        if self.clients as usize > crate::scenario::Scenario::SESSION_LIMIT {
            return Err(RunError::InvalidInput(
                "clients exceeds the scenario session limit",
            ));
        }
        if self.server_link_rate_bps == Some(0) {
            return Err(RunError::InvalidInput("server link rate must be > 0"));
        }
        Ok(())
    }
}

/// How many raw Δd samples each session keeps — the storage knob of the
/// crowd-scale extension.
///
/// Captures always stream: every repetition consumes its taps through
/// marker sinks at capture time ([`crate::streaming`]), so frames
/// recycle through the pool mid-run and peak memory does not scale with
/// the crowd's total traffic. The batch matcher
/// ([`crate::matching::ParsedCapture`]) is the reference those sinks are
/// tested against, not a mode. What a spec still chooses is retention:
/// the default keeps every raw sample, and [`StreamingSpec::bounded`]
/// caps them and sketches the rest.
///
/// ```
/// use bnm_core::config::StreamingSpec;
///
/// let spec = StreamingSpec::bounded(64);
/// assert_eq!(spec.session_retention, Some(64));
/// assert_eq!(StreamingSpec::default().session_retention, None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamingSpec {
    /// Ignored: every repetition streams its captures. Kept so code
    /// written against the old two-path pipeline still compiles;
    /// [`StreamingSpec::bounded`] and [`StreamingSpec::serve`] set it,
    /// the default leaves it `false`.
    pub stream_captures: bool,
    /// Per-session raw-sample retention threshold. `None` keeps every
    /// raw Δd sample (the paper's 50-rep cells need them for exact
    /// boxplots). `Some(n)` keeps at most `n` raw samples per session
    /// and folds **all** samples into a [`bnm_stats::QuantileSketch`],
    /// so crowd sweeps get quantiles in O(log-buckets) memory per
    /// session instead of O(reps).
    pub session_retention: Option<u32>,
    /// Ignored: there is no per-session matching pass left to
    /// parallelise. Kept, with [`StreamingSpec::with_match_workers`], so
    /// existing callers still compile.
    pub match_workers: Option<usize>,
}

impl StreamingSpec {
    /// The crowd-scale preset: cap raw samples at `retention` per
    /// session, sketching the rest.
    pub const fn bounded(retention: u32) -> StreamingSpec {
        StreamingSpec {
            stream_captures: true,
            session_retention: Some(retention),
            match_workers: None,
        }
    }

    /// The continuous-monitoring preset (`bnm serve` /
    /// [`crate::monitor::Monitor`]): keep only a small exact-sample
    /// prefix per session — the monitor's own windows carry the
    /// statistics, so per-round retention inside the rep is pure
    /// overhead.
    pub const fn serve() -> StreamingSpec {
        StreamingSpec::bounded(64)
    }

    /// Set the ignored [`StreamingSpec::match_workers`] field.
    pub const fn with_match_workers(mut self, workers: usize) -> StreamingSpec {
        self.match_workers = Some(workers);
        self
    }
}

/// One cell of the experiment grid: a method on a runtime on an OS,
/// repeated.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentCell {
    /// The measurement method.
    pub method: MethodId,
    /// The runtime executing it.
    pub runtime: RuntimeSel,
    /// The client machine's OS.
    pub os: OsKind,
    /// Timing-API override (`None` = the method's era-accurate default;
    /// Table 4 passes `Some(JavaNanoTime)`).
    pub timing_override: Option<TimingApiKind>,
    /// Repetitions ("we run it for 50 times").
    pub reps: u32,
    /// The artificial one-way delay on the server side (§3: 50 ms).
    pub server_delay: SimDuration,
    /// Capture timestamping noise bound (0 = exact stamps; the paper
    /// cites > 0.3 ms accuracy for software capturers).
    pub capture_noise_ns: u64,
    /// Master seed; every repetition derives independent streams from it.
    pub seed: u64,
    /// §5's Safari fix (force the Oracle JRE) — used by the Table 4 runs.
    pub fixed_safari_java: bool,
    /// Network impairment on the testbed links (loss / corruption /
    /// duplication plus delay jitter). The paper's headline runs were
    /// loss-free ([`Impairment::NONE`], the default); non-clean values
    /// exercise the retransmission-exclusion rule of §3.
    pub impairment: Impairment,
    /// Record per-repetition traces and Δd attribution reports. Off by
    /// default: tracing allocates per-event and the paper's headline
    /// numbers don't need it.
    pub trace: bool,
    /// Concurrent measuring sessions sharing the testbed (the `contend`
    /// extension). Every repetition builds a
    /// [`crate::scenario::Scenario`] of this many clients behind one
    /// switch, all probing the same server, with per-session results
    /// keyed in [`crate::runner::CellResult::sessions`]. 1 — the paper's
    /// setup and the default — is the single-client testbed.
    pub clients: u32,
    /// Override the server access link's line rate, bits/s (`None` = the
    /// paper's 100 Mbps fast Ethernet), at any client count. The
    /// `contend` experiment narrows this shared bottleneck so handshakes
    /// queue behind concurrent sessions' traffic.
    pub server_link_rate_bps: Option<u64>,
    /// Dynamic shaping of the server's access link: per-direction spec
    /// overrides, time-varying rate schedules and the queue discipline
    /// ([`LinkShape`]). The default installs nothing, keeping the
    /// paper's static link bit-for-bit; the battery's `bloat` and
    /// `varying` scenarios plug deep drop-tail queues, CoDel and rate
    /// schedules in here.
    pub link_shape: LinkShape,
    /// How many raw samples each session keeps (see [`StreamingSpec`];
    /// the default keeps all of them).
    pub streaming: StreamingSpec,
}

impl ExperimentCell {
    /// Start building a cell from the paper's defaults. Unlike the
    /// `with_*` modifiers, the builder covers *every* knob and validates
    /// at [`CellBuilder::build`] time.
    pub fn builder(method: MethodId, runtime: RuntimeSel, os: OsKind) -> CellBuilder {
        CellBuilder {
            cell: ExperimentCell::paper(method, runtime, os),
        }
    }

    /// The paper's standard cell: 50 reps, 50 ms server delay, exact
    /// capture stamps.
    pub fn paper(method: MethodId, runtime: RuntimeSel, os: OsKind) -> ExperimentCell {
        ExperimentCell {
            method,
            runtime,
            os,
            timing_override: None,
            reps: 50,
            server_delay: SimDuration::from_millis(50),
            capture_noise_ns: 0,
            seed: 0xB32B_0001,
            fixed_safari_java: false,
            impairment: Impairment::NONE,
            trace: false,
            clients: 1,
            server_link_rate_bps: None,
            link_shape: LinkShape::default(),
            streaming: StreamingSpec::default(),
        }
    }

    /// Enable per-repetition tracing and Δd attribution.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Override the timing API.
    pub fn with_timing(mut self, t: TimingApiKind) -> Self {
        self.timing_override = Some(t);
        self
    }

    /// Override the repetition count.
    pub fn with_reps(mut self, reps: u32) -> Self {
        self.reps = reps;
        self
    }

    /// Override the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Apply §5's Safari Java fix.
    pub fn with_fixed_safari_java(mut self) -> Self {
        self.fixed_safari_java = true;
        self
    }

    /// Impair the testbed network (loss, corruption, duplication,
    /// jitter).
    pub fn with_impairment(mut self, imp: Impairment) -> Self {
        self.impairment = imp;
        self
    }

    /// Apply a typed contention specification (client count + shared
    /// bottleneck rate together).
    pub fn with_contention(mut self, spec: ContentionSpec) -> Self {
        self.clients = spec.clients;
        self.server_link_rate_bps = spec.server_link_rate_bps;
        self
    }

    /// Apply a typed streaming specification (per-session sample
    /// retention).
    pub fn with_streaming(mut self, spec: StreamingSpec) -> Self {
        self.streaming = spec;
        self
    }

    /// Shape the server's access link (asymmetric specs, rate schedules,
    /// queue discipline).
    pub fn with_link_shape(mut self, shape: LinkShape) -> Self {
        self.link_shape = shape;
        self
    }

    /// The cell's contention configuration as one typed value.
    pub fn contention(&self) -> ContentionSpec {
        ContentionSpec {
            clients: self.clients,
            server_link_rate_bps: self.server_link_rate_bps,
        }
    }

    /// Cell label for reports: "XHR GET / C (U) / Δd".
    pub fn label(&self) -> String {
        format!(
            "{} / {}",
            self.method.display_name(),
            self.runtime.figure_label(self.os)
        )
    }

    /// Whether the runtime can execute the method (Table 2 feature
    /// matrix).
    pub fn is_runnable(&self) -> bool {
        crate::runner::ExperimentRunner::try_profile(self).is_ok()
    }
}

/// Builds an [`ExperimentCell`], validating the configuration once at
/// the end instead of panicking later inside the runner.
///
/// ```
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
/// .reps(10)
/// .seed(42)
/// .server_delay_ms(25)
/// .build()
/// .unwrap();
/// assert_eq!(cell.reps, 10);
/// ```
#[derive(Debug, Clone)]
pub struct CellBuilder {
    cell: ExperimentCell,
}

impl CellBuilder {
    /// Override the timing API (Table 4 passes `JavaNanoTime`).
    pub fn timing(mut self, t: TimingApiKind) -> Self {
        self.cell.timing_override = Some(t);
        self
    }

    /// Use the method's era-accurate default timing API (the default).
    pub fn default_timing(mut self) -> Self {
        self.cell.timing_override = None;
        self
    }

    /// Repetition count (the paper runs 50).
    pub fn reps(mut self, reps: u32) -> Self {
        self.cell.reps = reps;
        self
    }

    /// Artificial one-way server delay.
    pub fn server_delay(mut self, d: SimDuration) -> Self {
        self.cell.server_delay = d;
        self
    }

    /// Artificial one-way server delay in whole milliseconds.
    pub fn server_delay_ms(self, ms: u64) -> Self {
        self.server_delay(SimDuration::from_millis(ms))
    }

    /// Capture timestamping noise bound (0 = exact stamps).
    pub fn capture_noise_ns(mut self, ns: u64) -> Self {
        self.cell.capture_noise_ns = ns;
        self
    }

    /// Master seed for all derived streams.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cell.seed = seed;
        self
    }

    /// Apply (or clear) §5's Safari fix — force the Oracle JRE.
    pub fn fixed_safari_java(mut self, on: bool) -> Self {
        self.cell.fixed_safari_java = on;
        self
    }

    /// Impair the testbed network (the default is the paper's clean
    /// network, [`Impairment::NONE`]).
    pub fn impairment(mut self, imp: Impairment) -> Self {
        self.cell.impairment = imp;
        self
    }

    /// Record per-repetition traces and Δd attribution reports.
    pub fn trace(mut self, on: bool) -> Self {
        self.cell.trace = on;
        self
    }

    /// Concurrent sessions and shared-bottleneck rate as one typed
    /// value (see [`ContentionSpec`]).
    pub fn contention(mut self, spec: ContentionSpec) -> Self {
        self.cell.clients = spec.clients;
        self.cell.server_link_rate_bps = spec.server_link_rate_bps;
        self
    }

    /// Per-session sample retention (see [`StreamingSpec`]).
    pub fn streaming(mut self, spec: StreamingSpec) -> Self {
        self.cell.streaming = spec;
        self
    }

    /// Shape the server's access link (see [`LinkShape`]).
    pub fn link_shape(mut self, shape: LinkShape) -> Self {
        self.cell.link_shape = shape;
        self
    }

    /// Validate and produce the cell.
    ///
    /// Fails with [`RunError::Unrunnable`] when the runtime cannot
    /// execute the method (Table 2), and
    /// [`RunError::InvalidInput`] when `reps` is zero, the contention
    /// spec is out of range (zero clients, more clients than the
    /// scenario session limit), or a link-rate override is zero.
    pub fn build(self) -> Result<ExperimentCell, RunError> {
        if self.cell.reps == 0 {
            return Err(RunError::InvalidInput("reps must be >= 1"));
        }
        self.cell.contention().validate()?;
        self.cell
            .link_shape
            .validate()
            .map_err(RunError::InvalidInput)?;
        if !self.cell.is_runnable() {
            return Err(RunError::unrunnable(&self.cell));
        }
        Ok(self.cell)
    }

    /// Produce the cell without validation — for deliberately
    /// constructing unrunnable or degenerate cells (tests, grid
    /// enumeration that filters later).
    pub fn build_unchecked(self) -> ExperimentCell {
        self.cell
    }
}

/// All (runtime, OS) combinations of the paper's Figure 3, in figure
/// order: Ubuntu browsers first, then Windows.
pub fn figure3_combos() -> Vec<(RuntimeSel, OsKind)> {
    let mut combos = Vec::new();
    for os in [OsKind::Ubuntu1204, OsKind::Windows7] {
        for b in BrowserKind::ALL {
            if b.available_on(os) {
                combos.push((RuntimeSel::Browser(b), os));
            }
        }
    }
    combos
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_figure3_combos() {
        let combos = figure3_combos();
        assert_eq!(combos.len(), 8);
        assert_eq!(combos[0].1, OsKind::Ubuntu1204);
        assert_eq!(
            combos
                .iter()
                .filter(|(_, os)| *os == OsKind::Windows7)
                .count(),
            5
        );
    }

    #[test]
    fn websocket_cells_runnable_only_where_supported() {
        let runnable = figure3_combos()
            .into_iter()
            .filter(|(r, os)| ExperimentCell::paper(MethodId::WebSocket, *r, *os).is_runnable())
            .count();
        // 3 Ubuntu + Chrome/Firefox/Opera on Windows = 6 (no IE, Safari).
        assert_eq!(runnable, 6);
    }

    #[test]
    fn labels() {
        let cell = ExperimentCell::paper(
            MethodId::FlashGet,
            RuntimeSel::Browser(BrowserKind::Opera),
            OsKind::Windows7,
        );
        assert_eq!(cell.label(), "Flash GET / O (W)");
        assert_eq!(
            RuntimeSel::AppletViewer.figure_label(OsKind::Windows7),
            "appletviewer (W)"
        );
    }

    #[test]
    fn builder_covers_every_knob() {
        let cell = ExperimentCell::builder(
            MethodId::JavaTcp,
            RuntimeSel::Browser(BrowserKind::Firefox),
            OsKind::Windows7,
        )
        .timing(TimingApiKind::JavaNanoTime)
        .reps(12)
        .server_delay_ms(25)
        .capture_noise_ns(300_000)
        .seed(7)
        .fixed_safari_java(true)
        .impairment(Impairment::loss(0.02))
        .trace(true)
        .contention(ContentionSpec::clients(4).with_server_link_rate(10_000_000))
        .build()
        .unwrap();
        assert_eq!(cell.timing_override, Some(TimingApiKind::JavaNanoTime));
        assert_eq!(cell.reps, 12);
        assert_eq!(cell.server_delay.as_millis(), 25);
        assert_eq!(cell.capture_noise_ns, 300_000);
        assert_eq!(cell.seed, 7);
        assert!(cell.fixed_safari_java);
        assert_eq!(cell.impairment, Impairment::loss(0.02));
        assert!(!cell.impairment.is_clean());
        assert!(cell.trace);
        assert_eq!(cell.clients, 4);
        assert_eq!(cell.server_link_rate_bps, Some(10_000_000));
        let cleared = ExperimentCell::builder(
            MethodId::JavaTcp,
            RuntimeSel::Browser(BrowserKind::Firefox),
            OsKind::Windows7,
        )
        .timing(TimingApiKind::JavaNanoTime)
        .default_timing()
        .build()
        .unwrap();
        assert_eq!(cleared.timing_override, None);
    }

    #[test]
    fn builder_rejects_bad_configurations() {
        let unrunnable = ExperimentCell::builder(
            MethodId::WebSocket,
            RuntimeSel::Browser(BrowserKind::Ie9),
            OsKind::Windows7,
        )
        .build();
        assert!(matches!(unrunnable, Err(RunError::Unrunnable { .. })));

        let zero_reps = ExperimentCell::builder(
            MethodId::XhrGet,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        )
        .reps(0)
        .build();
        assert_eq!(zero_reps, Err(RunError::InvalidInput("reps must be >= 1")));

        let chrome = || {
            ExperimentCell::builder(
                MethodId::XhrGet,
                RuntimeSel::Browser(BrowserKind::Chrome),
                OsKind::Ubuntu1204,
            )
        };
        assert_eq!(
            chrome().contention(ContentionSpec::clients(0)).build(),
            Err(RunError::InvalidInput("clients must be >= 1"))
        );
        assert_eq!(
            chrome().contention(ContentionSpec::clients(4097)).build(),
            Err(RunError::InvalidInput(
                "clients exceeds the scenario session limit"
            ))
        );
        // The old 64-client ceiling is gone: a crowd-scale cell builds.
        let crowd = chrome()
            .contention(ContentionSpec::clients(1000).with_server_link_rate(6_250_000))
            .build()
            .unwrap();
        assert_eq!(crowd.contention().clients, 1000);
        assert_eq!(
            chrome()
                .contention(ContentionSpec::solo().with_server_link_rate(0))
                .build(),
            Err(RunError::InvalidInput("server link rate must be > 0"))
        );
        let bounded = chrome()
            .streaming(StreamingSpec::bounded(32))
            .build()
            .unwrap();
        assert_eq!(bounded.streaming, StreamingSpec::bounded(32));

        // A degenerate link shape (zero-rate override) is rejected with
        // the spec's own message; a valid CoDel shape passes.
        assert_eq!(
            chrome()
                .link_shape(LinkShape {
                    down_spec: Some(bnm_sim::LinkSpec {
                        rate_bps: 0,
                        ..bnm_sim::LinkSpec::fast_ethernet()
                    }),
                    ..LinkShape::default()
                })
                .build(),
            Err(RunError::InvalidInput("link rate_bps must be positive"))
        );
        let shaped = chrome()
            .link_shape(LinkShape::symmetric(bnm_sim::LinkDynamics::codel()))
            .build()
            .unwrap();
        assert!(!shaped.link_shape.is_static());

        // build_unchecked lets both through for later filtering.
        let cell = ExperimentCell::builder(
            MethodId::WebSocket,
            RuntimeSel::Browser(BrowserKind::Ie9),
            OsKind::Windows7,
        )
        .build_unchecked();
        assert!(!cell.is_runnable());
    }

    #[test]
    fn paper_defaults() {
        let cell = ExperimentCell::paper(
            MethodId::XhrGet,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        );
        assert_eq!(cell.reps, 50);
        assert_eq!(cell.server_delay.as_millis(), 50);
        assert_eq!(cell.timing_override, None);
        assert!(cell.impairment.is_clean());
        assert!(cell.is_runnable());
    }
}

#[cfg(test)]
mod mobile_tests {
    use super::*;
    use bnm_methods::MethodId;

    #[test]
    fn mobile_runs_native_methods_only() {
        for m in MethodId::ALL {
            let cell = ExperimentCell::paper(m, RuntimeSel::MobileWebKit, OsKind::Ubuntu1204);
            let native = matches!(
                m,
                MethodId::XhrGet | MethodId::XhrPost | MethodId::Dom | MethodId::WebSocket
            );
            assert_eq!(cell.is_runnable(), native, "{m}");
        }
    }

    #[test]
    fn mobile_label() {
        let cell = ExperimentCell::paper(
            MethodId::WebSocket,
            RuntimeSel::MobileWebKit,
            OsKind::Ubuntu1204,
        );
        assert_eq!(cell.label(), "WebSocket / M (mobile)");
    }
}
