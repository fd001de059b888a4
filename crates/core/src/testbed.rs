//! The two-machine testbed of the paper's Figure 2.
//!
//! ```text
//!   client ──100 Mbps── switch ──100 Mbps── web server
//!     │                                        └─ 50 ms netem on egress
//!     └─ WinDump/tcpdump (capture tap)
//! ```

use std::net::Ipv4Addr;

use bytes::Bytes;

use bnm_browser::{BrowserProfile, BrowserSession, ProbePlan, ProbeTransport};
use bnm_http::server::{ServerConfig, WebServer};
use bnm_obs::{Trace, TraceData};
use bnm_sim::engine::{Engine, NodeId};
use bnm_sim::link::{LinkId, LinkSpec};
use bnm_sim::time::{SimDuration, SimTime};
use bnm_sim::wire::MacAddr;
use bnm_sim::LinkShape;
use bnm_sim::{Impairment, TapId};
use bnm_tcp::Host;
use bnm_time::MachineTimer;

use crate::error::RunError;
use crate::scenario::{Scenario, SessionSpec};

/// Addresses of the testbed (the paper's lab subnet flavour).
pub const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);
/// The web server's address.
pub const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
/// Client NIC MAC.
pub const CLIENT_MAC: MacAddr = MacAddr::local(2);
/// Server NIC MAC.
pub const SERVER_MAC: MacAddr = MacAddr::local(1);

/// Cross-traffic load on the testbed (the paper explicitly ensured
/// "the network was free of cross traffic"; this knob breaks that
/// assumption on purpose, to show the methodology's robustness).
#[derive(Debug, Clone, Copy)]
pub struct CrossTraffic {
    /// Noise datagrams per second sent toward the server's UDP echo port
    /// (each is echoed, loading both directions of the server link).
    pub rate_pps: u64,
    /// Noise payload size, bytes.
    pub payload: usize,
    /// How long the noise source runs.
    pub duration: SimDuration,
}

/// Testbed construction parameters.
#[derive(Debug, Clone)]
pub struct TestbedConfig {
    /// One-way netem delay applied on the server's egress (§3: 50 ms).
    pub server_delay: SimDuration,
    /// Capture timestamp noise bound (ns); 0 = exact.
    pub capture_noise_ns: u64,
    /// Web server knobs.
    pub server: ServerConfig,
    /// Master seed for the capture-noise stream.
    pub seed: u64,
    /// The server's access link — the segment every session of a
    /// multi-client [`crate::scenario::Scenario`] contends for. The
    /// default is the paper's 100 Mbps fast Ethernet; the `contend`
    /// experiment narrows it to make the shared bottleneck bite.
    pub server_link: LinkSpec,
    /// Dynamic shaping of the server's access link: per-direction spec
    /// overrides (asymmetric rates), time-varying rate schedules and the
    /// queue discipline ([`LinkShape`]). The default installs nothing —
    /// the clean build stays bit-identical — while the `bloat` and
    /// `varying` battery scenarios plug in deep drop-tail queues, CoDel
    /// and rate schedules here.
    pub server_shape: LinkShape,
    /// Optional cross-traffic source contending on the server link.
    pub cross_traffic: Option<CrossTraffic>,
    /// Network impairment: `up` applies to the client's egress, `down`
    /// to the server's egress (alongside the netem delay), and `jitter`
    /// bounds a uniform per-frame addition to the server-side
    /// `extra_delay`. [`Impairment::NONE`] (the default) leaves the
    /// engine exactly as the clean build wires it.
    pub impairment: Impairment,
}

impl Default for TestbedConfig {
    fn default() -> Self {
        TestbedConfig {
            server_delay: SimDuration::from_millis(50),
            capture_noise_ns: 0,
            server: ServerConfig::default(),
            seed: 1,
            server_link: LinkSpec::fast_ethernet(),
            server_shape: LinkShape::default(),
            cross_traffic: None,
            impairment: Impairment::NONE,
        }
    }
}

/// A UDP noise source: floods the server's echo port at a fixed rate for
/// a fixed duration.
pub(crate) struct NoiseSource {
    target: (Ipv4Addr, u16),
    interval: SimDuration,
    remaining: u64,
    payload: usize,
    port: u16,
}

impl NoiseSource {
    pub(crate) fn new(
        target: (Ipv4Addr, u16),
        interval: SimDuration,
        remaining: u64,
        payload: usize,
    ) -> NoiseSource {
        NoiseSource {
            target,
            interval,
            remaining,
            payload,
            port: 0,
        }
    }
}

impl bnm_tcp::HostApp for NoiseSource {
    fn on_boot(&mut self, ctx: &mut bnm_tcp::HostCtx) {
        self.port = ctx.udp_bind_ephemeral();
        if self.remaining > 0 {
            ctx.set_app_timer(self.interval, 0);
        }
    }
    fn on_event(&mut self, _: &mut bnm_tcp::HostCtx, _: bnm_tcp::SockEvent) {}
    fn on_timer(&mut self, ctx: &mut bnm_tcp::HostCtx, _token: u64) {
        ctx.udp_send(
            self.port,
            self.target,
            Bytes::from(vec![0xAAu8; self.payload]),
        );
        self.remaining -= 1;
        if self.remaining > 0 {
            ctx.set_app_timer(self.interval, 0);
        }
    }
}

/// A built testbed, ready to run one browser session.
pub struct Testbed {
    /// The simulation engine.
    pub engine: Engine,
    /// The client host node (carries the [`BrowserSession`]).
    pub client: NodeId,
    /// The server host node.
    pub server: NodeId,
    /// The switch node.
    pub switch: NodeId,
    /// The WinDump tap at the client's NIC.
    pub client_tap: TapId,
    /// A second tap at the server's NIC (for the server-side extension).
    pub server_tap: TapId,
    /// The server's access link (queue-drop and queue-depth gauges are
    /// read off it after a run).
    pub server_link: LinkId,
    trace: Trace,
}

impl Testbed {
    /// Start building a testbed; validation happens at
    /// [`TestbedBuilder::build`], mirroring
    /// [`crate::ExperimentCell::builder`].
    pub fn builder() -> TestbedBuilder {
        TestbedBuilder::default()
    }

    /// Build the Figure 2 testbed around a session (plan + profile +
    /// machine clock).
    pub fn build(
        cfg: &TestbedConfig,
        plan: ProbePlan,
        profile: BrowserProfile,
        machine: MachineTimer,
        rep_token: u64,
        session_seed: u64,
    ) -> Testbed {
        Self::build_traced(
            cfg,
            plan,
            profile,
            machine,
            rep_token,
            session_seed,
            Trace::disabled(),
        )
    }

    /// [`Testbed::build`] with a trace handle wired through the engine,
    /// the client host's TCP stack and the browser session.
    ///
    /// Since the multi-client refactor this is a thin wrapper: it builds
    /// a one-session [`Scenario`] (session id 0) and unwraps it, so the
    /// legacy single-client testbed *is* the N = 1 scenario — there is no
    /// second wiring path to drift out of sync.
    pub fn build_traced(
        cfg: &TestbedConfig,
        plan: ProbePlan,
        profile: BrowserProfile,
        machine: MachineTimer,
        rep_token: u64,
        session_seed: u64,
        trace: Trace,
    ) -> Testbed {
        let scenario = Scenario::build_traced(
            cfg,
            vec![SessionSpec {
                id: 0,
                plan,
                profile,
                machine,
                seed: session_seed,
            }],
            rep_token,
            trace,
        );
        let Scenario {
            engine,
            clients,
            server,
            switch,
            client_taps,
            server_tap,
            server_link,
            trace,
            session_ids: _,
        } = scenario;
        Testbed {
            engine,
            client: clients[0],
            server,
            switch,
            client_tap: client_taps[0],
            server_tap,
            server_link,
            trace,
        }
    }

    /// Extract the recorded trace data, if tracing was enabled. Takes
    /// `&mut self`: the buffer is moved out, and reading it back later
    /// would observe an empty trace.
    pub fn take_trace(&mut self) -> Option<TraceData> {
        self.trace.take()
    }

    /// Run to completion (with a generous horizon as a hang backstop) and
    /// return the finishing time: the instant of the last event, or the
    /// horizon if events remain beyond it.
    pub fn run(&mut self) -> SimTime {
        self.engine.run_until(SimTime::from_secs(300))
    }

    /// The client's session (read results after [`Testbed::run`]).
    pub fn session(&self) -> &BrowserSession {
        self.engine
            .node_ref::<Host<BrowserSession>>(self.client)
            .app()
    }

    /// The server application (stats).
    pub fn web_server(&self) -> &WebServer {
        self.engine.node_ref::<Host<WebServer>>(self.server).app()
    }
}

/// Builds a [`Testbed`] incrementally, validating at
/// [`TestbedBuilder::build`] instead of panicking mid-run.
#[derive(Default)]
pub struct TestbedBuilder {
    cfg: TestbedConfig,
    plan: Option<ProbePlan>,
    profile: Option<BrowserProfile>,
    machine: Option<MachineTimer>,
    rep_token: u64,
    session_seed: u64,
    trace: bool,
}

impl TestbedBuilder {
    /// Replace the whole network/server configuration.
    pub fn config(mut self, cfg: TestbedConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// One-way netem delay on the server's egress.
    pub fn server_delay(mut self, delay: SimDuration) -> Self {
        self.cfg.server_delay = delay;
        self
    }

    /// Capture timestamp noise bound, ns.
    pub fn capture_noise_ns(mut self, bound: u64) -> Self {
        self.cfg.capture_noise_ns = bound;
        self
    }

    /// Master seed for the capture-noise stream.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// The server's access link spec (the shared bottleneck of
    /// multi-client scenarios; defaults to fast Ethernet).
    pub fn server_link(mut self, spec: LinkSpec) -> Self {
        self.cfg.server_link = spec;
        self
    }

    /// Shape the server's access link: per-direction spec overrides,
    /// time-varying rate schedules and queue disciplines (defaults to
    /// the unshaped static link).
    pub fn server_shape(mut self, shape: LinkShape) -> Self {
        self.cfg.server_shape = shape;
        self
    }

    /// Add a cross-traffic source on the server link.
    pub fn cross_traffic(mut self, ct: CrossTraffic) -> Self {
        self.cfg.cross_traffic = Some(ct);
        self
    }

    /// Impair the testbed network (loss / corruption / duplication /
    /// jitter; the default is the paper's clean network).
    pub fn impairment(mut self, imp: Impairment) -> Self {
        self.cfg.impairment = imp;
        self
    }

    /// The measurement method to execute (required).
    pub fn plan(mut self, plan: ProbePlan) -> Self {
        self.plan = Some(plan);
        self
    }

    /// The runtime cost profile (required).
    pub fn profile(mut self, profile: BrowserProfile) -> Self {
        self.profile = Some(profile);
        self
    }

    /// The client machine's timer (required).
    pub fn machine(mut self, machine: MachineTimer) -> Self {
        self.machine = Some(machine);
        self
    }

    /// Repetition token embedded in probe markers.
    pub fn rep_token(mut self, token: u64) -> Self {
        self.rep_token = token;
        self
    }

    /// Seed for the session's noise streams.
    pub fn session_seed(mut self, seed: u64) -> Self {
        self.session_seed = seed;
        self
    }

    /// Enable trace recording (read back via [`Testbed::take_trace`]).
    pub fn trace(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Validate and construct. Reports [`RunError::InvalidInput`] when a
    /// required part is missing or the plan cannot run on the profile —
    /// conditions the unchecked [`Testbed::build`] path surfaces as
    /// mid-run panics.
    pub fn build(self) -> Result<Testbed, RunError> {
        let plan = self
            .plan
            .ok_or(RunError::InvalidInput("a probe plan is required"))?;
        let profile = self
            .profile
            .ok_or(RunError::InvalidInput("a browser profile is required"))?;
        let machine = self
            .machine
            .ok_or(RunError::InvalidInput("a machine timer is required"))?;
        if plan.transport == ProbeTransport::WebSocketEcho && !profile.supports_websocket {
            return Err(RunError::InvalidInput(
                "plan requires WebSocket but the runtime lacks it",
            ));
        }
        // A zero-rate or zero-queue link would panic (or silently hang)
        // deep inside the engine; report it as a typed error up front.
        self.cfg
            .server_link
            .validate()
            .map_err(RunError::InvalidInput)?;
        self.cfg
            .server_shape
            .validate()
            .map_err(RunError::InvalidInput)?;
        let trace = if self.trace {
            Trace::enabled()
        } else {
            Trace::disabled()
        };
        Ok(Testbed::build_traced(
            &self.cfg,
            plan,
            profile,
            machine,
            self.rep_token,
            self.session_seed,
            trace,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnm_browser::{BrowserKind, ProbeTransport, Technology};
    use bnm_time::{OsKind, TimingApiKind};

    fn xhr_plan() -> ProbePlan {
        ProbePlan::new(
            "xhr_get",
            Technology::Native,
            ProbeTransport::HttpGet,
            TimingApiKind::JsDateGetTime,
        )
    }

    fn build_default() -> Testbed {
        let profile = BrowserProfile::build(BrowserKind::Chrome, OsKind::Ubuntu1204).unwrap();
        let machine = MachineTimer::new(OsKind::Ubuntu1204, 7);
        Testbed::build(
            &TestbedConfig::default(),
            xhr_plan(),
            profile,
            machine,
            0,
            7,
        )
    }

    #[test]
    fn session_completes_and_taps_capture_traffic() {
        let mut tb = build_default();
        // The run ends at its last event (the TIME-WAIT expiry), long
        // before the hang backstop.
        let end = tb.run();
        assert!(end < SimTime::from_secs(300), "finished at {end:?}");
        assert_eq!(end, tb.engine.now());
        assert!(tb.session().result().completed);
        assert!(!tb.engine.tap(tb.client_tap).is_empty());
        assert!(!tb.engine.tap(tb.server_tap).is_empty());
        // The server actually served: container page + 2 probes.
        assert_eq!(tb.web_server().stats.pages, 1);
        assert_eq!(tb.web_server().stats.gets, 2);
    }

    #[test]
    fn server_delay_shows_up_in_round_trips() {
        let mut tb = build_default();
        tb.run();
        let rounds = &tb.session().result().rounds;
        for r in rounds {
            assert!(r.browser_rtt_ms() > 50.0, "rtt {}", r.browser_rtt_ms());
        }
    }

    #[test]
    fn capture_noise_is_applied_when_configured() {
        let cfg = TestbedConfig {
            capture_noise_ns: 300_000,
            ..TestbedConfig::default()
        };
        let profile = BrowserProfile::build(BrowserKind::Chrome, OsKind::Ubuntu1204).unwrap();
        let machine = MachineTimer::new(OsKind::Ubuntu1204, 7);
        let mut tb = Testbed::build(&cfg, xhr_plan(), profile, machine, 0, 7);
        tb.run();
        assert!(tb.session().result().completed);
    }

    #[test]
    fn builder_validates_missing_parts_and_websocket_support() {
        let err = match Testbed::builder().build() {
            Ok(_) => panic!("empty builder must not validate"),
            Err(e) => e,
        };
        assert_eq!(err, RunError::InvalidInput("a probe plan is required"));
        // IE9 has no WebSocket (Table 2): the builder reports it up front
        // instead of panicking mid-run.
        let ws_plan = ProbePlan::new(
            "websocket",
            Technology::Native,
            ProbeTransport::WebSocketEcho,
            TimingApiKind::JsDateGetTime,
        );
        let profile = BrowserProfile::build(BrowserKind::Ie9, OsKind::Windows7).unwrap();
        let err = match Testbed::builder()
            .plan(ws_plan)
            .profile(profile)
            .machine(MachineTimer::new(OsKind::Windows7, 1))
            .build()
        {
            Ok(_) => panic!("IE9 WebSocket testbed must not validate"),
            Err(e) => e,
        };
        assert!(matches!(err, RunError::InvalidInput(_)));
    }

    #[test]
    fn builder_rejects_degenerate_link_specs() {
        let profile = BrowserProfile::build(BrowserKind::Chrome, OsKind::Ubuntu1204).unwrap();
        let base = || {
            Testbed::builder()
                .plan(xhr_plan())
                .profile(profile.clone())
                .machine(MachineTimer::new(OsKind::Ubuntu1204, 7))
        };
        let zero_rate = base()
            .server_link(LinkSpec {
                rate_bps: 0,
                ..LinkSpec::fast_ethernet()
            })
            .build();
        assert_eq!(
            zero_rate.err(),
            Some(RunError::InvalidInput("link rate_bps must be positive"))
        );
        let zero_queue = base()
            .server_link(LinkSpec {
                queue_limit_bytes: 0,
                ..LinkSpec::fast_ethernet()
            })
            .build();
        assert_eq!(
            zero_queue.err(),
            Some(RunError::InvalidInput(
                "link queue_limit_bytes must be positive"
            ))
        );
        let bad_shape = base()
            .server_shape(LinkShape {
                down_spec: Some(LinkSpec {
                    rate_bps: 0,
                    ..LinkSpec::fast_ethernet()
                }),
                ..LinkShape::default()
            })
            .build();
        assert!(matches!(bad_shape, Err(RunError::InvalidInput(_))));
        // A valid shape builds and runs.
        let mut tb = base()
            .server_shape(LinkShape::symmetric(bnm_sim::LinkDynamics::codel()))
            .build()
            .unwrap();
        tb.run();
        assert!(tb.session().result().completed);
    }

    #[test]
    fn builder_matches_direct_build_and_records_traces() {
        let profile = BrowserProfile::build(BrowserKind::Chrome, OsKind::Ubuntu1204).unwrap();
        let machine = MachineTimer::new(OsKind::Ubuntu1204, 7);
        let mut tb = Testbed::builder()
            .plan(xhr_plan())
            .profile(profile)
            .machine(machine)
            .session_seed(7)
            .trace(true)
            .build()
            .unwrap();
        tb.run();
        assert!(tb.session().result().completed);
        let data = tb.take_trace().expect("tracing was enabled");
        assert!(data.counters["link.frames"] > 0);
        assert!(data
            .events
            .iter()
            .any(|e| e.scope == "session" && e.label == "round.start"));
        // Same seeds as build_default(): identical wire behaviour.
        let mut direct = build_default();
        direct.run();
        assert!(direct.take_trace().is_none());
        let rounds = |t: &Testbed| t.session().result().rounds.clone();
        assert_eq!(rounds(&tb), rounds(&direct));
    }

    #[test]
    fn identical_seeds_give_identical_traces() {
        let trace = |seed: u64| {
            let profile = BrowserProfile::build(BrowserKind::Firefox, OsKind::Windows7).unwrap();
            let machine = MachineTimer::new(OsKind::Windows7, seed);
            let mut tb = Testbed::build(
                &TestbedConfig::default(),
                xhr_plan(),
                profile,
                machine,
                3,
                seed,
            );
            tb.run();
            tb.engine
                .tap(tb.client_tap)
                .records()
                .iter()
                .map(|r| (r.ts, r.frame.len()))
                .collect::<Vec<_>>()
        };
        assert_eq!(trace(42), trace(42));
        assert_ne!(trace(42), trace(43));
    }
}
