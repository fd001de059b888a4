//! Multi-client scenarios: one engine, N concurrent measuring sessions.
//!
//! The paper's testbed (Figure 2) is one client machine measuring through
//! one switch. A [`Scenario`] generalizes it: N browser sessions, each
//! with its own TCP stack, machine timer and client-side capture tap,
//! share the switch and contend for the same web server. The paper's
//! testbed is the one-session scenario; there is no second wiring path.
//! Every scenario is built through [`ScenarioBuilder::build`], which
//! refuses what would otherwise panic or hang mid-run.
//!
//! Contention enters the measured Δd through exactly one door: time spent
//! *before* `tN_s` inside the browser-timed interval. Network queueing
//! between `tN_s` and `tN_r` cancels out of Eq. 1. So methods that open a
//! fresh TCP connection inside a timed round (Opera's Flash GET round 1,
//! Flash POST every round) absorb a handshake that must queue behind
//! other sessions' traffic — their Δd grows with the client count — while
//! connection-reusing methods (WebSocket) stay tight.

use std::net::Ipv4Addr;
use std::sync::Arc;

use bnm_browser::session::SessionConfig;
use bnm_browser::{BrowserProfile, BrowserSession, ProbePlan, ProbeTransport};
use bnm_http::server::WebServer;
use bnm_obs::{Trace, TraceData};
use bnm_sim::capture::{CaptureBuffer, TimestampNoise};
use bnm_sim::engine::{Engine, NodeId, PortNo};
use bnm_sim::link::{LinkId, LinkSpec};
use bnm_sim::rng;
use bnm_sim::switch::Switch;
use bnm_sim::time::{SimDuration, SimTime};
use bnm_sim::wire::MacAddr;
use bnm_sim::TapId;
use bnm_tcp::{Host, HostConfig};
use bnm_time::MachineTimer;

use crate::error::RunError;
use crate::testbed::{NoiseSource, TestbedConfig, CLIENT_IP, CLIENT_MAC, SERVER_IP, SERVER_MAC};

/// One measuring session within a [`Scenario`].
#[derive(Debug)]
pub struct SessionSpec {
    /// Session id, embedded (via [`bnm_browser::session_token`]) in every
    /// probe marker the session puts on the wire. Ids must be unique
    /// within a scenario; id 0's token is the bare repetition token.
    pub id: u64,
    /// The measurement method this session executes.
    pub plan: ProbePlan,
    /// The session's runtime cost profile.
    pub profile: BrowserProfile,
    /// The session's machine timer (its own granularity regimes).
    pub machine: MachineTimer,
    /// Master seed for the session's noise streams.
    pub seed: u64,
}

/// MAC of the cross-traffic noise source ([`TestbedConfig::cross_traffic`]).
const NOISE_MAC: MacAddr = MacAddr::local(3);
/// Address of the cross-traffic noise source, outside every client range.
const NOISE_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 3);

/// Highest client position still using the original single-octet
/// addressing scheme. Keeping the original formula for these positions
/// preserves existing multi-client traces bit for bit.
const LEGACY_ADDR_POSITIONS: usize = 190;

/// Per-client addressing. Position 0 keeps the paper testbed's identity
/// (`"client"`, [`CLIENT_MAC`], [`CLIENT_IP`]); positions 1 through
/// `LEGACY_ADDR_POSITIONS` (190) get the original derived scheme —
/// locally-administered MACs from 5 upward and addresses from
/// `192.168.1.65` upward, disjoint from the server (`.10`) and the
/// cross-traffic noise source (`.3`). Positions beyond that exhaust the
/// `192.168.1.0/24` octet and move to a two-octet scheme: MACs
/// `02-42-4e-4d-HH-LL` and addresses `10.77.HH.LL` keyed by the
/// position's two low bytes. Neighbor tables and the switch's forwarding
/// table are static, so the mixed "subnets" are purely cosmetic — every
/// host is one switch hop away.
pub fn client_addr(position: usize) -> (String, MacAddr, Ipv4Addr) {
    if position == 0 {
        ("client".to_string(), CLIENT_MAC, CLIENT_IP)
    } else if position <= LEGACY_ADDR_POSITIONS {
        (
            format!("client-{position}"),
            MacAddr::local(4 + position as u8),
            Ipv4Addr::new(192, 168, 1, 64 + position as u8),
        )
    } else {
        assert!(
            position < Scenario::ADDRESS_CAPACITY,
            "client position {position} exceeds the addressing capacity of {}",
            Scenario::ADDRESS_CAPACITY
        );
        let hi = (position >> 8) as u8;
        let lo = position as u8;
        (
            format!("client-{position}"),
            MacAddr([0x02, 0x42, 0x4E, 0x4D, hi, lo]),
            Ipv4Addr::new(10, 77, hi, lo),
        )
    }
}

/// N concurrent browser sessions attached through one switch to one web
/// server. Nodes, links and taps are created in a fixed order (clients by
/// ascending session id, then server, then switch extras), so a scenario
/// is deterministic: the same sessions and config give the same wire,
/// whatever order the sessions were added in.
pub struct Scenario {
    /// The shared simulation engine.
    pub engine: Engine,
    /// Client host nodes, ascending session-id order.
    pub clients: Vec<NodeId>,
    /// The web-server host node.
    pub server: NodeId,
    /// The shared switch node.
    pub switch: NodeId,
    /// One capture tap per client NIC, same order as `clients`.
    pub client_taps: Vec<TapId>,
    /// The tap at the server's NIC.
    pub server_tap: TapId,
    /// The server's access link — the shared bottleneck. Queue-drop
    /// counters and queue-depth gauges are read off it after a run
    /// ([`bnm_sim::Engine::queue_drops`] /
    /// [`bnm_sim::Engine::queue_peak_bytes`]).
    pub server_link: LinkId,
    pub(crate) trace: Trace,
    pub(crate) session_ids: Vec<u64>,
}

impl Scenario {
    /// Cap on concurrent sessions, enforced by
    /// [`ScenarioBuilder::build`], the cell validation in
    /// [`crate::config`] and the CLI's `--clients`.
    pub const SESSION_LIMIT: usize = 4096;

    /// Hard ceiling of the per-client MAC / IP allocation scheme of
    /// [`client_addr`] (two address octets).
    pub const ADDRESS_CAPACITY: usize = 65_536;

    /// Start building a scenario. Validates at
    /// [`ScenarioBuilder::build`] time instead of panicking.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::new()
    }

    /// Build an untraced scenario: [`Scenario::builder`] with `cfg`,
    /// `specs` and `rep_token`, for callers whose input is known good.
    ///
    /// # Panics
    /// With the builder's error, on any input [`ScenarioBuilder::build`]
    /// refuses.
    pub fn build(cfg: &TestbedConfig, specs: Vec<SessionSpec>, rep_token: u64) -> Scenario {
        Self::builder()
            .config(cfg.clone())
            .sessions(specs)
            .rep_token(rep_token)
            .build()
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// The construction behind [`ScenarioBuilder::build`], which has
    /// validated the input: `specs` is non-empty, sorted by id and free
    /// of duplicates. The trace handle is wired to the engine and to the
    /// *lowest-id* session only (its stack and browser): attribution
    /// decomposes one session's Δd, and a second traced stack would
    /// interleave spans from an unrelated connection timeline.
    fn build_inner(
        cfg: &TestbedConfig,
        specs: Vec<SessionSpec>,
        rep_token: u64,
        trace: Trace,
    ) -> Scenario {
        let n = specs.len();
        let mut engine = Engine::new();
        engine.set_trace(trace.clone());

        let mut clients = Vec::with_capacity(n);
        let mut session_ids = Vec::with_capacity(n);
        let mut client_nics = Vec::with_capacity(n);
        // Sessions with equal profiles share one copy; a crowd usually
        // runs one or two.
        let mut profiles: Vec<Arc<BrowserProfile>> = Vec::new();
        for (i, spec) in specs.into_iter().enumerate() {
            let profile = match profiles.iter().find(|p| ***p == spec.profile) {
                Some(p) => Arc::clone(p),
                None => {
                    let p = Arc::new(spec.profile);
                    profiles.push(Arc::clone(&p));
                    p
                }
            };
            let session_trace = if i == 0 {
                trace.clone()
            } else {
                Trace::disabled()
            };
            let (name, mac, ip) = client_addr(i);
            client_nics.push((mac, ip));
            let session = BrowserSession::new(SessionConfig {
                server_ip: SERVER_IP,
                http_port: cfg.server.http_port,
                echo_port: cfg.server.tcp_echo_port,
                udp_port: cfg.server.udp_echo_port,
                webrtc_port: cfg.server.webrtc_port,
                plan: spec.plan,
                profile,
                machine: spec.machine,
                rep_token,
                session: spec.id,
                seed: spec.seed,
                trace: session_trace.clone(),
            });
            session_ids.push(spec.id);
            clients.push(
                engine.add_node(Box::new(
                    Host::new(
                        HostConfig::new(name, mac, ip).with_neighbor(SERVER_IP, SERVER_MAC),
                        session,
                    )
                    // Position 0's offset is the stack's power-on state;
                    // later positions get disjoint ephemeral-port windows and
                    // well-separated ISNs.
                    .with_flow_offset(i as u64)
                    // Only the traced client's stack records spans: its
                    // handshakes are the ones inside the browser-measured
                    // interval (see `build_inner` docs).
                    .with_trace(session_trace),
                )),
            );
        }

        let mut server_cfg = HostConfig::new("server", SERVER_MAC, SERVER_IP);
        for &(mac, ip) in &client_nics {
            server_cfg = server_cfg.with_neighbor(ip, mac);
        }
        if cfg.cross_traffic.is_some() {
            server_cfg = server_cfg.with_neighbor(NOISE_IP, NOISE_MAC);
        }
        let server = engine.add_node(Box::new(Host::new(
            server_cfg,
            WebServer::new(cfg.server.clone()),
        )));

        // The forwarding table is provisioned like the neighbor tables:
        // client i on port i, the server on port n, the noise source on
        // port n + 1. Frames sent before the switch would have learned
        // their destination (a crowd's boot-time SYNs) are then unicast
        // instead of flooded to every client link and tap.
        let mut ports: Vec<(MacAddr, PortNo)> = client_nics
            .iter()
            .enumerate()
            .map(|(i, &(mac, _))| (mac, i))
            .collect();
        ports.push((SERVER_MAC, n));
        if cfg.cross_traffic.is_some() {
            ports.push((NOISE_MAC, n + 1));
        }
        let switch = engine.add_node(Box::new(Switch::new(ports.len()).with_table(ports)));

        let mut client_links = Vec::with_capacity(n);
        for (i, &client) in clients.iter().enumerate() {
            client_links.push(engine.connect(
                client,
                0,
                switch,
                i as PortNo,
                LinkSpec::fast_ethernet(),
            ));
        }
        // The server's access link is the shared bottleneck every session
        // contends for; its spec is a config knob so the `contend`
        // experiment can narrow it. The default is the same fast Ethernet
        // as always — the legacy clean path is untouched.
        let server_link = engine.connect(server, 0, switch, n as PortNo, cfg.server_link);
        // Per-direction spec overrides (asymmetric rates, per-direction
        // queue bounds) install *before* the netem delay below, so the
        // delay lands on the final spec. "Down" is the direction the
        // server transmits (server → clients), "up" the reverse.
        if let Some(spec) = cfg.server_shape.down_spec {
            engine.set_link_spec(server_link, server, spec);
        }
        if let Some(spec) = cfg.server_shape.up_spec {
            engine.set_link_spec(server_link, switch, spec);
        }
        engine.set_one_way_delay(server_link, server, cfg.server_delay);
        // Dynamics wiring is gated exactly like the impairments below: a
        // static shape installs nothing, keeping the clean build
        // bit-identical to the historical engine.
        if !cfg.server_shape.down.is_static() {
            engine.set_dynamics(server_link, server, cfg.server_shape.down.clone());
        }
        if !cfg.server_shape.up.is_static() {
            engine.set_dynamics(server_link, switch, cfg.server_shape.up.clone());
        }

        // Impairment wiring is fully gated, exactly as in the legacy
        // build: a clean Impairment installs nothing. Client 0 keeps the
        // legacy stream labels; later clients draw from their own
        // suffixed streams so adding a session never perturbs another's
        // fault pattern.
        let imp = cfg.impairment;
        if !imp.up.is_clean() {
            for (i, (&client, &link)) in clients.iter().zip(&client_links).enumerate() {
                let stream = if i == 0 {
                    "fault.up".to_string()
                } else {
                    format!("fault.up.{i}")
                };
                engine.set_fault(
                    link,
                    client,
                    imp.up,
                    rng::stream_indexed(cfg.seed, &stream, rep_token),
                );
            }
        }
        if !imp.down.is_clean() {
            engine.set_fault(
                server_link,
                server,
                imp.down,
                rng::stream_indexed(cfg.seed, "fault.down", rep_token),
            );
        }
        if imp.jitter > SimDuration::ZERO {
            engine.set_jitter(
                server_link,
                server,
                imp.jitter,
                rng::stream_indexed(cfg.seed, "jitter.down", rep_token),
            );
        }

        if let Some(ct) = cfg.cross_traffic {
            let interval = SimDuration::from_nanos((1_000_000_000u64 / ct.rate_pps.max(1)).max(1));
            let sends = ct.duration.as_nanos() / interval.as_nanos().max(1);
            let noise = engine.add_node(Box::new(Host::new(
                HostConfig::new("noise", NOISE_MAC, NOISE_IP).with_neighbor(SERVER_IP, SERVER_MAC),
                NoiseSource::new(
                    (SERVER_IP, cfg.server.udp_echo_port),
                    interval,
                    sends,
                    ct.payload,
                ),
            )));
            engine.connect(noise, 0, switch, n + 1, LinkSpec::fast_ethernet());
        }

        let mk_tap = |name: &str, stream: &str| {
            let buf = CaptureBuffer::new(name);
            if cfg.capture_noise_ns > 0 {
                buf.with_noise(TimestampNoise::UniformLag {
                    bound_ns: cfg.capture_noise_ns,
                    rng: rng::stream_indexed(cfg.seed, stream, rep_token),
                })
            } else {
                buf
            }
        };
        let mut client_taps = Vec::with_capacity(n);
        for (i, (&client, &link)) in clients.iter().zip(&client_links).enumerate() {
            let (tap_name, stream) = if i == 0 {
                ("client-nic".to_string(), "cap.client".to_string())
            } else {
                (format!("client-nic-{i}"), format!("cap.client.{i}"))
            };
            client_taps.push(engine.add_tap(link, client, mk_tap(&tap_name, &stream)));
        }
        let server_tap = engine.add_tap(server_link, server, mk_tap("server-nic", "cap.server"));

        Scenario {
            engine,
            clients,
            server,
            switch,
            client_taps,
            server_tap,
            server_link,
            trace,
            session_ids,
        }
    }

    /// Number of sessions in the scenario.
    pub fn len(&self) -> usize {
        self.clients.len()
    }

    /// Whether the scenario holds no sessions (never true for a built
    /// scenario; kept for API completeness next to [`Scenario::len`]).
    pub fn is_empty(&self) -> bool {
        self.clients.is_empty()
    }

    /// The session id at client position `i` (ascending-id order).
    pub fn session_id(&self, i: usize) -> u64 {
        self.session_ids[i]
    }

    /// Run all sessions to completion (generous horizon as a hang
    /// backstop) and return the finishing time: the instant of the last
    /// event, or the horizon if events remain beyond it.
    pub fn run(&mut self) -> SimTime {
        self.engine.run_until(SimTime::from_secs(300))
    }

    /// The browser session at client position `i` (read results after
    /// [`Scenario::run`]).
    pub fn session(&self, i: usize) -> &BrowserSession {
        self.engine
            .node_ref::<Host<BrowserSession>>(self.clients[i])
            .app()
    }

    /// The shared server application (stats: `peak_concurrent` records
    /// the contention it actually saw).
    pub fn web_server(&self) -> &WebServer {
        self.engine.node_ref::<Host<WebServer>>(self.server).app()
    }

    /// Extract the recorded trace data, if tracing was enabled. Takes
    /// `&mut self`: the buffer is moved out.
    pub fn take_trace(&mut self) -> Option<TraceData> {
        self.trace.take()
    }
}

/// Builds a [`Scenario`]: every knob defaults to the paper testbed, and
/// validation happens once in [`ScenarioBuilder::build`] — returning
/// [`RunError`] instead of panicking or hanging mid-run.
///
/// ```
/// use bnm_core::scenario::Scenario;
/// # use bnm_browser::{BrowserKind, BrowserProfile, ProbePlan, ProbeTransport, Technology};
/// # use bnm_core::scenario::SessionSpec;
/// # use bnm_time::{MachineTimer, OsKind, TimingApiKind};
/// # let spec = |id: u64| SessionSpec {
/// #     id,
/// #     plan: ProbePlan::new("xhr_get", Technology::Native,
/// #         ProbeTransport::HttpGet, TimingApiKind::JsDateGetTime),
/// #     profile: BrowserProfile::build(BrowserKind::Chrome, OsKind::Ubuntu1204).unwrap(),
/// #     machine: MachineTimer::new(OsKind::Ubuntu1204, 7 + id),
/// #     seed: 100 + id,
/// # };
/// let mut sc = Scenario::builder()
///     .sessions([spec(0), spec(1)])
///     .build()
///     .unwrap();
/// sc.run();
/// assert!(sc.session(0).result().completed);
/// ```
pub struct ScenarioBuilder {
    cfg: TestbedConfig,
    specs: Vec<SessionSpec>,
    rep_token: u64,
    trace: Trace,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ScenarioBuilder {
    /// A builder with the paper-default testbed config, no sessions,
    /// repetition token 0 and tracing disabled.
    pub fn new() -> Self {
        ScenarioBuilder {
            cfg: TestbedConfig::default(),
            specs: Vec::new(),
            rep_token: 0,
            trace: Trace::disabled(),
        }
    }

    /// Replace the testbed configuration (server link, impairments,
    /// capture noise, cross traffic, …).
    pub fn config(mut self, cfg: TestbedConfig) -> Self {
        self.cfg = cfg;
        self
    }

    /// Add one session.
    pub fn session(mut self, spec: SessionSpec) -> Self {
        self.specs.push(spec);
        self
    }

    /// Add many sessions.
    pub fn sessions(mut self, specs: impl IntoIterator<Item = SessionSpec>) -> Self {
        self.specs.extend(specs);
        self
    }

    /// Repetition token mixed into every probe marker (distinguishes
    /// repetitions of the same cell on the wire).
    pub fn rep_token(mut self, token: u64) -> Self {
        self.rep_token = token;
        self
    }

    /// Install a trace handle, wired to the engine and the lowest-id
    /// session (read it back with [`Scenario::take_trace`]).
    pub fn trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Validate and build the scenario. Reports
    /// [`RunError::InvalidInput`] for no sessions, more than
    /// [`Scenario::SESSION_LIMIT`] sessions, a duplicate session id, a
    /// WebSocket or WebRTC plan on a runtime without it, and a zero-rate
    /// or zero-queue server link.
    pub fn build(mut self) -> Result<Scenario, RunError> {
        if self.specs.is_empty() {
            return Err(RunError::InvalidInput(
                "a scenario needs at least one session",
            ));
        }
        if self.specs.len() > Scenario::SESSION_LIMIT {
            return Err(RunError::InvalidInput(
                "scenario session count exceeds the session limit",
            ));
        }
        // Results and wiring are keyed by session id, not insertion
        // order: sorting here makes per-session output invariant to the
        // order the caller added the specs.
        self.specs.sort_by_key(|s| s.id);
        if self.specs.windows(2).any(|w| w[0].id == w[1].id) {
            return Err(RunError::InvalidInput("duplicate session id in scenario"));
        }
        // The session asserts these mid-run (Table 2: WebSocket support
        // doubles as the era proxy for WebRTC).
        for spec in self.specs.iter().filter(|s| !s.profile.supports_websocket) {
            match spec.plan.transport {
                ProbeTransport::WebSocketEcho => {
                    return Err(RunError::InvalidInput(
                        "plan requires WebSocket but the runtime lacks it",
                    ))
                }
                ProbeTransport::WebRtcData => {
                    return Err(RunError::InvalidInput(
                        "plan requires WebRTC but the runtime predates it",
                    ))
                }
                _ => {}
            }
        }
        // Degenerate link parameters (zero rate, zero queue bound) would
        // panic or hang deep inside the engine; reject them here.
        self.cfg
            .server_link
            .validate()
            .map_err(RunError::InvalidInput)?;
        self.cfg
            .server_shape
            .validate()
            .map_err(RunError::InvalidInput)?;
        Ok(Scenario::build_inner(
            &self.cfg,
            self.specs,
            self.rep_token,
            self.trace,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnm_browser::{BrowserKind, Technology};
    use bnm_methods::MethodId;
    use bnm_time::{OsKind, TimingApiKind};

    fn xhr_plan() -> ProbePlan {
        ProbePlan::new(
            "xhr_get",
            Technology::Native,
            ProbeTransport::HttpGet,
            TimingApiKind::JsDateGetTime,
        )
    }

    fn spec(id: u64) -> SessionSpec {
        SessionSpec {
            id,
            plan: xhr_plan(),
            profile: BrowserProfile::build(BrowserKind::Chrome, OsKind::Ubuntu1204).unwrap(),
            machine: MachineTimer::new(OsKind::Ubuntu1204, 7 + id),
            seed: 100 + id,
        }
    }

    #[test]
    fn every_session_completes_and_is_captured() {
        let mut sc = Scenario::build(
            &TestbedConfig::default(),
            vec![spec(0), spec(1), spec(2)],
            0,
        );
        // The run ends at its last event (the TIME-WAIT expiry), long
        // before the hang backstop.
        let end = sc.run();
        assert!(end < SimTime::from_secs(300), "finished at {end:?}");
        assert_eq!(end, sc.engine.now());
        assert_eq!(sc.len(), 3);
        for i in 0..3 {
            assert!(sc.session(i).result().completed, "session {i}");
            assert!(!sc.engine.tap(sc.client_taps[i]).is_empty(), "tap {i}");
        }
        assert!(!sc.engine.tap(sc.server_tap).is_empty());
        // The shared server served every session's page + 2 probes.
        assert_eq!(sc.web_server().stats.pages, 3);
        assert_eq!(sc.web_server().stats.gets, 6);
        assert!(sc.web_server().stats.peak_concurrent >= 2);
    }

    #[test]
    fn session_order_is_by_id_not_insertion() {
        let run = |ids: Vec<u64>| {
            let mut sc = Scenario::build(
                &TestbedConfig::default(),
                ids.into_iter().map(spec).collect(),
                0,
            );
            sc.run();
            (0..sc.len())
                .map(|i| (sc.session_id(i), sc.session(i).result().rounds.clone()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(vec![2, 0, 1]), run(vec![0, 1, 2]));
    }

    #[test]
    #[should_panic(expected = "duplicate session id")]
    fn duplicate_ids_are_rejected() {
        Scenario::build(&TestbedConfig::default(), vec![spec(3), spec(3)], 0);
    }

    #[test]
    #[should_panic(expected = "queue_limit_bytes must be positive")]
    fn build_panics_with_the_builder_error() {
        let cfg = TestbedConfig {
            server_link: LinkSpec {
                queue_limit_bytes: 0,
                ..LinkSpec::fast_ethernet()
            },
            ..TestbedConfig::default()
        };
        Scenario::build(&cfg, vec![spec(0)], 0);
    }

    #[test]
    fn client_addressing_is_disjoint() {
        // Cover the whole legacy range, the scheme transition at
        // position 191, and a crowd well past 1,000 clients.
        let mut seen = std::collections::HashSet::new();
        for i in 0..2_000 {
            let (name, mac, ip) = client_addr(i);
            assert!(seen.insert((mac, ip)), "collision at position {i}");
            assert!(!name.is_empty());
            assert_ne!(ip, SERVER_IP);
            assert_ne!(ip, NOISE_IP);
            assert!(!mac.is_multicast(), "unicast MAC required at {i}");
        }
        // The legacy formula is frozen: positions 1..=190 must keep
        // producing the addresses existing traces were recorded with.
        assert_eq!(
            client_addr(190).2,
            Ipv4Addr::new(192, 168, 1, 254),
            "legacy scheme must stay bit-identical"
        );
        assert_eq!(client_addr(191).2, Ipv4Addr::new(10, 77, 0, 191));
    }

    #[test]
    fn builder_mirrors_build() {
        // Same sessions, same knobs → the builder's scenario must be
        // observably identical to the panicking shorthand's.
        let via_build = {
            let mut sc = Scenario::build(&TestbedConfig::default(), vec![spec(0), spec(1)], 3);
            sc.run();
            (0..sc.len())
                .map(|i| sc.session(i).result().rounds.clone())
                .collect::<Vec<_>>()
        };
        let via_builder = {
            let mut sc = Scenario::builder()
                .sessions([spec(1), spec(0)])
                .rep_token(3)
                .build()
                .unwrap();
            sc.run();
            (0..sc.len())
                .map(|i| sc.session(i).result().rounds.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(via_build, via_builder);
    }

    #[test]
    fn builder_validates_instead_of_panicking() {
        assert!(matches!(
            Scenario::builder().build(),
            Err(RunError::InvalidInput(_))
        ));
        assert!(matches!(
            Scenario::builder().sessions([spec(4), spec(4)]).build(),
            Err(RunError::InvalidInput(_))
        ));
        assert!(matches!(
            Scenario::builder()
                .sessions((0..=Scenario::SESSION_LIMIT as u64).map(spec))
                .build(),
            Err(RunError::InvalidInput(_))
        ));
    }

    /// What would panic or hang mid-run is refused up front: a WebSocket
    /// or WebRTC plan on a runtime without it (IE9, Table 2) and a
    /// degenerate server link.
    #[test]
    fn builder_refuses_what_would_fail_mid_run() {
        let on_ie9 = |method: MethodId| SessionSpec {
            plan: method.plan(None),
            profile: BrowserProfile::build(BrowserKind::Ie9, OsKind::Windows7).unwrap(),
            machine: MachineTimer::new(OsKind::Windows7, 1),
            ..spec(0)
        };
        let refused = |b: ScenarioBuilder| b.build().err();
        assert_eq!(
            refused(Scenario::builder().session(on_ie9(MethodId::WebSocket))),
            Some(RunError::InvalidInput(
                "plan requires WebSocket but the runtime lacks it"
            ))
        );
        assert_eq!(
            refused(Scenario::builder().session(on_ie9(MethodId::WebRtc))),
            Some(RunError::InvalidInput(
                "plan requires WebRTC but the runtime predates it"
            ))
        );
        let with_link = |link: LinkSpec| {
            Scenario::builder().session(spec(0)).config(TestbedConfig {
                server_link: link,
                ..TestbedConfig::default()
            })
        };
        assert_eq!(
            refused(with_link(LinkSpec {
                rate_bps: 0,
                ..LinkSpec::fast_ethernet()
            })),
            Some(RunError::InvalidInput("link rate_bps must be positive"))
        );
        assert_eq!(
            refused(with_link(LinkSpec {
                queue_limit_bytes: 0,
                ..LinkSpec::fast_ethernet()
            })),
            Some(RunError::InvalidInput(
                "link queue_limit_bytes must be positive"
            ))
        );
    }

    #[test]
    fn builder_lifts_the_legacy_cap() {
        // More sessions than the old 64-session cap, validated through
        // the builder. Running them to completion is the contend
        // sweep's job; here we only need construction to succeed and
        // the addressing to hold up.
        let sc = Scenario::builder()
            .sessions((0..100).map(spec))
            .build()
            .unwrap();
        assert_eq!(sc.len(), 100);
    }
}
