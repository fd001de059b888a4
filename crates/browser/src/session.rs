//! The browser session: executes the paper's two-phase methodology.
//!
//! One [`BrowserSession`] is one repetition of one experiment cell:
//!
//! 1. **Preparation phase** (Figure 1): fetch the container page over the
//!    browser's connection pool, "render" it, then load the technology's
//!    assets — the `.swf` over the same pool, the applet `.jar` over the
//!    **JVM's own** connection, a WebSocket upgrade or a raw socket
//!    connect for the socket transports.
//! 2. **Measurement phase**: for each round *r* (the paper uses two —
//!    Δd1 and Δd2): read `tB_s` through the plan's timing API, traverse
//!    the sampled send path (plus the round-1 instantiation cost), put the
//!    request on the wire — opening a **fresh TCP connection first** if
//!    the browser's policy says so, which is how Opera's Flash methods
//!    absorb a handshake into the "RTT" — wait for the complete response,
//!    traverse the receive path, and read `tB_r`.
//!
//! The session never looks at the simulator's clock directly for its
//! reported timestamps: `tB` values come from the [`TimingApi`], including
//! its quantization. Ground truth comes from capture taps, elsewhere.

use std::collections::HashMap;
use std::net::Ipv4Addr;
use std::sync::Arc;

use bytes::Bytes;
use rand::rngs::SmallRng;

use bnm_http::message::{HttpRequest, Method};
use bnm_http::parser::{HttpParser, ParseOutcome};
use bnm_http::websocket::{self, Frame, FrameDecoder, Opcode};
use bnm_obs::{Component, Trace};
use bnm_sim::rng;
use bnm_sim::time::SimDuration;
use bnm_sim::wire::{ChunkKind, DataChunk};
use bnm_tcp::stack::SockEvent;
use bnm_tcp::udp::UdpRx;
use bnm_tcp::{HostApp, HostCtx, SocketId};
use bnm_time::{make_api, MachineTimer, TimingApi};

use crate::plan::{ProbePlan, ProbeTransport, Technology};
use crate::profile::{BrowserProfile, PathSeg, Runtime};

/// Browser-level timestamps of one measurement round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RoundResult {
    /// Round number (1 = Δd1, 2 = Δd2).
    pub round: u8,
    /// `tB_s` as reported by the timing API, ms.
    pub tb_s_ms: f64,
    /// `tB_r` as reported by the timing API, ms.
    pub tb_r_ms: f64,
    /// Whether this round opened a fresh TCP connection (handshake
    /// included in `tB_r − tB_s`).
    pub opened_new_connection: bool,
}

impl RoundResult {
    /// The browser-level RTT estimate, ms.
    pub fn browser_rtt_ms(&self) -> f64 {
        self.tb_r_ms - self.tb_s_ms
    }
}

/// Everything a finished session reports.
#[derive(Debug, Clone, Default)]
pub struct SessionResult {
    /// Per-round timestamps, in round order.
    pub rounds: Vec<RoundResult>,
    /// True once every planned round finished.
    pub completed: bool,
}

/// Compose the marker token carried on the wire by a session's probes:
/// the session id in the high 32 bits, the repetition in the low 32.
/// Session 0 therefore produces the same token (and the same wire bytes)
/// as the single-session testbed always did.
pub fn session_token(session: u64, rep_token: u64) -> u64 {
    (session << 32) | (rep_token & 0xFFFF_FFFF)
}

/// Split a composite marker token back into `(session, rep)`.
pub fn split_token(token: u64) -> (u64, u64) {
    (token >> 32, token & 0xFFFF_FFFF)
}

/// Session configuration.
pub struct SessionConfig {
    /// The web server's address.
    pub server_ip: Ipv4Addr,
    /// HTTP / WebSocket port.
    pub http_port: u16,
    /// Raw TCP echo port.
    pub echo_port: u16,
    /// UDP echo port.
    pub udp_port: u16,
    /// WebRTC data-channel port on the server.
    pub webrtc_port: u16,
    /// The method to execute.
    pub plan: ProbePlan,
    /// The runtime cost profile. Sessions of one scenario that run the
    /// same profile share one copy.
    pub profile: Arc<BrowserProfile>,
    /// The client machine's timer (shared granularity regimes).
    pub machine: MachineTimer,
    /// Repetition token — embedded in probe markers so capture analysis
    /// can tell rounds and repetitions apart.
    pub rep_token: u64,
    /// Session id within a multi-client scenario; combined with
    /// `rep_token` via [`session_token`] in every probe marker so
    /// concurrent sessions' captures stay matchable. 0 in the
    /// single-session testbed (tokens unchanged).
    pub session: u64,
    /// Master seed for this session's noise streams.
    pub seed: u64,
    /// Trace handle (disabled by default): browser-side delay segments
    /// are recorded as component-tagged spans.
    pub trace: Trace,
}

/// Pending timer actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    RenderDone,
    StartRound(u8),
    DoSend(u8),
    StampEnd(u8),
    /// Re-send the DCEP OPEN if no ACK arrived (the handshake is the
    /// one reliable part of the channel; probes are never retried).
    RtcOpenRetry,
    /// Read `tB_s` and traverse the send path for probe `seq`.
    RtcBegin(u8),
    /// Put probe `seq` on the wire.
    RtcSend(u8),
    /// Read `tB_r` for a delivered probe `seq`.
    RtcStamp(u8),
    /// End of the tail wait: late probes are counted lost.
    RtcFinish,
}

/// WebRTC data-channel stream id used for probes.
const RTC_STREAM: u16 = 1;

/// What a connection is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Browser connection pool (container page, XHR/DOM/Flash reuse).
    Container,
    /// The JVM's own HTTP connection.
    JavaPool,
    /// A fresh measurement connection (Opera Flash policy).
    Probe,
    /// The WebSocket connection.
    WebSocket,
    /// The raw TCP echo connection.
    Echo,
}

/// High-level phase of the session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Boot,
    ContainerLoading,
    Rendering,
    AssetLoading,
    SocketSetup,
    AwaitSend(u8),
    AwaitConnect(u8),
    AwaitResponse(u8),
    AwaitStampEnd(u8),
    /// The WebRTC probe train is in flight: probes overlap, each keyed
    /// by its sequence number rather than a single scalar round.
    RtcMeasuring,
    Done,
}

/// The measurement client application.
pub struct BrowserSession {
    cfg: SessionConfig,
    api: Box<dyn TimingApi>,
    rng: SmallRng,
    phase: Phase,
    pending: HashMap<u64, Step>,
    next_token: u64,
    conns: HashMap<SocketId, Role>,
    parsers: HashMap<SocketId, HttpParser>,
    ws_decoder: FrameDecoder,
    container: Option<SocketId>,
    java_pool: Option<SocketId>,
    probe_conn: Option<SocketId>,
    ws_conn: Option<SocketId>,
    echo_conn: Option<SocketId>,
    udp_port_local: Option<u16>,
    echo_bytes_round: usize,
    round_opened_conn: bool,
    /// Browser HTTP cache: GET URLs already fetched this session.
    http_cache: std::collections::HashSet<String>,
    /// Target of the in-flight GET (inserted into the cache on completion).
    inflight_get: Option<String>,
    tb_s: f64,
    /// Per-probe `tB_s` for the WebRTC train (probes overlap in flight).
    rtc_tb_s: HashMap<u8, f64>,
    /// Probes whose message event already fired (browser-level dedupe:
    /// a duplicated datagram re-fires the event, the script keys by seq).
    rtc_seen: std::collections::HashSet<u8>,
    /// DCEP ACK received; the data channel is open.
    rtc_acked: bool,
    /// DCEP OPEN transmissions so far.
    rtc_open_tries: u32,
    result: SessionResult,
    trace: Trace,
    /// Diagnostics: how many TCP connections this session opened.
    pub connections_opened: u32,
}

impl BrowserSession {
    /// Build a session; it starts executing at engine boot.
    pub fn new(cfg: SessionConfig) -> Self {
        let api = make_api(cfg.plan.timing, &cfg.machine);
        let rng = rng::stream_indexed(cfg.seed, "browser.session", cfg.rep_token);
        BrowserSession {
            api,
            rng,
            phase: Phase::Boot,
            pending: HashMap::new(),
            next_token: 0,
            conns: HashMap::new(),
            parsers: HashMap::new(),
            ws_decoder: FrameDecoder::new(),
            container: None,
            java_pool: None,
            probe_conn: None,
            ws_conn: None,
            echo_conn: None,
            udp_port_local: None,
            echo_bytes_round: 0,
            round_opened_conn: false,
            http_cache: std::collections::HashSet::new(),
            inflight_get: None,
            tb_s: 0.0,
            rtc_tb_s: HashMap::new(),
            rtc_seen: std::collections::HashSet::new(),
            rtc_acked: false,
            rtc_open_tries: 0,
            result: SessionResult::default(),
            trace: cfg.trace.clone(),
            connections_opened: 0,
            cfg,
        }
    }

    /// The session's results (read after the run).
    pub fn result(&self) -> &SessionResult {
        &self.result
    }

    /// The plan being executed.
    pub fn plan(&self) -> &ProbePlan {
        &self.cfg.plan
    }

    /// The runtime cost profile, shared with the scenario's other
    /// sessions that run it.
    pub fn profile(&self) -> &Arc<BrowserProfile> {
        &self.cfg.profile
    }

    fn schedule(&mut self, ctx: &mut HostCtx, delay: SimDuration, step: Step) {
        let token = self.next_token;
        self.next_token += 1;
        self.pending.insert(token, step);
        ctx.set_app_timer(delay, token);
    }

    /// Sample every segment of a path, emitting back-to-back spans
    /// starting at `start_ns`. Draw order is identical whether tracing
    /// is on or off, so traced runs reproduce untraced numbers.
    fn sample_path(&mut self, start_ns: u64, segs: &[PathSeg]) -> SimDuration {
        let mut total = SimDuration::ZERO;
        let mut t = start_ns;
        for s in segs {
            let d = s.model.sample(&mut self.rng);
            if self.trace.is_enabled() {
                self.trace
                    .span(t, t + d.as_nanos(), "session", s.label, Some(s.component));
            }
            t += d.as_nanos();
            total += d;
        }
        total
    }

    /// A parser sharing this session's trace handle, so completed HTTP
    /// messages get `http/message` spans.
    fn new_parser(&self) -> HttpParser {
        HttpParser::new().with_trace(self.trace.clone())
    }

    fn user_agent(&self) -> String {
        match self.cfg.profile.runtime {
            Runtime::Browser(b) => {
                format!("{}/{} ({})", b.name(), b.version(), self.cfg.profile.os)
            }
            Runtime::AppletViewer => "appletviewer/1.7".to_string(),
            Runtime::MobileWebKit => "Mobile Safari/537 (like iOS 6)".to_string(),
        }
    }

    /// The composite marker token for this session's probes.
    fn token(&self) -> u64 {
        session_token(self.cfg.session, self.cfg.rep_token)
    }

    fn probe_marker(&self, round: u8) -> String {
        format!("m={}&r={}&t={}", self.cfg.plan.label, round, self.token())
    }

    fn socket_payload(&self, round: u8) -> Bytes {
        let mut s = format!(
            "probe m={} r={} t={} ",
            self.cfg.plan.label,
            round,
            self.token()
        );
        // Pad to the configured size; never truncate the marker itself.
        while s.len() < self.cfg.plan.request_size {
            s.push('.');
        }
        Bytes::from(s)
    }

    /// The GET target for a round. With cache busting (the default, and
    /// what every real tool does) the round/repetition tokens make each
    /// URL unique; without it the URL repeats across rounds.
    fn http_get_target(&self, round: u8) -> String {
        let query = if self.cfg.plan.cache_buster {
            self.probe_marker(round)
        } else {
            format!("m={}", self.cfg.plan.label)
        };
        match self.cfg.plan.bulk {
            Some(n) => format!("/bulk?n={n}&{query}"),
            None => format!("/probe?{query}"),
        }
    }

    fn http_request(&self, round: u8) -> Bytes {
        let marker = self.probe_marker(round);
        if let Some(n) = self.cfg.plan.bulk {
            // Throughput mode: download a bulk object instead of a pong.
            let _ = n;
            assert_eq!(self.cfg.plan.transport, ProbeTransport::HttpGet);
            return HttpRequest::new(Method::Get, self.http_get_target(round))
                .header("Host", self.cfg.server_ip.to_string())
                .header("User-Agent", self.user_agent())
                .header("Accept", "*/*")
                .emit();
        }
        let req = match self.cfg.plan.transport {
            ProbeTransport::HttpGet => HttpRequest::new(Method::Get, self.http_get_target(round))
                .header("Host", self.cfg.server_ip.to_string())
                .header("User-Agent", self.user_agent())
                .header("Accept", "*/*"),
            ProbeTransport::HttpPost => HttpRequest::new(Method::Post, "/probe")
                .header("Host", self.cfg.server_ip.to_string())
                .header("User-Agent", self.user_agent())
                .header("Content-Type", "application/x-www-form-urlencoded")
                .with_body(Bytes::from(marker)),
            _ => unreachable!("http_request on a socket transport"),
        };
        req.emit()
    }

    /// The HTTP connection a measurement request should use when no fresh
    /// connection is being opened.
    fn http_conn(&self) -> SocketId {
        // A previously opened fresh probe connection is preferred (Opera
        // Flash GET round 2 reuses round 1's connection).
        if let Some(p) = self.probe_conn {
            return p;
        }
        match self.cfg.plan.technology {
            Technology::JavaApplet => self.java_pool.expect("java pool connected"),
            _ => self.container.expect("container connected"),
        }
    }

    fn begin_round(&mut self, ctx: &mut HostCtx, round: u8) {
        // tB_s is read *before* the send machinery runs (Figure 1).
        let now = ctx.now();
        self.trace.set_round(Some(round));
        self.tb_s = self.api.read(now);
        self.trace
            .instant(now.as_nanos(), "session", "round.start", Some(self.tb_s));
        let mut t_ns = now.as_nanos();
        let call = self.api.call_cost();
        if self.trace.is_enabled() {
            self.trace.span(
                t_ns,
                t_ns + call.as_nanos(),
                "session",
                "timing_api_call",
                Some(Component::Dispatch),
            );
        }
        t_ns += call.as_nanos();
        let mut delay = call;
        if round == 1 {
            let fu = if self.is_dom() {
                self.cfg.profile.dom_first_use_cost()
            } else {
                self.cfg
                    .profile
                    .first_use_cost(self.cfg.plan.technology, self.cfg.plan.transport)
            };
            let d = fu.sample(&mut self.rng);
            if self.trace.is_enabled() {
                self.trace.span(
                    t_ns,
                    t_ns + d.as_nanos(),
                    "session",
                    "first_use",
                    Some(Component::Init),
                );
            }
            t_ns += d.as_nanos();
            delay += d;
        }
        let send_path = if self.is_dom() {
            self.cfg.profile.dom_send_path()
        } else {
            self.cfg
                .profile
                .send_path(self.cfg.plan.technology, self.cfg.plan.transport, round)
        };
        delay += self.sample_path(t_ns, &send_path);
        self.phase = Phase::AwaitSend(round);
        self.schedule(ctx, delay, Step::DoSend(round));
    }

    fn is_dom(&self) -> bool {
        self.cfg.plan.label.starts_with("dom")
    }

    fn needs_fresh_conn(&self, round: u8) -> bool {
        if !self.cfg.plan.transport.is_http() {
            return false;
        }
        let policy = self.cfg.profile.conn_policy(self.cfg.plan.technology);
        if policy.fresh_conn_per_post && self.cfg.plan.transport == ProbeTransport::HttpPost {
            return true;
        }
        policy.fresh_conn_round1 && round == 1
    }

    fn do_send(&mut self, ctx: &mut HostCtx, round: u8) {
        self.round_opened_conn = false;
        self.echo_bytes_round = 0;
        match self.cfg.plan.transport {
            ProbeTransport::HttpGet | ProbeTransport::HttpPost => {
                // Browser cache: a repeated GET URL never reaches the
                // network — the response comes from the cache after a
                // lookup cost, and the "RTT" collapses to the local path.
                if self.cfg.plan.transport == ProbeTransport::HttpGet {
                    let target = self.http_get_target(round);
                    if self.http_cache.contains(&target) {
                        let recv = if self.is_dom() {
                            self.cfg.profile.dom_recv_path()
                        } else {
                            self.cfg.profile.recv_path(
                                self.cfg.plan.technology,
                                self.cfg.plan.transport,
                                round,
                            )
                        };
                        let lookup = SimDuration::from_micros(150);
                        let mut t_ns = ctx.now().as_nanos();
                        if self.trace.is_enabled() {
                            self.trace.span(
                                t_ns,
                                t_ns + lookup.as_nanos(),
                                "session",
                                "cache_lookup",
                                Some(Component::Parse),
                            );
                        }
                        t_ns += lookup.as_nanos();
                        let delay = lookup + self.sample_path(t_ns, &recv);
                        self.phase = Phase::AwaitStampEnd(round);
                        self.schedule(ctx, delay, Step::StampEnd(round));
                        return;
                    }
                    self.inflight_get = Some(target);
                }
                if self.needs_fresh_conn(round) {
                    // POST always replaces the probe connection; round-1
                    // GET creates it.
                    let sock = ctx.connect((self.cfg.server_ip, self.cfg.http_port));
                    self.connections_opened += 1;
                    self.round_opened_conn = true;
                    self.conns.insert(sock, Role::Probe);
                    self.parsers.insert(sock, self.new_parser());
                    self.probe_conn = Some(sock);
                    self.phase = Phase::AwaitConnect(round);
                    return;
                }
                let sock = self.http_conn();
                let bytes = self.http_request(round);
                ctx.send(sock, &bytes);
                self.phase = Phase::AwaitResponse(round);
            }
            ProbeTransport::WebSocketEcho => {
                let sock = self.ws_conn.expect("ws connected");
                let frame = match self.cfg.plan.bulk {
                    Some(n) => Frame::text(&format!("bulk n={} r={} t={}", n, round, self.token())),
                    None => Frame::text(std::str::from_utf8(&self.socket_payload(round)).unwrap()),
                };
                // Deterministic zero masking key: RFC-shaped frames whose
                // payload stays greppable in capture traces.
                let bytes = frame.emit(Some([0, 0, 0, 0]));
                ctx.send(sock, &bytes);
                self.phase = Phase::AwaitResponse(round);
            }
            ProbeTransport::TcpEcho => {
                let sock = self.echo_conn.expect("echo connected");
                let payload = self.socket_payload(round);
                ctx.send(sock, &payload);
                self.phase = Phase::AwaitResponse(round);
            }
            ProbeTransport::UdpEcho => {
                let port = self.udp_port_local.expect("udp bound");
                let payload = self.socket_payload(round);
                ctx.udp_send(port, (self.cfg.server_ip, self.cfg.udp_port), payload);
                self.phase = Phase::AwaitResponse(round);
            }
            ProbeTransport::WebRtcData => {
                unreachable!("webrtc probes are driven by the Rtc* steps")
            }
        }
    }

    /// Transmit a DCEP OPEN and arm the retry timer. The handshake is
    /// reliable (DCEP rides SCTP's reliable delivery in real stacks);
    /// it happens before measurement, so retries never taint probes.
    fn rtc_send_open(&mut self, ctx: &mut HostCtx) {
        let port = self.udp_port_local.expect("dc bound");
        ctx.udp_send(
            port,
            (self.cfg.server_ip, self.cfg.webrtc_port),
            DataChunk::open(RTC_STREAM).emit(),
        );
        self.rtc_open_tries += 1;
        self.schedule(ctx, SimDuration::from_millis(200), Step::RtcOpenRetry);
    }

    /// Channel open: schedule the whole paced probe train plus the tail
    /// wait. Probes overlap in flight (gap 20 ms < RTT), so loss and
    /// reordering show up exactly as the network produced them.
    fn rtc_start_train(&mut self, ctx: &mut HostCtx) {
        self.phase = Phase::RtcMeasuring;
        let rounds = self.cfg.plan.rounds;
        for seq in 1..=rounds {
            let at = SimDuration::from_millis(5 + 20 * (seq as u64 - 1));
            self.schedule(ctx, at, Step::RtcBegin(seq));
        }
        let last = 5 + 20 * (rounds as u64 - 1);
        self.schedule(ctx, SimDuration::from_millis(last + 1000), Step::RtcFinish);
    }

    /// Read `tB_s` and traverse the send path for probe `seq` —
    /// the same quantization/dispatch modelling as [`Self::begin_round`],
    /// keyed per probe because several are in flight at once.
    fn rtc_begin(&mut self, ctx: &mut HostCtx, seq: u8) {
        if self.phase != Phase::RtcMeasuring {
            return;
        }
        let now = ctx.now();
        self.trace.set_round(Some(seq));
        let tb_s = self.api.read(now);
        self.rtc_tb_s.insert(seq, tb_s);
        self.trace
            .instant(now.as_nanos(), "session", "round.start", Some(tb_s));
        let mut t_ns = now.as_nanos();
        let call = self.api.call_cost();
        if self.trace.is_enabled() {
            self.trace.span(
                t_ns,
                t_ns + call.as_nanos(),
                "session",
                "timing_api_call",
                Some(Component::Dispatch),
            );
        }
        t_ns += call.as_nanos();
        let mut delay = call;
        if seq == 1 {
            let fu = self
                .cfg
                .profile
                .first_use_cost(self.cfg.plan.technology, self.cfg.plan.transport);
            let d = fu.sample(&mut self.rng);
            if self.trace.is_enabled() {
                self.trace.span(
                    t_ns,
                    t_ns + d.as_nanos(),
                    "session",
                    "first_use",
                    Some(Component::Init),
                );
            }
            t_ns += d.as_nanos();
            delay += d;
        }
        let send_path =
            self.cfg
                .profile
                .send_path(self.cfg.plan.technology, self.cfg.plan.transport, seq);
        delay += self.sample_path(t_ns, &send_path);
        self.trace.set_round(None);
        self.schedule(ctx, delay, Step::RtcSend(seq));
    }

    /// Put probe `seq` on the wire as a sequence-numbered data chunk.
    fn rtc_send(&mut self, ctx: &mut HostCtx, seq: u8) {
        if self.phase != Phase::RtcMeasuring {
            return;
        }
        let port = self.udp_port_local.expect("dc bound");
        let chunk = DataChunk::data(RTC_STREAM, seq as u32, self.socket_payload(seq));
        ctx.udp_send(
            port,
            (self.cfg.server_ip, self.cfg.webrtc_port),
            chunk.emit(),
        );
    }

    /// A datagram arrived on the data channel.
    fn rtc_on_udp(&mut self, ctx: &mut HostCtx, rx: UdpRx) {
        let Ok(chunk) = DataChunk::parse(&rx.payload) else {
            return;
        };
        match chunk.kind {
            ChunkKind::DcepAck => {
                if self.phase == Phase::SocketSetup && !self.rtc_acked {
                    self.rtc_acked = true;
                    self.rtc_start_train(ctx);
                }
            }
            ChunkKind::Data => {
                if self.phase != Phase::RtcMeasuring {
                    return;
                }
                if chunk.seq == 0 || chunk.seq > self.cfg.plan.rounds as u32 {
                    return;
                }
                let seq = chunk.seq as u8;
                // Dedupe duplicated datagrams; ignore echoes for probes
                // whose tB_s was never stamped (cannot happen in-order,
                // but a guard keeps the arithmetic honest).
                if !self.rtc_tb_s.contains_key(&seq) || !self.rtc_seen.insert(seq) {
                    return;
                }
                self.trace.set_round(Some(seq));
                let recv_path = self.cfg.profile.recv_path(
                    self.cfg.plan.technology,
                    self.cfg.plan.transport,
                    seq,
                );
                let mut t_ns = ctx.now().as_nanos();
                let path_delay = self.sample_path(t_ns, &recv_path);
                t_ns += path_delay.as_nanos();
                let call = self.api.call_cost();
                if self.trace.is_enabled() {
                    self.trace.span(
                        t_ns,
                        t_ns + call.as_nanos(),
                        "session",
                        "timing_api_call",
                        Some(Component::Dispatch),
                    );
                }
                self.trace.set_round(None);
                self.schedule(ctx, path_delay + call, Step::RtcStamp(seq));
            }
            ChunkKind::DcepOpen => {}
        }
    }

    /// Read `tB_r` for probe `seq` and record the round. Results are
    /// pushed in arrival order, so browser-side reordering is visible.
    fn rtc_stamp(&mut self, ctx: &mut HostCtx, seq: u8) {
        if self.phase != Phase::RtcMeasuring {
            return;
        }
        let now = ctx.now();
        self.trace.set_round(Some(seq));
        let tb_r = self.api.read(now);
        self.trace
            .instant(now.as_nanos(), "session", "round.end", Some(tb_r));
        self.trace.set_round(None);
        let tb_s = self.rtc_tb_s[&seq];
        self.result.rounds.push(RoundResult {
            round: seq,
            tb_s_ms: tb_s,
            tb_r_ms: tb_r,
            opened_new_connection: false,
        });
    }

    /// Tail wait elapsed: whatever has not arrived is lost. A lossy run
    /// still completes — missing probes are the measurement.
    fn rtc_finish(&mut self, ctx: &mut HostCtx) {
        if self.phase != Phase::RtcMeasuring {
            return;
        }
        self.result.completed = true;
        self.phase = Phase::Done;
        let mut socks: Vec<SocketId> = self.conns.keys().copied().collect();
        socks.sort_unstable();
        for s in socks {
            ctx.close(s);
        }
    }

    fn response_complete(&mut self, ctx: &mut HostCtx, round: u8) {
        let recv_path = if self.is_dom() {
            self.cfg.profile.dom_recv_path()
        } else {
            self.cfg
                .profile
                .recv_path(self.cfg.plan.technology, self.cfg.plan.transport, round)
        };
        let mut t_ns = ctx.now().as_nanos();
        let path_delay = self.sample_path(t_ns, &recv_path);
        t_ns += path_delay.as_nanos();
        let call = self.api.call_cost();
        if self.trace.is_enabled() {
            self.trace.span(
                t_ns,
                t_ns + call.as_nanos(),
                "session",
                "timing_api_call",
                Some(Component::Dispatch),
            );
        }
        let delay = path_delay + call;
        self.phase = Phase::AwaitStampEnd(round);
        self.schedule(ctx, delay, Step::StampEnd(round));
    }

    fn stamp_end(&mut self, ctx: &mut HostCtx, round: u8) {
        let now = ctx.now();
        let tb_r = self.api.read(now);
        self.trace
            .instant(now.as_nanos(), "session", "round.end", Some(tb_r));
        self.trace.set_round(None);
        self.result.rounds.push(RoundResult {
            round,
            tb_s_ms: self.tb_s,
            tb_r_ms: tb_r,
            opened_new_connection: self.round_opened_conn,
        });
        if round < self.cfg.plan.rounds {
            // "a second RTT measurement immediately after the first one"
            // — a short think gap, then reuse the same object.
            self.schedule(
                ctx,
                SimDuration::from_millis(20),
                Step::StartRound(round + 1),
            );
            self.phase = Phase::AwaitSend(round + 1);
        } else {
            self.result.completed = true;
            self.phase = Phase::Done;
            // Orderly teardown: close every connection we own, in
            // socket-id order — HashMap order varies per process/thread,
            // and the close order decides which teardown frame meets
            // which fault draw, so it must be deterministic.
            let mut socks: Vec<SocketId> = self.conns.keys().copied().collect();
            socks.sort_unstable();
            for s in socks {
                ctx.close(s);
            }
        }
    }

    /// Preparation continues after the container page rendered.
    fn after_render(&mut self, ctx: &mut HostCtx) {
        match self.cfg.plan.technology {
            Technology::Flash => {
                // The browser fetches the .swf over its pool connection.
                let sock = self.container.expect("container connected");
                let req = HttpRequest::new(Method::Get, "/plugin.swf")
                    .header("Host", self.cfg.server_ip.to_string())
                    .header("User-Agent", self.user_agent())
                    .emit();
                ctx.send(sock, &req);
                self.phase = Phase::AssetLoading;
            }
            Technology::JavaApplet => {
                // The JVM opens its own connection for the applet jar —
                // this is the connection Java HTTP probes later reuse.
                let sock = ctx.connect((self.cfg.server_ip, self.cfg.http_port));
                self.connections_opened += 1;
                self.conns.insert(sock, Role::JavaPool);
                self.parsers.insert(sock, self.new_parser());
                self.java_pool = Some(sock);
                self.phase = Phase::AssetLoading;
            }
            Technology::Native => self.setup_socket_or_start(ctx),
        }
    }

    /// Open the measurement socket (if the transport needs one), then
    /// start round 1.
    fn setup_socket_or_start(&mut self, ctx: &mut HostCtx) {
        match self.cfg.plan.transport {
            ProbeTransport::WebSocketEcho => {
                assert!(
                    self.cfg.profile.supports_websocket,
                    "plan requires WebSocket but {:?} lacks it",
                    self.cfg.profile.runtime
                );
                let sock = ctx.connect((self.cfg.server_ip, self.cfg.http_port));
                self.connections_opened += 1;
                self.conns.insert(sock, Role::WebSocket);
                self.parsers.insert(sock, self.new_parser());
                self.ws_conn = Some(sock);
                self.phase = Phase::SocketSetup;
            }
            ProbeTransport::TcpEcho => {
                let sock = ctx.connect((self.cfg.server_ip, self.cfg.echo_port));
                self.connections_opened += 1;
                self.conns.insert(sock, Role::Echo);
                self.echo_conn = Some(sock);
                self.phase = Phase::SocketSetup;
            }
            ProbeTransport::UdpEcho => {
                self.udp_port_local = Some(ctx.udp_bind_ephemeral());
                self.start_rounds(ctx);
            }
            ProbeTransport::WebRtcData => {
                assert!(
                    self.cfg.profile.supports_websocket,
                    "plan requires WebRTC but {:?} predates it",
                    self.cfg.profile.runtime
                );
                self.udp_port_local = Some(ctx.udp_bind_ephemeral());
                self.rtc_send_open(ctx);
                self.phase = Phase::SocketSetup;
            }
            _ => self.start_rounds(ctx),
        }
    }

    fn start_rounds(&mut self, ctx: &mut HostCtx) {
        self.phase = Phase::AwaitSend(1);
        self.schedule(ctx, SimDuration::from_millis(5), Step::StartRound(1));
    }

    fn on_http_data(&mut self, ctx: &mut HostCtx, sock: SocketId, data: Bytes) {
        let role = *self.conns.get(&sock).expect("known conn");
        if role == Role::WebSocket && self.ws_conn == Some(sock) && self.phase != Phase::SocketSetup
        {
            // Post-upgrade: frames.
            self.ws_decoder.feed(&data);
            while let Ok(Some(frame)) = self.ws_decoder.poll() {
                if let Phase::AwaitResponse(round) = self.phase {
                    if matches!(frame.opcode, Opcode::Text | Opcode::Binary) {
                        self.response_complete(ctx, round);
                    }
                }
            }
            return;
        }
        let now_ns = ctx.now().as_nanos();
        let Some(parser) = self.parsers.get_mut(&sock) else {
            return;
        };
        let mut outcome = parser.feed_at(now_ns, data);
        while let ParseOutcome::Response(resp) = outcome {
            let remainder = if resp.status == 101 {
                Some(self.parsers.get_mut(&sock).unwrap().take_remainder())
            } else {
                None
            };
            self.on_http_response_complete(ctx, sock, resp.status, remainder);
            outcome = match self.parsers.get_mut(&sock) {
                Some(p) => p.poll(),
                None => break,
            };
        }
    }

    fn on_http_response_complete(
        &mut self,
        ctx: &mut HostCtx,
        sock: SocketId,
        status: u16,
        upgrade_remainder: Option<Vec<u8>>,
    ) {
        match self.phase {
            Phase::ContainerLoading if Some(sock) == self.container => {
                let render = self.cfg.profile.prims.page_render;
                let d = render.sample(&mut self.rng);
                self.schedule(ctx, d, Step::RenderDone);
                self.phase = Phase::Rendering;
            }
            Phase::AssetLoading => {
                // .swf or .jar finished loading.
                self.setup_socket_or_start(ctx);
            }
            Phase::SocketSetup if Some(sock) == self.ws_conn => {
                assert_eq!(status, 101, "websocket upgrade failed");
                if let Some(rem) = upgrade_remainder {
                    self.ws_decoder.feed(&rem);
                }
                self.start_rounds(ctx);
            }
            Phase::AwaitResponse(round) => {
                if let Some(target) = self.inflight_get.take() {
                    self.http_cache.insert(target);
                }
                self.response_complete(ctx, round);
            }
            _ => {}
        }
    }
}

impl HostApp for BrowserSession {
    fn on_boot(&mut self, ctx: &mut HostCtx) {
        let sock = ctx.connect((self.cfg.server_ip, self.cfg.http_port));
        self.connections_opened += 1;
        self.conns.insert(sock, Role::Container);
        self.parsers.insert(sock, self.new_parser());
        self.container = Some(sock);
        self.phase = Phase::Boot;
    }

    fn on_event(&mut self, ctx: &mut HostCtx, ev: SockEvent) {
        match ev {
            SockEvent::Connected { sock } => {
                let role = *self.conns.get(&sock).expect("connected unknown socket");
                match role {
                    Role::Container => {
                        let req = HttpRequest::new(Method::Get, "/")
                            .header("Host", self.cfg.server_ip.to_string())
                            .header("User-Agent", self.user_agent())
                            .emit();
                        ctx.send(sock, &req);
                        self.phase = Phase::ContainerLoading;
                    }
                    Role::JavaPool => {
                        let req = HttpRequest::new(Method::Get, "/applet.jar")
                            .header("Host", self.cfg.server_ip.to_string())
                            .header("User-Agent", format!("Java/{}", "1.7"))
                            .emit();
                        ctx.send(sock, &req);
                    }
                    Role::WebSocket => {
                        // Deterministic nonce derived from the marker token.
                        let mut nonce = [0u8; 16];
                        nonce[..8].copy_from_slice(&self.token().to_le_bytes());
                        let req = websocket::client_handshake(
                            "/ws",
                            &self.cfg.server_ip.to_string(),
                            nonce,
                        )
                        .emit();
                        ctx.send(sock, &req);
                    }
                    Role::Echo => {
                        // Raw socket ready: begin measuring.
                        self.start_rounds(ctx);
                    }
                    Role::Probe => {
                        // Fresh measurement connection established: the
                        // request leaves now (the handshake already burned
                        // its time inside tB_r − tB_s).
                        if let Phase::AwaitConnect(round) = self.phase {
                            let bytes = self.http_request(round);
                            ctx.send(sock, &bytes);
                            self.phase = Phase::AwaitResponse(round);
                        }
                    }
                }
            }
            SockEvent::Data { sock } => {
                let data = ctx.recv(sock);
                let role = self.conns.get(&sock).copied();
                match role {
                    Some(Role::Echo) => {
                        self.echo_bytes_round += data.len();
                        if let Phase::AwaitResponse(round) = self.phase {
                            if self.echo_bytes_round >= self.cfg.plan.request_size {
                                self.response_complete(ctx, round);
                            }
                        }
                    }
                    Some(_) => self.on_http_data(ctx, sock, data),
                    None => {}
                }
            }
            SockEvent::PeerClosed { sock } => {
                ctx.close(sock);
            }
            SockEvent::Closed { sock } | SockEvent::Reset { sock } => {
                self.conns.remove(&sock);
                self.parsers.remove(&sock);
            }
            SockEvent::Accepted { .. } | SockEvent::Writable { .. } => {}
        }
    }

    fn on_udp(&mut self, ctx: &mut HostCtx, rx: UdpRx) {
        if Some(rx.local_port) != self.udp_port_local {
            return;
        }
        if self.cfg.plan.transport == ProbeTransport::WebRtcData {
            self.rtc_on_udp(ctx, rx);
        } else if let Phase::AwaitResponse(round) = self.phase {
            self.response_complete(ctx, round);
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        let Some(step) = self.pending.remove(&token) else {
            return;
        };
        match step {
            Step::RenderDone => self.after_render(ctx),
            Step::StartRound(r) => self.begin_round(ctx, r),
            Step::DoSend(r) => self.do_send(ctx, r),
            Step::StampEnd(r) => self.stamp_end(ctx, r),
            Step::RtcOpenRetry => {
                if !self.rtc_acked && self.phase == Phase::SocketSetup {
                    if self.rtc_open_tries >= 50 {
                        // Give up: the channel never opened. `completed`
                        // stays false and the rep reports a failure.
                        self.phase = Phase::Done;
                    } else {
                        self.rtc_send_open(ctx);
                    }
                }
            }
            Step::RtcBegin(seq) => self.rtc_begin(ctx, seq),
            Step::RtcSend(seq) => self.rtc_send(ctx, seq),
            Step::RtcStamp(seq) => self.rtc_stamp(ctx, seq),
            Step::RtcFinish => self.rtc_finish(ctx),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::BrowserKind;
    use bnm_http::server::{ServerConfig, WebServer};
    use bnm_sim::engine::Engine;
    use bnm_sim::link::LinkSpec;
    use bnm_sim::switch::Switch;
    use bnm_sim::wire::MacAddr;
    use bnm_tcp::{Host, HostConfig};
    use bnm_time::{OsKind, TimingApiKind};

    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);

    fn run_session(plan: ProbePlan, kind: BrowserKind, os: OsKind) -> (Engine, usize, usize) {
        let profile = BrowserProfile::build(kind, os).expect("available");
        let machine = MachineTimer::new(os, 1234);
        let session = BrowserSession::new(SessionConfig {
            server_ip: SERVER_IP,
            http_port: 80,
            echo_port: 8081,
            udp_port: 7,
            webrtc_port: 3478,
            plan,
            profile: Arc::new(profile),
            machine,
            rep_token: 42,
            session: 0,
            seed: 99,
            trace: Trace::disabled(),
        });
        let mut e = Engine::new();
        let c = e.add_node(Box::new(Host::new(
            HostConfig::new("client", MacAddr::local(2), CLIENT_IP)
                .with_neighbor(SERVER_IP, MacAddr::local(1)),
            session,
        )));
        let s = e.add_node(Box::new(Host::new(
            HostConfig::new("server", MacAddr::local(1), SERVER_IP)
                .with_neighbor(CLIENT_IP, MacAddr::local(2)),
            WebServer::new(ServerConfig::default()),
        )));
        let sw = e.add_node(Box::new(Switch::new(2)));
        e.connect(c, 0, sw, 0, LinkSpec::fast_ethernet());
        let server_link = e.connect(s, 0, sw, 1, LinkSpec::fast_ethernet());
        // The paper's 50 ms netem delay on the server side (egress only).
        e.set_one_way_delay(server_link, s, SimDuration::from_millis(50));
        e.run();
        (e, c, s)
    }

    fn rounds_of(e: &Engine, c: usize) -> Vec<RoundResult> {
        let host = e.node_ref::<Host<BrowserSession>>(c);
        assert!(host.app().result().completed, "session did not finish");
        host.app().result().rounds.clone()
    }

    fn plan(label: &str, tech: Technology, tr: ProbeTransport, api: TimingApiKind) -> ProbePlan {
        ProbePlan::new(label, tech, tr, api)
    }

    #[test]
    fn xhr_get_completes_two_rounds_with_plausible_rtt() {
        let (e, c, _) = run_session(
            plan(
                "xhr_get",
                Technology::Native,
                ProbeTransport::HttpGet,
                TimingApiKind::JsDateGetTime,
            ),
            BrowserKind::Chrome,
            OsKind::Ubuntu1204,
        );
        let rounds = rounds_of(&e, c);
        assert_eq!(rounds.len(), 2);
        for r in &rounds {
            // True network RTT is ~50 ms; browser-level must exceed it but
            // stay well under the 50+handshake regime.
            let rtt = r.browser_rtt_ms();
            assert!(rtt > 50.0, "round {} rtt {rtt}", r.round);
            assert!(rtt < 90.0, "round {} rtt {rtt}", r.round);
            assert!(!r.opened_new_connection);
        }
    }

    #[test]
    fn websocket_overhead_is_small() {
        let (e, c, _) = run_session(
            plan(
                "ws",
                Technology::Native,
                ProbeTransport::WebSocketEcho,
                TimingApiKind::JsDateGetTime,
            ),
            BrowserKind::Chrome,
            OsKind::Ubuntu1204,
        );
        let rounds = rounds_of(&e, c);
        // Round 2 (no first-use) should sit within ~3 ms of the true RTT.
        let rtt2 = rounds[1].browser_rtt_ms();
        assert!((49.0..54.0).contains(&rtt2), "ws rtt {rtt2}");
    }

    #[test]
    fn opera_flash_get_round1_includes_handshake() {
        let (e, c, _) = run_session(
            plan(
                "flash_get",
                Technology::Flash,
                ProbeTransport::HttpGet,
                TimingApiKind::FlashGetTime,
            ),
            BrowserKind::Opera,
            OsKind::Windows7,
        );
        let rounds = rounds_of(&e, c);
        assert!(rounds[0].opened_new_connection);
        assert!(!rounds[1].opened_new_connection, "round-2 GET reuses");
        let d1 = rounds[0].browser_rtt_ms() - 50.0;
        let d2 = rounds[1].browser_rtt_ms() - 50.0;
        // Δd1 carries handshake (~50 ms) + flash init; Δd2 only the path.
        assert!(d1 > 75.0, "Δd1 = {d1}");
        assert!(d2 < 50.0, "Δd2 = {d2}");
        assert!(d1 - d2 > 40.0, "handshake gap {d1} vs {d2}");
    }

    #[test]
    fn opera_flash_post_opens_fresh_connection_every_round() {
        let (e, c, _) = run_session(
            plan(
                "flash_post",
                Technology::Flash,
                ProbeTransport::HttpPost,
                TimingApiKind::FlashGetTime,
            ),
            BrowserKind::Opera,
            OsKind::Windows7,
        );
        let rounds = rounds_of(&e, c);
        assert!(rounds[0].opened_new_connection);
        assert!(rounds[1].opened_new_connection);
        // Both rounds inflated by a handshake.
        assert!(rounds[1].browser_rtt_ms() - 50.0 > 50.0);
    }

    #[test]
    fn chrome_flash_reuses_browser_pool() {
        let (e, c, _) = run_session(
            plan(
                "flash_get",
                Technology::Flash,
                ProbeTransport::HttpGet,
                TimingApiKind::FlashGetTime,
            ),
            BrowserKind::Chrome,
            OsKind::Windows7,
        );
        let rounds = rounds_of(&e, c);
        assert!(!rounds[0].opened_new_connection);
        assert!(!rounds[1].opened_new_connection);
        // Δd2 has no first-use cost: pure Flash path, well under the
        // handshake-inflated regime Opera shows.
        let d2 = rounds[1].browser_rtt_ms() - 50.0;
        assert!(d2 < 60.0, "Δd2 = {d2}");
    }

    #[test]
    fn java_tcp_socket_is_near_zero_overhead_with_nanotime() {
        let (e, c, _) = run_session(
            plan(
                "java_tcp",
                Technology::JavaApplet,
                ProbeTransport::TcpEcho,
                TimingApiKind::JavaNanoTime,
            ),
            BrowserKind::Firefox,
            OsKind::Windows7,
        );
        let rounds = rounds_of(&e, c);
        for r in &rounds {
            let overhead = r.browser_rtt_ms() - 50.0;
            // Wire time adds ~0.2 ms; the browser path adds < 0.3 ms.
            assert!(overhead > 0.0 && overhead < 0.6, "overhead {overhead}");
        }
    }

    #[test]
    fn java_udp_echo_completes() {
        let (e, c, _) = run_session(
            plan(
                "java_udp",
                Technology::JavaApplet,
                ProbeTransport::UdpEcho,
                TimingApiKind::JavaNanoTime,
            ),
            BrowserKind::Chrome,
            OsKind::Windows7,
        );
        let rounds = rounds_of(&e, c);
        assert_eq!(rounds.len(), 2);
        assert!(rounds[0].browser_rtt_ms() > 50.0);
    }

    #[test]
    fn java_gettime_on_windows_can_underestimate() {
        // Across many repetitions, the coarse-granularity regime must
        // produce at least one negative overhead — the paper's headline
        // §4.2 artifact. (Seeds vary the regime per repetition.)
        let mut negatives = 0;
        let mut total = 0;
        for rep in 0..12 {
            let profile = BrowserProfile::build(BrowserKind::Firefox, OsKind::Windows7).unwrap();
            let machine = MachineTimer::new(OsKind::Windows7, 5000 + rep);
            let session = BrowserSession::new(SessionConfig {
                server_ip: SERVER_IP,
                http_port: 80,
                echo_port: 8081,
                udp_port: 7,
                webrtc_port: 3478,
                plan: plan(
                    "java_tcp",
                    Technology::JavaApplet,
                    ProbeTransport::TcpEcho,
                    TimingApiKind::JavaDateGetTime,
                ),
                profile: Arc::new(profile),
                machine,
                rep_token: rep,
                session: 0,
                seed: rep,
                trace: Trace::disabled(),
            });
            let mut e = Engine::new();
            let c = e.add_node(Box::new(Host::new(
                HostConfig::new("client", MacAddr::local(2), CLIENT_IP)
                    .with_neighbor(SERVER_IP, MacAddr::local(1)),
                session,
            )));
            let s = e.add_node(Box::new(Host::new(
                HostConfig::new("server", MacAddr::local(1), SERVER_IP)
                    .with_neighbor(CLIENT_IP, MacAddr::local(2)),
                WebServer::new(ServerConfig::default()),
            )));
            let link = e.connect(c, 0, s, 0, LinkSpec::fast_ethernet());
            e.set_one_way_delay(link, s, SimDuration::from_millis(50));
            e.run();
            for r in rounds_of(&e, c) {
                total += 1;
                if r.browser_rtt_ms() < 50.0 {
                    negatives += 1;
                }
            }
        }
        assert!(total == 24);
        assert!(negatives > 0, "no under-estimation in {total} rounds");
    }

    #[test]
    fn webrtc_train_delivers_every_probe_on_a_clean_network() {
        let mut p = plan(
            "webrtc",
            Technology::Native,
            ProbeTransport::WebRtcData,
            TimingApiKind::JsDateGetTime,
        );
        p.rounds = 8;
        let (e, c, s) = run_session(p, BrowserKind::Chrome, OsKind::Ubuntu1204);
        let rounds = rounds_of(&e, c);
        assert_eq!(rounds.len(), 8, "clean network loses nothing");
        // Every probe seq appears exactly once.
        let mut seqs: Vec<u8> = rounds.iter().map(|r| r.round).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, (1..=8).collect::<Vec<_>>());
        for r in &rounds {
            let rtt = r.browser_rtt_ms();
            // 50 ms one-way server delay => ~50 ms echo RTT, small
            // overhead (Date.getTime() quantization can round to 50).
            assert!(rtt >= 49.0, "probe {} rtt {rtt}", r.round);
            assert!(rtt < 60.0, "probe {} rtt {rtt}", r.round);
            assert!(!r.opened_new_connection);
        }
        let stats = &e.node_ref::<Host<WebServer>>(s).app().stats;
        assert_eq!(stats.webrtc_opens, 1);
        assert_eq!(stats.webrtc_echoes, 8);
    }

    #[test]
    fn ie_has_no_websocket() {
        let profile = BrowserProfile::build(BrowserKind::Ie9, OsKind::Windows7).unwrap();
        assert!(!profile.supports_websocket);
    }

    #[test]
    fn session_closes_connections_when_done() {
        let (e, c, _) = run_session(
            plan(
                "xhr_get",
                Technology::Native,
                ProbeTransport::HttpGet,
                TimingApiKind::JsDateGetTime,
            ),
            BrowserKind::Firefox,
            OsKind::Ubuntu1204,
        );
        let host = e.node_ref::<Host<BrowserSession>>(c);
        // All sockets torn down after completion (TIME-WAIT reaping may
        // leave at most the time-wait side; live_sockets counts those).
        assert!(host.app().result().completed);
        assert_eq!(host.app().connections_opened, 1);
    }
}

#[cfg(test)]
mod cache_tests {
    use super::*;
    use crate::profile::{BrowserKind, BrowserProfile};
    use bnm_http::server::{ServerConfig, WebServer};
    use bnm_sim::engine::Engine;
    use bnm_sim::link::LinkSpec;
    use bnm_sim::switch::Switch;
    use bnm_sim::wire::MacAddr;
    use bnm_tcp::{Host, HostConfig};
    use bnm_time::{MachineTimer, OsKind, TimingApiKind};

    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);

    fn run_plan(plan: ProbePlan) -> (Engine, usize, usize) {
        let profile = BrowserProfile::build(BrowserKind::Chrome, OsKind::Ubuntu1204).unwrap();
        let machine = MachineTimer::new(OsKind::Ubuntu1204, 77);
        let session = BrowserSession::new(SessionConfig {
            server_ip: SERVER_IP,
            http_port: 80,
            echo_port: 8081,
            udp_port: 7,
            webrtc_port: 3478,
            plan,
            profile: Arc::new(profile),
            machine,
            rep_token: 9,
            session: 0,
            seed: 77,
            trace: Trace::disabled(),
        });
        let mut e = Engine::new();
        let c = e.add_node(Box::new(Host::new(
            HostConfig::new("client", MacAddr::local(2), CLIENT_IP)
                .with_neighbor(SERVER_IP, MacAddr::local(1)),
            session,
        )));
        let s = e.add_node(Box::new(Host::new(
            HostConfig::new("server", MacAddr::local(1), SERVER_IP)
                .with_neighbor(CLIENT_IP, MacAddr::local(2)),
            WebServer::new(ServerConfig::default()),
        )));
        let sw = e.add_node(Box::new(Switch::new(2)));
        e.connect(c, 0, sw, 0, LinkSpec::fast_ethernet());
        let link = e.connect(s, 0, sw, 1, LinkSpec::fast_ethernet());
        e.set_one_way_delay(link, s, SimDuration::from_millis(50));
        e.run();
        (e, c, s)
    }

    #[test]
    fn without_cache_buster_round_two_is_served_from_cache() {
        let plan = ProbePlan::new(
            "xhr_get",
            Technology::Native,
            ProbeTransport::HttpGet,
            bnm_time::TimingApiKind::JsDateGetTime,
        )
        .without_cache_buster();
        let (e, c, s) = run_plan(plan);
        let host = e.node_ref::<Host<BrowserSession>>(c);
        let rounds = &host.app().result().rounds;
        assert_eq!(rounds.len(), 2);
        // Round 1 went to the network; round 2 came from the cache and
        // reports a catastrophically small "RTT".
        assert!(rounds[0].browser_rtt_ms() > 50.0);
        assert!(
            rounds[1].browser_rtt_ms() < 10.0,
            "cached round must not see the network: {} ms",
            rounds[1].browser_rtt_ms()
        );
        // The server only ever saw one probe GET.
        assert_eq!(e.node_ref::<Host<WebServer>>(s).app().stats.gets, 1);
    }

    #[test]
    fn cache_buster_defeats_the_cache() {
        let plan = ProbePlan::new(
            "xhr_get",
            Technology::Native,
            ProbeTransport::HttpGet,
            TimingApiKind::JsDateGetTime,
        );
        let (e, c, s) = run_plan(plan);
        let host = e.node_ref::<Host<BrowserSession>>(c);
        let rounds = &host.app().result().rounds;
        assert!(rounds.iter().all(|r| r.browser_rtt_ms() > 50.0));
        assert_eq!(e.node_ref::<Host<WebServer>>(s).app().stats.gets, 2);
    }
}
