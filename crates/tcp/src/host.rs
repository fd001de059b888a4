//! A host: NIC ⇄ IPv4 ⇄ TCP/UDP ⇄ application.
//!
//! [`Host`] implements [`bnm_sim::engine::Node`] and owns the transport
//! stacks plus an application object implementing [`HostApp`]. All
//! timestamping semantics of the reproduction hinge on *where* code runs:
//! the capture taps sit on the host's link (below this struct), while
//! browser-level timestamps are taken inside the application layer — so
//! every delay modeled in the application (event loops, plugin bridges,
//! server handler delays) lands in Δd exactly as in the paper.
//!
//! The host itself adds **no** processing delay: protocol handling is
//! instantaneous in virtual time. All overhead modelling is concentrated
//! in the application layer where it is explicit and auditable.

use std::any::Any;
use std::collections::{BTreeSet, HashMap};
use std::net::Ipv4Addr;

use bytes::Bytes;

use bnm_sim::engine::{Ctx, Node, PortNo};
use bnm_sim::time::{SimDuration, SimTime};
use bnm_sim::wire::{Envelope, FrameLayout, IcmpEcho, MacAddr, Transport};

use crate::socket::{SocketId, TcpConfig};
use crate::stack::{SockEvent, TcpStack};
use crate::udp::UdpStack;

/// Engine-timer token reserved for the stack's internal deadlines. App
/// timers must stay below this value.
const STACK_TIMER: u64 = u64::MAX;

/// Static configuration of one host.
#[derive(Debug, Clone)]
pub struct HostConfig {
    /// Host name (diagnostics).
    pub name: String,
    /// NIC MAC address.
    pub mac: MacAddr,
    /// IPv4 address.
    pub ip: Ipv4Addr,
    /// Static neighbor table (no ARP, like `ip neigh add` provisioning).
    pub neighbors: Vec<(Ipv4Addr, MacAddr)>,
    /// Default TCP socket configuration.
    pub tcp: TcpConfig,
}

impl HostConfig {
    /// A host with an empty neighbor table.
    pub fn new(name: impl Into<String>, mac: MacAddr, ip: Ipv4Addr) -> Self {
        HostConfig {
            name: name.into(),
            mac,
            ip,
            neighbors: Vec::new(),
            tcp: TcpConfig::default(),
        }
    }

    /// Add a static neighbor entry.
    pub fn with_neighbor(mut self, ip: Ipv4Addr, mac: MacAddr) -> Self {
        self.neighbors.push((ip, mac));
        self
    }
}

/// The application living on a host.
pub trait HostApp: 'static {
    /// Called once at simulation boot.
    fn on_boot(&mut self, _ctx: &mut HostCtx) {}

    /// A TCP socket event occurred.
    fn on_event(&mut self, ctx: &mut HostCtx, ev: SockEvent);

    /// A UDP datagram arrived on a bound port.
    fn on_udp(&mut self, _ctx: &mut HostCtx, _rx: crate::udp::UdpRx) {}

    /// An application timer armed via [`HostCtx::set_app_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut HostCtx, _token: u64) {}

    /// An ICMP echo *reply* arrived (requests are answered by the host's
    /// "kernel" automatically, like a real stack).
    fn on_ping_reply(&mut self, _ctx: &mut HostCtx, _from: Ipv4Addr, _echo: IcmpEcho) {}
}

/// The application's handle to its host while inside a callback.
pub struct HostCtx<'a, 'b> {
    sim: &'a mut Ctx<'b>,
    /// TCP layer (exposed for advanced use; prefer the wrapper methods).
    pub tcp: &'a mut TcpStack,
    /// UDP layer.
    pub udp: &'a mut UdpStack,
    cfg: &'a HostConfig,
    ip_ident: &'a mut u16,
    neighbor_cache: &'a HashMap<Ipv4Addr, MacAddr>,
}

impl HostCtx<'_, '_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Host configuration.
    pub fn config(&self) -> &HostConfig {
        self.cfg
    }

    /// Open a TCP connection; segments leave immediately.
    pub fn connect(&mut self, peer: (Ipv4Addr, u16)) -> SocketId {
        let now = self.sim.now();
        let id = self.tcp.connect(now, peer);
        self.flush();
        id
    }

    /// Open a TCP connection with a per-socket config.
    pub fn connect_with(&mut self, peer: (Ipv4Addr, u16), cfg: TcpConfig) -> SocketId {
        let now = self.sim.now();
        let id = self.tcp.connect_with(now, peer, cfg);
        self.flush();
        id
    }

    /// Listen on a TCP port.
    pub fn listen(&mut self, port: u16) {
        self.tcp.listen(port);
    }

    /// Send on a TCP socket; returns bytes accepted.
    pub fn send(&mut self, sock: SocketId, data: &[u8]) -> usize {
        let now = self.sim.now();
        let n = self.tcp.send(now, sock, data);
        self.flush();
        n
    }

    /// Read everything available on a TCP socket (any resulting
    /// window-update ACK leaves immediately).
    pub fn recv(&mut self, sock: SocketId) -> Bytes {
        let data = self.tcp.recv(sock);
        self.flush();
        data
    }

    /// Begin an orderly close.
    pub fn close(&mut self, sock: SocketId) {
        let now = self.sim.now();
        self.tcp.close(now, sock);
        self.flush();
    }

    /// Abort with RST.
    pub fn abort(&mut self, sock: SocketId) {
        self.tcp.abort(sock);
        self.flush();
    }

    /// Bind a UDP port.
    pub fn udp_bind(&mut self, port: u16) -> bool {
        self.udp.bind(port)
    }

    /// Bind an ephemeral UDP port.
    pub fn udp_bind_ephemeral(&mut self) -> u16 {
        self.udp.bind_ephemeral()
    }

    /// Send a UDP datagram.
    pub fn udp_send(&mut self, from_port: u16, to: (Ipv4Addr, u16), payload: Bytes) {
        self.udp.send(from_port, to, payload);
        self.flush();
    }

    /// Arm an application timer. `token` must be below `u64::MAX`.
    pub fn set_app_timer(&mut self, delay: SimDuration, token: u64) {
        assert!(token < STACK_TIMER, "token reserved for the stack");
        self.sim.set_timer(delay, token);
    }

    /// Send an ICMP echo request (`ping`) to `dst`.
    pub fn send_ping(&mut self, dst: Ipv4Addr, ident: u16, seq: u16, payload: Bytes) {
        let echo = IcmpEcho {
            is_request: true,
            ident,
            seq,
            payload,
        };
        let frame = self.envelope(dst).icmp(&echo);
        self.sim.send_frame(0, frame);
    }

    /// Send an ICMP echo reply (used internally by the host "kernel").
    pub(crate) fn send_ping_reply(&mut self, dst: Ipv4Addr, echo: &IcmpEcho) {
        let frame = self.envelope(dst).icmp(&echo.reply());
        self.sim.send_frame(0, frame);
    }

    /// Push everything the stacks queued onto the wire, each frame
    /// built in one buffer.
    fn flush(&mut self) {
        for (dst_ip, seg) in self.tcp.take_out() {
            let frame = self.envelope(dst_ip).tcp(&seg);
            self.sim.send_frame(0, frame);
        }
        for (dst_ip, dgram) in self.udp.take_out() {
            let frame = self.envelope(dst_ip).udp(&dgram);
            self.sim.send_frame(0, frame);
        }
    }

    /// The headers of the next frame to `dst_ip`: one more IP ident, and
    /// the neighbor's MAC (broadcast when unknown).
    fn envelope(&mut self, dst_ip: Ipv4Addr) -> Envelope {
        *self.ip_ident = self.ip_ident.wrapping_add(1);
        Envelope {
            dst_mac: self
                .neighbor_cache
                .get(&dst_ip)
                .copied()
                .unwrap_or(MacAddr::BROADCAST),
            src_mac: self.cfg.mac,
            src_ip: self.cfg.ip,
            dst_ip,
            ttl: 64,
            ident: *self.ip_ident,
        }
    }
}

/// A host node: plugs a [`HostApp`] into the simulated network.
pub struct Host<A: HostApp> {
    cfg: HostConfig,
    tcp: TcpStack,
    udp: UdpStack,
    app: A,
    ip_ident: u16,
    neighbor_cache: HashMap<Ipv4Addr, MacAddr>,
    /// Instants with a stack-timer event queued in the engine, one event
    /// per instant: a firing polls every deadline due by then, so a
    /// second event at the same instant would find nothing to do.
    stack_timers: BTreeSet<SimTime>,
    /// Frames that failed to parse or verify (diagnostics).
    pub rx_errors: u64,
}

impl<A: HostApp> Host<A> {
    /// Build a host around an application.
    pub fn new(cfg: HostConfig, app: A) -> Self {
        let tcp = TcpStack::new(cfg.ip, cfg.tcp);
        let udp = UdpStack::new(cfg.ip);
        let neighbor_cache = cfg.neighbors.iter().copied().collect();
        Host {
            cfg,
            tcp,
            udp,
            app,
            ip_ident: 0,
            neighbor_cache,
            stack_timers: BTreeSet::new(),
            rx_errors: 0,
        }
    }

    /// Install a trace handle on the host's TCP stack: active opens get
    /// `tcp/handshake` spans from SYN to `Connected`.
    pub fn with_trace(mut self, trace: bnm_obs::Trace) -> Self {
        self.tcp.set_trace(trace);
        self
    }

    /// Offset this host's ephemeral-port/ISN sequences by a flow index
    /// (see [`TcpStack::set_flow_offset`]); index 0 is a no-op.
    pub fn with_flow_offset(mut self, index: u64) -> Self {
        self.tcp.set_flow_offset(index);
        self
    }

    /// Borrow the application (to read results after a run).
    pub fn app(&self) -> &A {
        &self.app
    }

    /// Borrow the TCP stack (diagnostics).
    pub fn tcp(&self) -> &TcpStack {
        &self.tcp
    }

    /// Run `f` with a [`HostCtx`], then deliver pending events and make
    /// sure a stack timer is queued for the earliest deadline. This is
    /// the single entry point wrapping every callback.
    fn with_ctx<F>(&mut self, sim: &mut Ctx, f: F)
    where
        F: FnOnce(&mut A, &mut HostCtx),
    {
        {
            let mut hc = HostCtx {
                sim,
                tcp: &mut self.tcp,
                udp: &mut self.udp,
                cfg: &self.cfg,
                ip_ident: &mut self.ip_ident,
                neighbor_cache: &self.neighbor_cache,
            };
            f(&mut self.app, &mut hc);
            // Drain event/rx queues; app callbacks may enqueue more work,
            // so loop until quiescent (bounded to catch runaway apps).
            for _ in 0..4096 {
                if let Some(ev) = hc.tcp.pop_event() {
                    self.app.on_event(&mut hc, ev);
                    continue;
                }
                if let Some(rx) = hc.udp.pop_rx() {
                    self.app.on_udp(&mut hc, rx);
                    continue;
                }
                break;
            }
            hc.flush();
        }
        // Events are never cancelled, so an instant already queued keeps
        // its first event; a deadline that moved leaves its old instant
        // to fire once, idle.
        if let Some(dl) = self.tcp.next_deadline() {
            let now = sim.now();
            let at = dl.max(now);
            if self.stack_timers.insert(at) {
                sim.set_timer(at.saturating_since(now), STACK_TIMER);
            }
        }
    }
}

impl<A: HostApp> Node for Host<A> {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.with_ctx(ctx, |app, hc| app.on_boot(hc));
    }

    /// Reads the frame in place and makes one view of it, the
    /// transport payload (none when the payload is empty).
    fn on_frame(&mut self, ctx: &mut Ctx, _port: PortNo, frame: Bytes) {
        let layout = match FrameLayout::read(&frame) {
            Ok(l) => l,
            Err(_) => {
                self.rx_errors += 1;
                return;
            }
        };
        if layout.ip.dst != self.cfg.ip {
            return; // flooded frame for someone else
        }
        let now = ctx.now();
        let src_ip = layout.ip.src;
        match layout.transport(&frame) {
            Transport::Tcp(seg) => {
                self.tcp.process(now, src_ip, seg);
            }
            Transport::Udp(dgram) => {
                self.udp.process(src_ip, dgram);
            }
            Transport::Icmp(echo) => {
                if echo.is_request {
                    // The "kernel" answers pings without involving the app.
                    self.with_ctx(ctx, |_, hc| hc.send_ping_reply(src_ip, &echo));
                } else {
                    self.with_ctx(ctx, |app, hc| app.on_ping_reply(hc, src_ip, echo));
                }
                return;
            }
            Transport::Other(_) => {
                self.rx_errors += 1;
                return;
            }
        }
        // Deliver events with a no-op entry closure.
        self.with_ctx(ctx, |_, _| {});
    }

    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        if token == STACK_TIMER {
            let now = ctx.now();
            self.stack_timers.remove(&now);
            self.tcp.on_timers(now);
            self.with_ctx(ctx, |_, _| {});
        } else {
            self.with_ctx(ctx, |app, hc| app.on_timer(hc, token));
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnm_sim::engine::Engine;
    use bnm_sim::link::LinkSpec;
    use bnm_sim::switch::Switch;

    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);
    const CLIENT_MAC: MacAddr = MacAddr::local(2);
    const SERVER_MAC: MacAddr = MacAddr::local(1);

    /// Client app: connects at boot, sends a probe, records the reply time.
    struct ProbeClient {
        sock: Option<SocketId>,
        sent_at: Option<SimTime>,
        reply_at: Option<SimTime>,
        reply: Vec<u8>,
    }

    impl HostApp for ProbeClient {
        fn on_boot(&mut self, ctx: &mut HostCtx) {
            self.sock = Some(ctx.connect((SERVER_IP, 80)));
        }
        fn on_event(&mut self, ctx: &mut HostCtx, ev: SockEvent) {
            match ev {
                SockEvent::Connected { sock } => {
                    self.sent_at = Some(ctx.now());
                    ctx.send(sock, b"ping");
                }
                SockEvent::Data { sock } => {
                    self.reply_at = Some(ctx.now());
                    self.reply.extend_from_slice(&ctx.recv(sock));
                    ctx.close(sock);
                }
                _ => {}
            }
        }
    }

    /// Server app: echoes data back with a fixed handler delay.
    struct EchoServer {
        delay: SimDuration,
        pending: Vec<(SocketId, Bytes)>,
    }

    impl HostApp for EchoServer {
        fn on_boot(&mut self, ctx: &mut HostCtx) {
            ctx.listen(80);
        }
        fn on_event(&mut self, ctx: &mut HostCtx, ev: SockEvent) {
            match ev {
                SockEvent::Data { sock } => {
                    let data = ctx.recv(sock);
                    self.pending.push((sock, data));
                    let token = (self.pending.len() - 1) as u64;
                    ctx.set_app_timer(self.delay, token);
                }
                SockEvent::PeerClosed { sock } => ctx.close(sock),
                _ => {}
            }
        }
        fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
            let (sock, data) = self.pending[token as usize].clone();
            ctx.send(sock, &data);
        }
    }

    fn testbed(handler_delay: SimDuration) -> (Engine, usize, usize) {
        let mut e = Engine::new();
        let client_cfg =
            HostConfig::new("client", CLIENT_MAC, CLIENT_IP).with_neighbor(SERVER_IP, SERVER_MAC);
        let server_cfg =
            HostConfig::new("server", SERVER_MAC, SERVER_IP).with_neighbor(CLIENT_IP, CLIENT_MAC);
        let client = e.add_node(Box::new(Host::new(
            client_cfg,
            ProbeClient {
                sock: None,
                sent_at: None,
                reply_at: None,
                reply: Vec::new(),
            },
        )));
        let server = e.add_node(Box::new(Host::new(
            server_cfg,
            EchoServer {
                delay: handler_delay,
                pending: Vec::new(),
            },
        )));
        let sw = e.add_node(Box::new(Switch::new(2)));
        e.connect(client, 0, sw, 0, LinkSpec::fast_ethernet());
        e.connect(server, 0, sw, 1, LinkSpec::fast_ethernet());
        (e, client, server)
    }

    #[test]
    fn end_to_end_echo_over_switch() {
        let (mut e, client, _) = testbed(SimDuration::ZERO);
        e.run();
        let app = e.node_ref::<Host<ProbeClient>>(client).app();
        assert_eq!(app.reply, b"ping");
        assert!(app.reply_at.is_some());
    }

    #[test]
    fn handler_delay_dominates_rtt() {
        let (mut e, client, _) = testbed(SimDuration::from_millis(50));
        e.run();
        let app = e.node_ref::<Host<ProbeClient>>(client).app();
        let rtt = app.reply_at.unwrap().saturating_since(app.sent_at.unwrap());
        assert!(rtt.as_millis() >= 50);
        assert!(rtt.as_millis() < 52);
    }

    #[test]
    fn rtt_without_delay_is_sub_millisecond() {
        let (mut e, client, _) = testbed(SimDuration::ZERO);
        e.run();
        let app = e.node_ref::<Host<ProbeClient>>(client).app();
        let rtt = app.reply_at.unwrap().saturating_since(app.sent_at.unwrap());
        // The paper: "the link RTT (< 1 ms) is too small to sample".
        assert!(rtt.as_millis_f64() < 1.0, "rtt = {rtt}");
    }

    #[test]
    fn connection_survives_syn_loss() {
        let (mut e, client, _) = testbed(SimDuration::ZERO);
        // Drop the first 1 frames from the client (the SYN).
        e.set_fault(
            0,
            client,
            bnm_sim::fault::FaultSpec {
                drop_chance: 0.35,
                ..bnm_sim::fault::FaultSpec::CLEAN
            },
            bnm_sim::rng::stream(77, "loss"),
        );
        e.run();
        let app = e.node_ref::<Host<ProbeClient>>(client).app();
        assert_eq!(app.reply, b"ping", "TCP must recover from loss");
    }

    #[test]
    fn corruption_is_survived_via_checksums_and_retransmit() {
        let (mut e, client, _) = testbed(SimDuration::ZERO);
        e.set_fault(
            1,
            2, // the switch end of the server link transmits toward server
            bnm_sim::fault::FaultSpec {
                corrupt_chance: 0.3,
                ..bnm_sim::fault::FaultSpec::CLEAN
            },
            bnm_sim::rng::stream(78, "corrupt"),
        );
        e.run();
        let app = e.node_ref::<Host<ProbeClient>>(client).app();
        assert_eq!(app.reply, b"ping");
    }

    #[test]
    fn udp_echo_between_hosts() {
        struct UdpClient {
            port: u16,
            got: Option<Bytes>,
        }
        impl HostApp for UdpClient {
            fn on_boot(&mut self, ctx: &mut HostCtx) {
                self.port = ctx.udp_bind_ephemeral();
                ctx.udp_send(self.port, (SERVER_IP, 7), Bytes::from_static(b"udp-ping"));
            }
            fn on_event(&mut self, _: &mut HostCtx, _: SockEvent) {}
            fn on_udp(&mut self, _ctx: &mut HostCtx, rx: crate::udp::UdpRx) {
                self.got = Some(rx.payload);
            }
        }
        struct UdpEcho;
        impl HostApp for UdpEcho {
            fn on_boot(&mut self, ctx: &mut HostCtx) {
                ctx.udp_bind(7);
            }
            fn on_event(&mut self, _: &mut HostCtx, _: SockEvent) {}
            fn on_udp(&mut self, ctx: &mut HostCtx, rx: crate::udp::UdpRx) {
                ctx.udp_send(rx.local_port, rx.from, rx.payload);
            }
        }
        let mut e = Engine::new();
        let c = e.add_node(Box::new(Host::new(
            HostConfig::new("c", CLIENT_MAC, CLIENT_IP).with_neighbor(SERVER_IP, SERVER_MAC),
            UdpClient { port: 0, got: None },
        )));
        let s = e.add_node(Box::new(Host::new(
            HostConfig::new("s", SERVER_MAC, SERVER_IP).with_neighbor(CLIENT_IP, CLIENT_MAC),
            UdpEcho,
        )));
        e.connect(c, 0, s, 0, LinkSpec::fast_ethernet());
        e.run();
        let app = e.node_ref::<Host<UdpClient>>(c).app();
        assert_eq!(app.got.as_deref(), Some(&b"udp-ping"[..]));
    }

    /// Client app: `left` request/response exchanges over one connection,
    /// then an orderly close.
    struct Exchanger {
        left: u32,
    }

    impl HostApp for Exchanger {
        fn on_boot(&mut self, ctx: &mut HostCtx) {
            ctx.connect((SERVER_IP, 80));
        }
        fn on_event(&mut self, ctx: &mut HostCtx, ev: SockEvent) {
            match ev {
                SockEvent::Connected { sock } => {
                    ctx.send(sock, b"req");
                }
                SockEvent::Data { sock } => {
                    ctx.recv(sock);
                    self.left -= 1;
                    if self.left == 0 {
                        ctx.close(sock);
                    } else {
                        ctx.send(sock, b"req");
                    }
                }
                _ => {}
            }
        }
    }

    #[test]
    fn one_stack_timer_event_per_deadline_instant() {
        const EXCHANGES: u32 = 50;
        let mut e = Engine::new();
        let client = e.add_node(Box::new(Host::new(
            HostConfig::new("client", CLIENT_MAC, CLIENT_IP).with_neighbor(SERVER_IP, SERVER_MAC),
            Exchanger { left: EXCHANGES },
        )));
        let server = e.add_node(Box::new(Host::new(
            HostConfig::new("server", SERVER_MAC, SERVER_IP).with_neighbor(CLIENT_IP, CLIENT_MAC),
            EchoServer {
                delay: SimDuration::ZERO,
                pending: Vec::new(),
            },
        )));
        let link = e.connect(client, 0, server, 0, LinkSpec::fast_ethernet());
        e.set_one_way_delay(link, server, SimDuration::from_millis(5));
        let tap = e.add_tap(link, client, bnm_sim::capture::CaptureBuffer::new("wire"));
        // Every (host, deadline) pair either stack holds between events:
        // each ACK moves the RTO deadline, and the close ends in TIME-WAIT.
        let mut deadlines = BTreeSet::new();
        while e.step() {
            let c = e.node_mut::<Host<Exchanger>>(client).tcp.next_deadline();
            let s = e.node_mut::<Host<EchoServer>>(server).tcp.next_deadline();
            deadlines.extend(c.map(|d| (client, d)));
            deadlines.extend(s.map(|d| (server, d)));
        }
        assert_eq!(e.node_ref::<Host<Exchanger>>(client).app().left, 0);
        // A frame costs one delivery event; beyond those, the two start
        // events and the server's one handler timer per exchange, only
        // one stack timer per distinct deadline may fire.
        let frames = e.tap(tap).len() as u64;
        let budget = frames + 2 + u64::from(EXCHANGES) + deadlines.len() as u64;
        assert!(
            e.events_processed() <= budget,
            "{} events for {frames} frames and {} deadlines",
            e.events_processed(),
            deadlines.len()
        );
    }
}

#[cfg(test)]
mod icmp_tests {
    use super::*;
    use bnm_sim::engine::Engine;
    use bnm_sim::link::LinkSpec;
    use bnm_sim::time::SimTime;

    const A_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);
    const B_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);

    /// Sends a series of pings at boot; records reply times.
    struct Pinger {
        count: u16,
        replies: Vec<(u16, SimTime)>,
    }

    impl HostApp for Pinger {
        fn on_boot(&mut self, ctx: &mut HostCtx) {
            for seq in 0..self.count {
                ctx.send_ping(B_IP, 0x77, seq, Bytes::from_static(b"abcdefgh"));
            }
        }
        fn on_event(&mut self, _: &mut HostCtx, _: crate::stack::SockEvent) {}
        fn on_ping_reply(&mut self, ctx: &mut HostCtx, from: Ipv4Addr, echo: IcmpEcho) {
            assert_eq!(from, B_IP);
            assert_eq!(echo.ident, 0x77);
            assert_eq!(&echo.payload[..], b"abcdefgh");
            self.replies.push((echo.seq, ctx.now()));
        }
    }

    /// A host whose app never touches ICMP: the kernel must answer.
    struct Passive;
    impl HostApp for Passive {
        fn on_event(&mut self, _: &mut HostCtx, _: crate::stack::SockEvent) {}
    }

    #[test]
    fn kernel_answers_pings_and_replies_reach_the_app() {
        let mut e = Engine::new();
        let a = e.add_node(Box::new(Host::new(
            HostConfig::new("a", MacAddr::local(2), A_IP).with_neighbor(B_IP, MacAddr::local(1)),
            Pinger {
                count: 4,
                replies: Vec::new(),
            },
        )));
        let b = e.add_node(Box::new(Host::new(
            HostConfig::new("b", MacAddr::local(1), B_IP).with_neighbor(A_IP, MacAddr::local(2)),
            Passive,
        )));
        let link = e.connect(a, 0, b, 0, LinkSpec::fast_ethernet());
        e.set_one_way_delay(link, b, SimDuration::from_millis(50));
        e.run();
        let app = e.node_ref::<Host<Pinger>>(a).app();
        assert_eq!(app.replies.len(), 4);
        let seqs: Vec<u16> = app.replies.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        // Ping RTT ≈ the one-way 50 ms delay plus wire time.
        for (_, t) in &app.replies {
            assert!(t.as_millis_f64() > 50.0 && t.as_millis_f64() < 51.0);
        }
    }
}
