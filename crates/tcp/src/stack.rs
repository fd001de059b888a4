//! The host-wide TCP layer: socket table, listeners, demultiplexing, ISN
//! generation and timer aggregation.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};
use std::net::Ipv4Addr;

use bytes::Bytes;

use bnm_obs::{Component, Trace};
use bnm_sim::time::SimTime;
use bnm_sim::wire::{TcpFlags, TcpSegment};

use crate::seq::SeqNum;
use crate::socket::{LocalEvent, SocketId, TcpConfig, TcpSocket, TcpState};

/// Application-visible socket events, tagged with the socket id.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SockEvent {
    /// An active open completed.
    Connected {
        /// The connecting socket.
        sock: SocketId,
    },
    /// Send-buffer space freed after a truncated `send`.
    Writable {
        /// The writable socket.
        sock: SocketId,
    },
    /// A listener accepted a connection.
    Accepted {
        /// Local port that was listening.
        listener_port: u16,
        /// The newly created connection socket.
        sock: SocketId,
        /// Remote address.
        peer: (Ipv4Addr, u16),
    },
    /// In-order data is readable on `sock`.
    Data {
        /// The socket with readable bytes.
        sock: SocketId,
    },
    /// The peer closed its direction.
    PeerClosed {
        /// The half-closed socket.
        sock: SocketId,
    },
    /// Orderly termination finished.
    Closed {
        /// The terminated socket.
        sock: SocketId,
    },
    /// The connection was reset or timed out.
    Reset {
        /// The reset socket.
        sock: SocketId,
    },
}

/// The TCP layer of one host.
#[derive(Debug)]
pub struct TcpStack {
    local_ip: Ipv4Addr,
    cfg: TcpConfig,
    sockets: Vec<Option<TcpSocket>>,
    /// `(peer_ip, peer_port, local_port) → socket`.
    tuple_map: HashMap<(Ipv4Addr, u16, u16), SocketId>,
    listeners: HashSet<u16>,
    next_ephemeral: u16,
    isn_counter: u32,
    out: Vec<(Ipv4Addr, TcpSegment)>,
    events: VecDeque<SockEvent>,
    /// Segments dropped for having no matching socket or listener.
    pub no_socket_drops: u64,
    trace: Trace,
    /// Active opens awaiting their `Connected` event, for handshake
    /// spans. Only populated while tracing is enabled.
    syn_at: HashMap<SocketId, SimTime>,
    /// Min-heap of `(deadline, socket)` hints, refreshed on every socket
    /// mutation and validated lazily against the sockets' true
    /// deadlines. Keeps [`TcpStack::next_deadline`] and
    /// [`TcpStack::on_timers`] from scanning every socket on every
    /// event — on a crowd-scale server host (1,000+ connections) those
    /// scans were the simulation's dominant O(n²) term.
    deadline_heap: BinaryHeap<Reverse<(SimTime, SocketId)>>,
}

impl TcpStack {
    /// A stack bound to `local_ip` with a default per-socket config.
    pub fn new(local_ip: Ipv4Addr, cfg: TcpConfig) -> Self {
        TcpStack {
            local_ip,
            cfg,
            sockets: Vec::new(),
            tuple_map: HashMap::new(),
            listeners: HashSet::new(),
            next_ephemeral: 49152,
            isn_counter: 0x1000,
            out: Vec::new(),
            events: VecDeque::new(),
            no_socket_drops: 0,
            trace: Trace::disabled(),
            syn_at: HashMap::new(),
            deadline_heap: BinaryHeap::new(),
        }
    }

    /// Install a trace handle; active opens get a `tcp/handshake` span
    /// from SYN to the `Connected` event.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// Offset the ephemeral-port and ISN sequences by a flow index, so
    /// several client stacks in one simulation never collide on a
    /// `(port, ISN)` pair even though each stack is deterministic.
    /// Index 0 leaves the stack exactly as [`TcpStack::new`] built it.
    pub fn set_flow_offset(&mut self, index: u64) {
        // 128 ports per stack keeps 64 clients well inside the 49152..
        // ephemeral range; the ISN stride dwarfs the per-connection
        // +64000 step so streams stay disjoint for any realistic run.
        self.next_ephemeral = 49152 + (index as u16 % 128) * 128;
        self.isn_counter = 0x1000u32.wrapping_add((index as u32).wrapping_mul(0x0100_0000));
    }

    /// The IP this stack answers for.
    pub fn local_ip(&self) -> Ipv4Addr {
        self.local_ip
    }

    fn alloc_socket(&mut self, sock: TcpSocket) -> SocketId {
        // Reuse a dead slot if one exists.
        if let Some(idx) = self.sockets.iter().position(|s| s.is_none()) {
            self.sockets[idx] = Some(sock);
            idx
        } else {
            self.sockets.push(Some(sock));
            self.sockets.len() - 1
        }
    }

    fn next_isn(&mut self) -> SeqNum {
        // Deterministic but connection-unique ISN.
        self.isn_counter = self.isn_counter.wrapping_add(64_000);
        SeqNum(self.isn_counter)
    }

    fn alloc_port(&mut self) -> u16 {
        // Linear scan from the ephemeral range; the simulations never
        // exhaust it.
        for _ in 0..16_384 {
            let p = self.next_ephemeral;
            self.next_ephemeral = if p == u16::MAX { 49152 } else { p + 1 };
            let in_use = self.tuple_map.keys().any(|&(_, _, local)| local == p);
            if !in_use && !self.listeners.contains(&p) {
                return p;
            }
        }
        panic!("ephemeral port space exhausted");
    }

    /// Start listening on `port`.
    pub fn listen(&mut self, port: u16) {
        self.listeners.insert(port);
    }

    /// Open a connection to `peer`; the SYN leaves immediately.
    pub fn connect(&mut self, now: SimTime, peer: (Ipv4Addr, u16)) -> SocketId {
        self.connect_with(now, peer, self.cfg)
    }

    /// Open a connection with a per-socket config override.
    pub fn connect_with(
        &mut self,
        now: SimTime,
        peer: (Ipv4Addr, u16),
        cfg: TcpConfig,
    ) -> SocketId {
        let port = self.alloc_port();
        let isn = self.next_isn();
        let mut sock = TcpSocket::new((self.local_ip, port), peer, isn, cfg);
        let out = sock.connect(now);
        let id = self.alloc_socket(sock);
        self.tuple_map.insert((peer.0, peer.1, port), id);
        if self.trace.is_enabled() {
            self.trace.count("tcp.connects", 1);
            self.syn_at.insert(id, now);
        }
        for seg in out.segments {
            self.out.push((peer.0, seg));
        }
        self.note_deadline(id);
        id
    }

    /// Queue data on `sock` and push out what the windows allow.
    pub fn send(&mut self, now: SimTime, sock: SocketId, data: &[u8]) -> usize {
        let Some(s) = self.sockets.get_mut(sock).and_then(Option::as_mut) else {
            return 0;
        };
        let n = s.send(data);
        let peer_ip = s.peer.0;
        let out = s.pump(now);
        self.absorb(now, sock, peer_ip, out);
        n
    }

    /// Read all available in-order bytes. Emits a window-update ACK when
    /// the read reopens a cramped receive window.
    pub fn recv(&mut self, sock: SocketId) -> Bytes {
        let Some(s) = self.sockets.get_mut(sock).and_then(Option::as_mut) else {
            return Bytes::new();
        };
        let (data, update) = s.recv_and_update();
        if let Some(seg) = update {
            let peer_ip = s.peer.0;
            self.out.push((peer_ip, seg));
        }
        self.note_deadline(sock);
        data
    }

    /// Begin an orderly close.
    pub fn close(&mut self, now: SimTime, sock: SocketId) {
        let Some(s) = self.sockets.get_mut(sock).and_then(Option::as_mut) else {
            return;
        };
        s.close();
        let peer_ip = s.peer.0;
        let out = s.pump(now);
        self.absorb(now, sock, peer_ip, out);
    }

    /// Abort with RST.
    pub fn abort(&mut self, sock: SocketId) {
        let Some(s) = self.sockets.get_mut(sock).and_then(Option::as_mut) else {
            return;
        };
        let peer_ip = s.peer.0;
        let out = s.abort();
        // Aborts never surface `Connected`, so the instant is immaterial.
        self.absorb(SimTime::ZERO, sock, peer_ip, out);
        self.reap(sock);
    }

    /// Connection state, if the socket exists.
    pub fn state(&self, sock: SocketId) -> Option<TcpState> {
        self.sockets
            .get(sock)
            .and_then(Option::as_ref)
            .map(|s| s.state)
    }

    /// Smoothed RTT of a socket.
    pub fn srtt(&self, sock: SocketId) -> Option<bnm_sim::time::SimDuration> {
        self.sockets
            .get(sock)
            .and_then(Option::as_ref)
            .and_then(|s| s.srtt())
    }

    /// Local port of a socket.
    pub fn local_port(&self, sock: SocketId) -> Option<u16> {
        self.sockets
            .get(sock)
            .and_then(Option::as_ref)
            .map(|s| s.local.1)
    }

    /// Process one inbound segment addressed to this host.
    pub fn process(&mut self, now: SimTime, src_ip: Ipv4Addr, seg: TcpSegment) {
        let key = (src_ip, seg.src_port, seg.dst_port);
        if let Some(&id) = self.tuple_map.get(&key) {
            let s = self.sockets[id].as_mut().expect("mapped socket exists");
            let out = s.on_segment(now, &seg);
            self.absorb(now, id, src_ip, out);
            self.maybe_reap(id);
            return;
        }
        // New connection?
        if seg.flags.contains(TcpFlags::SYN)
            && !seg.flags.contains(TcpFlags::ACK)
            && self.listeners.contains(&seg.dst_port)
        {
            let isn = self.next_isn();
            let mut sock = TcpSocket::new(
                (self.local_ip, seg.dst_port),
                (src_ip, seg.src_port),
                isn,
                self.cfg,
            );
            let out = sock.accept_syn(now, &seg);
            let id = self.alloc_socket(sock);
            self.tuple_map.insert(key, id);
            self.absorb(now, id, src_ip, out);
            return;
        }
        self.no_socket_drops += 1;
        // RFC-style: RST stray non-RST segments.
        if !seg.flags.contains(TcpFlags::RST) {
            let rst = TcpSegment {
                src_port: seg.dst_port,
                dst_port: seg.src_port,
                seq: seg.ack,
                ack: seg.seq.wrapping_add(seg.payload.len() as u32 + 1),
                flags: TcpFlags::RST | TcpFlags::ACK,
                window: 0,
                mss: None,
                payload: Bytes::new(),
            };
            self.out.push((src_ip, rst));
        }
    }

    /// Poll every socket whose timer deadline has passed.
    ///
    /// Due sockets are found through the deadline heap rather than a
    /// full scan; entries whose hint no longer matches the socket's
    /// current deadline are stale and skipped (the live deadline, if
    /// any, has its own entry). Sockets are then processed in ascending
    /// id order — exactly the order the original full scan used, so
    /// simulations are bit-identical.
    pub fn on_timers(&mut self, now: SimTime) {
        let mut due: Vec<SocketId> = Vec::new();
        while let Some(&Reverse((d, id))) = self.deadline_heap.peek() {
            if d > now {
                break;
            }
            self.deadline_heap.pop();
            let current = self
                .sockets
                .get(id)
                .and_then(Option::as_ref)
                .and_then(TcpSocket::next_deadline);
            if current == Some(d) {
                due.push(id);
            }
        }
        due.sort_unstable();
        due.dedup();
        for id in due {
            let Some(s) = self.sockets[id].as_mut() else {
                continue;
            };
            if s.next_deadline().is_some_and(|d| d <= now) {
                let peer_ip = s.peer.0;
                let out = s.on_timers(now);
                self.absorb(now, id, peer_ip, out);
                self.maybe_reap(id);
            }
        }
    }

    /// Earliest timer deadline across all sockets.
    ///
    /// Pops stale heap entries until the top hint matches a live
    /// socket's current deadline; every live deadline is guaranteed an
    /// entry, so the surviving top is the true minimum.
    pub fn next_deadline(&mut self) -> Option<SimTime> {
        while let Some(&Reverse((d, id))) = self.deadline_heap.peek() {
            let current = self
                .sockets
                .get(id)
                .and_then(Option::as_ref)
                .and_then(TcpSocket::next_deadline);
            if current == Some(d) {
                return Some(d);
            }
            self.deadline_heap.pop();
        }
        None
    }

    /// Drain outbound segments as `(dst_ip, segment)` pairs.
    pub fn take_out(&mut self) -> Vec<(Ipv4Addr, TcpSegment)> {
        std::mem::take(&mut self.out)
    }

    /// Pop the next application event.
    pub fn pop_event(&mut self) -> Option<SockEvent> {
        self.events.pop_front()
    }

    fn absorb(
        &mut self,
        now: SimTime,
        id: SocketId,
        peer_ip: Ipv4Addr,
        out: crate::socket::SocketOutput,
    ) {
        for seg in out.segments {
            self.out.push((peer_ip, seg));
        }
        if let Some((start, end)) = out.retrans {
            self.trace.span(
                start.as_nanos(),
                end.as_nanos(),
                "tcp",
                "retransmit",
                Some(Component::Retrans),
            );
            self.trace.count("tcp.retransmits", 1);
        }
        for ev in out.events {
            let mapped = match ev {
                LocalEvent::Connected => {
                    if let Some(start) = self.syn_at.remove(&id) {
                        self.trace.span(
                            start.as_nanos(),
                            now.as_nanos(),
                            "tcp",
                            "handshake",
                            Some(Component::Handshake),
                        );
                        self.trace
                            .observe("tcp.handshake_ns", now.saturating_since(start).as_nanos());
                    }
                    SockEvent::Connected { sock: id }
                }
                LocalEvent::Writable => SockEvent::Writable { sock: id },
                LocalEvent::Accepted => {
                    let s = self.sockets[id].as_ref().unwrap();
                    SockEvent::Accepted {
                        listener_port: s.local.1,
                        sock: id,
                        peer: s.peer,
                    }
                }
                LocalEvent::DataReady => SockEvent::Data { sock: id },
                LocalEvent::PeerClosed => SockEvent::PeerClosed { sock: id },
                LocalEvent::Closed => SockEvent::Closed { sock: id },
                LocalEvent::Reset => SockEvent::Reset { sock: id },
            };
            self.events.push_back(mapped);
        }
        self.note_deadline(id);
    }

    /// Record `id`'s current deadline in the hint heap. Cheap and
    /// idempotent; called after every operation that can re-arm a
    /// socket timer.
    fn note_deadline(&mut self, id: SocketId) {
        if let Some(d) = self
            .sockets
            .get(id)
            .and_then(Option::as_ref)
            .and_then(TcpSocket::next_deadline)
        {
            self.deadline_heap.push(Reverse((d, id)));
        }
    }

    fn maybe_reap(&mut self, id: SocketId) {
        let Some(s) = self.sockets[id].as_ref() else {
            return;
        };
        if s.is_closed() && s.readable() == 0 {
            self.reap(id);
        }
    }

    fn reap(&mut self, id: SocketId) {
        self.syn_at.remove(&id);
        if let Some(s) = self.sockets[id].take() {
            self.tuple_map.remove(&(s.peer.0, s.peer.1, s.local.1));
        }
    }

    /// Number of live sockets (diagnostics).
    pub fn live_sockets(&self) -> usize {
        self.sockets.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// Deliver all queued segments between two stacks until quiescent.
    fn converge(now: SimTime, a: &mut TcpStack, b: &mut TcpStack) {
        for _ in 0..128 {
            let out_a = a.take_out();
            let out_b = b.take_out();
            if out_a.is_empty() && out_b.is_empty() {
                return;
            }
            for (dst, seg) in out_a {
                assert_eq!(dst, B);
                b.process(now, A, seg);
            }
            for (dst, seg) in out_b {
                assert_eq!(dst, A);
                a.process(now, B, seg);
            }
        }
        panic!("stacks did not converge");
    }

    fn drain(stack: &mut TcpStack) -> Vec<SockEvent> {
        std::iter::from_fn(|| stack.pop_event()).collect()
    }

    #[test]
    fn connect_accept_and_exchange() {
        let mut client = TcpStack::new(A, TcpConfig::default());
        let mut server = TcpStack::new(B, TcpConfig::default());
        server.listen(80);
        let now = SimTime::ZERO;
        let cs = client.connect(now, (B, 80));
        converge(now, &mut client, &mut server);
        let cev = drain(&mut client);
        let sev = drain(&mut server);
        assert!(cev.contains(&SockEvent::Connected { sock: cs }));
        let ss = match sev.as_slice() {
            [SockEvent::Accepted {
                listener_port: 80,
                sock,
                ..
            }] => *sock,
            other => panic!("unexpected events {other:?}"),
        };
        // Client sends a request; server reads it and answers.
        client.send(now, cs, b"ping");
        converge(now, &mut client, &mut server);
        assert_eq!(drain(&mut server), vec![SockEvent::Data { sock: ss }]);
        assert_eq!(&server.recv(ss)[..], b"ping");
        server.send(now, ss, b"pong");
        converge(now, &mut client, &mut server);
        assert_eq!(drain(&mut client), vec![SockEvent::Data { sock: cs }]);
        assert_eq!(&client.recv(cs)[..], b"pong");
    }

    #[test]
    fn syn_to_closed_port_is_rst() {
        let mut client = TcpStack::new(A, TcpConfig::default());
        let mut server = TcpStack::new(B, TcpConfig::default());
        let now = SimTime::ZERO;
        let cs = client.connect(now, (B, 81)); // nothing listens
        converge(now, &mut client, &mut server);
        assert_eq!(drain(&mut client), vec![SockEvent::Reset { sock: cs }]);
        assert_eq!(server.no_socket_drops, 1);
    }

    #[test]
    fn concurrent_connections_demux_correctly() {
        let mut client = TcpStack::new(A, TcpConfig::default());
        let mut server = TcpStack::new(B, TcpConfig::default());
        server.listen(80);
        let now = SimTime::ZERO;
        let c1 = client.connect(now, (B, 80));
        let c2 = client.connect(now, (B, 80));
        converge(now, &mut client, &mut server);
        drain(&mut client);
        let socks: Vec<SocketId> = drain(&mut server)
            .into_iter()
            .filter_map(|e| match e {
                SockEvent::Accepted { sock, .. } => Some(sock),
                _ => None,
            })
            .collect();
        assert_eq!(socks.len(), 2);
        client.send(now, c1, b"one");
        client.send(now, c2, b"two");
        converge(now, &mut client, &mut server);
        drain(&mut server);
        let payloads: Vec<Bytes> = socks.iter().map(|&s| server.recv(s)).collect();
        assert_eq!(&payloads[0][..], b"one");
        assert_eq!(&payloads[1][..], b"two");
    }

    #[test]
    fn orderly_close_reaps_sockets() {
        let mut client = TcpStack::new(A, TcpConfig::default());
        let mut server = TcpStack::new(B, TcpConfig::default());
        server.listen(80);
        let mut now = SimTime::ZERO;
        let cs = client.connect(now, (B, 80));
        converge(now, &mut client, &mut server);
        let ss = match drain(&mut server).as_slice() {
            [SockEvent::Accepted { sock, .. }] => *sock,
            _ => panic!(),
        };
        drain(&mut client);
        client.close(now, cs);
        converge(now, &mut client, &mut server);
        server.close(now, ss);
        converge(now, &mut client, &mut server);
        // Server side fully closed (LastAck → Closed); client in TimeWait.
        assert_eq!(client.state(cs), Some(TcpState::TimeWait));
        assert_eq!(server.live_sockets(), 0);
        // Time passes; client reaps.
        now += bnm_sim::time::SimDuration::from_secs(11);
        client.on_timers(now);
        assert_eq!(client.live_sockets(), 0);
    }

    #[test]
    fn stack_timers_retransmit_lost_syn() {
        let mut client = TcpStack::new(A, TcpConfig::default());
        let now = SimTime::ZERO;
        let _cs = client.connect(now, (B, 80));
        let lost = client.take_out();
        assert_eq!(lost.len(), 1); // drop it on the floor
        let dl = client.next_deadline().expect("rto armed");
        client.on_timers(dl);
        let rtx = client.take_out();
        assert_eq!(rtx.len(), 1);
        assert!(rtx[0].1.flags.contains(TcpFlags::SYN));
    }

    #[test]
    fn ports_are_unique_across_live_connections() {
        let mut client = TcpStack::new(A, TcpConfig::default());
        let now = SimTime::ZERO;
        let ids: Vec<SocketId> = (0..50).map(|_| client.connect(now, (B, 80))).collect();
        let mut ports: Vec<u16> = ids.iter().map(|&i| client.local_port(i).unwrap()).collect();
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 50);
    }
}
