//! The per-connection TCP state machine.
//!
//! One [`TcpSocket`] is a synchronous automaton: feed it a segment (or a
//! timer poll) and it returns the segments to transmit plus local events
//! for the application. It owns no clocks and does no I/O — the stack and
//! host layers wire it to the simulated world, which keeps every
//! transition unit-testable in isolation.

use bytes::Bytes;
use std::net::Ipv4Addr;

use bnm_sim::time::{SimDuration, SimTime};
use bnm_sim::wire::{TcpFlags, TcpSegment};

use crate::buffer::{RecvBuffer, SendBuffer};
use crate::seq::SeqNum;

/// Index of a socket within its stack.
pub type SocketId = usize;

/// TCP connection states (RFC 793 §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TcpState {
    /// No connection.
    Closed,
    /// Active open: SYN sent, waiting for SYN-ACK.
    SynSent,
    /// Passive open: SYN-ACK sent, waiting for ACK.
    SynReceived,
    /// Data transfer.
    Established,
    /// We closed first; FIN sent, not yet acknowledged.
    FinWait1,
    /// Our FIN acknowledged; waiting for the peer's FIN.
    FinWait2,
    /// Simultaneous close: both FINs in flight.
    Closing,
    /// Peer closed first; we may still send.
    CloseWait,
    /// We sent our FIN after `CloseWait`.
    LastAck,
    /// Both sides closed; draining duplicates.
    TimeWait,
}

/// Socket-local events surfaced to the application layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalEvent {
    /// Active open completed (SYN-ACK received and acknowledged).
    Connected,
    /// Send-buffer space freed after a `send` was truncated: the
    /// application can continue writing its backlog.
    Writable,
    /// Passive open completed (final handshake ACK received).
    Accepted,
    /// New in-order data is readable.
    DataReady,
    /// The peer sent FIN; no more data will arrive.
    PeerClosed,
    /// The connection fully terminated in an orderly way.
    Closed,
    /// The connection was reset (RST or retry exhaustion).
    Reset,
}

/// Maximum segment size we announce and segment by.
const MSS: u16 = 1460;
/// Send and receive buffer capacity (bytes); the receive buffer is the
/// advertised window's ceiling.
const BUF_BYTES: usize = 64 * 1024;
/// Initial retransmission timeout (RFC 6298 suggests 1 s).
const RTO_INITIAL: SimDuration = SimDuration::from_secs(1);
/// Lower bound on the RTO.
const RTO_MIN: SimDuration = SimDuration::from_millis(200);
/// Upper bound on the RTO.
const RTO_MAX: SimDuration = SimDuration::from_secs(60);
/// Give up after this many consecutive retransmissions.
const MAX_RETRIES: u32 = 8;
/// TIME-WAIT duration (fixed 10 s, like smoltcp).
const TIME_WAIT: SimDuration = SimDuration::from_secs(10);

/// Everything a state transition wants to hand back to the stack.
#[derive(Debug, Default)]
pub struct SocketOutput {
    /// Segments to put on the wire, in order.
    pub segments: Vec<TcpSegment>,
    /// Events for the application.
    pub events: Vec<LocalEvent>,
    /// A data retransmission happened: the `(wait_start, now)` interval
    /// spent waiting for it (RTO expiry: from when the lost transmission
    /// was sent; fast retransmit: zero-width at the third dup-ACK). SYN
    /// retransmissions are *not* reported — their wait is already inside
    /// the stack's handshake span and must not be double-counted.
    pub retrans: Option<(SimTime, SimTime)>,
}

impl SocketOutput {
    fn seg(&mut self, s: TcpSegment) {
        self.segments.push(s);
    }
    fn ev(&mut self, e: LocalEvent) {
        self.events.push(e);
    }
}

/// A TCP connection endpoint.
#[derive(Debug)]
pub struct TcpSocket {
    /// Current state.
    pub state: TcpState,
    /// Local (ip, port).
    pub local: (Ipv4Addr, u16),
    /// Remote (ip, port).
    pub peer: (Ipv4Addr, u16),

    // Send side.
    snd_buf: SendBuffer,
    iss: SeqNum,
    snd_una: SeqNum,
    snd_nxt: SeqNum,
    snd_wnd: u32,
    peer_mss: u16,
    cwnd: u32,
    ssthresh: u32,
    dup_acks: u32,

    // Receive side.
    rcv_buf: RecvBuffer,
    rcv_nxt: SeqNum,

    // Close bookkeeping.
    fin_queued: bool,
    fin_seq: Option<SeqNum>,

    // RTO state (RFC 6298).
    srtt_ns: Option<f64>,
    rttvar_ns: f64,
    rto: SimDuration,
    rto_deadline: Option<SimTime>,
    retries: u32,
    /// Outstanding RTT sample: ack level that validates it + send time.
    rtt_sample: Option<(SeqNum, SimTime)>,

    // TIME-WAIT expiry.
    time_wait_deadline: Option<SimTime>,

    /// A `send` was truncated by a full buffer; the app awaits space.
    tx_blocked: bool,

    /// Segments retransmitted (diagnostics).
    pub retransmissions: u64,
}

impl TcpSocket {
    /// A socket for an active open; call [`TcpSocket::connect`] next.
    pub fn new(local: (Ipv4Addr, u16), peer: (Ipv4Addr, u16), iss: SeqNum) -> Self {
        TcpSocket {
            state: TcpState::Closed,
            local,
            peer,
            snd_buf: SendBuffer::new(iss + 1, BUF_BYTES),
            iss,
            snd_una: iss,
            snd_nxt: iss,
            snd_wnd: 0,
            peer_mss: 536,
            cwnd: u32::from(MSS) * 10, // IW10, like modern stacks
            ssthresh: u32::MAX,
            dup_acks: 0,
            rcv_buf: RecvBuffer::new(BUF_BYTES),
            rcv_nxt: SeqNum(0),
            fin_queued: false,
            fin_seq: None,
            srtt_ns: None,
            rttvar_ns: 0.0,
            rto: RTO_INITIAL,
            rto_deadline: None,
            retries: 0,
            rtt_sample: None,
            time_wait_deadline: None,
            tx_blocked: false,
            retransmissions: 0,
        }
    }

    /// Effective MSS (min of ours and the peer's announcement).
    fn effective_mss(&self) -> u32 {
        u32::from(MSS.min(self.peer_mss))
    }

    fn base_segment(&self, flags: TcpFlags, seq: SeqNum, payload: Bytes) -> TcpSegment {
        TcpSegment {
            src_port: self.local.1,
            dst_port: self.peer.1,
            seq: seq.0,
            ack: if flags.contains(TcpFlags::ACK) {
                self.rcv_nxt.0
            } else {
                0
            },
            flags,
            window: self.rcv_buf.window(),
            mss: None,
            payload,
        }
    }

    fn pure_ack(&self) -> TcpSegment {
        self.base_segment(TcpFlags::ACK, self.snd_nxt, Bytes::new())
    }

    /// Begin an active open: emits the SYN.
    pub fn connect(&mut self, now: SimTime) -> SocketOutput {
        assert_eq!(self.state, TcpState::Closed, "connect on non-closed socket");
        self.state = TcpState::SynSent;
        self.snd_nxt = self.iss + 1;
        let mut seg = self.base_segment(TcpFlags::SYN, self.iss, Bytes::new());
        seg.mss = Some(MSS);
        self.arm_rto(now);
        self.rtt_sample = Some((self.snd_nxt, now));
        let mut out = SocketOutput::default();
        out.seg(seg);
        out
    }

    /// Begin a passive open for a SYN that arrived on a listener.
    pub fn accept_syn(&mut self, now: SimTime, syn: &TcpSegment) -> SocketOutput {
        assert_eq!(self.state, TcpState::Closed);
        self.state = TcpState::SynReceived;
        self.rcv_nxt = SeqNum(syn.seq) + 1;
        if let Some(mss) = syn.mss {
            self.peer_mss = mss;
        }
        self.snd_wnd = u32::from(syn.window);
        self.snd_nxt = self.iss + 1;
        let mut seg = self.base_segment(TcpFlags::SYN | TcpFlags::ACK, self.iss, Bytes::new());
        seg.mss = Some(MSS);
        self.arm_rto(now);
        self.rtt_sample = Some((self.snd_nxt, now));
        let mut out = SocketOutput::default();
        out.seg(seg);
        out
    }

    /// Queue application data; returns bytes accepted.
    pub fn send(&mut self, data: &[u8]) -> usize {
        match self.state {
            TcpState::Established
            | TcpState::CloseWait
            | TcpState::SynSent
            | TcpState::SynReceived => {
                if self.fin_queued {
                    return 0;
                }
                let n = self.snd_buf.write(data);
                if n < data.len() {
                    self.tx_blocked = true;
                }
                n
            }
            _ => 0,
        }
    }

    /// Read everything available in order.
    pub fn recv(&mut self) -> Bytes {
        self.recv_and_update().0
    }

    /// Read everything available; if the read reopened a previously
    /// cramped receive window, also return the window-update ACK that
    /// must go on the wire (without it, a sender blocked on a zero
    /// window deadlocks — the classic bulk-transfer stall).
    pub fn recv_and_update(&mut self) -> (Bytes, Option<TcpSegment>) {
        let before = self.rcv_buf.window();
        let data = self.rcv_buf.read_all();
        let after = self.rcv_buf.window();
        let mss = self.effective_mss() as u16;
        let update = if matches!(
            self.state,
            TcpState::Established | TcpState::FinWait1 | TcpState::FinWait2
        ) && after > before
            && u32::from(after - before) >= u32::from(mss)
            && before < 4 * mss
        {
            Some(self.pure_ack())
        } else {
            None
        };
        (data, update)
    }

    /// Unread byte count.
    pub fn readable(&self) -> usize {
        self.rcv_buf.len()
    }

    /// Ask for an orderly close: a FIN goes out once the send buffer
    /// drains.
    pub fn close(&mut self) {
        match self.state {
            TcpState::Established
            | TcpState::CloseWait
            | TcpState::SynReceived
            | TcpState::SynSent => {
                self.fin_queued = true;
            }
            _ => {}
        }
    }

    /// Hard reset: emit RST and drop to `Closed` (no events; caller
    /// decides).
    pub fn abort(&mut self) -> SocketOutput {
        let mut out = SocketOutput::default();
        if matches!(
            self.state,
            TcpState::SynSent
                | TcpState::SynReceived
                | TcpState::Established
                | TcpState::FinWait1
                | TcpState::FinWait2
                | TcpState::Closing
                | TcpState::CloseWait
                | TcpState::LastAck
        ) {
            out.seg(self.base_segment(TcpFlags::RST | TcpFlags::ACK, self.snd_nxt, Bytes::new()));
        }
        self.state = TcpState::Closed;
        self.rto_deadline = None;
        out
    }

    /// Whether the socket is finished and can be reaped.
    pub fn is_closed(&self) -> bool {
        self.state == TcpState::Closed
    }

    /// Bytes in flight (sent, unacknowledged).
    fn inflight(&self) -> u32 {
        self.snd_nxt.since(self.snd_una)
    }

    /// Transmit as much queued data as windows allow; then a queued FIN.
    pub fn pump(&mut self, now: SimTime) -> SocketOutput {
        let mut out = SocketOutput::default();
        if !matches!(
            self.state,
            TcpState::Established | TcpState::CloseWait | TcpState::FinWait1 | TcpState::Closing
        ) {
            // FIN during handshake states resolves once established.
            return out;
        }
        let mss = self.effective_mss();
        loop {
            let unsent = self.snd_buf.end().since(self.snd_nxt);
            if unsent == 0 {
                break;
            }
            let wnd = self.snd_wnd.min(self.cwnd);
            let inflight = self.inflight();
            if inflight >= wnd {
                break;
            }
            let room = wnd - inflight;
            let take = unsent.min(room).min(mss);
            if take == 0 {
                break;
            }
            let payload = self.snd_buf.peek(self.snd_nxt, take as usize);
            let last = take == unsent;
            let flags = if last {
                TcpFlags::ACK | TcpFlags::PSH
            } else {
                TcpFlags::ACK
            };
            let seg = self.base_segment(flags, self.snd_nxt, payload);
            self.snd_nxt += take;
            if self.rtt_sample.is_none() {
                self.rtt_sample = Some((self.snd_nxt, now));
            }
            out.seg(seg);
        }
        // FIN once the buffer fully drained.
        if self.fin_queued
            && self.fin_seq.is_none()
            && self.snd_buf.end() == self.snd_nxt
            && matches!(self.state, TcpState::Established | TcpState::CloseWait)
        {
            let seg = self.base_segment(TcpFlags::FIN | TcpFlags::ACK, self.snd_nxt, Bytes::new());
            self.fin_seq = Some(self.snd_nxt);
            self.snd_nxt += 1;
            self.state = match self.state {
                TcpState::Established => TcpState::FinWait1,
                TcpState::CloseWait => TcpState::LastAck,
                s => s,
            };
            out.seg(seg);
        }
        if self.inflight() > 0 && self.rto_deadline.is_none() {
            self.arm_rto(now);
        }
        // Zero-window persist: data is waiting but the peer's window is
        // closed. Arm the timer; `retransmit_head` degenerates into a
        // one-byte window probe.
        if self.inflight() == 0
            && self.snd_buf.end().since(self.snd_nxt) > 0
            && self.snd_wnd.min(self.cwnd) == 0
            && self.rto_deadline.is_none()
        {
            self.arm_rto(now);
        }
        out
    }

    /// Process one inbound segment.
    pub fn on_segment(&mut self, now: SimTime, seg: &TcpSegment) -> SocketOutput {
        let mut out = SocketOutput::default();
        if seg.flags.contains(TcpFlags::RST) {
            if self.state != TcpState::Closed {
                self.state = TcpState::Closed;
                self.rto_deadline = None;
                out.ev(LocalEvent::Reset);
            }
            return out;
        }
        match self.state {
            TcpState::Closed => {
                // Stray segment to a dead socket: RST it (stack may also
                // handle this for unknown tuples).
                out.seg(self.base_segment(
                    TcpFlags::RST | TcpFlags::ACK,
                    SeqNum(seg.ack),
                    Bytes::new(),
                ));
            }
            TcpState::SynSent => self.on_segment_syn_sent(now, seg, &mut out),
            TcpState::SynReceived => {
                if seg.flags.contains(TcpFlags::ACK) && SeqNum(seg.ack) == self.iss + 1 {
                    self.state = TcpState::Established;
                    self.snd_wnd = u32::from(seg.window);
                    self.on_ack(now, seg, &mut out);
                    out.ev(LocalEvent::Accepted);
                    // The final handshake ACK may carry data.
                    self.on_data(now, seg, &mut out);
                    let pumped = self.pump(now);
                    out.segments.extend(pumped.segments);
                    out.events.extend(pumped.events);
                }
            }
            _ => {
                // Established and closing states share the data/ACK path.
                if seg.flags.contains(TcpFlags::ACK) {
                    self.on_ack(now, seg, &mut out);
                }
                self.on_data(now, seg, &mut out);
                let pumped = self.pump(now);
                out.segments.extend(pumped.segments);
                out.events.extend(pumped.events);
            }
        }
        out
    }

    fn on_segment_syn_sent(&mut self, now: SimTime, seg: &TcpSegment, out: &mut SocketOutput) {
        let good_ack = seg.flags.contains(TcpFlags::ACK) && SeqNum(seg.ack) == self.iss + 1;
        if seg.flags.contains(TcpFlags::SYN) && good_ack {
            self.rcv_nxt = SeqNum(seg.seq) + 1;
            if let Some(mss) = seg.mss {
                self.peer_mss = mss;
            }
            self.snd_una = SeqNum(seg.ack);
            self.snd_wnd = u32::from(seg.window);
            self.state = TcpState::Established;
            self.take_rtt_sample(now, SeqNum(seg.ack));
            self.rto_deadline = None;
            self.retries = 0;
            out.seg(self.pure_ack());
            out.ev(LocalEvent::Connected);
            // Data queued during connect flows immediately.
            let pumped = self.pump(now);
            out.segments.extend(pumped.segments);
            out.events.extend(pumped.events);
            // A close requested before establishment also proceeds.
            if self.fin_queued {
                let pumped = self.pump(now);
                out.segments.extend(pumped.segments);
            }
        }
        // A bare SYN (simultaneous open) is not supported: ignore; the
        // retransmitted SYN-ACK path resolves real traces.
    }

    fn on_ack(&mut self, now: SimTime, seg: &TcpSegment, out: &mut SocketOutput) {
        let ack = SeqNum(seg.ack);
        self.snd_wnd = u32::from(seg.window);
        if ack.gt(self.snd_una) && ack.le(self.snd_nxt) {
            let newly = ack.since(self.snd_una);
            self.snd_una = ack;
            self.snd_buf.ack_to(ack);
            if self.tx_blocked && self.snd_buf.free() > 0 {
                self.tx_blocked = false;
                out.ev(LocalEvent::Writable);
            }
            self.dup_acks = 0;
            self.take_rtt_sample(now, ack);
            self.retries = 0;
            // Congestion growth: slow start below ssthresh, else one MSS
            // per RTT approximated per-ACK.
            let mss = self.effective_mss();
            if self.cwnd < self.ssthresh {
                self.cwnd = self.cwnd.saturating_add(newly.min(mss));
            } else {
                self.cwnd = self.cwnd.saturating_add((mss * mss / self.cwnd).max(1));
            }
            if self.inflight() == 0 && self.fin_acked() == FinAckState::NoFin {
                self.rto_deadline = None;
            } else {
                self.arm_rto(now);
            }
            // Our FIN acknowledged?
            if let Some(fin_seq) = self.fin_seq {
                if ack.gt(fin_seq) {
                    match self.state {
                        TcpState::FinWait1 => self.state = TcpState::FinWait2,
                        TcpState::Closing => self.enter_time_wait(now),
                        TcpState::LastAck => {
                            self.state = TcpState::Closed;
                            self.rto_deadline = None;
                            out.ev(LocalEvent::Closed);
                        }
                        _ => {}
                    }
                }
            }
        } else if ack == self.snd_una && self.inflight() > 0 && seg.payload.is_empty() {
            self.dup_acks += 1;
            if self.dup_acks == 3 {
                // Fast retransmit.
                let seg = self.retransmit_head();
                self.ssthresh = (self.inflight() / 2).max(2 * self.effective_mss());
                self.cwnd = self.ssthresh;
                out.seg(seg);
                out.retrans = Some((now, now));
            }
        }
    }

    fn on_data(&mut self, now: SimTime, seg: &TcpSegment, out: &mut SocketOutput) {
        let has_fin = seg.flags.contains(TcpFlags::FIN);
        if seg.payload.is_empty() && !has_fin {
            return;
        }
        let seq = SeqNum(seg.seq);
        let payload_end = seq + seg.payload.len() as u32;
        // Trim any already-received prefix.
        let payload = if seq.lt(self.rcv_nxt) {
            let skip = self.rcv_nxt.since(seq) as usize;
            if skip >= seg.payload.len() {
                // Entirely old data (pure duplicate). FIN may still be new.
                Bytes::new()
            } else {
                seg.payload.slice(skip..)
            }
        } else if seq == self.rcv_nxt {
            seg.payload.clone()
        } else {
            // Out-of-order: dup-ACK and drop (no reassembly by design).
            out.seg(self.pure_ack());
            return;
        };
        if !payload.is_empty() {
            let accepted = self.rcv_buf.push(payload);
            if accepted > 0 {
                self.rcv_nxt += accepted as u32;
                out.ev(LocalEvent::DataReady);
            }
        }
        // In-order FIN (its sequence slot is right at rcv_nxt).
        if has_fin
            && (payload_end == self.rcv_nxt || (seg.payload.is_empty() && seq == self.rcv_nxt))
        {
            self.rcv_nxt += 1;
            out.ev(LocalEvent::PeerClosed);
            match self.state {
                TcpState::Established => self.state = TcpState::CloseWait,
                TcpState::FinWait1 => {
                    // Did they also ack our FIN? on_ack handled state; if we
                    // are still FinWait1 the FINs crossed.
                    self.state = TcpState::Closing;
                }
                TcpState::FinWait2 => {
                    self.enter_time_wait(now);
                    out.ev(LocalEvent::Closed);
                }
                _ => {}
            }
        }
        // Every segment that reaches here carried bytes or a FIN: new
        // data, a duplicate, a retransmitted FIN, or a zero-window probe
        // the full buffer rejected. Acknowledge it at once, so the peer
        // learns our current state and window.
        out.seg(self.pure_ack());
    }

    fn enter_time_wait(&mut self, now: SimTime) {
        self.state = TcpState::TimeWait;
        self.rto_deadline = None;
        self.time_wait_deadline = Some(now + TIME_WAIT);
    }

    fn fin_acked(&self) -> FinAckState {
        match self.fin_seq {
            None => FinAckState::NoFin,
            Some(s) => {
                if self.snd_una.gt(s) {
                    FinAckState::Acked
                } else {
                    FinAckState::Outstanding
                }
            }
        }
    }

    fn take_rtt_sample(&mut self, now: SimTime, ack: SeqNum) {
        if let Some((need, sent_at)) = self.rtt_sample {
            if ack.ge(need) {
                let sample_ns = now.saturating_since(sent_at).as_nanos() as f64;
                match self.srtt_ns {
                    None => {
                        self.srtt_ns = Some(sample_ns);
                        self.rttvar_ns = sample_ns / 2.0;
                    }
                    Some(srtt) => {
                        let err = (sample_ns - srtt).abs();
                        self.rttvar_ns = 0.75 * self.rttvar_ns + 0.25 * err;
                        self.srtt_ns = Some(0.875 * srtt + 0.125 * sample_ns);
                    }
                }
                let srtt = self.srtt_ns.unwrap();
                let rto_ns = srtt + (4.0 * self.rttvar_ns).max(1e6);
                let rto = SimDuration::from_nanos(rto_ns as u64)
                    .max(RTO_MIN)
                    .min(RTO_MAX);
                self.rto = rto;
                self.rtt_sample = None;
            }
        }
    }

    fn arm_rto(&mut self, now: SimTime) {
        self.rto_deadline = Some(now + self.rto);
    }

    fn retransmit_head(&mut self) -> TcpSegment {
        self.retransmissions += 1;
        self.rtt_sample = None; // Karn's algorithm
        match self.state {
            TcpState::SynSent => {
                let mut seg = self.base_segment(TcpFlags::SYN, self.iss, Bytes::new());
                seg.mss = Some(MSS);
                seg
            }
            TcpState::SynReceived => {
                let mut seg =
                    self.base_segment(TcpFlags::SYN | TcpFlags::ACK, self.iss, Bytes::new());
                seg.mss = Some(MSS);
                seg
            }
            _ => {
                // Oldest unacknowledged data, or the FIN.
                let una = self.snd_una;
                if Some(una) == self.fin_seq {
                    self.base_segment(TcpFlags::FIN | TcpFlags::ACK, una, Bytes::new())
                } else if self.inflight() == 0 && self.snd_buf.end().since(self.snd_nxt) > 0 {
                    // Zero-window probe: push one byte past the window
                    // (RFC 1122 persist behaviour). The peer won't accept
                    // it, but its ACK carries the current window.
                    let payload = self.snd_buf.peek(self.snd_nxt, 1);
                    let seg =
                        self.base_segment(TcpFlags::ACK | TcpFlags::PSH, self.snd_nxt, payload);
                    self.snd_nxt += 1;
                    seg
                } else {
                    let len = self
                        .snd_nxt
                        .since(una)
                        .min(self.effective_mss())
                        .min(self.snd_buf.end().since(una));
                    let payload = self.snd_buf.peek(una, len as usize);
                    let mut flags = TcpFlags::ACK | TcpFlags::PSH;
                    // FIN piggybacks if the retransmitted chunk reaches it.
                    if self.fin_seq == Some(una + len) {
                        flags = flags | TcpFlags::FIN;
                    }
                    self.base_segment(flags, una, payload)
                }
            }
        }
    }

    /// Poll timers (RTO, TIME-WAIT). Call whenever
    /// [`TcpSocket::next_deadline`] expires.
    pub fn on_timers(&mut self, now: SimTime) -> SocketOutput {
        let mut out = SocketOutput::default();
        if let Some(dl) = self.time_wait_deadline {
            if now >= dl {
                self.time_wait_deadline = None;
                self.state = TcpState::Closed;
                out.ev(LocalEvent::Closed);
            }
        }
        if let Some(dl) = self.rto_deadline {
            if now >= dl {
                if self.retries >= MAX_RETRIES {
                    self.state = TcpState::Closed;
                    self.rto_deadline = None;
                    out.ev(LocalEvent::Reset);
                    return out;
                }
                self.retries += 1;
                // Collapse the congestion window (Reno on timeout).
                let mss = self.effective_mss();
                self.ssthresh = (self.inflight() / 2).max(2 * mss);
                self.cwnd = mss;
                let seg = self.retransmit_head();
                out.seg(seg);
                // Report the RTO wait for data retransmissions so the
                // tracing layer can attribute it. `dl` was armed at
                // `send_time + rto` with the current (pre-doubling)
                // rto, so `dl - rto` recovers the send time. SYN waits
                // stay inside the handshake span (see `SocketOutput`).
                if !matches!(self.state, TcpState::SynSent | TcpState::SynReceived) {
                    let start =
                        SimTime::from_nanos(dl.as_nanos().saturating_sub(self.rto.as_nanos()));
                    out.retrans = Some((start, now));
                }
                self.rto = self.rto.saturating_mul(2).min(RTO_MAX);
                self.arm_rto(now);
            }
        }
        out
    }

    /// Earliest pending timer deadline, if any.
    pub fn next_deadline(&self) -> Option<SimTime> {
        [self.rto_deadline, self.time_wait_deadline]
            .into_iter()
            .flatten()
            .min()
    }

    /// Smoothed RTT estimate, if one has been taken.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt_ns.map(|ns| SimDuration::from_nanos(ns as u64))
    }

    /// Current congestion window in bytes (diagnostics).
    pub fn cwnd(&self) -> u32 {
        self.cwnd
    }
}

#[derive(PartialEq, Eq)]
enum FinAckState {
    NoFin,
    Outstanding,
    Acked,
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn pair() -> (TcpSocket, TcpSocket) {
        let client = TcpSocket::new((CLIENT_IP, 50000), (SERVER_IP, 80), SeqNum(1000));
        let server = TcpSocket::new((SERVER_IP, 80), (CLIENT_IP, 50000), SeqNum(9000));
        (client, server)
    }

    /// Shuttle segments between two sockets until both are quiet.
    /// Returns all events seen as (who, event).
    fn converge(
        now: SimTime,
        client: &mut TcpSocket,
        server: &mut TcpSocket,
        mut to_server: Vec<TcpSegment>,
    ) -> Vec<(&'static str, LocalEvent)> {
        let mut events = Vec::new();
        let mut to_client: Vec<TcpSegment> = Vec::new();
        for _ in 0..64 {
            if to_server.is_empty() && to_client.is_empty() {
                break;
            }
            let mut next_to_client = Vec::new();
            for seg in to_server.drain(..) {
                let out = server.on_segment(now, &seg);
                next_to_client.extend(out.segments);
                events.extend(out.events.into_iter().map(|e| ("server", e)));
            }
            let mut next_to_server = Vec::new();
            for seg in to_client.drain(..) {
                let out = client.on_segment(now, &seg);
                next_to_server.extend(out.segments);
                events.extend(out.events.into_iter().map(|e| ("client", e)));
            }
            to_client = next_to_client;
            to_server = next_to_server;
        }
        events
    }

    fn establish(client: &mut TcpSocket, server: &mut TcpSocket) {
        let now = SimTime::ZERO;
        let syn = client.connect(now).segments.remove(0);
        let synack = server.accept_syn(now, &syn).segments.remove(0);
        let out = client.on_segment(now, &synack);
        assert!(out.events.contains(&LocalEvent::Connected));
        let ack = &out.segments[0];
        let out2 = server.on_segment(now, ack);
        assert!(out2.events.contains(&LocalEvent::Accepted));
        assert_eq!(client.state, TcpState::Established);
        assert_eq!(server.state, TcpState::Established);
    }

    #[test]
    fn three_way_handshake() {
        let (mut c, mut s) = pair();
        establish(&mut c, &mut s);
    }

    #[test]
    fn syn_carries_mss() {
        let (mut c, _) = pair();
        let syn = c.connect(SimTime::ZERO).segments.remove(0);
        assert!(syn.flags.contains(TcpFlags::SYN));
        assert_eq!(syn.mss, Some(1460));
    }

    #[test]
    fn small_data_roundtrip() {
        let (mut c, mut s) = pair();
        establish(&mut c, &mut s);
        let now = SimTime::from_millis(1);
        assert_eq!(c.send(b"GET / HTTP/1.1\r\n\r\n"), 18);
        let segs = c.pump(now).segments;
        assert_eq!(segs.len(), 1);
        assert!(segs[0].flags.contains(TcpFlags::PSH));
        let events = converge(now, &mut c, &mut s, segs);
        assert!(events.contains(&("server", LocalEvent::DataReady)));
        assert_eq!(&s.recv()[..], b"GET / HTTP/1.1\r\n\r\n");
        // Client's buffer fully acknowledged.
        assert_eq!(c.inflight(), 0);
        assert!(c.next_deadline().is_none());
    }

    #[test]
    fn large_send_segments_by_mss() {
        let (mut c, mut s) = pair();
        establish(&mut c, &mut s);
        let now = SimTime::from_millis(1);
        let data = vec![0xABu8; 5000];
        assert_eq!(c.send(&data), 5000);
        let segs = c.pump(now).segments;
        assert_eq!(segs.len(), 4); // 1460*3 + 620
        assert!(segs[..3].iter().all(|s| s.payload.len() == 1460));
        assert_eq!(segs[3].payload.len(), 5000 - 3 * 1460);
        assert!(segs[3].flags.contains(TcpFlags::PSH));
        converge(now, &mut c, &mut s, segs);
        assert_eq!(s.recv().len(), 5000);
    }

    #[test]
    fn send_respects_peer_window() {
        let (mut c, mut s) = pair();
        let now = SimTime::ZERO;
        let syn = c.connect(now).segments.remove(0);
        let mut synack = s.accept_syn(now, &syn).segments.remove(0);
        // The peer advertises a 2,000-byte window.
        synack.window = 2000;
        let ack = c.on_segment(now, &synack).segments.remove(0);
        s.on_segment(now, &ack);
        c.send(&vec![1u8; 6000]);
        let segs = c.pump(now).segments;
        let sent: usize = segs.iter().map(|s| s.payload.len()).sum();
        assert_eq!(sent, 2000, "sent {sent}, not the advertised window");
        // The server's ACKs advertise its real window; the rest flows.
        converge(now, &mut c, &mut s, segs);
        assert_eq!(s.recv().len(), 6000);
    }

    #[test]
    fn orderly_close_both_sides() {
        let (mut c, mut s) = pair();
        establish(&mut c, &mut s);
        let now = SimTime::from_millis(2);
        c.close();
        let fin = c.pump(now).segments;
        assert_eq!(fin.len(), 1);
        assert!(fin[0].flags.contains(TcpFlags::FIN));
        assert_eq!(c.state, TcpState::FinWait1);
        let events = converge(now, &mut c, &mut s, fin);
        assert!(events.contains(&("server", LocalEvent::PeerClosed)));
        assert_eq!(s.state, TcpState::CloseWait);
        assert_eq!(c.state, TcpState::FinWait2);
        // Server closes too.
        s.close();
        let fin2 = s.pump(now).segments;
        assert_eq!(s.state, TcpState::LastAck);
        // Deliver server FIN to client, client acks, server closes.
        let mut evs = Vec::new();
        let out = c.on_segment(now, &fin2[0]);
        evs.extend(out.events);
        assert_eq!(c.state, TcpState::TimeWait);
        let out2 = s.on_segment(now, &out.segments[0]);
        assert!(out2.events.contains(&LocalEvent::Closed));
        assert_eq!(s.state, TcpState::Closed);
        // Client leaves TIME-WAIT via its timer.
        let later = now + SimDuration::from_secs(11);
        let out3 = c.on_timers(later);
        assert!(out3.events.contains(&LocalEvent::Closed));
        assert!(c.is_closed());
        assert!(evs.contains(&LocalEvent::PeerClosed));
    }

    #[test]
    fn rst_resets_connection() {
        let (mut c, mut s) = pair();
        establish(&mut c, &mut s);
        let rst = s.abort().segments.remove(0);
        assert!(rst.flags.contains(TcpFlags::RST));
        let out = c.on_segment(SimTime::from_millis(3), &rst);
        assert!(out.events.contains(&LocalEvent::Reset));
        assert!(c.is_closed());
    }

    #[test]
    fn lost_data_segment_is_retransmitted() {
        let (mut c, mut s) = pair();
        establish(&mut c, &mut s);
        let now = SimTime::from_millis(1);
        c.send(b"probe");
        let segs = c.pump(now).segments;
        assert_eq!(segs.len(), 1);
        // Segment lost: nothing delivered. RTO fires.
        let deadline = c.next_deadline().expect("rto armed");
        let out = c.on_timers(deadline);
        assert_eq!(out.segments.len(), 1);
        assert_eq!(&out.segments[0].payload[..], b"probe");
        assert_eq!(c.retransmissions, 1);
        // Deliver the retransmission; everything completes.
        converge(deadline, &mut c, &mut s, out.segments);
        assert_eq!(&s.recv()[..], b"probe");
        assert_eq!(c.inflight(), 0);
    }

    #[test]
    fn rto_backoff_doubles_and_gives_up() {
        let (mut c, _s) = pair();
        let mut now = SimTime::ZERO;
        c.connect(now);
        let mut gaps = Vec::new();
        let mut last = now;
        for _ in 0..9 {
            let dl = match c.next_deadline() {
                Some(d) => d,
                None => break,
            };
            now = dl;
            let out = c.on_timers(now);
            gaps.push(now.saturating_since(last).as_millis());
            last = now;
            if out.events.contains(&LocalEvent::Reset) {
                break;
            }
        }
        assert!(c.is_closed(), "socket should give up after max retries");
        // Exponential growth of retry gaps (1s, 2s, 4s... capped).
        assert!(gaps.windows(2).take(4).all(|w| w[1] >= w[0] * 2 - 1));
    }

    #[test]
    fn duplicate_data_is_reacked_not_redelivered() {
        let (mut c, mut s) = pair();
        establish(&mut c, &mut s);
        let now = SimTime::from_millis(1);
        c.send(b"hello");
        let seg = c.pump(now).segments.remove(0);
        let out1 = s.on_segment(now, &seg);
        assert_eq!(out1.events, vec![LocalEvent::DataReady]);
        assert_eq!(&s.recv()[..], b"hello");
        // Duplicate arrives (e.g. spurious retransmission).
        let out2 = s.on_segment(now, &seg);
        assert!(out2.events.is_empty());
        assert_eq!(out2.segments.len(), 1, "must re-ACK");
        assert!(s.recv().is_empty());
    }

    #[test]
    fn out_of_order_segment_triggers_dup_ack_and_recovery() {
        let (mut c, mut s) = pair();
        establish(&mut c, &mut s);
        let now = SimTime::from_millis(1);
        c.send(&vec![7u8; 3000]);
        let segs = c.pump(now).segments;
        assert_eq!(segs.len(), 3);
        // Deliver segment 1 (skip 0): dup-ACK, no data surfaced.
        let out = s.on_segment(now, &segs[1]);
        assert!(out.events.is_empty());
        assert_eq!(out.segments.len(), 1);
        assert_eq!(SeqNum(out.segments[0].ack), SeqNum(segs[0].seq));
        // RTO on the client recovers the full stream.
        let dl = c.next_deadline().unwrap();
        let rtx = c.on_timers(dl);
        let events = converge(dl, &mut c, &mut s, rtx.segments);
        assert!(events
            .iter()
            .any(|(w, e)| *w == "server" && *e == LocalEvent::DataReady));
        // All 3000 bytes eventually arrive exactly once.
        let mut total = s.recv().len();
        for _ in 0..10 {
            let dl = match c.next_deadline() {
                Some(d) => d,
                None => break,
            };
            let rtx = c.on_timers(dl);
            converge(dl, &mut c, &mut s, rtx.segments);
            total += s.recv().len();
        }
        assert_eq!(total, 3000);
    }

    #[test]
    fn rtt_sample_updates_srtt() {
        let (mut c, mut s) = pair();
        let t0 = SimTime::ZERO;
        let syn = c.connect(t0).segments.remove(0);
        let synack = s.accept_syn(t0, &syn).segments.remove(0);
        // SYN-ACK arrives 100 ms later.
        let t1 = SimTime::from_millis(100);
        c.on_segment(t1, &synack);
        let srtt = c.srtt().expect("sample taken");
        assert_eq!(srtt.as_millis(), 100);
    }

    #[test]
    fn send_after_close_rejected() {
        let (mut c, mut s) = pair();
        establish(&mut c, &mut s);
        c.close();
        assert_eq!(c.send(b"late"), 0);
    }

    #[test]
    fn close_before_established_sends_fin_after_handshake() {
        let (mut c, mut s) = pair();
        let now = SimTime::ZERO;
        let syn = c.connect(now).segments.remove(0);
        c.send(b"data");
        c.close();
        let synack = s.accept_syn(now, &syn).segments.remove(0);
        let out = c.on_segment(now, &synack);
        // ACK + data (+FIN possibly separate)
        let all: Vec<&TcpSegment> = out.segments.iter().collect();
        assert!(all.iter().any(|s| !s.payload.is_empty()));
        assert!(all.iter().any(|s| s.flags.contains(TcpFlags::FIN)));
    }

    #[test]
    fn stray_segment_to_closed_socket_gets_rst() {
        let mut c = TcpSocket::new((CLIENT_IP, 1), (SERVER_IP, 2), SeqNum(0));
        let seg = TcpSegment {
            src_port: 2,
            dst_port: 1,
            seq: 55,
            ack: 77,
            flags: TcpFlags::ACK,
            window: 100,
            mss: None,
            payload: Bytes::from_static(b"ghost"),
        };
        let out = c.on_segment(SimTime::ZERO, &seg);
        assert_eq!(out.segments.len(), 1);
        assert!(out.segments[0].flags.contains(TcpFlags::RST));
    }
}
