//! The discrete-event engine: owns nodes, links, taps and the event queue.
//!
//! Dispatch is strictly deterministic: events fire in `(time, seq)` order
//! and all randomness lives inside components. A node being dispatched is
//! temporarily taken out of the node table, so its handler receives a
//! [`Ctx`] with full mutable access to the rest of the engine (links,
//! timers, taps) without aliasing.
//!
//! A transmitted frame costs one event, its delivery. The engine keeps
//! the `(time, seq)` of the event it is dispatching, and a link
//! direction settles its queue against it before judging the next
//! frame (see [`crate::link`]), so a frame's end of serialization needs
//! no event of its own.

use std::any::Any;

use bnm_obs::Trace;
use bytes::Bytes;

use crate::capture::{CaptureBuffer, CaptureDir, TapId};
use crate::dynamics::{CoDelState, LinkDynamics, QueueDiscipline};
use crate::event::{EventKind, EventQueue};
use crate::fault::{FaultAction, FaultInjector, FaultSpec};
use crate::link::{Dir, Endpoint, Link, LinkId, LinkJitter, LinkSpec};
use crate::time::{SimDuration, SimTime};

/// Index of a node in the engine.
pub type NodeId = usize;
/// Interface index on a node.
pub type PortNo = usize;

/// Typed failure of a node lookup: with many clients in one engine a
/// wrong-node bug is likely, and "node type mismatch" without the node
/// id or the types involved is useless to debug.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// The node id is out of range.
    NoSuchNode {
        /// The requested id.
        id: NodeId,
        /// How many nodes the engine holds.
        count: usize,
    },
    /// The node is temporarily out of the table (its handler is running).
    BeingDispatched {
        /// The requested id.
        id: NodeId,
    },
    /// The node exists but is not of the requested type.
    TypeMismatch {
        /// The requested id.
        id: NodeId,
        /// The type the caller asked for.
        expected: &'static str,
        /// The type actually stored at that id.
        actual: &'static str,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NoSuchNode { id, count } => {
                write!(f, "node {id} does not exist (engine holds {count} nodes)")
            }
            EngineError::BeingDispatched { id } => {
                write!(f, "node {id} is being dispatched (re-entrant access)")
            }
            EngineError::TypeMismatch {
                id,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "node {id} is a `{actual}`, not the requested `{expected}`"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Anything attached to the simulated network.
///
/// Handlers run at a single virtual instant; to model processing time, a
/// node schedules timers rather than "sleeping".
pub trait Node: Any {
    /// Called once at simulation start (time zero), before any frame.
    fn on_start(&mut self, _ctx: &mut Ctx) {}

    /// A frame arrived on `port`.
    fn on_frame(&mut self, ctx: &mut Ctx, port: PortNo, frame: Bytes);

    /// A timer armed via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _ctx: &mut Ctx, _token: u64) {}

    /// Downcasting support (results are read back after the run).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;

    /// The concrete type's name, for diagnostics on failed downcasts.
    fn type_name(&self) -> &'static str {
        std::any::type_name::<Self>()
    }
}

/// Handler-side view of the engine.
pub struct Ctx<'a> {
    engine: &'a mut Engine,
    node: NodeId,
}

impl Ctx<'_> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.engine.now
    }

    /// Hand a frame to the NIC on `port` for transmission now.
    ///
    /// Panics if the port is not connected — a wiring bug, not a runtime
    /// condition.
    pub fn send_frame(&mut self, port: PortNo, frame: Bytes) {
        self.engine.transmit(self.node, port, frame);
    }

    /// Arm a one-shot timer that calls [`Node::on_timer`] with `token`
    /// after `delay`.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        let at = self.engine.now + delay;
        self.engine.queue.push(
            at,
            EventKind::Timer {
                node: self.node,
                token,
            },
        );
    }
}

/// The simulation engine.
pub struct Engine {
    now: SimTime,
    queue: EventQueue,
    nodes: Vec<Option<Box<dyn Node>>>,
    links: Vec<Link>,
    /// `port_map[node][port] -> link`.
    port_map: Vec<Vec<Option<LinkId>>>,
    taps: Vec<CaptureBuffer>,
    started: bool,
    events_processed: u64,
    /// Sequence number of the event being dispatched.
    dispatching: u64,
    trace: Trace,
}

impl Default for Engine {
    fn default() -> Self {
        Self::new()
    }
}

impl Engine {
    /// An empty simulation.
    pub fn new() -> Self {
        Engine {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            nodes: Vec::new(),
            links: Vec::new(),
            port_map: Vec::new(),
            taps: Vec::new(),
            started: false,
            events_processed: 0,
            dispatching: 0,
            trace: Trace::disabled(),
        }
    }

    /// Install a trace handle; packet lifecycle events (enqueue, link
    /// serialization, dequeue, tap stamps, queue drops) are recorded in
    /// virtual time. The default handle is disabled, reducing every
    /// record site to one branch.
    pub fn set_trace(&mut self, trace: Trace) {
        self.trace = trace;
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Attach a node; returns its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        let id = self.nodes.len();
        self.nodes.push(Some(node));
        self.port_map.push(Vec::new());
        id
    }

    /// Wire `(a, a_port)` to `(b, b_port)` with the given spec.
    ///
    /// Panics if a port is already wired.
    pub fn connect(
        &mut self,
        a: NodeId,
        a_port: PortNo,
        b: NodeId,
        b_port: PortNo,
        spec: LinkSpec,
    ) -> LinkId {
        let id = self.links.len();
        let ea = Endpoint {
            node: a,
            port: a_port,
        };
        let eb = Endpoint {
            node: b,
            port: b_port,
        };
        self.links.push(Link::new(spec, ea, eb));
        for (node, port) in [(a, a_port), (b, b_port)] {
            let ports = &mut self.port_map[node];
            if ports.len() <= port {
                ports.resize(port + 1, None);
            }
            assert!(
                ports[port].is_none(),
                "port {port} on node {node} already wired"
            );
            ports[port] = Some(id);
        }
        id
    }

    /// Attach a capture tap at `node`'s end of `link`; returns the tap id.
    ///
    /// Panics if `node` is not an endpoint of `link`.
    pub fn add_tap(&mut self, link: LinkId, node: NodeId, buffer: CaptureBuffer) -> TapId {
        let tap = self.taps.len();
        self.taps.push(buffer);
        let l = &mut self.links[link];
        if l.a.node == node {
            l.taps_a.push(tap);
        } else if l.b.node == node {
            l.taps_b.push(tap);
        } else {
            panic!("node {node} is not an endpoint of link {link}");
        }
        tap
    }

    /// Resolve the direction of `link` transmitted by `from`, panicking
    /// (a wiring bug) when `from` is not an endpoint.
    fn dir_of(&self, link: LinkId, from: NodeId) -> Dir {
        let l = &self.links[link];
        if l.a.node == from {
            Dir::AToB
        } else if l.b.node == from {
            Dir::BToA
        } else {
            panic!("node {from} is not an endpoint of link {link}");
        }
    }

    /// Install fault injection on one direction of a link. `from` names
    /// the transmitting node of the affected direction.
    pub fn set_fault(
        &mut self,
        link: LinkId,
        from: NodeId,
        spec: FaultSpec,
        rng: rand::rngs::SmallRng,
    ) {
        let dir = self.dir_of(link, from);
        self.links[link].dir_state(dir).fault = Some(FaultInjector::new(spec, rng));
    }

    /// Override the netem-style extra one-way delay on the direction of
    /// `link` transmitted by `from`. This is the simulator's
    /// `tc qdisc add dev eth0 root netem delay …`: the paper applies 50 ms
    /// to the server's egress only.
    pub fn set_one_way_delay(&mut self, link: LinkId, from: NodeId, delay: SimDuration) {
        let dir = self.dir_of(link, from);
        self.links[link].dir_state(dir).spec.extra_delay = delay;
    }

    /// Replace the [`LinkSpec`] of the direction of `link` transmitted
    /// by `from` — asymmetric rates, per-direction queue bounds. The
    /// other direction keeps the spec `connect` installed.
    ///
    /// Panics on a spec that fails [`LinkSpec::validate`]; builders are
    /// expected to have rejected it with a typed error already.
    pub fn set_link_spec(&mut self, link: LinkId, from: NodeId, spec: LinkSpec) {
        spec.validate()
            .unwrap_or_else(|e| panic!("invalid link spec: {e}"));
        let dir = self.dir_of(link, from);
        self.links[link].dir_state(dir).spec = spec;
    }

    /// Install [`LinkDynamics`] (rate schedule + queue discipline) on
    /// the direction of `link` transmitted by `from`. The default
    /// dynamics reproduce the static drop-tail link bit-for-bit, so
    /// builders only call this for non-static shapes.
    pub fn set_dynamics(&mut self, link: LinkId, from: NodeId, dynamics: LinkDynamics) {
        dynamics
            .validate()
            .unwrap_or_else(|e| panic!("invalid link dynamics: {e}"));
        let dir = self.dir_of(link, from);
        let st = self.links[link].dir_state(dir);
        st.dynamics = dynamics;
        st.codel = CoDelState::default();
    }

    /// Install netem-style uniform delay jitter on the direction of
    /// `link` transmitted by `from`: each frame draws an extra one-way
    /// delay in `[0, bound]` from the dedicated stream (the second
    /// argument of `netem delay 50ms 2ms`). Draws happen in event order
    /// inside the single-threaded engine, so runs stay deterministic.
    pub fn set_jitter(
        &mut self,
        link: LinkId,
        from: NodeId,
        bound: SimDuration,
        rng: rand::rngs::SmallRng,
    ) {
        let dir = self.dir_of(link, from);
        self.links[link].dir_state(dir).jitter = Some(LinkJitter { bound, rng });
    }

    /// Read a capture buffer.
    pub fn tap(&self, id: TapId) -> &CaptureBuffer {
        &self.taps[id]
    }

    /// Mutable access to a capture buffer (e.g. to clear it between
    /// phases).
    pub fn tap_mut(&mut self, id: TapId) -> &mut CaptureBuffer {
        &mut self.taps[id]
    }

    /// Borrow a node downcast to its concrete type, reporting the node
    /// id and both type names on failure.
    pub fn try_node_ref<T: Node>(&self, id: NodeId) -> Result<&T, EngineError> {
        let slot = self.nodes.get(id).ok_or(EngineError::NoSuchNode {
            id,
            count: self.nodes.len(),
        })?;
        let node = slot.as_ref().ok_or(EngineError::BeingDispatched { id })?;
        node.as_any()
            .downcast_ref::<T>()
            .ok_or_else(|| EngineError::TypeMismatch {
                id,
                expected: std::any::type_name::<T>(),
                actual: node.type_name(),
            })
    }

    /// Mutable sibling of [`Engine::try_node_ref`].
    pub fn try_node_mut<T: Node>(&mut self, id: NodeId) -> Result<&mut T, EngineError> {
        let count = self.nodes.len();
        let slot = self
            .nodes
            .get_mut(id)
            .ok_or(EngineError::NoSuchNode { id, count })?;
        let node = slot.as_mut().ok_or(EngineError::BeingDispatched { id })?;
        let actual = node.type_name();
        node.as_any_mut()
            .downcast_mut::<T>()
            .ok_or(EngineError::TypeMismatch {
                id,
                expected: std::any::type_name::<T>(),
                actual,
            })
    }

    /// Borrow a node downcast to its concrete type.
    ///
    /// Panics with the node id and the expected/actual type names when
    /// the lookup fails; use [`Engine::try_node_ref`] to handle the
    /// failure instead.
    pub fn node_ref<T: Node>(&self, id: NodeId) -> &T {
        self.try_node_ref(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Mutably borrow a node downcast to its concrete type.
    ///
    /// Panics with the node id and the expected/actual type names when
    /// the lookup fails; use [`Engine::try_node_mut`] to handle the
    /// failure instead.
    pub fn node_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        self.try_node_mut(id).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Queue-drop counter for the direction of `link` transmitted by
    /// `from` (drop-tail overflows plus AQM drops).
    pub fn queue_drops(&self, link: LinkId, from: NodeId) -> u64 {
        let l = &self.links[link];
        if l.a.node == from {
            l.a_to_b.queue_drops
        } else {
            l.b_to_a.queue_drops
        }
    }

    /// High-water mark of queued bytes for the direction of `link`
    /// transmitted by `from` — how deep the standing queue ever got.
    pub fn queue_peak_bytes(&self, link: LinkId, from: NodeId) -> usize {
        let l = &self.links[link];
        if l.a.node == from {
            l.a_to_b.queue_peak_bytes
        } else {
            l.b_to_a.queue_peak_bytes
        }
    }

    fn ensure_started(&mut self) {
        if !self.started {
            self.started = true;
            for id in 0..self.nodes.len() {
                self.queue
                    .push(SimTime::ZERO, EventKind::Start { node: id });
            }
        }
    }

    /// Run until the event queue drains. Returns the final time.
    pub fn run(&mut self) -> SimTime {
        self.ensure_started();
        while self.step() {}
        self.now
    }

    /// Run while events fire strictly before `deadline`. Time stops at the
    /// deadline if events remain beyond it; if the queue drains first,
    /// time stays at the last dispatched event.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.ensure_started();
        while let Some(t) = self.queue.peek_time() {
            if t >= deadline {
                self.now = deadline;
                return self.now;
            }
            self.step();
        }
        self.now
    }

    /// Dispatch one event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.at >= self.now, "time went backwards");
        self.now = event.at;
        self.dispatching = event.seq;
        self.events_processed += 1;
        match event.kind {
            EventKind::Start { node } => self.dispatch(node, |n, ctx| n.on_start(ctx)),
            EventKind::Timer { node, token } => {
                self.dispatch(node, |n, ctx| n.on_timer(ctx, token))
            }
            EventKind::FrameDelivery { node, port, frame } => {
                self.dispatch(node, |n, ctx| n.on_frame(ctx, port, frame))
            }
        }
        true
    }

    fn dispatch<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut Box<dyn Node>, &mut Ctx),
    {
        let mut taken = self.nodes[node].take().expect("re-entrant dispatch");
        {
            let mut ctx = Ctx { engine: self, node };
            f(&mut taken, &mut ctx);
        }
        self.nodes[node] = Some(taken);
    }

    /// Transmit `frame` from `(node, port)` at the current time.
    fn transmit(&mut self, node: NodeId, port: PortNo, frame: Bytes) {
        let link_id = self.port_map[node]
            .get(port)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("port {port} on node {node} is not wired"));
        let t = self.now;
        let ep = Endpoint { node, port };
        let dir = self.links[link_id].dir_from(ep).expect("endpoint mismatch");

        // Transmit-side taps see the frame as the host hands it to the
        // wire, before fault injection — smoltcp's "dropped packets still
        // get traced" behaviour, and what a capture driver on the sending
        // host sees. Taps are walked by index so the hot path borrows
        // the link's tap list without copying it.
        let n_src_taps = self.links[link_id].source_taps(dir).len();
        if self.trace.is_enabled() && n_src_taps > 0 {
            self.trace
                .instant(t.as_nanos(), "tap", "tx", Some(frame.len() as f64));
        }
        for i in 0..n_src_taps {
            let tap = self.links[link_id].source_taps(dir)[i];
            self.taps[tap].record(t, CaptureDir::Tx, &frame);
        }

        let action = match self.links[link_id].dir_state(dir).fault.as_mut() {
            Some(inj) => inj.apply(frame),
            None => FaultAction::Deliver(frame),
        };
        // At most two frames leave (the duplication fault); threading
        // them through an `Option` keeps the common single-frame case
        // free of a `Vec` allocation. The refcounted buffer means the
        // duplicate shares the original's allocation.
        let (first, dup) = match action {
            FaultAction::Drop => return,
            FaultAction::Deliver(f) | FaultAction::DeliverCorrupted(f) => (f, false),
            FaultAction::Duplicate(f) => (f, true),
        };
        let mut dup_pending = dup;
        let mut next_frame = Some(first);

        while let Some(f) = next_frame.take() {
            if dup_pending {
                dup_pending = false;
                next_frame = Some(f.clone());
            }
            let len = f.len();
            let st = self.links[link_id].dir_state(dir);
            st.settle(t, self.dispatching);
            if st.queued_bytes + len > st.spec.queue_limit_bytes {
                st.queue_drops += 1;
                self.trace
                    .instant(t.as_nanos(), "link", "drop", Some(len as f64));
                self.trace.count("link.queue_drops", 1);
                continue;
            }
            let start = st.busy_until.max(t);
            // AQM admission: CoDel judges the frame by the queueing
            // delay it would experience. Drop-tail installs no check.
            if let QueueDiscipline::CoDel { target, interval } = st.dynamics.discipline {
                let delay = start.saturating_since(t);
                if st.codel.should_drop(t, delay, target, interval) {
                    st.queue_drops += 1;
                    self.trace
                        .instant(t.as_nanos(), "link", "aqm_drop", Some(len as f64));
                    self.trace.count("link.queue_drops", 1);
                    continue;
                }
            }
            // Per-frame jitter draw on top of the fixed extra delay
            // (netem's uniform delay variation).
            let extra = st.spec.extra_delay
                + st.jitter
                    .as_mut()
                    .map_or(SimDuration::ZERO, LinkJitter::draw);
            // The rate is evaluated lazily at the instant serialization
            // starts; a static schedule yields the spec rate, making
            // this expression bit-identical to the fixed-rate path.
            let rate = st.dynamics.schedule.rate_at(start, st.spec.rate_bps);
            let tx_done = start + SimDuration::serialization(len, rate);
            st.busy_until = tx_done;
            st.enqueue(tx_done, self.queue.reserve_seq(), len);
            let propagation = st.spec.propagation;
            if self.trace.is_enabled() {
                self.trace
                    .instant(t.as_nanos(), "link", "enqueue", Some(len as f64));
                self.trace.span(
                    start.as_nanos(),
                    tx_done.as_nanos(),
                    "link",
                    "serialize",
                    None,
                );
                self.trace
                    .instant(tx_done.as_nanos(), "link", "dequeue", Some(len as f64));
                self.trace.count("link.frames", 1);
                self.trace.count("link.bytes", len as u64);
                self.trace.observe(
                    "link.serialize_ns",
                    tx_done.saturating_since(start).as_nanos(),
                );
            }
            let arrival = tx_done + propagation + extra;
            let sink = self.links[link_id].sink(dir);
            // Receive-side taps stamp at arrival.
            let n_sink_taps = self.links[link_id].sink_taps(dir).len();
            if self.trace.is_enabled() && n_sink_taps > 0 {
                self.trace
                    .instant(arrival.as_nanos(), "tap", "rx", Some(len as f64));
            }
            for i in 0..n_sink_taps {
                // Tap records are written at schedule time but stamped with
                // the arrival instant; since `arrival` is deterministic this
                // is equivalent to recording on delivery, and keeps taps
                // ordered even if the receiving node is slow.
                let tap = self.links[link_id].sink_taps(dir)[i];
                self.taps[tap].record(arrival, CaptureDir::Rx, &f);
            }
            self.queue.push(
                arrival,
                EventKind::FrameDelivery {
                    node: sink.node,
                    port: sink.port,
                    frame: f,
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every frame back out the port it arrived on, after a fixed
    /// processing delay signalled via a timer.
    struct Echo {
        received: Vec<(SimTime, Bytes)>,
    }

    impl Node for Echo {
        fn on_frame(&mut self, ctx: &mut Ctx, port: PortNo, frame: Bytes) {
            self.received.push((ctx.now(), frame.clone()));
            ctx.send_frame(port, frame);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends `count` frames at start, records what comes back.
    struct Pinger {
        count: usize,
        sent_at: Vec<SimTime>,
        replies: Vec<SimTime>,
    }

    impl Node for Pinger {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for i in 0..self.count {
                self.sent_at.push(ctx.now());
                ctx.send_frame(0, Bytes::from(vec![i as u8; 100]));
            }
        }
        fn on_frame(&mut self, ctx: &mut Ctx, _port: PortNo, _frame: Bytes) {
            self.replies.push(ctx.now());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn two_node_setup(spec: LinkSpec, count: usize) -> (Engine, NodeId, NodeId) {
        let mut e = Engine::new();
        let p = e.add_node(Box::new(Pinger {
            count,
            sent_at: Vec::new(),
            replies: Vec::new(),
        }));
        let s = e.add_node(Box::new(Echo {
            received: Vec::new(),
        }));
        e.connect(p, 0, s, 0, spec);
        (e, p, s)
    }

    #[test]
    fn rtt_includes_serialization_propagation_and_extra_delay() {
        let spec = LinkSpec {
            rate_bps: 100_000_000,
            propagation: SimDuration::from_micros(5),
            extra_delay: SimDuration::from_millis(50),
            queue_limit_bytes: 1 << 20,
        };
        let (mut e, p, _) = two_node_setup(spec, 1);
        e.run();
        let pinger = e.node_ref::<Pinger>(p);
        assert_eq!(pinger.replies.len(), 1);
        // One way: 8us serialization (100B @ 100Mbps) + 5us prop + 50ms.
        // RTT: twice that.
        let rtt = pinger.replies[0].saturating_since(pinger.sent_at[0]);
        assert_eq!(rtt.as_nanos(), 2 * (8_000 + 5_000 + 50_000_000));
    }

    #[test]
    fn back_to_back_frames_queue_behind_each_other() {
        let spec = LinkSpec {
            rate_bps: 8_000_000, // 1 byte per microsecond
            propagation: SimDuration::ZERO,
            extra_delay: SimDuration::ZERO,
            queue_limit_bytes: 1 << 20,
        };
        let (mut e, _, s) = two_node_setup(spec, 3);
        e.run();
        let echo = e.node_ref::<Echo>(s);
        assert_eq!(echo.received.len(), 3);
        // 100-byte frames at 1 B/us serialize in 100 us each; arrivals are
        // spaced by exactly the serialization time.
        let times: Vec<u64> = echo.received.iter().map(|(t, _)| t.as_micros()).collect();
        assert_eq!(times, vec![100, 200, 300]);
    }

    #[test]
    fn queue_limit_drops_excess() {
        let spec = LinkSpec {
            rate_bps: 8_000,
            propagation: SimDuration::ZERO,
            extra_delay: SimDuration::ZERO,
            queue_limit_bytes: 250, // room for two 100-byte frames
        };
        let (mut e, p, s) = two_node_setup(spec, 5);
        let link = 0;
        e.run();
        assert_eq!(e.node_ref::<Echo>(s).received.len(), 2);
        assert_eq!(e.queue_drops(link, p), 3);
    }

    #[test]
    fn taps_capture_both_directions() {
        let (mut e, p, _) = two_node_setup(LinkSpec::fast_ethernet(), 2);
        let tap = e.add_tap(0, p, CaptureBuffer::new("client"));
        e.run();
        let buf = e.tap(tap);
        // 2 tx + 2 rx.
        assert_eq!(buf.len(), 4);
        let tx = buf
            .records()
            .iter()
            .filter(|r| r.dir == CaptureDir::Tx)
            .count();
        assert_eq!(tx, 2);
    }

    #[test]
    fn timers_fire_in_order_with_tokens() {
        struct TimerNode {
            fired: Vec<(u64, SimTime)>,
        }
        impl Node for TimerNode {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.set_timer(SimDuration::from_millis(20), 2);
                ctx.set_timer(SimDuration::from_millis(10), 1);
            }
            fn on_frame(&mut self, _: &mut Ctx, _: PortNo, _: Bytes) {}
            fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
                self.fired.push((token, ctx.now()));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut e = Engine::new();
        let n = e.add_node(Box::new(TimerNode { fired: Vec::new() }));
        e.run();
        let node = e.node_ref::<TimerNode>(n);
        assert_eq!(node.fired.len(), 2);
        assert_eq!(node.fired[0].0, 1);
        assert_eq!(node.fired[0].1, SimTime::from_millis(10));
        assert_eq!(node.fired[1].0, 2);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut e, _, _) = two_node_setup(
            LinkSpec::fast_ethernet_delayed(SimDuration::from_secs(1)),
            1,
        );
        let t = e.run_until(SimTime::from_millis(100));
        assert_eq!(t, SimTime::from_millis(100));
        // Finishing the run delivers the reply.
        e.run();
        assert!(e.now() > SimTime::from_secs(1));
    }

    #[test]
    fn run_until_a_drained_queue_stops_at_the_last_event() {
        let (mut e, p, _) = two_node_setup(LinkSpec::fast_ethernet(), 1);
        let t = e.run_until(SimTime::from_secs(300));
        // The echo's delivery is the last event; the horizon is not the
        // finishing time.
        assert_eq!(t, e.node_ref::<Pinger>(p).replies[0]);
        assert_eq!(e.now(), t);
        assert!(t < SimTime::from_millis(1));
    }

    #[test]
    fn determinism_two_identical_runs() {
        let run = || {
            let (mut e, p, _) = two_node_setup(LinkSpec::fast_ethernet(), 10);
            e.run();
            e.node_ref::<Pinger>(p).replies.clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "not wired")]
    fn sending_on_unwired_port_panics() {
        struct Bad;
        impl Node for Bad {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send_frame(3, Bytes::from_static(b"x"));
            }
            fn on_frame(&mut self, _: &mut Ctx, _: PortNo, _: Bytes) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut e = Engine::new();
        e.add_node(Box::new(Bad));
        e.run();
    }

    #[test]
    fn trace_records_link_lifecycle_and_tap_stamps() {
        let (mut e, p, _) = two_node_setup(LinkSpec::fast_ethernet(), 2);
        e.add_tap(0, p, CaptureBuffer::new("t"));
        let trace = Trace::enabled();
        e.set_trace(trace.clone());
        e.run();
        let d = trace.take().unwrap();
        // 2 pings out + 2 echoes back.
        assert_eq!(d.counters["link.frames"], 4);
        assert_eq!(d.histograms["link.serialize_ns"].count, 4);
        let has = |scope: &str, label: &str| {
            d.events
                .iter()
                .any(|ev| ev.scope == scope && ev.label == label)
        };
        assert!(has("link", "enqueue"));
        assert!(has("link", "serialize"));
        assert!(has("link", "dequeue"));
        // The tap sits on the pinger side: it sees its own tx and rx.
        assert!(has("tap", "tx"));
        assert!(has("tap", "rx"));
    }

    #[test]
    fn jitter_spreads_arrivals_deterministically() {
        let run = |with_jitter: bool| {
            let (mut e, _, s) = two_node_setup(LinkSpec::fast_ethernet(), 10);
            if with_jitter {
                e.set_jitter(
                    0,
                    0,
                    SimDuration::from_millis(5),
                    crate::rng::stream(3, "jitter"),
                );
            }
            e.run();
            e.node_ref::<Echo>(s)
                .received
                .iter()
                .map(|(t, _)| *t)
                .collect::<Vec<SimTime>>()
        };
        let clean = run(false);
        let jittered = run(true);
        assert_eq!(clean.len(), jittered.len());
        // Jitter only ever adds delay, and at least one frame must move.
        assert!(clean.iter().zip(&jittered).all(|(c, j)| j >= c));
        assert_ne!(clean, jittered);
        // Same seed, same draws: bit-identical reruns.
        assert_eq!(run(true), run(true));
    }

    #[test]
    fn asymmetric_specs_apply_per_direction() {
        // Slow the echo direction only: the request serializes at
        // 100 Mbps, the reply at 8 Mbps (100 B -> 100 us).
        let (mut e, p, s) = two_node_setup(LinkSpec::fast_ethernet(), 1);
        e.set_link_spec(
            0,
            s,
            LinkSpec {
                rate_bps: 8_000_000,
                ..LinkSpec::fast_ethernet()
            },
        );
        e.run();
        let pinger = e.node_ref::<Pinger>(p);
        let rtt = pinger.replies[0].saturating_since(pinger.sent_at[0]);
        // 8us + 5us out, 100us + 5us back.
        assert_eq!(rtt.as_nanos(), (8_000 + 5_000) + (100_000 + 5_000));
    }

    #[test]
    fn static_dynamics_change_nothing() {
        let run = |install: bool| {
            let (mut e, _, s) = two_node_setup(LinkSpec::fast_ethernet(), 10);
            if install {
                e.set_dynamics(0, 0, crate::dynamics::LinkDynamics::default());
            }
            e.run();
            e.node_ref::<Echo>(s)
                .received
                .iter()
                .map(|(t, _)| *t)
                .collect::<Vec<SimTime>>()
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn rate_schedule_is_evaluated_lazily_at_serialization_start() {
        use crate::dynamics::{LinkDynamics, RateSchedule};
        let spec = LinkSpec {
            rate_bps: 8_000_000, // 100 B -> 100 us
            propagation: SimDuration::ZERO,
            extra_delay: SimDuration::ZERO,
            queue_limit_bytes: 1 << 20,
        };
        let (mut e, _, s) = two_node_setup(spec, 3);
        // From t = 150 us the link slows 10x. Frame 1 (starts at 0) and
        // frame 2 (starts at 100 us) serialize at the base rate; frame 3
        // starts at 200 us and observes the step.
        e.set_dynamics(
            0,
            0,
            LinkDynamics::scheduled(RateSchedule::Steps(vec![(
                SimTime::from_micros(150),
                800_000,
            )])),
        );
        e.run();
        let times: Vec<u64> = e
            .node_ref::<Echo>(s)
            .received
            .iter()
            .map(|(t, _)| t.as_micros())
            .collect();
        assert_eq!(times, vec![100, 200, 1200]);
    }

    #[test]
    fn codel_sheds_standing_queue_that_drop_tail_keeps() {
        use crate::dynamics::LinkDynamics;
        // One 100-byte frame every 5 ms into a 10 ms-per-frame link:
        // the standing queue grows without bound under drop-tail, while
        // CoDel starts shedding once the would-be wait has exceeded its
        // target for a full interval.
        struct Spaced {
            count: usize,
        }
        impl Node for Spaced {
            fn on_start(&mut self, ctx: &mut Ctx) {
                for i in 0..self.count {
                    ctx.set_timer(SimDuration::from_millis(5 * i as u64), i as u64);
                }
            }
            fn on_frame(&mut self, _: &mut Ctx, _: PortNo, _: Bytes) {}
            fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
                ctx.send_frame(0, Bytes::from(vec![token as u8; 100]));
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let spec = LinkSpec {
            rate_bps: 80_000, // 100 B -> 10 ms serialization
            propagation: SimDuration::ZERO,
            extra_delay: SimDuration::ZERO,
            queue_limit_bytes: 1 << 20,
        };
        let run = |aqm: bool| {
            let mut e = Engine::new();
            let p = e.add_node(Box::new(Spaced { count: 100 }));
            let s = e.add_node(Box::new(Echo {
                received: Vec::new(),
            }));
            e.connect(p, 0, s, 0, spec);
            if aqm {
                e.set_dynamics(0, p, LinkDynamics::codel());
            }
            e.run();
            (
                e.node_ref::<Echo>(s).received.len(),
                e.queue_drops(0, p),
                e.queue_peak_bytes(0, p),
            )
        };
        let (tail_rx, tail_drops, tail_peak) = run(false);
        let (aqm_rx, aqm_drops, aqm_peak) = run(true);
        assert_eq!(tail_rx, 100);
        assert_eq!(tail_drops, 0);
        assert!(aqm_drops >= 3, "codel must keep shedding: {aqm_drops}");
        assert_eq!(aqm_rx + aqm_drops as usize, 100);
        assert!(
            aqm_peak < tail_peak,
            "codel bounds the queue: {aqm_peak} vs {tail_peak}"
        );
    }

    #[test]
    fn queue_peak_gauge_tracks_high_water() {
        let spec = LinkSpec {
            rate_bps: 8_000_000,
            propagation: SimDuration::ZERO,
            extra_delay: SimDuration::ZERO,
            queue_limit_bytes: 1 << 20,
        };
        let (mut e, p, _) = two_node_setup(spec, 5);
        e.run();
        // All five 100-byte frames arrive at once: the peak holds all
        // of them even after the queue drains.
        assert_eq!(e.queue_peak_bytes(0, p), 500);
        assert_eq!(e.queue_drops(0, p), 0);
    }

    #[test]
    fn fault_injection_drops_frames() {
        let (mut e, p, s) = two_node_setup(LinkSpec::fast_ethernet(), 10);
        e.set_fault(
            0,
            p,
            FaultSpec {
                drop_chance: 1.0,
                ..FaultSpec::CLEAN
            },
            crate::rng::stream(1, "fault"),
        );
        e.run();
        assert_eq!(e.node_ref::<Echo>(s).received.len(), 0);
        // The pinger got no replies either.
        assert!(e.node_ref::<Pinger>(p).replies.is_empty());
    }
}

#[cfg(test)]
mod more_tests {
    use super::*;
    use crate::link::LinkSpec;

    struct Inert;
    impl Node for Inert {
        fn on_frame(&mut self, _: &mut Ctx, _: PortNo, _: Bytes) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn run_on_empty_engine_terminates_at_zero() {
        let mut e = Engine::new();
        assert_eq!(e.run(), SimTime::ZERO);
        assert_eq!(e.events_processed(), 0);
    }

    #[test]
    fn start_events_fire_once_per_node() {
        struct Counter {
            started: u32,
        }
        impl Node for Counter {
            fn on_start(&mut self, _: &mut Ctx) {
                self.started += 1;
            }
            fn on_frame(&mut self, _: &mut Ctx, _: PortNo, _: Bytes) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut e = Engine::new();
        let n = e.add_node(Box::new(Counter { started: 0 }));
        e.run();
        e.run(); // idempotent: start fires once
        assert_eq!(e.node_ref::<Counter>(n).started, 1);
    }

    #[test]
    fn tap_mut_clear_between_phases() {
        let mut e = Engine::new();
        let a = e.add_node(Box::new(Inert));
        let b = e.add_node(Box::new(Inert));
        let link = e.connect(a, 0, b, 0, LinkSpec::fast_ethernet());
        let tap = e.add_tap(link, a, crate::capture::CaptureBuffer::new("t"));
        // Inject a frame by timer-driven send.
        struct Sender;
        impl Node for Sender {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send_frame(0, Bytes::from_static(b"x"));
            }
            fn on_frame(&mut self, _: &mut Ctx, _: PortNo, _: Bytes) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut e2 = Engine::new();
        let s = e2.add_node(Box::new(Sender));
        let r = e2.add_node(Box::new(Inert));
        let link2 = e2.connect(s, 0, r, 0, LinkSpec::fast_ethernet());
        let tap2 = e2.add_tap(link2, s, crate::capture::CaptureBuffer::new("t2"));
        e2.run();
        assert_eq!(e2.tap(tap2).len(), 1);
        e2.tap_mut(tap2).clear();
        assert!(e2.tap(tap2).is_empty());
        let _ = (tap, &e);
    }

    #[test]
    fn failed_downcasts_report_id_and_types() {
        let mut e = Engine::new();
        let a = e.add_node(Box::new(Inert));
        assert!(e.try_node_ref::<Inert>(a).is_ok());
        assert_eq!(
            e.try_node_ref::<Inert>(7).map(|_| ()),
            Err(EngineError::NoSuchNode { id: 7, count: 1 })
        );
        struct Other;
        impl Node for Other {
            fn on_frame(&mut self, _: &mut Ctx, _: PortNo, _: Bytes) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let err = e.try_node_mut::<Other>(a).map(|_| ()).unwrap_err();
        match err {
            EngineError::TypeMismatch {
                id,
                expected,
                actual,
            } => {
                assert_eq!(id, a);
                assert!(expected.contains("Other"), "expected name: {expected}");
                assert!(actual.contains("Inert"), "actual name: {actual}");
            }
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    #[should_panic(expected = "node 0 is a")]
    fn node_ref_panic_names_the_types() {
        struct Other;
        impl Node for Other {
            fn on_frame(&mut self, _: &mut Ctx, _: PortNo, _: Bytes) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut e = Engine::new();
        let a = e.add_node(Box::new(Inert));
        let _ = e.node_ref::<Other>(a);
    }

    #[test]
    #[should_panic(expected = "already wired")]
    fn double_wiring_a_port_panics() {
        let mut e = Engine::new();
        let a = e.add_node(Box::new(Inert));
        let b = e.add_node(Box::new(Inert));
        let c = e.add_node(Box::new(Inert));
        e.connect(a, 0, b, 0, LinkSpec::fast_ethernet());
        e.connect(a, 0, c, 0, LinkSpec::fast_ethernet());
    }

    #[test]
    #[should_panic(expected = "not an endpoint")]
    fn tap_on_non_endpoint_panics() {
        let mut e = Engine::new();
        let a = e.add_node(Box::new(Inert));
        let b = e.add_node(Box::new(Inert));
        let c = e.add_node(Box::new(Inert));
        let link = e.connect(a, 0, b, 0, LinkSpec::fast_ethernet());
        e.add_tap(link, c, crate::capture::CaptureBuffer::new("bad"));
    }
}

#[cfg(test)]
mod lazy_queue_tests {
    //! The lazy link-queue rule against a model that queues an explicit
    //! transmit-done event per frame and replays the events in
    //! `(time, seq)` order, as the engine once did.

    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    use proptest::prelude::*;

    use super::*;

    /// One byte per microsecond.
    const RATE_BPS: u64 = 8_000_000;
    const US: u64 = 1_000;

    /// What a step of an offer schedule does, in order.
    #[derive(Debug, Clone, Copy)]
    enum Action {
        /// Offer a frame of this many bytes to the link.
        Send(usize),
        /// Arm a timer that runs the step `.1` after `.0` µs.
        Arm(u64, usize),
    }

    /// An offer schedule: the timers armed at start, and the steps.
    #[derive(Debug, Clone)]
    struct Script {
        limit: usize,
        start: Vec<(u64, usize)>,
        steps: Vec<Vec<Action>>,
    }

    /// Gauges of the direction after a step that offered frames:
    /// `(queued_bytes, queue_peak_bytes, queue_drops)`.
    type Gauges = (usize, usize, u64);

    /// What the link did with a script: the ids of the admitted frames
    /// in admission order, the gauges after every step that offered a
    /// frame, and the final drops and peak.
    #[derive(Debug, PartialEq, Eq)]
    struct Outcome {
        admitted: Vec<u32>,
        after_offers: Vec<Gauges>,
        drops: u64,
        peak: usize,
    }

    /// Runs the script's steps on its timers. Each frame carries its
    /// offer index in its first four bytes.
    struct Offerer {
        script: Script,
        offered: u32,
    }

    impl Offerer {
        fn act(&mut self, ctx: &mut Ctx, actions: &[Action]) {
            for &action in actions {
                match action {
                    Action::Send(len) => {
                        let mut frame = vec![0u8; len];
                        frame[..4].copy_from_slice(&self.offered.to_be_bytes());
                        self.offered += 1;
                        ctx.send_frame(0, Bytes::from(frame));
                    }
                    Action::Arm(delay_us, step) => {
                        ctx.set_timer(SimDuration::from_micros(delay_us), step as u64)
                    }
                }
            }
        }
    }

    impl Node for Offerer {
        fn on_start(&mut self, ctx: &mut Ctx) {
            let start: Vec<Action> = self
                .script
                .start
                .iter()
                .map(|&(delay, step)| Action::Arm(delay, step))
                .collect();
            self.act(ctx, &start);
        }
        fn on_frame(&mut self, _: &mut Ctx, _: PortNo, _: Bytes) {}
        fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
            let actions = self.script.steps[token as usize].clone();
            self.act(ctx, &actions);
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Records the id of every frame that arrives.
    #[derive(Default)]
    struct Receiver {
        ids: Vec<u32>,
    }

    impl Node for Receiver {
        fn on_frame(&mut self, _: &mut Ctx, _: PortNo, frame: Bytes) {
            self.ids
                .push(u32::from_be_bytes(frame[..4].try_into().unwrap()));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn spec(limit: usize) -> LinkSpec {
        LinkSpec {
            rate_bps: RATE_BPS,
            propagation: SimDuration::ZERO,
            extra_delay: SimDuration::ZERO,
            queue_limit_bytes: limit,
        }
    }

    /// The engine's outcome, read off the direction after every step
    /// that offered a frame (a step settles the queue at its first
    /// offer, so its gauges are exact there).
    fn engine_outcome(script: &Script) -> Outcome {
        let mut e = Engine::new();
        let o = e.add_node(Box::new(Offerer {
            script: script.clone(),
            offered: 0,
        }));
        let r = e.add_node(Box::new(Receiver::default()));
        e.connect(o, 0, r, 0, spec(script.limit));
        let mut after_offers = Vec::new();
        let mut offered = 0;
        while e.step() {
            let now = e.node_ref::<Offerer>(o).offered;
            if now > offered {
                offered = now;
                let st = &e.links[0].a_to_b;
                after_offers.push((st.queued_bytes, st.queue_peak_bytes, st.queue_drops));
            }
        }
        Outcome {
            admitted: e.node_ref::<Receiver>(r).ids.clone(),
            after_offers,
            drops: e.queue_drops(0, o),
            peak: e.queue_peak_bytes(0, o),
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum ModelEvent {
        Start,
        Step(usize),
        TxDone(usize),
        Delivery(u32),
    }

    /// The drop-tail direction with one transmit-done event per frame,
    /// its events pushed in the order the engine pushes its own.
    fn model_outcome(script: &Script) -> Outcome {
        let mut heap: BinaryHeap<Reverse<(u64, u64, ModelEvent)>> = BinaryHeap::new();
        let mut next_seq = 0;
        let mut push = |heap: &mut BinaryHeap<_>, at: u64, ev: ModelEvent| {
            heap.push(Reverse((at, next_seq, ev)));
            next_seq += 1;
        };
        // The engine starts its two nodes at zero; the receiver's start
        // does nothing.
        push(&mut heap, 0, ModelEvent::Start);
        push(&mut heap, 0, ModelEvent::Start);
        let (mut busy_until, mut queued, mut peak, mut drops) = (0, 0, 0, 0);
        let (mut offered, mut started) = (0u32, false);
        let mut out = Outcome {
            admitted: Vec::new(),
            after_offers: Vec::new(),
            drops: 0,
            peak: 0,
        };
        while let Some(Reverse((now, _, ev))) = heap.pop() {
            let actions: Vec<Action> = match ev {
                ModelEvent::Start if !started => {
                    started = true;
                    script
                        .start
                        .iter()
                        .map(|&(d, s)| Action::Arm(d, s))
                        .collect()
                }
                ModelEvent::Start => Vec::new(),
                ModelEvent::Step(step) => script.steps[step].clone(),
                ModelEvent::TxDone(len) => {
                    queued -= len;
                    continue;
                }
                ModelEvent::Delivery(id) => {
                    out.admitted.push(id);
                    continue;
                }
            };
            let mut sent = false;
            for action in actions {
                match action {
                    Action::Send(len) => {
                        sent = true;
                        let id = offered;
                        offered += 1;
                        if queued + len > script.limit {
                            drops += 1;
                            continue;
                        }
                        let tx_done = busy_until.max(now) + len as u64 * US;
                        busy_until = tx_done;
                        queued += len;
                        peak = peak.max(queued);
                        push(&mut heap, tx_done, ModelEvent::TxDone(len));
                        push(&mut heap, tx_done, ModelEvent::Delivery(id));
                    }
                    Action::Arm(delay, step) => {
                        push(&mut heap, now + delay * US, ModelEvent::Step(step))
                    }
                }
            }
            if sent {
                out.after_offers.push((queued, peak, drops));
            }
        }
        out.drops = drops;
        out.peak = peak;
        out
    }

    /// A script from genes: offer sizes and delays are multiples of
    /// 50 bytes and 50 µs, so offers keep landing on the instants other
    /// frames finish, from timers armed both before and after those
    /// frames were sent. A step arms only later steps, at most twice.
    fn script(limit_gene: u64, start: &[u64], steps: &[Vec<u64>]) -> Script {
        let n = steps.len();
        let delay = |g: u64| (g >> 8) % 7 * 50;
        let steps = steps
            .iter()
            .enumerate()
            .map(|(i, genes)| {
                let mut arms = 0;
                genes
                    .iter()
                    .filter_map(|&g| {
                        if g % 3 == 0 && i + 1 < n && arms < 2 {
                            arms += 1;
                            let to = i + 1 + (g >> 16) as usize % (n - i - 1);
                            Some(Action::Arm(delay(g), to))
                        } else if g % 3 == 0 {
                            None
                        } else {
                            Some(Action::Send(50 * (1 + (g >> 4) as usize % 4)))
                        }
                    })
                    .collect()
            })
            .collect();
        Script {
            limit: 100 + 50 * (limit_gene % 7) as usize,
            start: start
                .iter()
                .map(|&g| (delay(g), (g >> 16) as usize % n))
                .collect(),
            steps,
        }
    }

    #[test]
    fn an_offer_at_tx_done_sees_the_frame_only_if_armed_before_it_was_sent() {
        // Frame 0 (100 B) finishes at 100 µs; a second 100 B frame fits
        // the 150 B queue only once frame 0 has left.
        let armed_before = Script {
            limit: 150,
            start: vec![(0, 0), (100, 1)],
            steps: vec![vec![Action::Send(100)], vec![Action::Send(100)]],
        };
        let armed_after = Script {
            limit: 150,
            start: vec![(0, 0)],
            steps: vec![
                vec![Action::Send(100), Action::Arm(100, 1)],
                vec![Action::Send(100)],
            ],
        };
        let before = engine_outcome(&armed_before);
        assert_eq!(before, model_outcome(&armed_before));
        assert_eq!((before.admitted, before.drops), (vec![0], 1));
        let after = engine_outcome(&armed_after);
        assert_eq!(after, model_outcome(&armed_after));
        assert_eq!((after.admitted, after.drops), (vec![0, 1], 0));
    }

    proptest! {
        #[test]
        fn lazy_settlement_admits_and_drops_like_transmit_done_events(
            limit in any::<u64>(),
            start in proptest::collection::vec(any::<u64>(), 1..4),
            steps in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 0..6), 1..7),
        ) {
            let script = script(limit, &start, &steps);
            prop_assert_eq!(engine_outcome(&script), model_outcome(&script), "{:?}", script);
        }
    }
}
