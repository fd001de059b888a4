//! Full-duplex point-to-point links.
//!
//! Each direction models: a drop-tail FIFO queue bounded in bytes, a
//! serialization stage (`bytes * 8 / rate`), a propagation delay, and an
//! optional fixed *extra delay* — the simulator's equivalent of `netem
//! delay`, used to reproduce the paper's "additional delay of 50 ms on the
//! server side".
//!
//! A frame leaves the queue when its serialization ends, but that
//! instant queues no event. The direction keeps its admitted frames as
//! `(tx_done, seq, len)` in FIFO order, `seq` being the event-queue
//! number the instant would have had, and settles `queued_bytes` only
//! when the next frame is offered: every frame whose `(tx_done, seq)`
//! comes before the offer's `(now, seq)` has left by then, exactly the
//! frames whose transmit-done events would have been dispatched. Every
//! admit, drop and gauge is the one an event per frame gives, for one
//! event per frame instead of two.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::Rng;

use crate::capture::TapId;
use crate::dynamics::{CoDelState, LinkDynamics};
use crate::engine::{NodeId, PortNo};
use crate::fault::FaultInjector;
use crate::time::{SimDuration, SimTime};

/// Identifies a link within an [`crate::engine::Engine`].
pub type LinkId = usize;

/// Which direction of a full-duplex link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Endpoint A transmits toward endpoint B.
    AToB,
    /// Endpoint B transmits toward endpoint A.
    BToA,
}

impl Dir {
    /// The opposite direction.
    pub fn flip(self) -> Dir {
        match self {
            Dir::AToB => Dir::BToA,
            Dir::BToA => Dir::AToB,
        }
    }
}

/// Static parameters of one link direction.
///
/// [`crate::engine::Engine::connect`] seeds both directions with the
/// same spec; [`crate::engine::Engine::set_link_spec`] can then override
/// one direction for asymmetric links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkSpec {
    /// Line rate in bits per second.
    pub rate_bps: u64,
    /// One-way propagation delay.
    pub propagation: SimDuration,
    /// Extra fixed one-way delay (netem-style), applied after
    /// serialization. The paper's server-side 50 ms lives here.
    pub extra_delay: SimDuration,
    /// Drop-tail queue bound in bytes (per direction).
    pub queue_limit_bytes: usize,
}

impl LinkSpec {
    /// The paper's testbed link: 100 Mbps Ethernet through a switch, with
    /// microsecond-scale propagation and a generous queue.
    pub fn fast_ethernet() -> LinkSpec {
        LinkSpec {
            rate_bps: 100_000_000,
            propagation: SimDuration::from_micros(5),
            extra_delay: SimDuration::ZERO,
            queue_limit_bytes: 256 * 1024,
        }
    }

    /// Fast Ethernet with a netem-style extra one-way delay.
    pub fn fast_ethernet_delayed(extra: SimDuration) -> LinkSpec {
        LinkSpec {
            extra_delay: extra,
            ..LinkSpec::fast_ethernet()
        }
    }

    /// Check the spec's documented preconditions. A zero rate would
    /// panic deep in [`SimDuration::serialization`]; a zero queue bound
    /// silently drops every frame and hangs any protocol above it.
    pub fn validate(&self) -> Result<(), &'static str> {
        if self.rate_bps == 0 {
            return Err("link rate_bps must be positive");
        }
        if self.queue_limit_bytes == 0 {
            return Err("link queue_limit_bytes must be positive");
        }
        Ok(())
    }
}

/// One endpoint of a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Endpoint {
    /// The attached node.
    pub node: NodeId,
    /// The interface index on that node.
    pub port: PortNo,
}

/// Mutable per-direction state.
///
/// The direction owns its [`LinkSpec`] — the single source of truth for
/// rate, propagation, queue bound *and* `extra_delay` (historically
/// `extra_delay` was duplicated here; per-direction overrides like the
/// paper's server-side 50 ms now mutate `spec.extra_delay` directly).
#[derive(Debug)]
pub(crate) struct DirState {
    /// This direction's static parameters (seeded from the link's
    /// construction spec, overridable per direction).
    pub spec: LinkSpec,
    /// This direction's rate schedule and queue discipline.
    pub dynamics: LinkDynamics,
    /// CoDel controller state (inert under drop-tail).
    pub codel: CoDelState,
    /// When the transmitter becomes free.
    pub busy_until: SimTime,
    /// Bytes queued or serializing as of the last [`DirState::settle`].
    pub queued_bytes: usize,
    /// Frames counted in `queued_bytes`, as `(tx_done, seq, len)` in
    /// FIFO order: both `tx_done` and `seq` grow along it.
    pub in_flight: VecDeque<(SimTime, u64, usize)>,
    /// High-water mark of `queued_bytes` — the gauge that makes
    /// bufferbloat runs explainable.
    pub queue_peak_bytes: usize,
    /// Frames dropped at the queue (drop-tail overflow and AQM drops).
    pub queue_drops: u64,
    /// Fault injection for this direction.
    pub fault: Option<FaultInjector>,
    /// Netem-style uniform jitter on `extra_delay` (the `netem delay
    /// 50ms 2ms` second argument): each frame draws an extra delay in
    /// `[0, bound]` from a dedicated stream. `None` = no jitter.
    pub jitter: Option<LinkJitter>,
}

/// Per-direction delay jitter: a bound and its RNG stream.
#[derive(Debug)]
pub(crate) struct LinkJitter {
    /// Upper bound of the uniform extra delay.
    pub bound: SimDuration,
    /// Dedicated RNG stream (one draw per frame, in event order, so
    /// runs stay deterministic).
    pub rng: SmallRng,
}

impl LinkJitter {
    /// Draw one frame's extra delay in `[0, bound]`.
    pub(crate) fn draw(&mut self) -> SimDuration {
        let bound = self.bound.as_nanos();
        if bound == 0 {
            return SimDuration::ZERO;
        }
        SimDuration::from_nanos(self.rng.gen_range(0..=bound))
    }
}

impl DirState {
    pub(crate) fn new(spec: LinkSpec) -> Self {
        DirState {
            spec,
            dynamics: LinkDynamics::default(),
            codel: CoDelState::default(),
            busy_until: SimTime::ZERO,
            queued_bytes: 0,
            in_flight: VecDeque::new(),
            queue_peak_bytes: 0,
            queue_drops: 0,
            fault: None,
            jitter: None,
        }
    }

    /// Take every frame whose transmit-done instant `(tx_done, seq)`
    /// comes before `(now, seq)` out of `queued_bytes`: the frames whose
    /// transmit-done events would have been dispatched before the event
    /// numbered `seq` at `now`.
    pub(crate) fn settle(&mut self, now: SimTime, seq: u64) {
        while let Some(&(tx_done, done_seq, len)) = self.in_flight.front() {
            if (tx_done, done_seq) >= (now, seq) {
                break;
            }
            self.queued_bytes -= len;
            self.in_flight.pop_front();
        }
    }

    /// Count an admitted frame of `len` bytes until `(tx_done, seq)`.
    pub(crate) fn enqueue(&mut self, tx_done: SimTime, seq: u64, len: usize) {
        self.queued_bytes += len;
        self.queue_peak_bytes = self.queue_peak_bytes.max(self.queued_bytes);
        self.in_flight.push_back((tx_done, seq, len));
    }
}

/// A full-duplex link between two endpoints. Each direction carries its
/// own spec and dynamics (see [`DirState`]).
#[derive(Debug)]
pub(crate) struct Link {
    pub a: Endpoint,
    pub b: Endpoint,
    pub a_to_b: DirState,
    pub b_to_a: DirState,
    /// Taps attached at endpoint A (see Tx/Rx semantics in [`crate::capture`]).
    pub taps_a: Vec<TapId>,
    /// Taps attached at endpoint B.
    pub taps_b: Vec<TapId>,
}

impl Link {
    pub(crate) fn new(spec: LinkSpec, a: Endpoint, b: Endpoint) -> Self {
        Link {
            a,
            b,
            a_to_b: DirState::new(spec),
            b_to_a: DirState::new(spec),
            taps_a: Vec::new(),
            taps_b: Vec::new(),
        }
    }

    /// Which direction a transmission from `ep` travels.
    pub(crate) fn dir_from(&self, ep: Endpoint) -> Option<Dir> {
        if ep == self.a {
            Some(Dir::AToB)
        } else if ep == self.b {
            Some(Dir::BToA)
        } else {
            None
        }
    }

    pub(crate) fn dir_state(&mut self, dir: Dir) -> &mut DirState {
        match dir {
            Dir::AToB => &mut self.a_to_b,
            Dir::BToA => &mut self.b_to_a,
        }
    }

    /// The receiving endpoint for a direction.
    pub(crate) fn sink(&self, dir: Dir) -> Endpoint {
        match dir {
            Dir::AToB => self.b,
            Dir::BToA => self.a,
        }
    }

    /// The transmitting endpoint for a direction.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn source(&self, dir: Dir) -> Endpoint {
        match dir {
            Dir::AToB => self.a,
            Dir::BToA => self.b,
        }
    }

    /// Taps at the transmitting side of `dir`.
    pub(crate) fn source_taps(&self, dir: Dir) -> &[TapId] {
        match dir {
            Dir::AToB => &self.taps_a,
            Dir::BToA => &self.taps_b,
        }
    }

    /// Taps at the receiving side of `dir`.
    pub(crate) fn sink_taps(&self, dir: Dir) -> &[TapId] {
        match dir {
            Dir::AToB => &self.taps_b,
            Dir::BToA => &self.taps_a,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dir_flip() {
        assert_eq!(Dir::AToB.flip(), Dir::BToA);
        assert_eq!(Dir::BToA.flip(), Dir::AToB);
    }

    #[test]
    fn dir_from_endpoints() {
        let a = Endpoint { node: 0, port: 0 };
        let b = Endpoint { node: 1, port: 2 };
        let link = Link::new(LinkSpec::fast_ethernet(), a, b);
        assert_eq!(link.dir_from(a), Some(Dir::AToB));
        assert_eq!(link.dir_from(b), Some(Dir::BToA));
        assert_eq!(link.dir_from(Endpoint { node: 9, port: 9 }), None);
        assert_eq!(link.sink(Dir::AToB), b);
        assert_eq!(link.source(Dir::AToB), a);
    }

    #[test]
    fn fast_ethernet_spec() {
        let s = LinkSpec::fast_ethernet();
        assert_eq!(s.rate_bps, 100_000_000);
        assert_eq!(s.extra_delay, SimDuration::ZERO);
        let d = LinkSpec::fast_ethernet_delayed(SimDuration::from_millis(50));
        assert_eq!(d.extra_delay.as_millis(), 50);
        assert_eq!(d.rate_bps, 100_000_000);
    }
}
