//! # bnm-sim — deterministic discrete-event network simulator
//!
//! This crate is the physical substrate for the IMC'13 reproduction: it
//! simulates the two-machine, one-switch 100 Mbps testbed of the paper at
//! packet granularity.
//!
//! Design goals (in the spirit of `smoltcp`):
//!
//! * **Determinism.** A single-threaded event loop ordered by
//!   `(time, sequence)`; all randomness lives in explicitly seeded
//!   [`rand::rngs::SmallRng`] streams owned by individual components.
//! * **Real wire formats.** Frames on links are byte-exact Ethernet II /
//!   IPv4 / TCP / UDP packets with checksums (see [`wire`]). Capture taps
//!   record raw frames, and ground truth for the experiments is recovered by
//!   *parsing those bytes* — never by peeking at simulator internals.
//! * **Observable.** Any link endpoint can carry capture taps
//!   ([`capture`]) whose contents can be exported to a Wireshark-readable
//!   libpcap file ([`pcap`]).
//! * **Fault injection.** Links support loss, corruption and duplication
//!   knobs ([`fault`]) for robustness testing, mirroring smoltcp's example
//!   options (the paper's experiments run loss-free).
//!
//! The building blocks are:
//!
//! * [`time::SimTime`] / [`time::SimDuration`] — nanosecond virtual time.
//! * [`engine::Engine`] — the event loop; owns nodes, links and taps.
//! * [`engine::Node`] — trait implemented by anything attached to the
//!   network (hosts, switches).
//! * [`link::LinkSpec`] — bandwidth / propagation / queueing / extra-delay
//!   parameters (the paper's 50 ms server-side delay is a link
//!   `extra_delay`).
//! * [`switch::Switch`] — a learning L2 switch.

pub mod capture;
pub mod dynamics;
pub mod engine;
pub mod event;
pub mod fault;
pub mod link;
pub mod pcap;
pub mod rng;
pub mod switch;
pub mod time;
pub mod wire;

pub use capture::{CaptureBuffer, CaptureRecord, CaptureSink, TapId};
pub use dynamics::{LinkDynamics, LinkShape, QueueDiscipline, RateSchedule};
pub use engine::{Ctx, Engine, EngineError, Node, NodeId, PortNo};
pub use fault::{FaultSpec, Impairment};
pub use link::{LinkId, LinkSpec};
pub use time::{SimDuration, SimTime};
