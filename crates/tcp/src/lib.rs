//! # bnm-tcp — simulated TCP/UDP stack over `bnm-sim`
//!
//! A compact but real TCP implementation in the smoltcp tradition: a
//! synchronous state machine with no internal threading, driven entirely by
//! the discrete-event engine. It provides everything the IMC'13
//! reproduction needs from a transport:
//!
//! * the **3-way handshake** on the wire (SYN carries an MSS option) —
//!   required to reproduce Table 3, where some browser methods silently
//!   include the handshake in their "RTT";
//! * data transfer with MSS segmentation, cumulative ACKs, flow control
//!   against the peer's advertised window, and a Reno-flavoured congestion
//!   window;
//! * RFC 6298-style retransmission timing (SRTT/RTTVAR, exponential
//!   backoff) so the stack survives the fault-injection tests;
//! * orderly close (FIN in both directions, TIME-WAIT) and RST handling;
//! * a minimal **UDP** layer for the Java-applet UDP method listed in the
//!   paper's Table 1.
//!
//! The crate also provides [`host::Host`], a `bnm-sim` node that wires a
//! NIC to an IPv4 layer, the TCP/UDP stacks and an application callback
//! object ([`host::HostApp`]). Browsers (`bnm-browser`) and the web server
//! (`bnm-http`) are `HostApp` implementations.
//!
//! Deliberate simplifications (documented limitations):
//!
//! * no out-of-order reassembly — a gap triggers a duplicate ACK and the
//!   sender's retransmit fills it (the simulated testbed preserves order
//!   unless fault injection is enabled);
//! * no SACK, window scaling, or timestamps — the testbed's
//!   bandwidth-delay product never needs them;
//! * no Nagle, no delayed ACK — every segment leaves at once and every
//!   data segment is acknowledged at once, as the paper's single-packet
//!   probes need;
//! * neighbor resolution is static (no ARP), mirroring an
//!   `ip neigh add`-provisioned testbed.

pub mod buffer;
pub mod host;
pub mod seq;
pub mod socket;
pub mod stack;
pub mod udp;

pub use host::{Host, HostApp, HostConfig, HostCtx};
pub use socket::{SocketId, TcpState};
pub use stack::{SockEvent, TcpStack};
pub use udp::UdpStack;
