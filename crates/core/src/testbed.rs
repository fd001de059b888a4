//! The configuration of the paper's Figure 2 testbed.
//!
//! ```text
//!   client ──100 Mbps── switch ──100 Mbps── web server
//!     │                                        └─ 50 ms netem on egress
//!     └─ WinDump/tcpdump (capture tap)
//! ```
//!
//! A [`crate::scenario::Scenario`] wires it: the paper's testbed is the
//! one-session scenario built from [`TestbedConfig::default`].

use std::net::Ipv4Addr;

use bytes::Bytes;

use bnm_http::server::ServerConfig;
use bnm_sim::link::LinkSpec;
use bnm_sim::time::SimDuration;
use bnm_sim::wire::MacAddr;
use bnm_sim::Impairment;
use bnm_sim::LinkShape;

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

/// The parameters of the paper's testbed, shared by every session of a
/// [`crate::scenario::Scenario`].
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
