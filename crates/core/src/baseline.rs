//! ICMP ping baseline — the comparison the paper's related work runs
//! (§6, Yeboah et al.: "the results from Flash socket measurement were
//! close to ping, whereas JavaScript had an inflated delay").
//!
//! A [`PingClient`] sends `ping`-style echo requests through the host's
//! ICMP path; the same testbed, links and 50 ms server delay apply, so
//! its RTTs are directly comparable to the browser methods'.

use std::net::Ipv4Addr;

use bytes::Bytes;

use bnm_sim::engine::Engine;
use bnm_sim::link::LinkSpec;
use bnm_sim::switch::Switch;
use bnm_sim::time::{SimDuration, SimTime};
use bnm_sim::wire::IcmpEcho;
use bnm_tcp::stack::SockEvent;
use bnm_tcp::{Host, HostApp, HostConfig, HostCtx};

use crate::testbed::{CLIENT_IP, CLIENT_MAC, SERVER_IP, SERVER_MAC};

/// A `ping`-like application: one echo request per interval, RTTs
/// recorded from the reply arrivals.
pub struct PingClient {
    target: Ipv4Addr,
    count: u16,
    interval: SimDuration,
    payload_len: usize,
    sent_at: Vec<SimTime>,
    /// Completed (seq, rtt) samples.
    pub rtts: Vec<(u16, SimDuration)>,
}

impl PingClient {
    /// Ping `target` `count` times at `interval`.
    pub fn new(target: Ipv4Addr, count: u16, interval: SimDuration) -> Self {
        PingClient {
            target,
            count,
            interval,
            payload_len: 56, // classic `ping` default
            sent_at: Vec::new(),
            rtts: Vec::new(),
        }
    }

    fn send_one(&mut self, ctx: &mut HostCtx, seq: u16) {
        self.sent_at.push(ctx.now());
        ctx.send_ping(
            self.target,
            0xB32B,
            seq,
            Bytes::from(vec![0x50u8; self.payload_len]),
        );
    }
}

impl HostApp for PingClient {
    fn on_boot(&mut self, ctx: &mut HostCtx) {
        self.send_one(ctx, 0);
        for seq in 1..self.count {
            ctx.set_app_timer(self.interval.saturating_mul(u64::from(seq)), u64::from(seq));
        }
    }
    fn on_event(&mut self, _: &mut HostCtx, _: SockEvent) {}
    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        self.send_one(ctx, token as u16);
    }
    fn on_ping_reply(&mut self, ctx: &mut HostCtx, _from: Ipv4Addr, echo: IcmpEcho) {
        let seq = echo.seq as usize;
        if let Some(&sent) = self.sent_at.get(seq) {
            self.rtts.push((echo.seq, ctx.now().saturating_since(sent)));
        }
    }
}

/// Run the ping baseline on the paper's testbed. Returns RTT samples in
/// fractional milliseconds.
pub fn ping_baseline(count: u16, server_delay: SimDuration) -> Vec<f64> {
    let mut e = Engine::new();
    let client = e.add_node(Box::new(Host::new(
        HostConfig::new("client", CLIENT_MAC, CLIENT_IP).with_neighbor(SERVER_IP, SERVER_MAC),
        PingClient::new(SERVER_IP, count, SimDuration::from_secs(1)),
    )));
    // A passive host standing in for the web server machine (the kernel
    // answers pings; no application is involved).
    struct Idle;
    impl HostApp for Idle {
        fn on_event(&mut self, _: &mut HostCtx, _: SockEvent) {}
    }
    let server = e.add_node(Box::new(Host::new(
        HostConfig::new("server", SERVER_MAC, SERVER_IP).with_neighbor(CLIENT_IP, CLIENT_MAC),
        Idle,
    )));
    let sw = e.add_node(Box::new(Switch::new(2)));
    e.connect(client, 0, sw, 0, LinkSpec::fast_ethernet());
    let server_link = e.connect(server, 0, sw, 1, LinkSpec::fast_ethernet());
    e.set_one_way_delay(server_link, server, server_delay);
    e.run();
    e.node_ref::<Host<PingClient>>(client)
        .app()
        .rtts
        .iter()
        .map(|(_, d)| d.as_millis_f64())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ExperimentCell, RuntimeSel};
    use crate::runner::ExperimentRunner;
    use bnm_browser::BrowserKind;
    use bnm_methods::MethodId;
    use bnm_stats::Summary;
    use bnm_time::{OsKind, TimingApiKind};

    #[test]
    fn ping_sees_the_true_rtt() {
        let rtts = ping_baseline(10, SimDuration::from_millis(50));
        assert_eq!(rtts.len(), 10);
        for r in &rtts {
            assert!((50.0..50.5).contains(r), "ping rtt {r}");
        }
    }

    #[test]
    fn ping_without_delay_is_sub_millisecond() {
        let rtts = ping_baseline(5, SimDuration::ZERO);
        assert!(rtts.iter().all(|r| *r < 1.0));
    }

    /// The Yeboah et al. comparison (§6): socket methods track ping;
    /// HTTP-based JavaScript is inflated.
    #[test]
    fn sockets_track_ping_http_inflates() {
        let ping_med = Summary::of(&ping_baseline(10, SimDuration::from_millis(50))).median;
        let run = |m: MethodId| {
            let cell = ExperimentCell::paper(
                m,
                RuntimeSel::Browser(BrowserKind::Chrome),
                OsKind::Ubuntu1204,
            )
            .with_reps(10)
            .with_timing(match m {
                MethodId::JavaTcp => TimingApiKind::JavaNanoTime,
                _ => TimingApiKind::JsDateGetTime,
            });
            let r = ExperimentRunner::try_run(&cell).unwrap();
            let rtts: Vec<f64> = r.measurements.iter().map(|x| x.browser_rtt_ms()).collect();
            Summary::of(&rtts).median
        };
        let socket_rtt = run(MethodId::JavaTcp);
        let xhr_rtt = run(MethodId::XhrGet);
        assert!(
            (socket_rtt - ping_med).abs() < 1.0,
            "socket {socket_rtt} vs ping {ping_med}"
        );
        assert!(
            xhr_rtt - ping_med > 2.0,
            "XHR {xhr_rtt} must be inflated vs ping {ping_med}"
        );
    }
}
