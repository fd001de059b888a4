//! Cross-crate pipeline tests: testbed ↔ capture ↔ pcap ↔ matching, plus
//! robustness under fault injection and capture noise.

use bnm::browser::{BrowserKind, BrowserProfile};
use bnm::core::matching::match_round;
use bnm::core::scenario::{Scenario, SessionSpec};
use bnm::core::testbed::TestbedConfig;
use bnm::core::{ExperimentCell, ExperimentRunner, RuntimeSel, ServerMarkerIndex};
use bnm::methods::MethodId;
use bnm::sim::pcap;
use bnm::sim::time::SimDuration;
use bnm::timeapi::{MachineTimer, OsKind};

/// The paper's testbed: one `method` session on Chrome/Ubuntu, `seed`
/// for its machine clock and its noise streams, repetition token `rep`.
fn build_seeded(method: MethodId, cfg: &TestbedConfig, rep: u64, seed: u64) -> Scenario {
    let session = SessionSpec {
        id: 0,
        plan: method.plan(None),
        profile: BrowserProfile::build(BrowserKind::Chrome, OsKind::Ubuntu1204).unwrap(),
        machine: MachineTimer::new(OsKind::Ubuntu1204, seed),
        seed,
    };
    Scenario::build(cfg, vec![session], rep)
}

fn build(method: MethodId, cfg: &TestbedConfig, rep: u64) -> Scenario {
    build_seeded(method, cfg, rep, 99)
}

#[test]
fn pcap_export_roundtrips_through_the_parser() {
    let mut sc = build(MethodId::XhrGet, &TestbedConfig::default(), 0);
    sc.run();
    let capture = sc.engine.tap(sc.client_taps[0]);
    let bytes = pcap::to_bytes(capture);
    // Global header.
    assert_eq!(&bytes[..4], &0xa1b2_c3d4u32.to_le_bytes());
    // Walk all records; count parseable Ethernet frames.
    let mut offset = 24;
    let mut frames = 0;
    while offset < bytes.len() {
        let incl = u32::from_le_bytes(bytes[offset + 8..offset + 12].try_into().unwrap()) as usize;
        let frame = &bytes[offset + 16..offset + 16 + incl];
        assert!(
            bnm::sim::wire::EthernetFrame::parse(&bytes::Bytes::copy_from_slice(frame)).is_ok()
        );
        frames += 1;
        offset += 16 + incl;
    }
    assert_eq!(frames, capture.len());
    assert!(frames > 10, "a full session has many packets: {frames}");
}

#[test]
fn client_and_server_captures_tell_one_story() {
    let mut sc = build(MethodId::XhrGet, &TestbedConfig::default(), 7);
    let index = ServerMarkerIndex::new(MethodId::XhrGet, 2, &[7]);
    sc.engine.tap_mut(sc.server_tap).set_sink(Box::new(index));
    sc.run();
    let server = sc.engine.tap_mut(sc.server_tap).take_sink().unwrap();
    let server = server.as_any().downcast_ref::<ServerMarkerIndex>().unwrap();
    let client = sc.engine.tap(sc.client_taps[0]);
    for round in [1u8, 2] {
        let cw = match_round(client, MethodId::XhrGet, round, 7).unwrap();
        let sw = server.server_times(round, 7).unwrap();
        // Causality along the path: client sends, server receives, server
        // replies, client receives.
        assert!(cw.tn_s < sw.request_rx);
        assert!(sw.request_rx <= sw.response_tx);
        assert!(sw.response_tx < cw.tn_r);
        // The server side sits inside the client-observed RTT.
        let client_rtt = cw.tn_r.signed_millis_since(cw.tn_s);
        let server_turn = sw.turnaround_ms();
        assert!(server_turn < client_rtt);
        // One-way 50 ms delay on the server egress: response path ≈ 50 ms.
        let resp_path = cw.tn_r.signed_millis_since(sw.response_tx);
        assert!(
            (49.9..51.0).contains(&resp_path),
            "response path {resp_path}"
        );
    }
}

#[test]
fn capture_noise_perturbs_but_does_not_break_matching() {
    let cell = ExperimentCell {
        capture_noise_ns: 300_000, // the paper's "> 0.3 ms" software bound
        ..ExperimentCell::paper(
            MethodId::WebSocket,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        )
    }
    .with_reps(10);
    let noisy = ExperimentRunner::try_run(&cell).unwrap();
    assert_eq!(noisy.failures, 0);
    let clean = ExperimentRunner::try_run(
        &ExperimentCell::paper(
            MethodId::WebSocket,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        )
        .with_reps(10),
    )
    .unwrap();
    // Noise moves individual Δd by at most ±0.3 ms.
    for (a, b) in noisy.pooled().iter().zip(clean.pooled().iter()) {
        assert!((a - b).abs() <= 0.61, "noise bound violated: {a} vs {b}");
    }
}

#[test]
fn lossy_link_still_yields_measurements_via_retransmission() {
    // Inject loss into the client's egress; TCP recovers and the session
    // completes. Δd may inflate (retransmission timeouts are real time),
    // but the pipeline must not wedge.
    let mut sc = build(MethodId::JavaTcp, &TestbedConfig::default(), 3);
    sc.engine.set_fault(
        0, // client link
        sc.clients[0],
        bnm::sim::fault::FaultSpec {
            drop_chance: 0.15,
            ..bnm::sim::fault::FaultSpec::CLEAN
        },
        bnm::sim::rng::stream(5, "loss"),
    );
    sc.run();
    assert!(
        sc.session(0).result().completed,
        "session survives 15% loss"
    );
    let capture = sc.engine.tap(sc.client_taps[0]);
    for round in [1u8, 2] {
        match_round(capture, MethodId::JavaTcp, round, 3).unwrap();
    }
}

#[test]
fn corrupting_link_is_survived_by_checksums() {
    let mut sc = build(MethodId::XhrGet, &TestbedConfig::default(), 4);
    sc.engine.set_fault(
        1, // server link
        2, // switch end transmits toward... node ids: client=0, server=1, switch=2
        bnm::sim::fault::FaultSpec {
            corrupt_chance: 0.2,
            ..bnm::sim::fault::FaultSpec::CLEAN
        },
        bnm::sim::rng::stream(6, "corrupt"),
    );
    sc.run();
    assert!(sc.session(0).result().completed);
}

#[test]
fn server_handler_delay_is_invisible_to_delta_d() {
    // Δd subtracts network timestamps taken *below* the server delay, so
    // moving 20 ms from the link into the server handler must leave Δd
    // unchanged (it inflates both tB and tN intervals equally).
    let base = ExperimentCell::paper(
        MethodId::XhrGet,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .with_reps(8);
    let plain = ExperimentRunner::try_run(&base).unwrap();

    let mut cfg = TestbedConfig::default();
    cfg.server.handler_delay = SimDuration::from_millis(20);
    let mut sc = build(MethodId::XhrGet, &cfg, 0);
    sc.run();
    let capture = sc.engine.tap(sc.client_taps[0]);
    let rounds = sc.session(0).result().rounds.clone();
    for r in rounds {
        let wire = match_round(capture, MethodId::XhrGet, r.round, 0).unwrap();
        let net_rtt = wire.tn_r.signed_millis_since(wire.tn_s);
        // The handler delay shows up in the *network* RTT…
        assert!(net_rtt > 69.0, "net rtt {net_rtt}");
        let delta = r.browser_rtt_ms() - net_rtt;
        // …but Δd stays in the same band as the plain run.
        let plain_med = bnm::stats::Summary::of(&plain.pooled()).median;
        assert!(
            (delta - plain_med).abs() < 12.0,
            "Δd {delta} vs plain median {plain_med}"
        );
    }
}

#[test]
fn udp_method_end_to_end() {
    let cell = ExperimentCell::paper(
        MethodId::JavaUdp,
        RuntimeSel::Browser(BrowserKind::Firefox),
        OsKind::Ubuntu1204,
    )
    .with_reps(6);
    let r = ExperimentRunner::try_run(&cell).unwrap();
    assert_eq!(r.failures, 0);
    for m in &r.measurements {
        // UDP has no handshake at all: the wire RTT is just delay + wire.
        let rtt = m.network_rtt_ms();
        assert!((50.0..51.0).contains(&rtt), "udp wire rtt {rtt}");
        assert!(m.delta_d_ms() < 2.0);
    }
}

#[test]
fn web_server_served_everything_the_session_needed() {
    let mut sc = build(MethodId::FlashGet, &TestbedConfig::default(), 0);
    sc.run();
    let stats = &sc.web_server().stats;
    assert_eq!(stats.pages, 1, "container page");
    assert!(stats.gets >= 3, "swf + 2 probes, got {}", stats.gets);
    assert_eq!(stats.not_found, 0, "no 404s in a clean session");
}

#[test]
fn cross_traffic_inflates_rtt_but_not_delta_d() {
    use bnm::core::testbed::{CrossTraffic, CLIENT_MAC};
    use bnm::sim::switch::Switch;
    use bnm::sim::wire::EthernetFrame;
    use bnm::stats::Summary;

    // Heavy UDP noise contending on the server link: 1400-byte datagrams
    // at 6000 pps ≈ 67 Mbit/s of a 100 Mbit/s link, echoed back.
    let run_one = |noise: bool| {
        let mut cfg = TestbedConfig::default();
        if noise {
            cfg.cross_traffic = Some(CrossTraffic {
                rate_pps: 6000,
                payload: 1400,
                duration: SimDuration::from_secs(2),
            });
        }
        let mut sc = build_seeded(MethodId::JavaTcp, &cfg, 0, 31);
        sc.run();
        assert!(sc.session(0).result().completed, "session survives load");
        // The noise shares the server link but never the client's: the
        // server's echoes to the noise source are unicast, nothing floods,
        // and the client tap holds only the client's own frames.
        assert_eq!(sc.engine.node_ref::<Switch>(sc.switch).flooded, 0);
        let capture = sc.engine.tap(sc.client_taps[0]);
        for r in capture.records() {
            let eth = EthernetFrame::parse(&r.frame).unwrap();
            assert!(
                eth.src == CLIENT_MAC || eth.dst == CLIENT_MAC,
                "foreign frame in the client tap: {:?} -> {:?}",
                eth.src,
                eth.dst
            );
        }
        let rounds = sc.session(0).result().rounds.clone();
        let mut rtts = Vec::new();
        let mut deltas = Vec::new();
        for r in rounds {
            let w = match_round(capture, MethodId::JavaTcp, r.round, 0).unwrap();
            rtts.push(w.tn_r.signed_millis_since(w.tn_s));
            deltas.push(r.browser_rtt_ms() - w.tn_r.signed_millis_since(w.tn_s));
        }
        (Summary::of(&rtts).median, Summary::of(&deltas).median)
    };
    let (clean_rtt, clean_delta) = run_one(false);
    let (noisy_rtt, noisy_delta) = run_one(true);
    // Queueing inflates the wire RTT itself…
    assert!(
        noisy_rtt > clean_rtt + 0.05,
        "noise must add queueing delay: {clean_rtt} vs {noisy_rtt}"
    );
    // …but Δd (browser minus wire) barely moves: both timestamp pairs
    // absorb the queueing equally. This is why the paper's subtraction
    // methodology is sound.
    assert!(
        (noisy_delta - clean_delta).abs() < 1.5,
        "Δd must be robust to cross traffic: {clean_delta} vs {noisy_delta}"
    );
}
