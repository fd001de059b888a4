//! Tier-1 guarantees of the WebRTC datagram method:
//!
//! 1. **Wire-truth exactness** — the per-probe verdict counters
//!    (sent / delivered / lost-by-direction) agree *exactly* with the
//!    marker counts in the two capture taps, reproduced here by
//!    rebuilding the runner's testbed rep by rep.
//! 2. **Loss is a measurement, not an exclusion** — the measured loss
//!    rate tracks the injected frame-drop rate across a 0–5% sweep
//!    while `excluded_rounds` stays zero (nothing retransmits on an
//!    unreliable channel, so the §3.2 rule never fires).
//! 3. **Scheduler parity** — datagram cells are bit-identical between
//!    the serial and the work-stealing executor, datagram samples
//!    included.
//! 4. **Seed determinism** — same seed, same appraisal; different
//!    seed, different wire.
//! 5. **Attribution closure** — on delivered probes the traced Δd
//!    decomposition closes to < 1 µs.

#![deny(deprecated)]

use bnm::core::matching::{request_marker, ParsedCapture};
use bnm::prelude::*;
use bnm::sim::capture::CaptureDir;
use bnm::sim::rng;
use bnm::sim::time::SimDuration;
use bnm::timeapi::MachineTimer;

fn cell(reps: u32, seed: u64, loss: f64, trace: bool) -> ExperimentCell {
    let mut b = ExperimentCell::builder(
        MethodId::WebRtc,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(reps)
    .seed(seed);
    if loss > 0.0 {
        b = b.impairment(Impairment::loss(loss));
    }
    if trace {
        b = b.trace(true);
    }
    b.build().unwrap()
}

fn datagram_of(r: &bnm::core::runner::CellResult) -> &bnm::core::runner::DatagramSamples {
    r.sessions
        .iter()
        .find_map(|s| s.datagram.as_ref())
        .expect("webrtc cell yields datagram samples")
}

/// (1) Rebuild the runner's testbed for every rep (same derivations:
/// machine timeline at 4 s offsets, session seed xor rep, capture
/// seed), count the probe marker per direction in both taps, and
/// require the runner's verdict counters to match those wire-truth
/// counts *exactly* — no probe unaccounted for, none double-counted.
#[test]
fn per_probe_verdicts_match_wire_truth_exactly() {
    let reps = 6u32;
    let c = cell(reps, 0x3A11_0DD5, 0.08, false);
    let result = ExperimentRunner::try_run(&c).unwrap();
    assert_eq!(result.failures, 0);
    let d = datagram_of(&result);

    let machine_seed = rng::derive_seed(c.seed, &format!("machine.{}", c.label()));
    let session_seed = rng::derive_seed(c.seed, &format!("session.{}", c.label()));
    let plan = c.method.plan(c.timing_override);
    let (mut sent, mut delivered, mut lost_up, mut lost_down) = (0u64, 0u64, 0u64, 0u64);
    for rep in 0..reps {
        let machine = MachineTimer::new(c.os, machine_seed)
            .at_offset(SimDuration::from_secs(4).saturating_mul(u64::from(rep)));
        let cfg = TestbedConfig {
            server_delay: c.server_delay,
            capture_noise_ns: c.capture_noise_ns,
            seed: rng::derive_seed(c.seed, "capture"),
            impairment: c.impairment,
            ..TestbedConfig::default()
        };
        let session = SessionSpec {
            id: 0,
            plan: plan.clone(),
            profile: bnm::browser::BrowserProfile::build(BrowserKind::Chrome, c.os).unwrap(),
            machine,
            seed: session_seed ^ u64::from(rep),
        };
        let mut sc = Scenario::build(&cfg, vec![session], u64::from(rep));
        sc.run();
        let client = ParsedCapture::parse(sc.engine.tap(sc.client_taps[0]));
        let server = ParsedCapture::parse(sc.engine.tap(sc.server_tap));
        let token = u64::from(rep);
        for seq in 1..=MethodId::WEBRTC_TRAIN_LEN {
            let marker = request_marker(MethodId::WebRtc, seq, token);
            assert!(
                !client.hits(CaptureDir::Tx, &marker).is_empty(),
                "rep {rep} probe {seq} never left the client NIC"
            );
            sent += 1;
            if server.hits(CaptureDir::Rx, &marker).is_empty() {
                lost_up += 1;
            } else if client.hits(CaptureDir::Rx, &marker).is_empty() {
                lost_down += 1;
            } else {
                delivered += 1;
            }
        }
    }
    assert_eq!(d.sent, sent, "sent probes vs wire truth");
    assert_eq!(d.delivered, delivered, "delivered probes vs wire truth");
    assert_eq!(d.lost_upstream, lost_up, "upstream losses vs wire truth");
    assert_eq!(
        d.lost_downstream, lost_down,
        "downstream losses vs wire truth"
    );
    // The upstream OWD is measurable for every probe that reached the
    // server — including those whose echo then died downstream.
    assert_eq!(
        d.owd_up_ms.len() as u64,
        delivered + lost_down,
        "one upstream OWD per probe that reached the server"
    );
    assert_eq!(
        d.owd_down_ms.len() as u64,
        delivered,
        "one downstream OWD per delivered probe"
    );
}

/// (2) Measured loss tracks the injected frame-drop rate across the
/// 0–5% sweep, and no rounds are ever excluded: on an unreliable
/// channel a lost probe is a data point, not a retransmission to hide.
#[test]
fn measured_loss_tracks_the_injected_rate() {
    let reps = 40u32; // 640 probes, two loss coin-flips each
    let mut last = -1.0f64;
    for pct in [0.0f64, 1.0, 2.0, 5.0] {
        let c = cell(reps, 0xD06_F00D, pct / 100.0, false);
        let r = ExperimentRunner::try_run(&c).unwrap();
        assert_eq!(r.failures, 0, "loss must not fail reps");
        assert_eq!(r.excluded_rounds, 0, "datagram cells exclude nothing");
        let d = datagram_of(&r);
        assert_eq!(
            d.sent,
            u64::from(reps) * u64::from(MethodId::WEBRTC_TRAIN_LEN)
        );
        assert_eq!(
            d.delivered + d.lost_upstream + d.lost_downstream,
            d.sent,
            "every probe gets exactly one verdict"
        );
        let measured = d.loss_rate() * 100.0;
        if pct == 0.0 {
            assert_eq!(measured, 0.0, "clean network must measure zero loss");
        } else {
            // Each probe survives two independent drop chances (up and
            // down), so the expected end-to-end rate is 1-(1-p)^2 ≈ 2p;
            // allow generous binomial slack around it.
            let expected = (1.0 - (1.0 - pct / 100.0).powi(2)) * 100.0;
            assert!(
                (measured - expected).abs() < expected * 0.75 + 1.0,
                "{pct}% injected: measured {measured:.2}% vs expected {expected:.2}%"
            );
            assert!(
                measured > last,
                "loss must grow with the injected rate ({measured:.2}% after {last:.2}%)"
            );
        }
        last = measured;
    }
}

/// (3) Datagram cells keep the executor's bit-parity guarantee — the
/// per-probe appraisal included.
#[test]
fn webrtc_cells_are_bit_identical_across_schedulers() {
    let cells = vec![cell(8, 0xB32B_2013, 0.05, false)];
    let serial = Executor::serial().run(&cells);
    let parallel = Executor::with_workers(4).run(&cells);
    let (s, p) = (serial[0].as_ref().unwrap(), parallel[0].as_ref().unwrap());
    assert_eq!(s.measurements, p.measurements);
    assert_eq!(s.d1, p.d1);
    assert_eq!(s.d2, p.d2);
    assert_eq!(s.sessions.len(), p.sessions.len());
    for (ss, ps) in s.sessions.iter().zip(&p.sessions) {
        assert_eq!(ss.session, ps.session);
        assert_eq!(ss.datagram, ps.datagram, "session {} datagram", ss.session);
    }
}

/// (4) Same seed, same appraisal; a different seed rolls different
/// loss coins and lands different wire stamps.
#[test]
fn seed_determines_the_appraisal() {
    let a = ExperimentRunner::try_run(&cell(6, 7, 0.05, false)).unwrap();
    let b = ExperimentRunner::try_run(&cell(6, 7, 0.05, false)).unwrap();
    assert_eq!(a.measurements, b.measurements);
    assert_eq!(datagram_of(&a), datagram_of(&b));
    let c = ExperimentRunner::try_run(&cell(6, 8, 0.05, false)).unwrap();
    assert_ne!(
        datagram_of(&a).owd_down_ms,
        datagram_of(&c).owd_down_ms,
        "different seeds must land different wire stamps"
    );
}

/// (5) Traced datagram reps attribute every delivered probe's Δd with
/// a residual under 1 µs.
#[test]
fn attribution_closes_on_delivered_probes() {
    let c = cell(4, 0xB32B_2013, 0.03, true);
    let r = ExperimentRunner::try_run(&c).unwrap();
    assert_eq!(r.traces.len(), 4);
    assert!(!r.attributions.is_empty());
    assert_eq!(r.attributions.len(), r.measurements.len());
    for a in &r.attributions {
        assert!(
            a.residual_ms.abs() < 1e-3,
            "rep {} round {}: residual {} ms",
            a.rep,
            a.round,
            a.residual_ms
        );
    }
}
