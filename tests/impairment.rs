//! End-to-end guarantees of the impairment subsystem:
//!
//! 1. **Fault rates compose** — the injector's empirical drop /
//!    corruption / duplication rates match the configured chances,
//!    accounting for the draw order (corruption is only drawn for
//!    surviving frames, duplication only for uncorrupted survivors).
//! 2. **Exclusion rule** — a lossy cell excludes every round whose
//!    probe was retransmitted on the wire, counts them, and keeps the
//!    attribution closure (< 1 µs residual, zero retrans component) on
//!    the rounds it reports.
//! 3. **Determinism** — impaired cells are bit-identical between
//!    serial and parallel execution, and across repeated runs.
//! 4. **The knob at rest is invisible** — an explicit
//!    [`Impairment::NONE`] produces byte-identical output to a cell
//!    that never mentions impairment.
//! 5. **No false exclusions** — a crowd whose HTTP tokens prefix each
//!    other in decimal excludes nothing when nothing is lost.

#![deny(deprecated)]

use bytes::Bytes;
use proptest::prelude::*;

use bnm::prelude::*;
use bnm::sim::fault::{FaultAction, FaultInjector};
use bnm::sim::rng;
use bnm::sim::time::SimDuration;

fn lossy_cell(loss: f64, reps: u32) -> ExperimentCell {
    ExperimentCell::builder(
        MethodId::WebSocket,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(reps)
    .seed(0xB32B_10CC)
    .impairment(Impairment::loss(loss))
    .trace(true)
    .build()
    .unwrap()
}

proptest! {
    /// Empirical fault rates over many frames track the configured
    /// chances. Because the injector draws drop → corrupt → duplicate,
    /// the expected corruption rate is `(1−d)·c` and the expected
    /// duplication rate `(1−d)·(1−c)·p`.
    #[test]
    fn fault_rates_compose_as_conditional_probabilities(
        drop_pct in 0u32..=30,
        corrupt_pct in 0u32..=30,
        dup_pct in 0u32..=30,
        seed in any::<u64>(),
    ) {
        let d = f64::from(drop_pct) / 100.0;
        let c = f64::from(corrupt_pct) / 100.0;
        let p = f64::from(dup_pct) / 100.0;
        let spec = FaultSpec {
            drop_chance: d,
            corrupt_chance: c,
            duplicate_chance: p,
        };
        let mut inj = FaultInjector::new(spec, rng::stream(seed, "fault.prop"));
        const N: u64 = 20_000;
        for _ in 0..N {
            match inj.apply(Bytes::from_static(b"sixteen payload!")) {
                FaultAction::Drop
                | FaultAction::Deliver(_)
                | FaultAction::DeliverCorrupted(_)
                | FaultAction::Duplicate(_) => {}
            }
        }
        let (drops, corruptions, duplicates) = inj.counters();
        let n = N as f64;
        // Binomial σ ≤ 0.5/√N ≈ 0.0035; 5σ gives a comfortably
        // flake-free tolerance.
        let tol = 0.018;
        prop_assert!((drops as f64 / n - d).abs() < tol, "drop rate {}", drops as f64 / n);
        prop_assert!(
            (corruptions as f64 / n - (1.0 - d) * c).abs() < tol,
            "corrupt rate {}",
            corruptions as f64 / n
        );
        prop_assert!(
            (duplicates as f64 / n - (1.0 - d) * (1.0 - c) * p).abs() < tol,
            "duplicate rate {}",
            duplicates as f64 / n
        );
    }
}

/// The tentpole e2e: a lossy WebSocket cell excludes retransmitted
/// rounds (counting them), never folds an RTO into Δd, and keeps the
/// attribution closure on every round it reports.
#[test]
fn lossy_websocket_excludes_retransmitted_rounds_and_keeps_closure() {
    let reps = 40;
    let r = ExperimentRunner::try_run(&lossy_cell(0.05, reps)).unwrap();
    assert!(
        r.excluded_rounds > 0,
        "5% loss over {reps} reps must retransmit at least once"
    );
    assert_eq!(r.failures, 0, "loss must exclude rounds, not fail reps");
    // Every round is either measured or excluded — none vanish.
    assert_eq!(
        r.d1.len() + r.d2.len() + r.excluded_rounds as usize,
        2 * reps as usize
    );
    assert_eq!(r.attributions.len(), r.measurements.len());
    for a in &r.attributions {
        // A retransmission costs a whole RTO (hundreds of ms). An
        // included round must show neither the wait itself …
        assert_eq!(
            a.retrans_ms, 0.0,
            "rep {} round {}: retransmitted round leaked past the matcher",
            a.rep, a.round
        );
        // … nor any unexplained remainder.
        assert!(
            a.residual_ms.abs() < 1e-3,
            "rep {} round {}: residual {} ms",
            a.rep,
            a.round,
            a.residual_ms
        );
    }
    // And the included Δd stay in the clean WebSocket regime: far below
    // the ~200 ms RTO a leaked retransmission would add.
    for &d in r.d1.iter().chain(&r.d2) {
        assert!(d < 50.0, "Δd {d} ms looks like an absorbed retransmission");
    }
}

/// Corruption and duplication exercise the other two exclusion paths:
/// a corrupted probe dies at the receiver's checksum (acting as loss),
/// a duplicated response hits the client capture twice. Both must be
/// excluded, not absorbed.
#[test]
fn corruption_and_duplication_are_excluded_like_loss() {
    let imp = Impairment {
        up: FaultSpec {
            corrupt_chance: 0.05,
            ..FaultSpec::CLEAN
        },
        down: FaultSpec {
            duplicate_chance: 0.05,
            ..FaultSpec::CLEAN
        },
        jitter: SimDuration::ZERO,
    };
    let cell = ExperimentCell::builder(
        MethodId::WebSocket,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(40)
    .seed(0xB32B_C0DE)
    .impairment(imp)
    .build()
    .unwrap();
    let r = ExperimentRunner::try_run(&cell).unwrap();
    assert!(
        r.excluded_rounds > 0,
        "corruption/duplication must exclude rounds"
    );
    assert_eq!(r.failures, 0);
    for &d in r.d1.iter().chain(&r.d2) {
        assert!(d < 50.0, "Δd {d} ms on an included round");
    }
}

/// Jitter spreads Δd without breaking anything: the included rounds
/// still match and the spread stays within the jitter bound.
#[test]
fn jitter_spreads_delta_d_within_the_bound() {
    let jitter = SimDuration::from_millis(2);
    let cell = ExperimentCell::builder(
        MethodId::WebSocket,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(20)
    .seed(0xB32B_717E)
    .impairment(Impairment::NONE.with_jitter(jitter))
    .build()
    .unwrap();
    let jittered = ExperimentRunner::try_run(&cell).unwrap();
    let clean = ExperimentRunner::try_run(&cell.clone().with_impairment(Impairment::NONE)).unwrap();
    assert_eq!(jittered.failures, 0);
    assert_eq!(
        jittered.excluded_rounds, 0,
        "jitter alone never retransmits"
    );
    assert_ne!(jittered.d1, clean.d1, "2 ms of jitter must be visible");
    // Jitter delays the response by at most `bound`, so Δd (browser
    // minus wire interval) can move by at most that much either way.
    for (j, c) in jittered.pooled().iter().zip(clean.pooled()) {
        assert!((j - c).abs() <= 2.0 + 1e-9, "jittered {j} vs clean {c}");
    }
}

/// Impaired cells keep the executor's bit-identical parallel/serial
/// guarantee: the fault and jitter streams derive from (seed, rep)
/// alone, so scheduling cannot leak into the numbers.
#[test]
fn impaired_cells_are_bit_identical_across_schedulers_and_runs() {
    let cells = vec![lossy_cell(0.03, 12), lossy_cell(0.05, 12)];
    let serial = Executor::serial().run(&cells);
    let parallel = Executor::with_workers(4).run(&cells);
    let again = Executor::with_workers(2).run(&cells);
    for ((s, p), a) in serial.iter().zip(&parallel).zip(&again) {
        let (s, p, a) = (
            s.as_ref().unwrap(),
            p.as_ref().unwrap(),
            a.as_ref().unwrap(),
        );
        for other in [p, a] {
            assert_eq!(s.d1, other.d1);
            assert_eq!(s.d2, other.d2);
            assert_eq!(s.excluded_rounds, other.excluded_rounds);
            assert_eq!(s.failures, other.failures);
            assert_eq!(s.traces.len(), other.traces.len());
            for (st, ot) in s.traces.iter().zip(&other.traces) {
                assert_eq!(st.to_json(), ot.to_json());
            }
        }
    }
}

/// An XHR crowd on a 100 Mbps shared link at a loss rate that never
/// fires: the server tap is indexed (the cell is impaired), but nothing
/// is dropped, so no round may be excluded.
fn lossless_xhr_crowd(clients: u32, reps: u32) -> ExperimentCell {
    ExperimentCell::builder(
        MethodId::XhrGet,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(reps)
    .seed(0xB32B_2013)
    .impairment(Impairment::loss(1e-12))
    .contention(ContentionSpec::clients(clients).with_server_link_rate(100_000_000))
    .build()
    .unwrap()
}

/// HTTP request markers end at the token (`m=xhr_get&r=1&t=7`), and
/// tokens are `session << 32 | rep` in decimal, so one session's token
/// can prefix another's: in rep 0 session s's token times ten is session
/// 10s's, and in rep r session 0's token is `r`. A marker matches only
/// the whole digit run after `t=`, so another session's request is never
/// counted as a retransmission of this one.
#[test]
fn prefix_colliding_tokens_exclude_no_rounds() {
    for (clients, reps) in [(8, 10), (1000, 1)] {
        let r = ExperimentRunner::try_run(&lossless_xhr_crowd(clients, reps)).unwrap();
        assert_eq!(r.failures, 0, "{clients} clients x {reps} reps");
        assert_eq!(
            r.excluded_rounds, 0,
            "{clients} clients x {reps} reps: nothing was lost, nothing may be excluded"
        );
    }
}
