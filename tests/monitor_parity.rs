//! Tier-1 guarantees of the continuous-monitoring layer:
//!
//! 1. **Windowed-vs-batch parity** — a monitor stepped N rounds over an
//!    impaired 200-client crowd reports, in every window, sketch
//!    quantiles that agree with the exact R-7 quantiles of the
//!    equivalent batch repetitions' samples within the sketch's
//!    documented relative-error bound, and exact counts/extremes that
//!    match bit-for-bit.
//! 2. **Window rotation** — tumbling and sliding windows drop whole
//!    pans exactly at their span boundary, and `run_for` is
//!    bit-identical to the same number of explicit `step`s.
//! 3. **Serial/parallel snapshot parity** — `CellResult::summary`
//!    produces `==` [`ReportSnapshot`]s whether the executor ran with
//!    one worker or many, and two identically-stepped monitors are
//!    `==` too.
//! 4. **Bounded memory** — a 1,000-round monitored run's footprint
//!    gauges (ring pans, sketch buckets) saturate by round 100 and stay
//!    flat to round 1,000, while the lifetime quantiles still agree
//!    with a 1,000-rep batch run within the error bound.
//! 5. **Bounded-retention exactness** — `SessionSamples::quantile`
//!    under `StreamingSpec::bounded(k)` returns the exact R-7 answer
//!    whenever every sample was retained (`count <= k`).

use bnm::core::report::DistSummary;
use bnm::prelude::*;
use bnm::sim::time::SimDuration;

/// Absolute slack added to every relative-error comparison so bounds
/// around zero-valued quantiles stay meaningful.
const ZERO_EPSILON: f64 = 1e-9;

/// Assert a sketch-derived quantile agrees with the exact value within
/// the sketch's relative-error bound.
fn assert_within(got: f64, exact: f64, eps: f64, what: &str) {
    let tol = eps * got.abs().max(exact.abs()) + ZERO_EPSILON;
    assert!(
        (got - exact).abs() <= tol,
        "{what}: sketch {got} vs exact {exact} (tol {tol})"
    );
}

/// Assert a window's digest agrees with the exact distribution of
/// `samples`: counts and extremes bit-for-bit (the sketch tracks them
/// exactly), every probed quantile within the error bound.
fn assert_digest_matches(got: &DistSummary, samples: &[f64], eps: f64, what: &str) {
    let exact = DistSummary::of_samples(samples);
    assert_eq!(got.count, exact.count, "{what}: count");
    if samples.is_empty() {
        return;
    }
    assert_eq!(got.min, exact.min, "{what}: min");
    assert_eq!(got.max, exact.max, "{what}: max");
    assert_within(got.mean, exact.mean, eps, &format!("{what}: mean"));
    for (g, e, p) in [
        (got.p10, exact.p10, "p10"),
        (got.p25, exact.p25, "p25"),
        (got.p50, exact.p50, "p50"),
        (got.p75, exact.p75, "p75"),
        (got.p90, exact.p90, "p90"),
        (got.p99, exact.p99, "p99"),
    ] {
        assert_within(g, e, eps, &format!("{what}: {p}"));
    }
}

/// Split one repetition's measurements into (d1, d2) sample vectors —
/// every session of the crowd, exactly what the monitor folds.
fn rep_samples(rep: &RepOutcome) -> (Vec<f64>, Vec<f64>) {
    let mut d1 = Vec::new();
    let mut d2 = Vec::new();
    for m in &rep.measurements {
        match m.round {
            1 => d1.push(m.delta_d_ms()),
            _ => d2.push(m.delta_d_ms()),
        }
    }
    (d1, d2)
}

fn find_window<'a>(snap: &'a ReportSnapshot, label: &str) -> &'a bnm::core::WindowReport {
    snap.windows
        .iter()
        .find(|w| w.label == label)
        .unwrap_or_else(|| panic!("no window {label:?}"))
}

/// (1) The headline parity claim: a 200-client impaired crowd, three
/// monitored rounds, every window's quantiles checked against exact
/// R-7 over the same repetitions' samples.
#[test]
fn windowed_quantiles_match_exact_batch_within_bound() {
    let cell = ExperimentCell::builder(
        MethodId::XhrGet,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(3)
    .seed(0xB32B_6001)
    .contention(ContentionSpec::clients(200).with_server_link_rate(6_250 * 200))
    .impairment(Impairment::loss(0.02))
    .streaming(StreamingSpec::serve())
    .build()
    .unwrap();

    // Exact reference: the same repetitions the monitor replays,
    // collected per-rep so per-window membership is known.
    let reps: Vec<RepOutcome> = (0..3)
        .map(|r| ExperimentRunner::run_rep_traced(&cell, r).expect("rep runs"))
        .collect();
    let per_rep: Vec<(Vec<f64>, Vec<f64>)> = reps.iter().map(rep_samples).collect();
    let all_d1: Vec<f64> = per_rep.iter().flat_map(|(d1, _)| d1.clone()).collect();
    let all_d2: Vec<f64> = per_rep.iter().flat_map(|(_, d2)| d2.clone()).collect();
    assert!(
        all_d1.len() >= 200,
        "crowd should yield at least one d1 sample per client"
    );

    let mut monitor = Monitor::new(cell).unwrap();
    for _ in 0..3 {
        monitor.step();
    }
    let snap = monitor.snapshot();
    let eps = snap.relative_error_bound;
    assert!(eps > 0.0 && eps < 0.05, "documented bound is small: {eps}");

    // The 10s / 1m windows and the lifetime digest all cover rounds
    // 0..3 (recorded at t = 0, 1, 2 s).
    for label in ["10s", "1m", "total"] {
        let w = find_window(&snap, label);
        assert_eq!(w.rounds, 3, "{label}: rounds");
        assert_digest_matches(&w.d1, &all_d1, eps, &format!("{label}/d1"));
        assert_digest_matches(&w.d2, &all_d2, eps, &format!("{label}/d2"));
        let pooled: Vec<f64> = all_d1.iter().chain(&all_d2).copied().collect();
        assert_digest_matches(&w.pooled, &pooled, eps, &format!("{label}/pooled"));
    }

    // The tumbling 1 s window holds only the last round.
    let w1 = find_window(&snap, "1s");
    assert_eq!(w1.rounds, 1);
    assert_digest_matches(&w1.d1, &per_rep[2].0, eps, "1s/d1");
    assert_digest_matches(&w1.d2, &per_rep[2].1, eps, "1s/d2");

    // Exclusions under 2% loss fold into the counters identically.
    let total_excluded: u64 = reps.iter().map(|r| r.excluded as u64).sum();
    assert_eq!(snap.excluded_rounds, total_excluded);
    assert_eq!(find_window(&snap, "total").excluded_rounds, total_excluded);
}

/// (2) Rotation boundaries: pans drop exactly at span edges, and
/// `run_for` equals explicit stepping bit-for-bit.
#[test]
fn window_rotation_boundary_and_stepping_parity() {
    let cell = ExperimentCell::builder(
        MethodId::XhrGet,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(1)
    .seed(0xB32B_6002)
    .build()
    .unwrap();

    let mut stepped = Monitor::new(cell.clone()).unwrap();
    let mut boundary_counts = Vec::new();
    for _ in 0..12 {
        stepped.step();
        let snap = stepped.snapshot();
        boundary_counts.push((
            find_window(&snap, "1s").rounds,
            find_window(&snap, "10s").rounds,
        ));
    }
    // Tumbling 1-pan window always holds exactly the last round; the
    // 10-pan window grows to ten rounds and then slides.
    let want: Vec<(u64, u64)> = (1..=12).map(|n| (1, n.min(10))).collect();
    assert_eq!(boundary_counts, want);
    let snap = stepped.snapshot();
    assert_eq!(snap.total().rounds, 12, "lifetime keeps everything");
    assert_eq!(find_window(&snap, "1s").d1.count, 1);
    assert_eq!(find_window(&snap, "10s").d1.count, 10);
    assert_eq!(find_window(&snap, "1m").d1.count, 12);
    assert_eq!(snap.total().d1.count, 12);

    let mut ran = Monitor::new(cell).unwrap();
    ran.run_for(SimDuration::from_secs(12));
    assert_eq!(
        ran.snapshot(),
        snap,
        "run_for(12s) == twelve explicit steps, bit-for-bit"
    );
}

/// (3) The summary shape is executor-schedule-independent: serial and
/// parallel runs produce `==` snapshots.
#[test]
fn serial_and_parallel_summaries_are_bit_identical() {
    let cell = ExperimentCell::builder(
        MethodId::XhrGet,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(4)
    .seed(0xB32B_6003)
    .contention(ContentionSpec::clients(16).with_server_link_rate(2_000_000))
    .impairment(Impairment::loss(0.03))
    .streaming(StreamingSpec::bounded(8))
    .build()
    .unwrap();

    let run = |workers: usize| {
        let mut results = Executor::with_workers(workers).run(std::slice::from_ref(&cell));
        results.pop().unwrap().expect("cell runs")
    };
    let serial = run(1).summary(&cell);
    let parallel = run(4).summary(&cell);
    assert_eq!(serial, parallel, "summary must not depend on scheduling");
    assert!(serial.total().pooled.count > 0);
    assert!(serial.verdict().is_some());
}

/// (4) Memory stays bounded over a long monitored run: the footprint
/// gauges saturate and the lifetime quantiles remain within the bound
/// of an exact 1,000-rep batch run.
#[test]
fn thousand_round_run_holds_footprint_flat() {
    let cell = ExperimentCell::builder(
        MethodId::XhrGet,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(1000)
    .seed(0xB32B_6004)
    .streaming(StreamingSpec::serve())
    .build()
    .unwrap();

    let mut monitor = Monitor::new(cell.clone()).unwrap();
    monitor.run_for(SimDuration::from_secs(100));
    let at_100 = monitor.footprint();
    monitor.run_for(SimDuration::from_secs(900));
    let at_1000 = monitor.footprint();

    // Pans are bounded by the longest window (60 one-second pans), not
    // the round count: identical at rounds 100 and 1,000.
    assert_eq!(at_100.pans, 60);
    assert_eq!(at_1000.pans, 60, "the pan ring grew");
    // Buckets are bounded by the sketch resolution over the value
    // range; 10x the rounds must not mean 10x the buckets.
    assert!(
        at_1000.sketch_buckets <= 2 * at_100.sketch_buckets,
        "sketch buckets {} -> {} (not bounded)",
        at_100.sketch_buckets,
        at_1000.sketch_buckets
    );

    // And the accuracy contract still holds at round 1,000: lifetime
    // quantiles agree with the exact batch distribution of the same
    // 1,000 repetitions.
    let batch = ExperimentRunner::try_run(&cell).unwrap();
    let snap = monitor.snapshot();
    assert_eq!(snap.rounds, 1000);
    let eps = snap.relative_error_bound;
    // serve() retention truncates the batch flat vectors at 64, but the
    // per-session sketches saw every sample — compare via the session's
    // quantile API (exact-or-sketch) against the monitor's digests.
    let session = &batch.sessions[0];
    for (round, digest) in [(1u8, &snap.total().d1), (2u8, &snap.total().d2)] {
        assert_eq!(digest.count, session.count(round), "round {round} count");
        for p in [0.10, 0.50, 0.90] {
            let got = match p {
                0.10 => digest.p10,
                0.50 => digest.p50,
                _ => digest.p90,
            };
            // Both sides carry the sketch bound, so allow it twice.
            let exact = session.quantile(round, p);
            assert_within(got, exact, 2.0 * eps, &format!("round {round} p{p}"));
        }
    }
}

/// (5) The bounded-retention quantile bugfix: when `count <= k`, the
/// raw vector retained every sample and `quantile` must be the exact
/// R-7 answer bit-for-bit, not the sketch estimate.
#[test]
fn bounded_retention_prefers_exact_quantiles_when_complete() {
    let cell = ExperimentCell::builder(
        MethodId::XhrGet,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(6)
    .seed(0xB32B_6005)
    .streaming(StreamingSpec::bounded(8))
    .build()
    .unwrap();
    let result = ExperimentRunner::try_run(&cell).unwrap();
    let session = &result.sessions[0];
    assert!(session.sketches.is_some(), "bounded mode sketches");
    for round in [1u8, 2] {
        let raw = match round {
            1 => &session.d1,
            _ => &session.d2,
        };
        assert_eq!(raw.len(), 6, "retention 8 keeps all 6 samples");
        let exact = DistSummary::of_samples(raw);
        assert_eq!(session.quantile(round, 0.10), exact.p10, "round {round}");
        assert_eq!(session.quantile(round, 0.50), exact.p50, "round {round}");
        assert_eq!(session.quantile(round, 0.90), exact.p90, "round {round}");
    }
}
