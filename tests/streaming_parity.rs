//! Tier-1 guarantees of the streaming capture pipeline:
//!
//! 1. **Oracle parity** — every repetition the runner streams through
//!    marker sinks equals the batch reference matcher
//!    (`support::oracle`: retained taps, then `ParsedCapture` /
//!    `match_datagram_train`) field for field. Asserted over clean,
//!    lossy, duplicating, jittered and noisy-capture networks (plus one
//!    that both duplicates and reorders), 1, 3 and 8 clients, and
//!    XHR GET, Flash GET (Opera/Win7), WebSocket and WebRTC — and, for
//!    WebRTC, over random seeds and loss rates. The server tap's index
//!    reports the §7 server turnaround the retained capture shows.
//! 2. **Bounded memory** — with sinks consuming records at capture time,
//!    the frame pool's per-client live-buffer high-water mark does not
//!    grow with the client count.
//! 3. **Bounded retention** — with a `session_retention` threshold the
//!    raw vectors truncate but the sketches still see every sample and
//!    report quantiles within their documented error bound.

mod support;

use bnm::browser::{session_token, BrowserProfile};
use bnm::core::matching::{request_marker, response_marker, ParsedCapture};
use bnm::core::ServerMarkerIndex;
use bnm::prelude::*;
use bnm::sim::capture::CaptureDir;
use bnm::sim::time::SimDuration;
use bnm::timeapi::MachineTimer;
use proptest::prelude::*;

use support::oracle;

fn base_cell(clients: u32, reps: u32) -> CellBuilder {
    ExperimentCell::builder(
        MethodId::XhrGet,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(reps)
    .seed(0xB32B_57E4)
    .contention(ContentionSpec::clients(clients).with_server_link_rate(2_000_000))
}

/// The methods of the oracle matrix, each on a runtime that can run it.
const METHODS: [(MethodId, BrowserKind, OsKind); 4] = [
    (MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204),
    (MethodId::FlashGet, BrowserKind::Opera, OsKind::Windows7),
    (MethodId::WebSocket, BrowserKind::Chrome, OsKind::Ubuntu1204),
    (MethodId::WebRtc, BrowserKind::Chrome, OsKind::Ubuntu1204),
];

/// The networks of the oracle matrix: `(name, impairment, capture noise ns)`.
fn networks() -> Vec<(&'static str, Impairment, u64)> {
    let duplicate = FaultSpec {
        duplicate_chance: 0.08,
        ..FaultSpec::CLEAN
    };
    vec![
        ("clean", Impairment::NONE, 0),
        ("loss 5%", Impairment::loss(0.05), 0),
        (
            "duplicate",
            Impairment {
                up: duplicate,
                down: duplicate,
                jitter: SimDuration::ZERO,
            },
            0,
        ),
        (
            "jitter 3 ms",
            Impairment::NONE.with_jitter(SimDuration::from_millis(3)),
            0,
        ),
        ("capture noise 400 us", Impairment::NONE, 400_000),
        // Jitter wider than the WebRTC train's 20 ms probe spacing lets
        // echoes overtake each other: duplicated *and* reordered probes.
        (
            "duplicate + jitter 30 ms",
            Impairment {
                up: duplicate,
                down: duplicate,
                jitter: SimDuration::from_millis(30),
            },
            0,
        ),
    ]
}

fn matrix_cell(
    (method, browser, os): (MethodId, BrowserKind, OsKind),
    clients: u32,
    imp: Impairment,
    noise_ns: u64,
) -> ExperimentCell {
    ExperimentCell::builder(method, RuntimeSel::Browser(browser), os)
        .reps(2)
        .seed(0xB32B_0AC1)
        .impairment(imp)
        .capture_noise_ns(noise_ns)
        .contention(ContentionSpec::clients(clients).with_server_link_rate(2_000_000))
        .build()
        .unwrap()
}

/// (1) The streaming runner equals the batch oracle on every case of the
/// matrix, and the matrix is not vacuous: some round is excluded, and
/// some WebRTC case sees both duplicated and reordered probes.
#[test]
fn streaming_mode_is_bit_identical_to_batch() {
    let mut excluded = 0;
    let mut dup_and_reorder = false;
    for (net, imp, noise_ns) in networks() {
        for clients in [1, 3, 8] {
            for m in METHODS {
                let cell = matrix_cell(m, clients, imp, noise_ns);
                for rep in 0..cell.reps {
                    let what = format!("{} / {net} / {clients} clients / rep {rep}", cell.label());
                    let runner = ExperimentRunner::run_rep_traced(&cell, rep);
                    oracle::assert_same(&runner, &oracle::rep(&cell, rep), &what);
                    let Ok(o) = runner else { continue };
                    excluded += o.excluded;
                    dup_and_reorder |= o
                        .datagram
                        .iter()
                        .any(|(_, d)| d.duplicated > 0 && d.reordered > 0);
                }
            }
        }
    }
    assert!(excluded > 0, "no case excluded a round; parity is vacuous");
    assert!(
        dup_and_reorder,
        "no WebRTC case saw duplicated and reordered probes; parity is vacuous"
    );
}

/// (1b) An impaired contended cell actually excludes rounds — otherwise
/// the parity above would not be exercising the retransmission rule.
#[test]
fn impaired_parity_cells_exercise_exclusions() {
    let cell = base_cell(3, 4)
        .impairment(Impairment::loss(0.05))
        .build()
        .unwrap();
    let r = ExperimentRunner::try_run(&cell).unwrap();
    assert!(
        r.excluded_rounds > 0 || r.failures > 0,
        "loss 5% produced neither exclusions nor failures; parity test is vacuous"
    );
}

/// (1d) The §7 server turnaround the server tap's index reports is the
/// first request on Rx and the first response on Tx that
/// `ParsedCapture::evidence` finds in the retained server capture of the
/// same run, on a lossy 3-client network, for a request/response method
/// and an echo method. Some marker repeats at the server, so "first" is
/// exercised.
#[test]
fn server_times_match_the_retained_server_capture() {
    let cfg = TestbedConfig {
        impairment: Impairment::loss(0.05),
        ..TestbedConfig::default()
    };
    let mut repeated = 0;
    for method in [MethodId::XhrGet, MethodId::WebSocket] {
        let plan = method.plan(None);
        for rep in 0..4 {
            let build = || {
                let sessions = (0..3)
                    .map(|id| SessionSpec {
                        id,
                        plan: plan.clone(),
                        profile: BrowserProfile::build(BrowserKind::Chrome, OsKind::Ubuntu1204)
                            .unwrap(),
                        machine: MachineTimer::new(OsKind::Ubuntu1204, 40 + id),
                        seed: 40 + id,
                    })
                    .collect();
                Scenario::build(&cfg, sessions, rep)
            };
            let tokens: Vec<u64> = (0..3).map(|id| session_token(id, rep)).collect();
            let mut streamed = build();
            let index = ServerMarkerIndex::new(method, plan.rounds, &tokens);
            streamed
                .engine
                .tap_mut(streamed.server_tap)
                .set_sink(Box::new(index));
            streamed.run();
            let sink = streamed
                .engine
                .tap_mut(streamed.server_tap)
                .take_sink()
                .unwrap();
            let index = sink.as_any().downcast_ref::<ServerMarkerIndex>().unwrap();
            let mut retained = build();
            retained.run();
            let capture = ParsedCapture::parse(retained.engine.tap(retained.server_tap));
            for &token in &tokens {
                for round in 1..=plan.rounds {
                    let req =
                        capture.evidence(CaptureDir::Rx, &request_marker(method, round, token));
                    let resp =
                        capture.evidence(CaptureDir::Tx, &response_marker(method, round, token));
                    repeated += usize::from(req.repeated() || resp.repeated());
                    let what = format!("{method} rep {rep} token {token:#x} round {round}");
                    let st = index.server_times(round, token).expect(&what);
                    assert_eq!(
                        (Some(st.request_rx), Some(st.response_tx)),
                        (req.first, resp.first),
                        "{what}"
                    );
                }
            }
        }
    }
    assert!(
        repeated > 0,
        "no marker repeated at the server; parity is vacuous"
    );
}

proptest! {
    /// (1c) A 4-client WebRTC cell matches the oracle whatever the seed
    /// and loss rate.
    #[test]
    fn webrtc_crowd_matches_the_oracle(seed in any::<u64>(), loss in 0.0f64..0.2) {
        let cell = ExperimentCell::builder(
            MethodId::WebRtc,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        )
        .reps(1)
        .seed(seed)
        .impairment(Impairment::loss(loss))
        .contention(ContentionSpec::clients(4))
        .build()
        .unwrap();
        let what = format!("seed {seed:#x} loss {loss:.3}");
        oracle::assert_same(
            &ExperimentRunner::run_rep_traced(&cell, 0),
            &oracle::rep(&cell, 0),
            &what,
        );
    }
}

/// (2) The reason captures stream: with sinks consuming records at
/// capture time, the pool's live-buffer high-water mark tracks only
/// frames genuinely in flight inside the engine, never a rep's worth of
/// retained capture. In-flight frames may grow with concurrent
/// sessions, but the *per-client* peak must stay flat as the crowd
/// grows.
///
/// Run serially so the drain happens on this thread and the pool gauge
/// is exact.
#[test]
fn streaming_bounds_the_frame_pool_high_water_mark() {
    let peak_of = |clients: u32| {
        let cell = base_cell(clients, 1).build().unwrap();
        let (results, stats) =
            Executor::serial().run_with_stats(std::slice::from_ref(&cell), |_| {});
        results[0].as_ref().unwrap();
        stats.pool.live_peak
    };
    let per_client_small = peak_of(4) as f64 / 4.0;
    let per_client_big = peak_of(32) as f64 / 32.0;
    // Small slack for shared-queue effects.
    assert!(
        per_client_big <= per_client_small * 1.25,
        "streaming per-client peak grew {per_client_small:.2} -> \
         {per_client_big:.2}; retention is leaking"
    );
}

/// (3) Bounded retention: raw vectors cap at the threshold, sketches
/// cover every sample, and sketch quantiles sit within the documented
/// relative-error bound of the exact full-sample quantiles.
#[test]
fn bounded_retention_truncates_raw_and_sketches_all() {
    let full = base_cell(3, 8).build().unwrap();
    let bounded = full.clone().with_streaming(StreamingSpec::bounded(4));
    let a = ExperimentRunner::try_run(&full).unwrap();
    let b = ExperimentRunner::try_run(&bounded).unwrap();

    assert_eq!(a.sessions.len(), b.sessions.len());
    for (fs, bs) in a.sessions.iter().zip(&b.sessions) {
        assert_eq!(fs.d1.len(), 8);
        assert_eq!(bs.d1.len(), 4, "session {} raw d1 capped", bs.session);
        assert_eq!(bs.d2.len(), 4, "session {} raw d2 capped", bs.session);
        // The retained prefix is the same bits as the full run's prefix.
        assert_eq!(&fs.d1[..4], &bs.d1[..], "session {} prefix", bs.session);
        let sk = bs.sketches.as_ref().expect("bounded mode builds sketches");
        assert_eq!(sk.d1.count(), 8, "sketch saw every sample");
        assert_eq!(bs.count(1), 8);
        // Sketch quantiles track the exact full-sample R-7 quantiles.
        for round in [1u8, 2] {
            let exact_set = if round == 1 { &fs.d1 } else { &fs.d2 };
            let mut sorted = exact_set.clone();
            sorted.sort_by(|x, y| x.partial_cmp(y).unwrap());
            for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let exact = bnm::stats::summary::quantile(&sorted, p);
                let est = bs.quantile(round, p);
                let bound = sk.d1.relative_error_bound() * exact.abs().max(1e-9) + 1e-9;
                assert!(
                    (est - exact).abs() <= bound,
                    "session {} round {round} p{p}: {est} vs {exact} (bound {bound})",
                    bs.session
                );
            }
        }
    }
    // Bounded mode keeps measurement rows only for the reference session.
    assert!(b.measurements.iter().all(|m| m.session == 0));
    assert_eq!(a.d1.len(), 8);
    assert_eq!(b.d1.len(), 4, "flat d1 truncates like session 0's raw");
    // Exclusion counters are unaffected by retention.
    assert_eq!(a.excluded_rounds, b.excluded_rounds);
}
