//! Tier-1 guarantees of the multi-client scenario layer:
//!
//! 1. **N = 1 parity** — a one-session [`Scenario`] built through the
//!    public builder from the documented seed derivations reproduces the
//!    runner's repetition byte for byte: same captures, same
//!    measurements, same trace, same Δd attribution. The testbed of
//!    Figure 2 *is* the N = 1 scenario.
//! 2. **Insertion-order invariance** — per-session results are keyed by
//!    session id, never by the order the caller pushed the specs.
//! 3. **Scheduler parity** — multi-client cells are bit-identical
//!    between the serial and the work-stealing executor.
//! 4. **Linear event budget** — the events a repetition dispatches grow
//!    with the number of clients, not with its square: no client host
//!    wakes for another's traffic or for a deadline it already served.
//!
//! Every scenario built here must also run without a single switch
//! flood: its forwarding table is provisioned like the neighbor tables.

#![deny(deprecated)]

use bnm::browser::session_token;
use bnm::core::attribution;
use bnm::core::matching::ParsedCapture;
use bnm::prelude::*;
use bnm::sim::link::LinkSpec;
use bnm::sim::rng;
use bnm::sim::switch::Switch;
use bnm::sim::time::SimDuration;
use bnm::timeapi::MachineTimer;

fn cell(clients: u32, reps: u32, trace: bool) -> ExperimentCell {
    let b = ExperimentCell::builder(
        MethodId::XhrGet,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(reps)
    .seed(0xB32B_5CEA)
    .contention(ContentionSpec::clients(clients));
    if trace { b.trace(true) } else { b }.build().unwrap()
}

/// An XHR session on Chrome/Ubuntu with seeds derived from its id.
fn xhr_session(id: u64) -> SessionSpec {
    SessionSpec {
        id,
        plan: MethodId::XhrGet.plan(None),
        profile: bnm::browser::BrowserProfile::build(BrowserKind::Chrome, OsKind::Ubuntu1204)
            .unwrap(),
        machine: MachineTimer::new(OsKind::Ubuntu1204, 11 + id),
        seed: 900 + id,
    }
}

/// Every frame of a run found its port in the switch's table.
fn assert_no_flood(sc: &Scenario) {
    assert_eq!(sc.engine.node_ref::<Switch>(sc.switch).flooded, 0);
}

/// Replicate the runner's per-rep derivations and build the same session
/// as a hand-rolled one-element `Scenario`. Any drift between this and
/// `ExperimentRunner`'s own construction shows up as a parity failure
/// below.
fn scenario_for_rep(c: &ExperimentCell, rep: u32, trace: Trace) -> Scenario {
    let machine_seed = rng::derive_seed(c.seed, &format!("machine.{}", c.label()));
    let machine = MachineTimer::new(c.os, machine_seed)
        .at_offset(SimDuration::from_secs(4).saturating_mul(u64::from(rep)));
    let session_seed = rng::derive_seed(c.seed, &format!("session.{}", c.label()));
    let cfg = TestbedConfig {
        server_delay: c.server_delay,
        capture_noise_ns: c.capture_noise_ns,
        seed: rng::derive_seed(c.seed, "capture"),
        impairment: c.impairment,
        ..TestbedConfig::default()
    };
    let profile = bnm::browser::BrowserProfile::build(BrowserKind::Chrome, c.os).unwrap();
    Scenario::builder()
        .config(cfg)
        .session(SessionSpec {
            id: 0,
            plan: c.method.plan(c.timing_override),
            profile,
            machine,
            seed: session_seed ^ u64::from(rep),
        })
        .rep_token(u64::from(rep))
        .trace(trace)
        .build()
        .unwrap()
}

/// (1) The hand-built one-session scenario reproduces the runner's rep —
/// captures, measurements, trace and attribution all byte-identical.
#[test]
fn one_session_scenario_matches_the_runner_rep() {
    let c = cell(1, 3, true);
    for rep in 0..c.reps {
        let runner = ExperimentRunner::run_rep_traced(&c, rep).unwrap();

        let mut sc = scenario_for_rep(&c, rep, Trace::enabled());
        sc.run();
        assert!(sc.session(0).result().completed);
        assert_no_flood(&sc);

        // Session 0's marker token must be the bare rep token.
        let token = session_token(0, u64::from(rep));
        assert_eq!(token, u64::from(rep));

        let parsed = ParsedCapture::parse(sc.engine.tap(sc.client_taps[0]));
        let mut measurements = Vec::new();
        for r in sc.session(0).result().rounds.clone() {
            let wire = parsed.match_round(c.method, r.round, token).unwrap();
            measurements.push(RoundMeasurement {
                session: 0,
                round: r.round,
                browser: r,
                wire,
            });
        }
        assert_eq!(measurements, runner.measurements, "rep {rep} measurements");

        let trace = sc.take_trace().unwrap();
        let runner_trace = runner.trace.unwrap();
        assert_eq!(trace, runner_trace, "rep {rep} trace data");
        assert_eq!(trace.to_json(), runner_trace.to_json());

        let attr = attribution::attribute(&trace, &measurements, rep).unwrap();
        assert_eq!(
            attribution::to_json(&attr),
            attribution::to_json(&runner.attribution),
            "rep {rep} attribution"
        );
    }
}

/// (1b) The `clients` knob at rest is invisible: a cell that spells out
/// `clients(1)` is byte-identical to one that never mentions it.
#[test]
fn clients_one_is_byte_identical_to_the_plain_cell() {
    let plain = cell(1, 4, false);
    let spelled = plain.clone().with_contention(ContentionSpec::clients(1));
    let a = ExperimentRunner::try_run(&plain).unwrap();
    let b = ExperimentRunner::try_run(&spelled).unwrap();
    assert_eq!(a.d1, b.d1);
    assert_eq!(a.d2, b.d2);
    assert_eq!(a.measurements, b.measurements);
    assert_eq!(a.sessions.len(), 1);
    assert_eq!(a.sessions[0].d1, b.sessions[0].d1);
    assert_eq!(a.sessions[0].d2, b.sessions[0].d2);
}

/// (1c) A one-client cell honours its shared-link rate: the wire RTT of
/// a Flash GET cell narrowed to 400 kbps sits above the unnarrowed
/// cell's, because every frame now serializes at the narrow rate.
#[test]
fn one_client_cell_honours_the_link_rate() {
    let wire_rtt_median = |contention: ContentionSpec| {
        let cell = ExperimentCell::builder(
            MethodId::FlashGet,
            RuntimeSel::Browser(BrowserKind::Opera),
            OsKind::Windows7,
        )
        .reps(4)
        .contention(contention)
        .build()
        .unwrap();
        let r = ExperimentRunner::try_run(&cell).unwrap();
        assert_eq!(r.failures, 0);
        let mut rtts: Vec<f64> = r
            .measurements
            .iter()
            .map(RoundMeasurement::network_rtt_ms)
            .collect();
        rtts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        rtts[rtts.len() / 2]
    };
    let full = wire_rtt_median(ContentionSpec::clients(1));
    let narrow = wire_rtt_median(ContentionSpec::clients(1).with_server_link_rate(400_000));
    assert!(
        narrow > full,
        "400 kbps wire RTT {narrow} ms not above the 100 Mbps {full} ms"
    );
}

/// (2) Per-session output is keyed by session id: pushing the specs in a
/// different order changes nothing — results, captures, server load.
#[test]
fn per_session_results_are_invariant_to_insertion_order() {
    let build = |ids: &[u64]| {
        let specs = ids.iter().map(|&id| xhr_session(id)).collect();
        let mut sc = Scenario::build(&TestbedConfig::default(), specs, 5);
        sc.run();
        assert_no_flood(&sc);
        sc
    };
    let a = build(&[2, 0, 3, 1]);
    let b = build(&[0, 1, 2, 3]);
    assert_eq!(a.len(), b.len());
    for i in 0..a.len() {
        assert_eq!(a.session_id(i), b.session_id(i), "position {i}");
        assert_eq!(
            a.session(i).result().rounds,
            b.session(i).result().rounds,
            "position {i} rounds"
        );
        // The capture at each client NIC is byte-identical too: same
        // frames, same timestamps, same order.
        assert_eq!(
            format!("{:?}", a.engine.tap(a.client_taps[i]).records()),
            format!("{:?}", b.engine.tap(b.client_taps[i]).records()),
            "position {i} capture"
        );
    }
    assert_eq!(a.web_server().stats.pages, b.web_server().stats.pages);
}

/// (3) Multi-client cells keep the executor's bit-parity guarantee:
/// serial and work-stealing runs agree on every session's samples.
#[test]
fn contended_cells_are_bit_identical_across_schedulers() {
    let cells = vec![cell(3, 3, false)];
    let serial = Executor::serial().run(&cells);
    let parallel = Executor::with_workers(4).run(&cells);
    let (s, p) = (serial[0].as_ref().unwrap(), parallel[0].as_ref().unwrap());
    assert_eq!(s.measurements, p.measurements);
    assert_eq!(s.sessions.len(), 3);
    assert_eq!(s.sessions.len(), p.sessions.len());
    for (ss, ps) in s.sessions.iter().zip(&p.sessions) {
        assert_eq!(ss.session, ps.session);
        assert_eq!(ss.d1, ps.d1);
        assert_eq!(ss.d2, ps.d2);
        assert_eq!(ss.excluded_rounds, ps.excluded_rounds);
    }
}

/// Events one 2%-loss XHR repetition dispatches per client, with
/// `clients` sessions sharing the server link at 6,250 bps each (the
/// crowd tier's fair share).
fn events_per_client(clients: u64) -> f64 {
    let cfg = TestbedConfig {
        server_link: LinkSpec {
            rate_bps: 6_250 * clients,
            ..LinkSpec::fast_ethernet()
        },
        impairment: Impairment::loss(0.02),
        ..TestbedConfig::default()
    };
    let mut sc = Scenario::build(&cfg, (0..clients).map(xhr_session).collect(), 0);
    sc.run();
    assert_no_flood(&sc);
    sc.engine.events_processed() as f64 / clients as f64
}

/// (4) Quadrupling the crowd at a constant fair share leaves the events
/// per client flat: a boot-time SYN is not flooded to every other client,
/// and a stack timer fires once per deadline instant, not once per
/// callback that saw that deadline.
#[test]
fn event_budget_is_linear_in_the_number_of_clients() {
    let small = events_per_client(50);
    let large = events_per_client(200);
    assert!(
        large <= 1.25 * small,
        "{large:.0} events per client at 200 clients vs {small:.0} at 50"
    );
}
