//! The traced run's replay: one `(cell, rep)` unit reproduced through
//! the library's public layer functions, in the order
//! `ExperimentRunner::run_rep_traced` calls them, with a span around
//! each call. The traced run checks every unit it drives against
//! `run_rep_traced` itself, so a change to the runner that this copy
//! does not follow shows up as a failed check, not as wrong layer times.
//!
//! Single-client cells go through `Scenario` directly: the runner's
//! `Testbed` is the one-session scenario with the same seeds and marker
//! tokens, so the outcome is the same (and the check confirms it).

use bnm_browser::{session_token, BrowserProfile, ProbePlan, RoundResult};
use bnm_core::matching::{match_datagram_train, MatchError, ParsedCapture, ProbeStatus};
use bnm_core::runner::DatagramSamples;
use bnm_core::{
    DiscardSink, ExperimentCell, ExperimentRunner, LinkReport, RepOutcome, RoundMeasurement,
    RunError, Scenario, ServerMarkerIndex, SessionMarkerSink, SessionSpec, TestbedConfig,
};
use bnm_methods::MethodId;
use bnm_sim::capture::CaptureSink;
use bnm_sim::link::LinkSpec;
use bnm_sim::rng::derive_seed;
use bnm_sim::SimDuration;
use bnm_stats::jitter::rfc3550_transit_jitter;
use bnm_time::MachineTimer;

use crate::spans::Tracer;

/// What one unit's simulation did, read off its engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct UnitCounts {
    pub events: u64,
    pub queue_drops: u64,
    pub queue_peak_bytes: u64,
    pub capture_records: u64,
}

/// Reproduce `ExperimentRunner::run_rep_traced(cell, rep)` for an
/// untraced cell, recording layer spans on `t`. `counts` is filled once
/// the simulation has run.
pub fn rep(
    t: &mut Tracer,
    cell: &ExperimentCell,
    rep: u32,
    counts: &mut UnitCounts,
) -> Result<RepOutcome, RunError> {
    assert!(!cell.trace, "the replay reproduces untraced cells only");
    let profile = t.span("core.config.profile", |_| {
        ExperimentRunner::try_profile(cell)
    })?;
    if !cell.method.available_in(&profile) {
        return Err(RunError::unrunnable(cell));
    }
    let rep_token = u64::from(rep);
    let is_datagram = cell.method.is_datagram();
    // Datagram cells always parse both taps in batch, as in the runner.
    let streaming = cell.streaming.stream_captures && !is_datagram;
    let plan = cell.method.plan(cell.timing_override);
    let rounds = plan.rounds;

    let mut sc = t.span("core.scenario.build", |_| {
        let specs = session_specs(cell, rep, &plan, &profile);
        let mut sc = Scenario::build(&testbed_config(cell), specs, rep_token);
        if streaming {
            install_sinks(&mut sc, cell, rounds, rep_token);
        }
        sc
    });
    t.span("sim.run", |_| sc.run());

    let link = LinkReport {
        down_queue_drops: sc.engine.queue_drops(sc.server_link, sc.server),
        up_queue_drops: sc.engine.queue_drops(sc.server_link, sc.switch),
        down_queue_peak_bytes: sc.engine.queue_peak_bytes(sc.server_link, sc.server) as u64,
        up_queue_peak_bytes: sc.engine.queue_peak_bytes(sc.server_link, sc.switch) as u64,
    };
    *counts = UnitCounts {
        events: sc.engine.events_processed(),
        queue_drops: link.down_queue_drops + link.up_queue_drops,
        queue_peak_bytes: link.down_queue_peak_bytes.max(link.up_queue_peak_bytes),
        capture_records: sc
            .client_taps
            .iter()
            .chain([&sc.server_tap])
            .map(|&tap| sc.engine.tap(tap).total_recorded())
            .sum(),
    };
    if (0..sc.len()).any(|i| !sc.session(i).result().completed) {
        return Err(RunError::Match(MatchError::ResponseNotFound));
    }

    let mut m = Matched::default();
    if streaming {
        t.span("core.matching.match", |_| {
            match_streamed(&mut sc, rep_token, &mut m)
        })?;
    } else {
        let (server, clients) = t.span("core.matching.parse", |_| {
            let server = (is_datagram || !cell.impairment.is_clean())
                .then(|| ParsedCapture::parse(sc.engine.tap(sc.server_tap)));
            let clients: Vec<ParsedCapture> = (0..sc.len())
                .map(|i| {
                    ParsedCapture::parse_records(&sc.engine.tap_mut(sc.client_taps[i]).drain())
                })
                .collect();
            (server, clients)
        });
        t.span("core.matching.match", |_| {
            match_batch(
                &sc,
                cell.method,
                rounds,
                rep_token,
                server.as_ref(),
                &clients,
                &mut m,
            )
        })?;
    }
    Ok(RepOutcome {
        measurements: m.out,
        trace: None,
        attribution: Vec::new(),
        excluded: m.excluded_by_session.iter().map(|&(_, n)| n).sum(),
        excluded_by_session: m.excluded_by_session,
        datagram: m.datagram,
        link,
    })
}

/// The runner's testbed configuration for a cell.
fn testbed_config(cell: &ExperimentCell) -> TestbedConfig {
    let mut cfg = TestbedConfig {
        server_delay: cell.server_delay,
        capture_noise_ns: cell.capture_noise_ns,
        seed: derive_seed(cell.seed, "capture"),
        impairment: cell.impairment,
        server_shape: cell.link_shape.clone(),
        ..TestbedConfig::default()
    };
    // Only the multi-client path applies the contention rate.
    if let (true, Some(rate)) = (cell.clients > 1, cell.server_link_rate_bps) {
        cfg.server_link = LinkSpec {
            rate_bps: rate,
            ..LinkSpec::fast_ethernet()
        };
    }
    cfg
}

/// The runner's per-session seeds and machine clocks: session 0 uses
/// the single-client labels, later sessions `.s{id}`-suffixed ones.
fn session_specs(
    cell: &ExperimentCell,
    rep: u32,
    plan: &ProbePlan,
    profile: &BrowserProfile,
) -> Vec<SessionSpec> {
    let label = cell.label();
    (0..u64::from(cell.clients))
        .map(|sid| {
            let suffix = if sid == 0 {
                String::new()
            } else {
                format!(".s{sid}")
            };
            let machine = MachineTimer::new(
                cell.os,
                derive_seed(cell.seed, &format!("machine.{label}{suffix}")),
            )
            .at_offset(SimDuration::from_secs(4).saturating_mul(u64::from(rep)));
            SessionSpec {
                id: sid,
                plan: plan.clone(),
                profile: profile.clone(),
                machine,
                seed: derive_seed(cell.seed, &format!("session.{label}{suffix}")) ^ u64::from(rep),
            }
        })
        .collect()
}

fn install_sinks(sc: &mut Scenario, cell: &ExperimentCell, rounds: u8, rep_token: u64) {
    let tokens: Vec<u64> = (0..sc.len())
        .map(|i| session_token(sc.session_id(i), rep_token))
        .collect();
    for (&tap, &token) in sc.client_taps.iter().zip(&tokens) {
        sc.engine
            .tap_mut(tap)
            .set_sink(Box::new(SessionMarkerSink::new(cell.method, rounds, token)));
    }
    let server: Box<dyn CaptureSink> = if cell.impairment.is_clean() {
        Box::new(DiscardSink::default())
    } else {
        Box::new(ServerMarkerIndex::new(cell.method, rounds, &tokens))
    };
    sc.engine.tap_mut(sc.server_tap).set_sink(server);
}

/// The pieces of a [`RepOutcome`] the matching layer produces.
#[derive(Default)]
struct Matched {
    out: Vec<RoundMeasurement>,
    excluded_by_session: Vec<(u64, u32)>,
    datagram: Vec<(u64, DatagramSamples)>,
}

/// Streaming path: replay each session's rounds from its marker sink,
/// excluding rounds the sink or the server index saw retransmitted.
fn match_streamed(sc: &mut Scenario, rep_token: u64, m: &mut Matched) -> Result<(), RunError> {
    let server = sc
        .engine
        .tap_mut(sc.server_tap)
        .take_sink()
        .expect("streaming server tap carries a sink");
    let index = server.as_any().downcast_ref::<ServerMarkerIndex>();
    for i in 0..sc.len() {
        let sid = sc.session_id(i);
        let token = session_token(sid, rep_token);
        let sink = sc
            .engine
            .tap_mut(sc.client_taps[i])
            .take_sink()
            .expect("streaming client tap carries a sink");
        let sink = sink
            .as_any()
            .downcast_ref::<SessionMarkerSink>()
            .expect("client tap sink is a SessionMarkerSink");
        let mut excluded = 0;
        for r in &sc.session(i).result().rounds {
            let wire = match sink.match_round(r.round) {
                Err(MatchError::Retransmitted) => {
                    excluded += 1;
                    continue;
                }
                other => other?,
            };
            if index.is_some_and(|ix| ix.round_retransmitted(r.round, token)) {
                excluded += 1;
                continue;
            }
            m.out.push(measurement(sid, r, wire));
        }
        m.excluded_by_session.push((sid, excluded));
    }
    Ok(())
}

/// Batch path: match every session's parsed capture, per round for
/// reliable methods and per probe for datagram trains.
fn match_batch(
    sc: &Scenario,
    method: MethodId,
    rounds: u8,
    rep_token: u64,
    server: Option<&ParsedCapture>,
    clients: &[ParsedCapture],
    m: &mut Matched,
) -> Result<(), RunError> {
    for (i, parsed) in clients.iter().enumerate() {
        let sid = sc.session_id(i);
        let token = session_token(sid, rep_token);
        let results = &sc.session(i).result().rounds;
        if method.is_datagram() {
            let server = server.expect("datagram matching always parses the server tap");
            let d = fold_datagram(
                method, rounds, token, sid, results, parsed, server, &mut m.out,
            );
            m.datagram.push((sid, d));
            m.excluded_by_session.push((sid, 0));
            continue;
        }
        let mut excluded = 0;
        for r in results {
            let wire = match parsed.match_round(method, r.round, token) {
                Err(MatchError::Retransmitted) => {
                    excluded += 1;
                    continue;
                }
                other => other?,
            };
            if server.is_some_and(|sp| sp.round_retransmitted(method, r.round, token)) {
                excluded += 1;
                continue;
            }
            m.out.push(measurement(sid, r, wire));
        }
        m.excluded_by_session.push((sid, excluded));
    }
    Ok(())
}

fn measurement(
    session: u64,
    r: &RoundResult,
    wire: bnm_core::matching::WireTimes,
) -> RoundMeasurement {
    RoundMeasurement {
        session,
        round: r.round,
        browser: *r,
        wire,
    }
}

/// The runner's per-probe datagram appraisal of one session: verdict
/// counts, one Δd row per delivered probe the browser stamped, and the
/// wire and browser RFC 3550 jitter of the repetition.
#[allow(clippy::too_many_arguments)]
fn fold_datagram(
    method: MethodId,
    train_len: u8,
    token: u64,
    sid: u64,
    rounds: &[RoundResult],
    client: &ParsedCapture,
    server: &ParsedCapture,
    out: &mut Vec<RoundMeasurement>,
) -> DatagramSamples {
    let verdicts = match_datagram_train(client, server, method, train_len, token);
    let mut d = DatagramSamples {
        sent: u64::from(train_len),
        ..DatagramSamples::default()
    };
    for v in &verdicts {
        match v.status {
            ProbeStatus::Delivered => d.delivered += 1,
            ProbeStatus::LostUpstream => d.lost_upstream += 1,
            ProbeStatus::LostDownstream => d.lost_downstream += 1,
        }
        d.duplicated += u64::from(v.duplicated);
        d.reordered += u64::from(v.reordered);
        d.owd_up_ms.extend(v.owd_up_ms);
        d.owd_down_ms.extend(v.owd_down_ms);
    }
    for r in rounds {
        let verdict = r
            .round
            .checked_sub(1)
            .and_then(|i| verdicts.get(usize::from(i)));
        if let Some(wire) = verdict.and_then(|v| v.wire) {
            out.push(measurement(sid, r, wire));
        }
    }
    let mut transit: Vec<(f64, f64)> = verdicts
        .iter()
        .filter_map(|v| {
            let arrive = v.wire?.tn_r.as_millis_f64();
            Some((arrive - v.owd_down_ms?, arrive))
        })
        .collect();
    transit.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("capture stamps are finite"));
    d.wire_jitter_ms.push(rfc3550_transit_jitter(&transit));
    let browser: Vec<(f64, f64)> = rounds.iter().map(|r| (r.tb_s_ms, r.tb_r_ms)).collect();
    d.browser_jitter_ms.push(rfc3550_transit_jitter(&browser));
    d
}
