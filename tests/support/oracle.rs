//! The batch reference matcher as a test oracle.
//!
//! [`rep`] reruns one `(cell, rep)` unit the way the paper's analyst
//! would: it rebuilds the runner's scenario from the documented seed
//! derivations, lets every tap retain its full capture, and only after
//! the run parses the traces and matches them with
//! `ParsedCapture::match_round`/`round_retransmitted` (reliable methods)
//! or `match_datagram_train` (datagram trains). The runner streams its
//! captures through marker sinks instead; the two must agree field for
//! field.

use bnm::browser::{session_token, RoundResult};
use bnm::core::matching::{
    match_datagram_train, MatchError, ParsedCapture, ProbeStatus, WireTimes,
};
use bnm::core::runner::DatagramSamples;
use bnm::core::testbed::TestbedConfig;
use bnm::prelude::*;
use bnm::sim::link::LinkSpec;
use bnm::sim::rng::derive_seed;
use bnm::sim::time::SimDuration;
use bnm::stats::jitter::rfc3550_transit_jitter;
use bnm::timeapi::MachineTimer;

/// One untraced repetition of `cell`, matched in batch after the run.
pub fn rep(cell: &ExperimentCell, rep: u32) -> Result<RepOutcome, RunError> {
    let profile = ExperimentRunner::try_profile(cell)?;
    if !cell.method.available_in(&profile) {
        return Err(RunError::unrunnable(cell));
    }
    let plan = cell.method.plan(cell.timing_override);
    let label = cell.label();
    let specs = (0..u64::from(cell.clients))
        .map(|sid| {
            let suffix = if sid == 0 {
                String::new()
            } else {
                format!(".s{sid}")
            };
            SessionSpec {
                id: sid,
                plan: plan.clone(),
                profile: profile.clone(),
                machine: MachineTimer::new(
                    cell.os,
                    derive_seed(cell.seed, &format!("machine.{label}{suffix}")),
                )
                .at_offset(SimDuration::from_secs(4).saturating_mul(u64::from(rep))),
                seed: derive_seed(cell.seed, &format!("session.{label}{suffix}")) ^ u64::from(rep),
            }
        })
        .collect();
    let mut cfg = TestbedConfig {
        server_delay: cell.server_delay,
        capture_noise_ns: cell.capture_noise_ns,
        seed: derive_seed(cell.seed, "capture"),
        impairment: cell.impairment,
        server_shape: cell.link_shape.clone(),
        ..TestbedConfig::default()
    };
    if let Some(rate) = cell.server_link_rate_bps {
        cfg.server_link = LinkSpec {
            rate_bps: rate,
            ..LinkSpec::fast_ethernet()
        };
    }
    let rep_token = u64::from(rep);
    let mut sc = Scenario::build(&cfg, specs, rep_token);
    sc.run();
    let link = LinkReport {
        down_queue_drops: sc.engine.queue_drops(sc.server_link, sc.server),
        up_queue_drops: sc.engine.queue_drops(sc.server_link, sc.switch),
        down_queue_peak_bytes: sc.engine.queue_peak_bytes(sc.server_link, sc.server) as u64,
        up_queue_peak_bytes: sc.engine.queue_peak_bytes(sc.server_link, sc.switch) as u64,
    };
    if (0..sc.len()).any(|i| !sc.session(i).result().completed) {
        return Err(RunError::Match(MatchError::ResponseNotFound));
    }
    // The server view is read for datagram trains (their one-way delays)
    // and on impaired networks (downstream retransmissions show only
    // there).
    let server = (cell.method.is_datagram() || !cell.impairment.is_clean())
        .then(|| ParsedCapture::parse(sc.engine.tap(sc.server_tap)));
    let mut out = Vec::new();
    let mut excluded_by_session = Vec::new();
    let mut datagram = Vec::new();
    for i in 0..sc.len() {
        let sid = sc.session_id(i);
        let token = session_token(sid, rep_token);
        let client = ParsedCapture::parse(sc.engine.tap(sc.client_taps[i]));
        let rounds = &sc.session(i).result().rounds;
        if cell.method.is_datagram() {
            let server = server
                .as_ref()
                .expect("datagram cells parse the server tap");
            let verdicts = match_datagram_train(&client, server, cell.method, plan.rounds, token);
            datagram.push((
                sid,
                fold_train(plan.rounds, sid, rounds, &verdicts, &mut out),
            ));
            excluded_by_session.push((sid, 0));
            continue;
        }
        let mut excluded = 0;
        for r in rounds {
            let wire = match client.match_round(cell.method, r.round, token) {
                Err(MatchError::Retransmitted) => {
                    excluded += 1;
                    continue;
                }
                other => other?,
            };
            if server
                .as_ref()
                .is_some_and(|s| s.round_retransmitted(cell.method, r.round, token))
            {
                excluded += 1;
                continue;
            }
            out.push(measurement(sid, r, wire));
        }
        excluded_by_session.push((sid, excluded));
    }
    Ok(RepOutcome {
        measurements: out,
        trace: None,
        attribution: Vec::new(),
        excluded: excluded_by_session.iter().map(|&(_, n)| n).sum(),
        excluded_by_session,
        datagram,
        link,
    })
}

fn measurement(session: u64, r: &RoundResult, wire: WireTimes) -> RoundMeasurement {
    RoundMeasurement {
        session,
        round: r.round,
        browser: *r,
        wire,
    }
}

/// Verdict counts, one Δd row per delivered probe the browser stamped
/// (in the browser's arrival order), and the wire and browser RFC 3550
/// jitter of the repetition.
fn fold_train(
    train_len: u8,
    sid: u64,
    rounds: &[RoundResult],
    verdicts: &[bnm::core::ProbeVerdict],
    out: &mut Vec<RoundMeasurement>,
) -> DatagramSamples {
    let mut d = DatagramSamples {
        sent: u64::from(train_len),
        ..DatagramSamples::default()
    };
    for v in verdicts {
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
    transit.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    d.wire_jitter_ms.push(rfc3550_transit_jitter(&transit));
    let browser: Vec<(f64, f64)> = rounds.iter().map(|r| (r.tb_s_ms, r.tb_r_ms)).collect();
    d.browser_jitter_ms.push(rfc3550_transit_jitter(&browser));
    d
}

/// Assert a runner outcome equals the oracle's, field by field.
pub fn assert_same(
    runner: &Result<RepOutcome, RunError>,
    oracle: &Result<RepOutcome, RunError>,
    what: &str,
) {
    let (a, b) = match (runner, oracle) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            assert_eq!(a.as_ref().err(), b.as_ref().err(), "{what}: outcome");
            return;
        }
    };
    assert_eq!(a.measurements, b.measurements, "{what}: measurements");
    assert_eq!(a.excluded, b.excluded, "{what}: excluded");
    assert_eq!(
        a.excluded_by_session, b.excluded_by_session,
        "{what}: excluded by session"
    );
    assert_eq!(a.datagram, b.datagram, "{what}: datagram");
    assert_eq!(a.link, b.link, "{what}: link");
    assert_eq!(a.trace.is_some(), b.trace.is_some(), "{what}: trace");
    assert_eq!(a.attribution, b.attribution, "{what}: attribution");
}
