//! Throughput-measurement accuracy — the "Tput" column of Table 1.
//!
//! Speedtest-style tools estimate round-trip throughput as
//! `bytes / (tB_r − tB_s)` for a bulk download. Section 2.2 of the paper
//! warns that "the actual round-trip throughput could be seriously
//! under-estimated by an inflated RTT"; this module measures exactly how
//! much, per method, by comparing the browser-level estimate against the
//! wire-level one recovered from the capture.

use bnm_methods::MethodId;
use bnm_obs::Trace;
use bnm_sim::capture::{CaptureBuffer, CaptureDir};
use bnm_sim::time::SimTime;
use bnm_sim::wire::{ParsedPacket, Transport};

use crate::config::ExperimentCell;
use crate::error::RunError;
use crate::frames::carries_marker;
use crate::matching::{request_marker, MatchError};
use crate::runner::ExperimentRunner;

/// One bulk-download measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BulkMeasurement {
    /// Round number.
    pub round: u8,
    /// Download size (body bytes).
    pub bytes: usize,
    /// Browser-level transfer time, ms.
    pub browser_ms: f64,
    /// Wire-level transfer time (request out → last data packet in), ms.
    pub wire_ms: f64,
}

impl BulkMeasurement {
    /// Browser-estimated throughput, bits/s.
    pub fn browser_bps(&self) -> f64 {
        self.bytes as f64 * 8.0 / (self.browser_ms / 1e3)
    }

    /// Wire throughput, bits/s.
    pub fn wire_bps(&self) -> f64 {
        self.bytes as f64 * 8.0 / (self.wire_ms / 1e3)
    }

    /// Fraction of throughput the browser under-reports.
    pub fn underestimation(&self) -> f64 {
        1.0 - self.browser_bps() / self.wire_bps()
    }
}

/// Find the wire-level bulk transfer window for one round: the request
/// packet's departure and the arrival of the packet that completes `n`
/// response-payload bytes on the same connection.
pub fn match_bulk_round(
    capture: &CaptureBuffer,
    method: MethodId,
    round: u8,
    token: u64,
    n: usize,
) -> Result<(SimTime, SimTime), MatchError> {
    let req_needle = if method.is_http_based() {
        request_marker(method, round, token)
    } else {
        format!("bulk n={n} r={round} t={token}").into_bytes()
    };
    let resp_needle = format!("bulk r={round} t={token} ").into_bytes();

    let mut tn_s = None;
    let mut resp_ports: Option<(u16, u16)> = None;
    let mut body_seen = 0usize;
    for rec in capture.records() {
        let Ok(p) = ParsedPacket::parse(&rec.frame) else {
            continue;
        };
        let Transport::Tcp(seg) = &p.transport else {
            continue;
        };
        match rec.dir {
            CaptureDir::Tx => {
                if tn_s.is_none() && carries_marker(&seg.payload, &req_needle) {
                    tn_s = Some(rec.ts);
                }
            }
            CaptureDir::Rx => {
                // No response accounting before the request left.
                let Some(sent_at) = tn_s else {
                    continue;
                };
                match resp_ports {
                    None => {
                        if carries_marker(&seg.payload, &resp_needle) {
                            resp_ports = Some((seg.src_port, seg.dst_port));
                            body_seen += seg.payload.len();
                        }
                    }
                    Some(ports) => {
                        if (seg.src_port, seg.dst_port) == ports {
                            body_seen += seg.payload.len();
                        }
                    }
                }
                if resp_ports.is_some() && body_seen >= n {
                    if rec.ts < sent_at {
                        return Err(MatchError::OutOfOrder);
                    }
                    return Ok((sent_at, rec.ts));
                }
            }
        }
    }
    if tn_s.is_none() {
        Err(MatchError::RequestNotFound)
    } else {
        Err(MatchError::ResponseNotFound)
    }
}

/// The largest bulk download a repetition takes: 16 MiB, 16× the
/// largest size any experiment uses. The simulation holds the whole
/// transfer in memory.
pub const MAX_BULK_BYTES: usize = 16 * 1024 * 1024;

/// Run one throughput repetition: session 0 of the cell's scenario
/// downloads `n` bytes per round through the cell's method. A download
/// over [`MAX_BULK_BYTES`] is [`RunError::InvalidInput`].
pub fn run_bulk_rep(
    cell: &ExperimentCell,
    rep: u32,
    n: usize,
) -> Result<Vec<BulkMeasurement>, RunError> {
    if n > MAX_BULK_BYTES {
        return Err(RunError::InvalidInput("bulk downloads are at most 16 MiB"));
    }
    let profile = ExperimentRunner::try_profile(cell)?;
    if !cell.method.available_in(&profile) {
        return Err(RunError::unrunnable(cell));
    }
    let plan = cell.method.plan(cell.timing_override).with_bulk(n);
    let mut sc = ExperimentRunner::scenario(cell, rep, &plan, &profile, Trace::disabled())?;
    sc.run();
    let result = sc.session(0).result();
    if !result.completed {
        return Err(RunError::Match(MatchError::ResponseNotFound));
    }
    let capture = sc.engine.tap(sc.client_taps[0]);
    let mut out = Vec::new();
    for r in &result.rounds {
        let (tn_s, tn_last) = match_bulk_round(capture, cell.method, r.round, u64::from(rep), n)?;
        out.push(BulkMeasurement {
            round: r.round,
            bytes: n,
            browser_ms: r.browser_rtt_ms(),
            wire_ms: tn_last.signed_millis_since(tn_s),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeSel;
    use bnm_browser::BrowserKind;
    use bnm_time::OsKind;

    fn cell(method: MethodId) -> ExperimentCell {
        ExperimentCell::paper(
            method,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        )
    }

    #[test]
    fn bulk_download_completes_and_wire_time_is_sane() {
        let n = 256 * 1024;
        let ms = run_bulk_rep(&cell(MethodId::XhrGet), 0, n).unwrap();
        assert_eq!(ms.len(), 2);
        for m in &ms {
            // 256 KB through a 50 ms RTT is window-limited: ~4 RTTs of
            // slow-start/steady 64 KB windows ≈ 200–300 ms.
            assert!(m.wire_ms > 60.0, "wire {}", m.wire_ms);
            assert!(m.wire_ms < 450.0, "wire {}", m.wire_ms);
            assert!(m.browser_ms >= m.wire_ms, "browser ≥ wire");
            // Wire throughput is bounded by the line rate.
            assert!(m.wire_bps() < 100_000_000.0);
            assert!(m.wire_bps() > 5_000_000.0);
        }
    }

    #[test]
    fn websocket_bulk_works_and_underestimates_less_than_xhr() {
        let n = 128 * 1024;
        let ws = run_bulk_rep(&cell(MethodId::WebSocket), 0, n).unwrap();
        let xhr = run_bulk_rep(&cell(MethodId::XhrGet), 0, n).unwrap();
        // Round 2 (no first-use cost) comparison.
        let ws_u = ws[1].underestimation();
        let xhr_u = xhr[1].underestimation();
        assert!(ws_u >= -0.05, "ws underestimation {ws_u}");
        assert!(ws_u < xhr_u + 0.05, "ws {ws_u} ≤ xhr {xhr_u}");
    }

    #[test]
    fn larger_transfers_dilute_the_overhead() {
        let small = run_bulk_rep(&cell(MethodId::XhrGet), 0, 16 * 1024).unwrap();
        let large = run_bulk_rep(&cell(MethodId::XhrGet), 0, 1024 * 1024).unwrap();
        assert!(
            large[1].underestimation() < small[1].underestimation(),
            "large {} < small {}",
            large[1].underestimation(),
            small[1].underestimation()
        );
    }

    #[test]
    fn flash_bulk_underestimates_badly() {
        let n = 64 * 1024;
        let flash = run_bulk_rep(&cell(MethodId::FlashGet), 0, n).unwrap();
        assert!(
            flash[0].underestimation() > 0.2,
            "flash underestimation {}",
            flash[0].underestimation()
        );
    }
}
