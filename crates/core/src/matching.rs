//! Ground-truth recovery from capture traces.
//!
//! This is the WinDump half of the paper's methodology: `tN_s` is the
//! capture timestamp of the packet carrying the round's request, `tN_r`
//! that of the packet carrying its response. The matcher **parses raw
//! frames** with `bnm-sim`'s wire parsers and greps transport payloads for
//! the probe markers the session embeds — exactly what one does with a
//! real pcap, and deliberately ignorant of simulator internals.
//!
//! Every decision reads one kind of evidence, [`MarkerHits`]: how many
//! records of one (tap, direction) carried a marker, and the stamp of the
//! first. The rules live here once — [`judge_round`] for the paper's
//! round rule, [`judge_probe`] and [`mark_reordered`] for datagram
//! trains. [`ParsedCapture`] counts that evidence from a retained trace;
//! the runner's streaming sinks ([`crate::streaming`]) fold it record by
//! record. `ParsedCapture` and [`match_datagram_train`] stay public as the
//! reference implementation the streaming path is tested against.

use bnm_methods::MethodId;
use bnm_sim::capture::{CaptureBuffer, CaptureDir};
use bnm_sim::time::SimTime;
use bytes::Bytes;

use crate::frames::{carries_marker, payload_of};

/// Network-level timestamps of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireTimes {
    /// Capture stamp of the request packet leaving the client.
    pub tn_s: SimTime,
    /// Capture stamp of the response packet arriving at the client.
    pub tn_r: SimTime,
}

/// Why matching failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatchError {
    /// No transmitted packet carried the round's request marker.
    RequestNotFound,
    /// No received packet carried the round's response marker.
    ResponseNotFound,
    /// A response was captured before the request (trace corruption).
    OutOfOrder,
    /// A marker of the round appeared in more than one packet of the
    /// same direction: the probe (or its response) was retransmitted or
    /// duplicated on the wire. The paper excludes such rounds — a
    /// retransmission inflates the network RTT estimate without the
    /// browser seeing anything unusual, so Δd would absorb the whole
    /// retransmission timeout.
    Retransmitted,
}

impl std::fmt::Display for MatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            MatchError::RequestNotFound => "no captured packet carried the request marker",
            MatchError::ResponseNotFound => "no captured packet carried the response marker",
            MatchError::OutOfOrder => "response captured before its request",
            MatchError::Retransmitted => "a probe marker was retransmitted on the wire",
        })
    }
}

impl std::error::Error for MatchError {}

/// What a capture shows of one marker in one direction of one tap: how
/// many records carried it and the stamp of the first.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MarkerHits {
    /// Records carrying the marker.
    pub count: u32,
    /// Capture stamp of the first such record.
    pub first: Option<SimTime>,
}

impl MarkerHits {
    /// Fold one more record carrying the marker, stamped `ts`.
    pub fn note(&mut self, ts: SimTime) {
        self.count += 1;
        if self.first.is_none() {
            self.first = Some(ts);
        }
    }

    /// Seen in more than one record: the packet was retransmitted or
    /// duplicated on the wire.
    pub fn repeated(self) -> bool {
        self.count > 1
    }
}

/// The paper's §3 round rule, from the client tap's evidence: the
/// request marker on Tx, the response marker on Rx.
///
/// A marker seen in more than one record is [`MatchError::Retransmitted`]
/// (checked first, so a retransmitted round is excluded whatever else is
/// wrong with it); then a missing request, a missing response, and a
/// response stamped before its request.
pub fn judge_round(tx: MarkerHits, rx: MarkerHits) -> Result<WireTimes, MatchError> {
    if tx.repeated() || rx.repeated() {
        return Err(MatchError::Retransmitted);
    }
    match (tx.first, rx.first) {
        (None, _) => Err(MatchError::RequestNotFound),
        (_, None) => Err(MatchError::ResponseNotFound),
        (Some(s), Some(r)) if r < s => Err(MatchError::OutOfOrder),
        (Some(s), Some(r)) => Ok(WireTimes { tn_s: s, tn_r: r }),
    }
}

/// The request marker the session embeds for (method, round, token).
pub fn request_marker(method: MethodId, round: u8, token: u64) -> Vec<u8> {
    if method.is_http_based() {
        format!("m={}&r={}&t={}", method.label(), round, token).into_bytes()
    } else {
        format!("probe m={} r={} t={} ", method.label(), round, token).into_bytes()
    }
}

/// The response marker.
pub fn response_marker(method: MethodId, round: u8, token: u64) -> Vec<u8> {
    if method.is_http_based() {
        format!("pong r={} t={} ", round, token).into_bytes()
    } else {
        // Echo transports return the request payload verbatim.
        request_marker(method, round, token)
    }
}

/// A capture whose frames have been parsed once, ready for repeated
/// round matching — the batch reference matcher.
///
/// It greps the retained trace for each marker it is asked about and
/// hands the resulting [`MarkerHits`] to the same decision functions the
/// streaming sinks use. Tests and the benchmark's replay use it as the
/// oracle for the runner's streaming path; no production path calls it.
#[derive(Debug, Clone)]
pub struct ParsedCapture {
    /// `(stamp, direction, transport payload)` of every frame that
    /// parsed; corrupted or non-TCP/UDP frames are dropped, exactly as a
    /// checksum-filtering analyst would drop them. Payloads are
    /// refcounted views into the parser's buffers, not copies.
    records: Vec<(SimTime, CaptureDir, Bytes)>,
}

impl ParsedCapture {
    /// Parse every frame of a capture once.
    pub fn parse(capture: &CaptureBuffer) -> ParsedCapture {
        ParsedCapture {
            records: capture
                .records()
                .iter()
                .filter_map(|rec| payload_of(&rec.frame).map(|p| (rec.ts, rec.dir, p)))
                .collect(),
        }
    }

    /// Parse records that were [`CaptureBuffer::drain`]ed out of their
    /// tap. Identical filtering to [`Self::parse`].
    pub fn parse_records(records: &[bnm_sim::CaptureRecord]) -> ParsedCapture {
        ParsedCapture {
            records: records
                .iter()
                .filter_map(|rec| payload_of(&rec.frame).map(|p| (rec.ts, rec.dir, p)))
                .collect(),
        }
    }

    /// Capture stamps of all records in `dir` whose payload carries
    /// `marker`, in capture order.
    pub fn hits(&self, dir: CaptureDir, marker: &[u8]) -> Vec<SimTime> {
        self.records
            .iter()
            .filter(|(_, d, p)| *d == dir && carries_marker(p, marker))
            .map(|(ts, _, _)| *ts)
            .collect()
    }

    /// The [`MarkerHits`] of `marker` in `dir`: every record is scanned.
    pub fn evidence(&self, dir: CaptureDir, marker: &[u8]) -> MarkerHits {
        let mut hits = MarkerHits::default();
        for (ts, d, p) in &self.records {
            if *d == dir && carries_marker(p, marker) {
                hits.note(*ts);
            }
        }
        hits
    }

    /// Find `tN_s`/`tN_r` for one round in a client-side capture
    /// ([`judge_round`] over the whole trace's evidence).
    ///
    /// A marker seen in more than one packet of the same direction means
    /// the probe was retransmitted (lost or corrupted upstream) or
    /// duplicated (downstream), and the round is reported as
    /// [`MatchError::Retransmitted`].
    pub fn match_round(
        &self,
        method: MethodId,
        round: u8,
        token: u64,
    ) -> Result<WireTimes, MatchError> {
        judge_round(
            self.evidence(CaptureDir::Tx, &request_marker(method, round, token)),
            self.evidence(CaptureDir::Rx, &response_marker(method, round, token)),
        )
    }

    /// Whether either of the round's markers appears more than once in
    /// any one direction of this capture.
    ///
    /// This is the *server-side* half of the exclusion rule: when the
    /// response is dropped downstream, the client sees each marker
    /// exactly once (only the retransmission arrives) — but the server's
    /// capture records the response leaving twice. The paper ran
    /// WinDump on both machines for exactly this reason.
    pub fn round_retransmitted(&self, method: MethodId, round: u8, token: u64) -> bool {
        let req = request_marker(method, round, token);
        let resp = response_marker(method, round, token);
        [CaptureDir::Tx, CaptureDir::Rx]
            .iter()
            .any(|&d| self.evidence(d, &req).repeated() || self.evidence(d, &resp).repeated())
    }
}

/// Delivery status of one datagram probe, judged from both taps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeStatus {
    /// Probe reached the server and its echo reached the client.
    Delivered,
    /// Probe left the client but never appeared at the server tap.
    LostUpstream,
    /// Echo left the server but never appeared at the client tap.
    LostDownstream,
}

/// Wire-truth verdict for one sequence-numbered datagram probe.
///
/// Unlike the TCP matcher, a duplicated or reordered datagram is *not* an
/// exclusion: there is no transport retransmitting underneath the
/// browser, so every on-wire event is the probe itself. Datagram rounds
/// are therefore appraised per probe — delivered probes yield one-way
/// delays, the rest become the loss statistic.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeVerdict {
    /// Sequence number (1-based, mirrors the session's round numbers).
    pub seq: u8,
    /// Delivery outcome.
    pub status: ProbeStatus,
    /// A copy of the probe or its echo appeared more than once in one
    /// direction of either tap.
    pub duplicated: bool,
    /// The echo arrived at the client after the echo of a higher
    /// sequence number (RFC 4737-style reordering, judged at arrival).
    pub reordered: bool,
    /// Client-tap stamps, for the Δd pipeline. `Some` iff delivered.
    pub wire: Option<WireTimes>,
    /// Client Tx → server Rx, ms. `Some` when the probe reached the
    /// server, even if its echo was later lost downstream.
    pub owd_up_ms: Option<f64>,
    /// Server Tx → client Rx, ms. `Some` iff delivered.
    pub owd_down_ms: Option<f64>,
}

/// The four (tap, direction) views of one datagram probe's marker.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProbeEvidence {
    /// Client Tx: the probe leaving.
    pub probe_tx: MarkerHits,
    /// Server Rx: the probe arriving.
    pub probe_rx: MarkerHits,
    /// Server Tx: the echo leaving.
    pub echo_tx: MarkerHits,
    /// Client Rx: the echo arriving.
    pub echo_rx: MarkerHits,
}

/// The per-probe verdict rule: delivery status from which quadrants saw
/// the probe, one-way delays from first stamps, and the duplicate flag
/// from any repeated quadrant. `reordered` is left `false` for
/// [`mark_reordered`], which needs the whole train.
pub fn judge_probe(seq: u8, e: &ProbeEvidence) -> ProbeVerdict {
    let status = if e.probe_rx.first.is_none() {
        ProbeStatus::LostUpstream
    } else if e.echo_rx.first.is_none() {
        ProbeStatus::LostDownstream
    } else {
        ProbeStatus::Delivered
    };
    let owd = |s: MarkerHits, r: MarkerHits| Some(r.first?.signed_millis_since(s.first?));
    let wire = match (e.probe_tx.first, e.echo_rx.first) {
        (Some(s), Some(r)) if status == ProbeStatus::Delivered => {
            Some(WireTimes { tn_s: s, tn_r: r })
        }
        _ => None,
    };
    ProbeVerdict {
        seq,
        status,
        duplicated: [e.probe_tx, e.probe_rx, e.echo_tx, e.echo_rx]
            .iter()
            .any(|h| h.repeated()),
        reordered: false,
        wire,
        owd_up_ms: owd(e.probe_tx, e.probe_rx),
        owd_down_ms: owd(e.echo_tx, e.echo_rx),
    }
}

/// RFC 4737-style reordering over a train's verdicts (sequence order):
/// walk delivered echoes in client-arrival order; a probe arriving after
/// one with a higher sequence number is reordered.
pub fn mark_reordered(verdicts: &mut [ProbeVerdict]) {
    let mut arrivals: Vec<(SimTime, u8)> = verdicts
        .iter()
        .filter_map(|v| v.wire.map(|w| (w.tn_r, v.seq)))
        .collect();
    arrivals.sort();
    let mut max_seq = 0u8;
    for (_, seq) in arrivals {
        if seq < max_seq {
            verdicts[seq as usize - 1].reordered = true;
        } else {
            max_seq = seq;
        }
    }
}

/// Judge a whole train of `train_len` probes from per-sequence evidence:
/// [`judge_probe`] for each, then [`mark_reordered`] across them.
pub fn judge_datagram_train(
    train_len: u8,
    mut evidence: impl FnMut(u8) -> ProbeEvidence,
) -> Vec<ProbeVerdict> {
    let mut verdicts: Vec<ProbeVerdict> = (1..=train_len)
        .map(|seq| judge_probe(seq, &evidence(seq)))
        .collect();
    mark_reordered(&mut verdicts);
    verdicts
}

/// Match every probe of a datagram train against both taps.
///
/// `client` and `server` are the two WinDump views. For each sequence
/// number `1..=train_len` the probe marker is searched in all four
/// (tap, direction) quadrants of [`ProbeEvidence`]. Echo transports
/// reuse the request bytes, so direction is the only disambiguator —
/// same trick as [`match_round`], applied across two captures.
///
/// Verdicts are returned in sequence order; reordering is judged from
/// client-Rx arrival stamps across the whole train.
pub fn match_datagram_train(
    client: &ParsedCapture,
    server: &ParsedCapture,
    method: MethodId,
    train_len: u8,
    token: u64,
) -> Vec<ProbeVerdict> {
    judge_datagram_train(train_len, |seq| {
        let marker = request_marker(method, seq, token);
        ProbeEvidence {
            probe_tx: client.evidence(CaptureDir::Tx, &marker),
            probe_rx: server.evidence(CaptureDir::Rx, &marker),
            echo_tx: server.evidence(CaptureDir::Tx, &marker),
            echo_rx: client.evidence(CaptureDir::Rx, &marker),
        }
    })
}

/// Find `tN_s`/`tN_r` for one round in a client-side capture.
///
/// One-shot convenience over [`ParsedCapture`]; callers matching many
/// rounds of the same capture should parse once and reuse it.
pub fn match_round(
    capture: &CaptureBuffer,
    method: MethodId,
    round: u8,
    token: u64,
) -> Result<WireTimes, MatchError> {
    ParsedCapture::parse(capture).match_round(method, round, token)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use std::net::Ipv4Addr;

    use bnm_sim::wire::{
        EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, TcpFlags, TcpSegment,
    };

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn tcp_frame(payload: &[u8], src_port: u16, dst_port: u16) -> Bytes {
        let seg = TcpSegment {
            src_port,
            dst_port,
            seq: 1,
            ack: 1,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 1000,
            mss: None,
            payload: Bytes::copy_from_slice(payload),
        };
        let ip = Ipv4Packet {
            src: A,
            dst: B,
            protocol: IpProtocol::Tcp,
            ttl: 64,
            ident: 1,
            payload: seg.emit(A, B),
        };
        EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
            payload: ip.emit(),
        }
        .emit()
    }

    fn capture_with(records: &[(u64, CaptureDir, &[u8])]) -> CaptureBuffer {
        let mut buf = CaptureBuffer::new("test");
        for (ms, dir, payload) in records {
            buf.record(SimTime::from_millis(*ms), *dir, &tcp_frame(payload, 5, 80));
        }
        buf
    }

    fn udp_frame(payload: &[u8]) -> Bytes {
        let dgram = bnm_sim::wire::UdpDatagram {
            src_port: 40000,
            dst_port: 3478,
            payload: Bytes::copy_from_slice(payload),
        };
        let ip = Ipv4Packet {
            src: A,
            dst: B,
            protocol: IpProtocol::Udp,
            ttl: 64,
            ident: 1,
            payload: dgram.emit(A, B),
        };
        EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
            payload: ip.emit(),
        }
        .emit()
    }

    /// Build a parsed capture of datagram probes, each record a DATA
    /// chunk wrapping the probe marker — the shape the webrtc session
    /// puts on the wire.
    fn datagram_capture(records: &[(u64, CaptureDir, u8)], token: u64) -> ParsedCapture {
        let mut buf = CaptureBuffer::new("dgram");
        for (us, dir, seq) in records {
            let marker = request_marker(MethodId::WebRtc, *seq, token);
            let chunk = bnm_sim::wire::DataChunk::data(1, *seq as u32, Bytes::from(marker));
            buf.record(
                SimTime::from_micros(*us),
                *dir,
                &udp_frame(chunk.emit().as_ref()),
            );
        }
        ParsedCapture::parse(&buf)
    }

    #[test]
    fn datagram_train_all_delivered() {
        let token = 9;
        // Probes 1..=3, 20 ms apart, 25 ms each way.
        let client = datagram_capture(
            &[
                (0, CaptureDir::Tx, 1),
                (20_000, CaptureDir::Tx, 2),
                (40_000, CaptureDir::Tx, 3),
                (50_000, CaptureDir::Rx, 1),
                (70_000, CaptureDir::Rx, 2),
                (90_000, CaptureDir::Rx, 3),
            ],
            token,
        );
        let server = datagram_capture(
            &[
                (25_000, CaptureDir::Rx, 1),
                (25_100, CaptureDir::Tx, 1),
                (45_000, CaptureDir::Rx, 2),
                (45_100, CaptureDir::Tx, 2),
                (65_000, CaptureDir::Rx, 3),
                (65_100, CaptureDir::Tx, 3),
            ],
            token,
        );
        let v = match_datagram_train(&client, &server, MethodId::WebRtc, 3, token);
        assert_eq!(v.len(), 3);
        for (i, p) in v.iter().enumerate() {
            assert_eq!(p.seq as usize, i + 1);
            assert_eq!(p.status, ProbeStatus::Delivered);
            assert!(!p.duplicated && !p.reordered);
            assert!((p.owd_up_ms.unwrap() - 25.0).abs() < 1e-9);
            assert!((p.owd_down_ms.unwrap() - 24.9).abs() < 1e-9);
        }
        let w = v[1].wire.unwrap();
        assert_eq!(w.tn_s, SimTime::from_micros(20_000));
        assert_eq!(w.tn_r, SimTime::from_micros(70_000));
    }

    #[test]
    fn datagram_losses_are_attributed_to_a_direction() {
        let token = 4;
        // Probe 1 lost upstream (never reaches the server); probe 2's
        // echo lost downstream; probe 3 delivered.
        let client = datagram_capture(
            &[
                (0, CaptureDir::Tx, 1),
                (20_000, CaptureDir::Tx, 2),
                (40_000, CaptureDir::Tx, 3),
                (90_000, CaptureDir::Rx, 3),
            ],
            token,
        );
        let server = datagram_capture(
            &[
                (45_000, CaptureDir::Rx, 2),
                (45_100, CaptureDir::Tx, 2),
                (65_000, CaptureDir::Rx, 3),
                (65_100, CaptureDir::Tx, 3),
            ],
            token,
        );
        let v = match_datagram_train(&client, &server, MethodId::WebRtc, 3, token);
        assert_eq!(v[0].status, ProbeStatus::LostUpstream);
        assert!(v[0].wire.is_none() && v[0].owd_up_ms.is_none());
        assert_eq!(v[1].status, ProbeStatus::LostDownstream);
        // The upstream leg still yields a one-way delay.
        assert!((v[1].owd_up_ms.unwrap() - 25.0).abs() < 1e-9);
        assert!(v[1].owd_down_ms.is_none() && v[1].wire.is_none());
        assert_eq!(v[2].status, ProbeStatus::Delivered);
    }

    #[test]
    fn datagram_reordering_judged_at_client_arrival() {
        let token = 2;
        // Echo of probe 2 overtakes echo of probe 3? No — probe 2's echo
        // arrives AFTER probe 3's: probe 2 is the reordered one.
        let client = datagram_capture(
            &[
                (0, CaptureDir::Tx, 1),
                (20_000, CaptureDir::Tx, 2),
                (40_000, CaptureDir::Tx, 3),
                (50_000, CaptureDir::Rx, 1),
                (90_000, CaptureDir::Rx, 3),
                (95_000, CaptureDir::Rx, 2),
            ],
            token,
        );
        let server = datagram_capture(
            &[
                (25_000, CaptureDir::Rx, 1),
                (25_100, CaptureDir::Tx, 1),
                (45_000, CaptureDir::Rx, 2),
                (45_100, CaptureDir::Tx, 2),
                (65_000, CaptureDir::Rx, 3),
                (65_100, CaptureDir::Tx, 3),
            ],
            token,
        );
        let v = match_datagram_train(&client, &server, MethodId::WebRtc, 3, token);
        assert!(!v[0].reordered);
        assert!(v[1].reordered, "late probe 2 must be flagged");
        assert!(!v[2].reordered);
        assert_eq!(v[1].status, ProbeStatus::Delivered);
    }

    #[test]
    fn datagram_duplicate_is_flagged_not_excluded() {
        let token = 6;
        let client = datagram_capture(
            &[
                (0, CaptureDir::Tx, 1),
                (50_000, CaptureDir::Rx, 1),
                (51_000, CaptureDir::Rx, 1), // duplicated echo
            ],
            token,
        );
        let server = datagram_capture(
            &[(25_000, CaptureDir::Rx, 1), (25_100, CaptureDir::Tx, 1)],
            token,
        );
        let v = match_datagram_train(&client, &server, MethodId::WebRtc, 1, token);
        assert_eq!(v[0].status, ProbeStatus::Delivered);
        assert!(v[0].duplicated);
        // First arrival is the one that counts.
        assert_eq!(v[0].wire.unwrap().tn_r, SimTime::from_micros(50_000));
    }

    #[test]
    fn http_round_matches() {
        let cap = capture_with(&[
            (
                10,
                CaptureDir::Tx,
                b"GET /probe?m=xhr_get&r=1&t=7 HTTP/1.1\r\n\r\n",
            ),
            (
                61,
                CaptureDir::Rx,
                b"HTTP/1.1 200 OK\r\n\r\npong r=1 t=7 .....",
            ),
        ]);
        let wt = match_round(&cap, MethodId::XhrGet, 1, 7).unwrap();
        assert_eq!(wt.tn_s, SimTime::from_millis(10));
        assert_eq!(wt.tn_r, SimTime::from_millis(61));
    }

    #[test]
    fn rounds_do_not_cross_match() {
        let cap = capture_with(&[
            (
                10,
                CaptureDir::Tx,
                b"GET /probe?m=xhr_get&r=1&t=7 HTTP/1.1\r\n\r\n",
            ),
            (
                61,
                CaptureDir::Rx,
                b"HTTP/1.1 200 OK\r\n\r\npong r=1 t=7 .....",
            ),
            (
                80,
                CaptureDir::Tx,
                b"GET /probe?m=xhr_get&r=2&t=7 HTTP/1.1\r\n\r\n",
            ),
            (
                131,
                CaptureDir::Rx,
                b"HTTP/1.1 200 OK\r\n\r\npong r=2 t=7 .....",
            ),
        ]);
        let r2 = match_round(&cap, MethodId::XhrGet, 2, 7).unwrap();
        assert_eq!(r2.tn_s, SimTime::from_millis(80));
        assert_eq!(r2.tn_r, SimTime::from_millis(131));
    }

    #[test]
    fn echo_transport_distinguishes_by_direction() {
        let marker = b"probe m=java_tcp r=1 t=3 .......";
        let cap = capture_with(&[
            (5, CaptureDir::Tx, marker),
            (55, CaptureDir::Rx, marker), // identical bytes echoed back
        ]);
        let wt = match_round(&cap, MethodId::JavaTcp, 1, 3).unwrap();
        assert_eq!(wt.tn_s, SimTime::from_millis(5));
        assert_eq!(wt.tn_r, SimTime::from_millis(55));
    }

    #[test]
    fn missing_response_reported() {
        let cap = capture_with(&[(5, CaptureDir::Tx, b"m=xhr_get&r=1&t=0")]);
        assert_eq!(
            match_round(&cap, MethodId::XhrGet, 1, 0).unwrap_err(),
            MatchError::ResponseNotFound
        );
    }

    #[test]
    fn missing_request_reported() {
        let cap = capture_with(&[(5, CaptureDir::Rx, b"pong r=1 t=0 ")]);
        assert_eq!(
            match_round(&cap, MethodId::XhrGet, 1, 0).unwrap_err(),
            MatchError::RequestNotFound
        );
    }

    #[test]
    fn out_of_order_reported() {
        let cap = capture_with(&[
            (60, CaptureDir::Tx, b"m=xhr_get&r=1&t=0"),
            (5, CaptureDir::Rx, b"pong r=1 t=0 "),
        ]);
        assert_eq!(
            match_round(&cap, MethodId::XhrGet, 1, 0).unwrap_err(),
            MatchError::OutOfOrder
        );
    }

    #[test]
    fn tokens_disambiguate_repetitions() {
        let cap = capture_with(&[
            (10, CaptureDir::Tx, b"m=xhr_get&r=1&t=1 "),
            (20, CaptureDir::Rx, b"pong r=1 t=1 "),
            (30, CaptureDir::Tx, b"m=xhr_get&r=1&t=2 "),
            (40, CaptureDir::Rx, b"pong r=1 t=2 "),
        ]);
        let wt = match_round(&cap, MethodId::XhrGet, 1, 2).unwrap();
        assert_eq!(wt.tn_s, SimTime::from_millis(30));
    }

    #[test]
    fn retransmitted_request_is_reported() {
        // The client's first copy was lost upstream; its TCP layer sent
        // the marker again 200 ms later. Both show in the Tx capture.
        let cap = capture_with(&[
            (10, CaptureDir::Tx, b"m=xhr_get&r=1&t=7 "),
            (210, CaptureDir::Tx, b"m=xhr_get&r=1&t=7 "),
            (261, CaptureDir::Rx, b"pong r=1 t=7 "),
        ]);
        assert_eq!(
            match_round(&cap, MethodId::XhrGet, 1, 7).unwrap_err(),
            MatchError::Retransmitted
        );
    }

    #[test]
    fn duplicated_response_is_reported() {
        let cap = capture_with(&[
            (10, CaptureDir::Tx, b"m=xhr_get&r=1&t=7 "),
            (61, CaptureDir::Rx, b"pong r=1 t=7 "),
            (62, CaptureDir::Rx, b"pong r=1 t=7 "),
        ]);
        assert_eq!(
            match_round(&cap, MethodId::XhrGet, 1, 7).unwrap_err(),
            MatchError::Retransmitted
        );
    }

    #[test]
    fn retransmission_in_one_round_leaves_others_matchable() {
        let cap = capture_with(&[
            (10, CaptureDir::Tx, b"m=xhr_get&r=1&t=7 "),
            (210, CaptureDir::Tx, b"m=xhr_get&r=1&t=7 "),
            (261, CaptureDir::Rx, b"pong r=1 t=7 "),
            (300, CaptureDir::Tx, b"m=xhr_get&r=2&t=7 "),
            (351, CaptureDir::Rx, b"pong r=2 t=7 "),
        ]);
        let parsed = ParsedCapture::parse(&cap);
        assert_eq!(
            parsed.match_round(MethodId::XhrGet, 1, 7).unwrap_err(),
            MatchError::Retransmitted
        );
        let r2 = parsed.match_round(MethodId::XhrGet, 2, 7).unwrap();
        assert_eq!(r2.tn_s, SimTime::from_millis(300));
        assert!(parsed.round_retransmitted(MethodId::XhrGet, 1, 7));
        assert!(!parsed.round_retransmitted(MethodId::XhrGet, 2, 7));
    }

    #[test]
    fn server_side_view_detects_downstream_retransmission() {
        // Server capture: request arrives once (Rx), the response leaves
        // twice (Tx) because the first copy was dropped downstream. The
        // client capture would look clean; the server view catches it.
        let cap = capture_with(&[
            (35, CaptureDir::Rx, b"m=xhr_get&r=1&t=7 "),
            (36, CaptureDir::Tx, b"pong r=1 t=7 "),
            (236, CaptureDir::Tx, b"pong r=1 t=7 "),
        ]);
        let parsed = ParsedCapture::parse(&cap);
        assert!(parsed.round_retransmitted(MethodId::XhrGet, 1, 7));
    }

    #[test]
    fn parsed_capture_matches_like_the_one_shot_helper() {
        let cap = capture_with(&[
            (
                10,
                CaptureDir::Tx,
                b"GET /probe?m=xhr_get&r=1&t=7 HTTP/1.1\r\n\r\n",
            ),
            (
                61,
                CaptureDir::Rx,
                b"HTTP/1.1 200 OK\r\n\r\npong r=1 t=7 .....",
            ),
        ]);
        let parsed = ParsedCapture::parse(&cap);
        assert_eq!(
            parsed.match_round(MethodId::XhrGet, 1, 7).unwrap(),
            match_round(&cap, MethodId::XhrGet, 1, 7).unwrap()
        );
    }

    #[test]
    fn garbage_frames_are_skipped() {
        let mut cap = capture_with(&[
            (10, CaptureDir::Tx, b"m=xhr_get&r=1&t=0"),
            (20, CaptureDir::Rx, b"pong r=1 t=0 "),
        ]);
        cap.record(
            SimTime::from_millis(1),
            CaptureDir::Rx,
            &Bytes::from_static(b"not a frame"),
        );
        assert!(match_round(&cap, MethodId::XhrGet, 1, 0).is_ok());
    }
}
