//! Streaming capture consumption — the runner's only capture path.
//!
//! Every repetition hangs sinks off [`bnm_sim::capture::CaptureBuffer`]'s
//! streaming mode: each record is parsed and grepped **at capture time**,
//! the marker evidence ([`MarkerHits`]: a count and a first stamp per
//! marker × direction) is folded into constant-size accumulators, and the
//! frame drops immediately — pooled buffers recycle mid-run instead of
//! pinning a crowd's whole traffic until the repetition ends.
//!
//! The decisions themselves are not made here: the sinks hand their
//! evidence to the rules in [`crate::matching`] ([`judge_round`],
//! [`judge_datagram_train`]), the same functions the batch reference
//! matcher [`crate::matching::ParsedCapture`] calls. What this module must
//! get right is the *evidence*, bit for bit:
//!
//! * the tap stamps records identically in both modes (same noise RNG
//!   stream, same monotonicity clamp) — the sink sees the exact records
//!   a retaining tap would store;
//! * [`SessionMarkerSink`] applies the *same* payload extraction
//!   ([`crate::frames::payload_of`]) and substring test
//!   ([`crate::frames::contains`]) as `ParsedCapture::evidence`;
//! * [`ServerMarkerIndex`] replicates `contains`' semantics *exactly*,
//!   including the subtle one: an HTTP request marker
//!   (`m={label}&r={round}&t={token}`, no terminator) hits every record
//!   whose digit run has the token's decimal form as a **byte prefix**
//!   — token `1` matches a frame carrying token `10`. The index
//!   preserves that by structured prefix scanning rather than by
//!   assuming well-formed tokens, so its evidence equals a full parse
//!   of the server capture.

use std::any::Any;
use std::collections::HashMap;

use bnm_methods::MethodId;
use bnm_sim::capture::{CaptureDir, CaptureSink};
use bnm_sim::time::SimTime;
use bytes::Bytes;

use crate::frames::{contains, payload_of};
use crate::matching::{
    judge_datagram_train, judge_round, request_marker, response_marker, MarkerHits, MatchError,
    ProbeEvidence, ProbeVerdict, WireTimes,
};

/// Per-round marker evidence for one session's client-side tap.
#[derive(Debug, Clone)]
struct RoundHits {
    /// Full request marker bytes (needle for `contains`).
    req: Vec<u8>,
    /// Full response marker bytes.
    resp: Vec<u8>,
    /// Tx records carrying the request marker.
    req_tx: MarkerHits,
    /// Rx records carrying the response marker.
    resp_rx: MarkerHits,
}

/// Greps each record of a session's *client* tap for the session's round
/// markers as it is captured.
///
/// Its evidence equals `ParsedCapture::evidence` over the retained trace
/// — same payload extraction, same substring test — asserted against the
/// batch matcher by the tests below and by `tests/streaming_parity.rs`
/// on full runs.
#[derive(Debug)]
pub struct SessionMarkerSink {
    /// Rounds `1..=n`, in order.
    rounds: Vec<RoundHits>,
    /// The session's composite marker token.
    token: u64,
    /// Records seen (diagnostics only).
    records: u64,
}

impl SessionMarkerSink {
    /// A sink grepping for `rounds` rounds of `method` probes under
    /// `token` (the session's composite marker token).
    pub fn new(method: MethodId, rounds: u8, token: u64) -> SessionMarkerSink {
        SessionMarkerSink {
            rounds: (1..=rounds)
                .map(|r| RoundHits {
                    req: request_marker(method, r, token),
                    resp: response_marker(method, r, token),
                    req_tx: MarkerHits::default(),
                    resp_rx: MarkerHits::default(),
                })
                .collect(),
            token,
            records: 0,
        }
    }

    /// The round's `(request on Tx, response on Rx)` evidence; empty
    /// evidence for a round outside the plan.
    fn round_hits(&self, round: u8) -> (MarkerHits, MarkerHits) {
        round
            .checked_sub(1)
            .and_then(|i| self.rounds.get(usize::from(i)))
            .map_or_else(Default::default, |h| (h.req_tx, h.resp_rx))
    }

    /// `ParsedCapture::match_round`, answered from the accumulated
    /// evidence through the same [`judge_round`].
    pub fn match_round(&self, round: u8) -> Result<WireTimes, MatchError> {
        let (tx, rx) = self.round_hits(round);
        judge_round(tx, rx)
    }

    /// `match_datagram_train` for this session's train, answered from
    /// this sink (client quadrants) and the server tap's index (server
    /// quadrants) through the same [`judge_datagram_train`].
    ///
    /// Datagram methods are echo transports, so the response marker the
    /// sink counts on Rx is the probe marker itself.
    pub fn match_train(&self, server: &ServerMarkerIndex) -> Vec<ProbeVerdict> {
        judge_datagram_train(self.rounds.len() as u8, |seq| {
            let (probe_tx, echo_rx) = self.round_hits(seq);
            let at_server = server.round_hits(seq, self.token).unwrap_or_default();
            ProbeEvidence {
                probe_tx,
                probe_rx: at_server[kind_dir_index(false, CaptureDir::Rx)],
                echo_tx: at_server[kind_dir_index(false, CaptureDir::Tx)],
                echo_rx,
            }
        })
    }

    /// Records this sink observed.
    pub fn records_seen(&self) -> u64 {
        self.records
    }
}

impl CaptureSink for SessionMarkerSink {
    fn on_record(&mut self, ts: SimTime, dir: CaptureDir, frame: &Bytes) {
        self.records += 1;
        let Some(payload) = payload_of(frame) else {
            return;
        };
        for h in &mut self.rounds {
            match dir {
                CaptureDir::Tx => {
                    if contains(&payload, &h.req) {
                        h.req_tx.note(ts);
                    }
                }
                CaptureDir::Rx => {
                    if contains(&payload, &h.resp) {
                        h.resp_rx.note(ts);
                    }
                }
            }
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Marker kinds a server-side record can evidence. The order indexes
/// the per-slot evidence array: `[req_tx, req_rx, resp_tx, resp_rx]`.
const KIND_DIRS: usize = 4;

fn kind_dir_index(is_resp: bool, dir: CaptureDir) -> usize {
    (usize::from(is_resp) << 1) | usize::from(dir == CaptureDir::Rx)
}

/// One round's scan patterns for the server index.
#[derive(Debug, Clone)]
struct RoundPatterns {
    round: u8,
    /// Request-marker prefix up to (excluding) the token digits.
    req_prefix: Vec<u8>,
    /// Whether the request marker ends at the token with **no**
    /// terminator (HTTP methods) — token matching is then by decimal
    /// byte prefix, `contains`' ambiguity preserved. Space-terminated
    /// markers match the whole digit run exactly, followed by a space.
    req_is_open_ended: bool,
    /// Response-marker prefix; `None` when the response marker equals
    /// the request marker (echo transports), in which case the request
    /// evidence stands for both.
    resp_prefix: Option<Vec<u8>>,
}

/// An incremental per-direction marker index over the *server* tap,
/// shared by every session of a repetition.
///
/// Re-grepping the server capture per session × round is O(sessions ×
/// rounds × frames) over a trace that grows with the whole crowd's
/// traffic. This index instead scans each record once at capture time
/// for the per-round marker *prefixes* (session-count-independent work),
/// decodes the token digits that follow, and folds the record into the
/// [`MarkerHits`] of each `(session, round, marker, direction)` it
/// carries. Lookups — the server half of the exclusion rule and the
/// server quadrants of a datagram train — are then O(1).
#[derive(Debug)]
pub struct ServerMarkerIndex {
    patterns: Vec<RoundPatterns>,
    /// Registered token → slot base (`slot * rounds` indexes `hits`).
    tokens: HashMap<u64, u32>,
    /// Decimal forms of the registered tokens, for byte-prefix checks.
    token_digits: Vec<Vec<u8>>,
    /// `[req_tx, req_rx, resp_tx, resp_rx]` per (token slot × round).
    hits: Vec<[MarkerHits; KIND_DIRS]>,
    rounds: usize,
    /// Scratch for per-record dedup: `contains` is a per-record boolean,
    /// so two occurrences of one marker inside one payload count once.
    seen_scratch: Vec<(u32, usize)>,
}

impl ServerMarkerIndex {
    /// An index for `rounds` rounds of `method` probes from the sessions
    /// whose marker tokens are `tokens`.
    pub fn new(method: MethodId, rounds: u8, tokens: &[u64]) -> ServerMarkerIndex {
        let patterns = (1..=rounds)
            .map(|r| {
                if method.is_http_based() {
                    RoundPatterns {
                        round: r,
                        req_prefix: format!("m={}&r={}&t=", method.label(), r).into_bytes(),
                        req_is_open_ended: true,
                        resp_prefix: Some(format!("pong r={} t=", r).into_bytes()),
                    }
                } else {
                    RoundPatterns {
                        round: r,
                        req_prefix: format!("probe m={} r={} t=", method.label(), r).into_bytes(),
                        req_is_open_ended: false,
                        resp_prefix: None,
                    }
                }
            })
            .collect();
        let token_map: HashMap<u64, u32> = tokens
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u32))
            .collect();
        ServerMarkerIndex {
            patterns,
            token_digits: tokens.iter().map(|t| t.to_string().into_bytes()).collect(),
            hits: vec![[MarkerHits::default(); KIND_DIRS]; tokens.len() * rounds as usize],
            rounds: rounds as usize,
            tokens: token_map,
            seen_scratch: Vec::new(),
        }
    }

    /// The `[req_tx, req_rx, resp_tx, resp_rx]` evidence of one round of
    /// one registered session; `None` for an unknown token or round.
    fn round_hits(&self, round: u8, token: u64) -> Option<[MarkerHits; KIND_DIRS]> {
        let &slot = self.tokens.get(&token)?;
        let ri = self.patterns.iter().position(|p| p.round == round)?;
        Some(self.hits[slot as usize * self.rounds + ri])
    }

    /// `ParsedCapture::round_retransmitted`, answered from the index:
    /// whether either of the round's markers hit more than one record
    /// in any one direction.
    pub fn round_retransmitted(&self, round: u8, token: u64) -> bool {
        self.round_hits(round, token)
            .is_some_and(|h| h.iter().any(|q| q.repeated()))
    }
}

/// Note marker occurrences for the digit run following a prefix
/// occurrence at `digits_at` in `payload`.
///
/// A free function over the index's *disjoint* fields (token lookup
/// tables in, dedup scratch out) so [`ServerMarkerIndex::on_record`]
/// can call it from inside a [`find_all`] closure while iterating the
/// patterns by shared reference — no per-record needle clones or
/// occurrence-site buffers.
#[allow(clippy::too_many_arguments)] // disjoint-borrow split of &mut self
fn note_occurrence(
    tokens: &HashMap<u64, u32>,
    token_digits: &[Vec<u8>],
    seen_scratch: &mut Vec<(u32, usize)>,
    payload: &[u8],
    digits_at: usize,
    round_idx: usize,
    open_ended: bool,
    is_resp: bool,
) {
    let rest = &payload[digits_at.min(payload.len())..];
    let run_len = rest.iter().take_while(|b| b.is_ascii_digit()).count();
    if run_len == 0 {
        return;
    }
    if open_ended {
        // No terminator in the needle: token T hits iff T's decimal
        // form is a byte prefix of the digit run — exactly where
        // `contains(payload, prefix + digits(T))` succeeds. Walking
        // the run's prefixes and looking each up covers every
        // registered token that matches, without O(sessions) work.
        for k in 1..=run_len.min(20) {
            let sub = &rest[..k];
            // Registered tokens are canonical decimal (no leading
            // zeros except "0" itself), so a zero-led sub-run can
            // only be token 0 at k == 1.
            if k > 1 && sub[0] == b'0' {
                break;
            }
            let Some(tok) = parse_u64(sub) else { break };
            if let Some(&slot) = tokens.get(&tok) {
                seen_scratch.push((slot, round_idx * 2 + usize::from(is_resp)));
            }
        }
    } else {
        // The needle ends with a space: the whole digit run must be
        // the token's decimal form and the next byte a space.
        if rest.get(run_len) != Some(&b' ') {
            return;
        }
        let Some(tok) = parse_u64(&rest[..run_len]) else {
            return;
        };
        if let Some(&slot) = tokens.get(&tok) {
            // Exact-match needles can't hit a non-canonical run.
            if token_digits[slot as usize] == rest[..run_len] {
                seen_scratch.push((slot, round_idx * 2 + usize::from(is_resp)));
            }
        }
    }
}

/// Checked decimal parse of an ASCII digit slice.
fn parse_u64(digits: &[u8]) -> Option<u64> {
    let mut v: u64 = 0;
    for &d in digits {
        v = v.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
    }
    Some(v)
}

/// All start positions of `needle` in `haystack` (naive scan — payloads
/// are single frames and needles are short fixed prefixes).
fn find_all(haystack: &[u8], needle: &[u8], mut f: impl FnMut(usize)) {
    if needle.is_empty() || haystack.len() < needle.len() {
        return;
    }
    for (i, w) in haystack.windows(needle.len()).enumerate() {
        if w == needle {
            f(i);
        }
    }
}

impl CaptureSink for ServerMarkerIndex {
    fn on_record(&mut self, ts: SimTime, dir: CaptureDir, frame: &Bytes) {
        let Some(payload) = payload_of(frame) else {
            return;
        };
        debug_assert!(self.seen_scratch.is_empty());
        // Split the borrow: patterns iterate shared while the dedup
        // scratch fills — no per-record needle clones or site buffers.
        let ServerMarkerIndex {
            patterns,
            tokens,
            token_digits,
            seen_scratch,
            ..
        } = self;
        for (ri, p) in patterns.iter().enumerate() {
            find_all(&payload, &p.req_prefix, |i| {
                note_occurrence(
                    tokens,
                    token_digits,
                    seen_scratch,
                    &payload,
                    i + p.req_prefix.len(),
                    ri,
                    p.req_is_open_ended,
                    false,
                );
            });
            if let Some(rp) = &p.resp_prefix {
                find_all(&payload, rp, |i| {
                    note_occurrence(
                        tokens,
                        token_digits,
                        seen_scratch,
                        &payload,
                        i + rp.len(),
                        ri,
                        false,
                        true,
                    );
                });
            }
        }
        // `contains` is per-record: dedup before counting so multiple
        // occurrences of one marker in one payload count as one hit.
        let mut seen = std::mem::take(&mut self.seen_scratch);
        seen.sort_unstable();
        seen.dedup();
        for (slot, round_resp) in seen.drain(..) {
            let (ri, is_resp) = (round_resp / 2, round_resp % 2 == 1);
            let idx = kind_dir_index(is_resp, dir);
            self.hits[slot as usize * self.rounds + ri][idx].note(ts);
        }
        self.seen_scratch = seen;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A sink that drops every record unexamined — for taps whose contents
/// the pipeline never reads (the server tap of a clean reliable-method
/// cell, where the exclusion rule needs only the client view) while still
/// recycling frames.
#[derive(Debug, Default)]
pub struct DiscardSink {
    records: u64,
}

impl DiscardSink {
    /// Records dropped.
    pub fn records_seen(&self) -> u64 {
        self.records
    }
}

impl CaptureSink for DiscardSink {
    fn on_record(&mut self, _ts: SimTime, _dir: CaptureDir, _frame: &Bytes) {
        self.records += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    use bnm_sim::capture::CaptureBuffer;
    use bnm_sim::wire::{
        EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, TcpFlags, TcpSegment,
    };

    use crate::matching::ParsedCapture;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn tcp_frame(payload: &[u8]) -> Bytes {
        let seg = TcpSegment {
            src_port: 5,
            dst_port: 80,
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

    /// Feed the same records to a retaining buffer (batch reference) and
    /// to the sinks; return the batch parse.
    fn batch_of(records: &[(u64, CaptureDir, &[u8])]) -> ParsedCapture {
        let mut buf = CaptureBuffer::new("ref");
        for (ms, dir, payload) in records {
            buf.record(SimTime::from_millis(*ms), *dir, tcp_frame(payload));
        }
        ParsedCapture::parse(&buf)
    }

    fn feed_sink(sink: &mut dyn CaptureSink, records: &[(u64, CaptureDir, &[u8])]) {
        for (ms, dir, payload) in records {
            sink.on_record(SimTime::from_millis(*ms), *dir, &tcp_frame(payload));
        }
    }

    #[test]
    fn session_sink_matches_like_parsed_capture() {
        let records: &[(u64, CaptureDir, &[u8])] = &[
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
        ];
        let batch = batch_of(records);
        let mut sink = SessionMarkerSink::new(MethodId::XhrGet, 2, 7);
        feed_sink(&mut sink, records);
        for r in 1..=2 {
            assert_eq!(
                sink.match_round(r),
                batch.match_round(MethodId::XhrGet, r, 7),
                "round {r}"
            );
        }
        assert_eq!(sink.records_seen(), 4);
    }

    #[test]
    fn session_sink_reports_every_error_like_batch() {
        // Retransmitted request, then a round with no response, then an
        // out-of-order round.
        let records: &[(u64, CaptureDir, &[u8])] = &[
            (10, CaptureDir::Tx, b"m=xhr_get&r=1&t=9 "),
            (210, CaptureDir::Tx, b"m=xhr_get&r=1&t=9 "),
            (261, CaptureDir::Rx, b"pong r=1 t=9 "),
            (300, CaptureDir::Tx, b"m=xhr_get&r=2&t=9 "),
        ];
        let batch = batch_of(records);
        let mut sink = SessionMarkerSink::new(MethodId::XhrGet, 3, 9);
        feed_sink(&mut sink, records);
        for r in 1..=3 {
            assert_eq!(
                sink.match_round(r),
                batch.match_round(MethodId::XhrGet, r, 9),
                "round {r}"
            );
        }
    }

    #[test]
    fn session_sink_handles_echo_transports() {
        let marker: &[u8] = b"probe m=java_tcp r=1 t=3 .......";
        let records: &[(u64, CaptureDir, &[u8])] =
            &[(5, CaptureDir::Tx, marker), (55, CaptureDir::Rx, marker)];
        let batch = batch_of(records);
        let mut sink = SessionMarkerSink::new(MethodId::JavaTcp, 1, 3);
        feed_sink(&mut sink, records);
        assert_eq!(
            sink.match_round(1),
            batch.match_round(MethodId::JavaTcp, 1, 3)
        );
    }

    /// The decisive semantic test: tokens whose decimal forms prefix
    /// each other. `contains` makes token 1 hit a frame carrying token
    /// 10 for open-ended HTTP request markers (and only for those);
    /// the index must reproduce that bit-exactly.
    #[test]
    fn server_index_preserves_decimal_prefix_ambiguity() {
        let t_short = 1u64;
        let t_long = 10u64;
        let records: &[(u64, CaptureDir, &[u8])] = &[
            // One "real" occurrence for token 1...
            (10, CaptureDir::Rx, b"m=xhr_get&r=1&t=1 HTTP/1.1"),
            // ...and token 10's request, which ALSO hits token 1's
            // open-ended needle "m=xhr_get&r=1&t=1".
            (11, CaptureDir::Rx, b"m=xhr_get&r=1&t=10 HTTP/1.1"),
            // Responses are space-terminated: no cross-hit.
            (12, CaptureDir::Tx, b"pong r=1 t=1 "),
            (13, CaptureDir::Tx, b"pong r=1 t=10 "),
        ];
        let batch = batch_of(records);
        let mut idx = ServerMarkerIndex::new(MethodId::XhrGet, 2, &[t_short, t_long]);
        feed_sink(&mut idx, records);
        for &tok in &[t_short, t_long] {
            for r in 1..=2 {
                assert_eq!(
                    idx.round_retransmitted(r, tok),
                    batch.round_retransmitted(MethodId::XhrGet, r, tok),
                    "token {tok} round {r}"
                );
            }
        }
        // Token 1's request marker was hit twice (once by its own frame,
        // once inside token 10's) — the batch rule calls that
        // retransmitted, and so must the index.
        assert!(idx.round_retransmitted(1, t_short));
        assert!(!idx.round_retransmitted(1, t_long));
    }

    #[test]
    fn server_index_detects_downstream_duplicates() {
        let records: &[(u64, CaptureDir, &[u8])] = &[
            (35, CaptureDir::Rx, b"m=xhr_get&r=1&t=7 "),
            (36, CaptureDir::Tx, b"pong r=1 t=7 "),
            (236, CaptureDir::Tx, b"pong r=1 t=7 "),
        ];
        let batch = batch_of(records);
        let mut idx = ServerMarkerIndex::new(MethodId::XhrGet, 2, &[7]);
        feed_sink(&mut idx, records);
        assert!(idx.round_retransmitted(1, 7));
        assert_eq!(
            idx.round_retransmitted(1, 7),
            batch.round_retransmitted(MethodId::XhrGet, 1, 7)
        );
        assert!(!idx.round_retransmitted(2, 7));
    }

    /// Edge cases: digit runs cut off by the frame end (no terminator),
    /// non-digit continuations, duplicate occurrences within one
    /// payload, and echo markers — all against the batch oracle.
    #[test]
    fn server_index_edge_cases_agree_with_batch() {
        let tokens = &[0u64, 7, 70, 4294967296 /* 1<<32: session 1 rep 0 */];
        let records: &[(u64, CaptureDir, &[u8])] = &[
            // Truncated digit run at end of payload: space-terminated
            // needles must NOT hit.
            (1, CaptureDir::Tx, b"pong r=1 t=7"),
            // Non-digit after the run: "t=7x" — open-ended token 7 hits
            // ("m=...&t=7" is a substring), exact "pong r=1 t=7 " would
            // not.
            (2, CaptureDir::Rx, b"m=xhr_get&r=1&t=7x"),
            // Two occurrences of the same marker in one payload: one hit
            // (contains is per-record).
            (
                3,
                CaptureDir::Rx,
                b"m=xhr_get&r=1&t=70 ... m=xhr_get&r=1&t=70",
            ),
            // Token 0 and the 1<<32 composite.
            (4, CaptureDir::Rx, b"m=xhr_get&r=2&t=0 "),
            (5, CaptureDir::Rx, b"m=xhr_get&r=2&t=4294967296 "),
            (6, CaptureDir::Tx, b"pong r=2 t=4294967296 "),
            (7, CaptureDir::Tx, b"pong r=2 t=4294967296 "),
        ];
        let batch = batch_of(records);
        let mut idx = ServerMarkerIndex::new(MethodId::XhrGet, 2, tokens);
        feed_sink(&mut idx, records);
        for &tok in tokens {
            for r in 1..=2 {
                assert_eq!(
                    idx.round_retransmitted(r, tok),
                    batch.round_retransmitted(MethodId::XhrGet, r, tok),
                    "token {tok} round {r}"
                );
            }
        }
        // The duplicated pong makes (round 2, 1<<32) retransmitted.
        assert!(idx.round_retransmitted(2, 4294967296));
    }

    #[test]
    fn server_index_echo_methods_agree_with_batch() {
        let records: &[(u64, CaptureDir, &[u8])] = &[
            (5, CaptureDir::Rx, b"probe m=java_tcp r=1 t=3 ......."),
            (6, CaptureDir::Tx, b"probe m=java_tcp r=1 t=3 ......."),
            (206, CaptureDir::Tx, b"probe m=java_tcp r=1 t=3 ......."),
            (300, CaptureDir::Rx, b"probe m=java_tcp r=2 t=3 ......."),
            (301, CaptureDir::Tx, b"probe m=java_tcp r=2 t=3 ......."),
        ];
        let batch = batch_of(records);
        let mut idx = ServerMarkerIndex::new(MethodId::JavaTcp, 2, &[3]);
        feed_sink(&mut idx, records);
        for r in 1..=2 {
            assert_eq!(
                idx.round_retransmitted(r, 3),
                batch.round_retransmitted(MethodId::JavaTcp, r, 3),
                "round {r}"
            );
        }
        assert!(idx.round_retransmitted(1, 3));
        assert!(!idx.round_retransmitted(2, 3));
    }

    /// A datagram train judged from the client sink and the server
    /// index equals `match_datagram_train` over both retained captures:
    /// losses in each direction, a duplicated echo, a reordered echo and
    /// first-stamp one-way delays.
    #[test]
    fn streamed_train_matches_batch_train() {
        let token = 5;
        let m = |seq| request_marker(MethodId::WebRtc, seq, token);
        let (m1, m2, m3, m4) = (m(1), m(2), m(3), m(4));
        let client: &[(u64, CaptureDir, &[u8])] = &[
            (0, CaptureDir::Tx, &m1),
            (20, CaptureDir::Tx, &m2),
            (40, CaptureDir::Tx, &m3),
            (60, CaptureDir::Tx, &m4),
            (50, CaptureDir::Rx, &m1),
            (51, CaptureDir::Rx, &m1), // duplicated echo
            (110, CaptureDir::Rx, &m4),
            (115, CaptureDir::Rx, &m2), // overtaken by probe 4's echo
        ];
        let server: &[(u64, CaptureDir, &[u8])] = &[
            (25, CaptureDir::Rx, &m1),
            (26, CaptureDir::Tx, &m1),
            (45, CaptureDir::Rx, &m2),
            (46, CaptureDir::Tx, &m2),
            // Probe 3 never reaches the server.
            (85, CaptureDir::Rx, &m4),
            (86, CaptureDir::Tx, &m4),
        ];
        let batch = crate::matching::match_datagram_train(
            &batch_of(client),
            &batch_of(server),
            MethodId::WebRtc,
            4,
            token,
        );
        let mut sink = SessionMarkerSink::new(MethodId::WebRtc, 4, token);
        feed_sink(&mut sink, client);
        let mut idx = ServerMarkerIndex::new(MethodId::WebRtc, 4, &[token]);
        feed_sink(&mut idx, server);
        let streamed = sink.match_train(&idx);
        assert_eq!(streamed, batch);
        assert!(streamed[0].duplicated);
        assert!(streamed[1].reordered);
        assert_eq!(streamed[2].status, crate::ProbeStatus::LostUpstream);
        assert_eq!(streamed[0].owd_up_ms, Some(25.0));
    }

    #[test]
    fn discard_sink_only_counts() {
        let mut s = DiscardSink::default();
        s.on_record(SimTime::ZERO, CaptureDir::Tx, &tcp_frame(b"anything"));
        s.on_record(SimTime::ZERO, CaptureDir::Rx, &Bytes::from_static(b"junk"));
        assert_eq!(s.records_seen(), 2);
    }
}
