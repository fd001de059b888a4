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
//! * both sinks apply the *same* payload extraction
//!   ([`crate::frames::payload_of`]) as `ParsedCapture::evidence`;
//! * they find the same markers without testing each one. The oracle
//!   asks [`crate::frames::carries_marker`] about one marker at a time.
//!   A sink scans each payload once per **marker family** instead: the
//!   fixed text a method's markers share before the round
//!   (`m={label}&r=`, `pong r=`, `probe m={label} r=`). It reads the
//!   canonical round after each occurrence, then the separator (`&t=`
//!   or ` t=`), the token's whole canonical digit run, and the trailing
//!   space where the form has one. A payload carries the marker of
//!   `(round, token)` exactly when the scan reads `(round, token)` from
//!   it: the marker rule also takes the whole digit run after `t=`, so
//!   token `1` never hits a frame carrying token `10`.

use std::any::Any;
use std::collections::HashMap;

use bnm_methods::MethodId;
use bnm_sim::capture::{CaptureDir, CaptureSink};
use bnm_sim::time::SimTime;
use bytes::Bytes;

use crate::frames::payload_of;
use crate::matching::{
    judge_datagram_train, judge_round, MarkerHits, MatchError, ProbeEvidence, ProbeVerdict,
    WireTimes,
};

/// One kind of marker, by the fixed text before its round. An HTTP
/// request marker is a query string, `m={label}&r={round}&t={token}`,
/// with nothing after the token; the others are space-separated words,
/// `pong r={round} t={token} ` and `probe m={label} r={round} t={token} `.
/// Round and token are canonical decimal, as
/// [`crate::matching::request_marker`] formats them.
#[derive(Debug)]
struct MarkerFamily {
    prefix: Vec<u8>,
    query: bool,
}

impl MarkerFamily {
    /// Every distinct `(round, token)` this family's markers carry in
    /// `payload`, each once, into `out` (cleared first): a marker hit is
    /// a per-record boolean, however often the marker repeats.
    fn scan(&self, payload: &[u8], out: &mut Vec<(u8, u64)>) {
        out.clear();
        let Some((&first, tail)) = self.prefix.split_first() else {
            return;
        };
        let sep: &[u8] = if self.query { b"&t=" } else { b" t=" };
        let marker_at = |rest: &[u8]| {
            let (round, rest) = canonical_number(rest.strip_prefix(tail)?)?;
            let (token, rest) = canonical_number(rest.strip_prefix(sep)?)?;
            (self.query || rest.first() == Some(&b' ')).then_some((round, token))
        };
        let mut at = 0;
        while let Some(skip) = find_byte(&payload[at..], first) {
            at += skip + 1;
            out.extend(marker_at(&payload[at..]));
        }
        if out.len() > 1 {
            out.sort_unstable();
            out.dedup();
        }
    }
}

/// Index of the first `byte` in `hay`, eight bytes at a time (what
/// `memchr` does without SIMD). XORed with `byte` in every lane, a word
/// has a zero byte wherever `byte` was, and the lowest byte the
/// zero-byte test flags is always a real zero: borrows only carry
/// upwards.
fn find_byte(hay: &[u8], byte: u8) -> Option<usize> {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGHS: u64 = u64::from_ne_bytes([0x80; 8]);
    let splat = u64::from_ne_bytes([byte; 8]);
    let mut words = hay.chunks_exact(8);
    for (i, word) in (&mut words).enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("8-byte chunk")) ^ splat;
        let zeros = x.wrapping_sub(ONES) & !x & HIGHS;
        if zeros != 0 {
            return Some(i * 8 + zeros.trailing_zeros() as usize / 8);
        }
    }
    let tail = words.remainder();
    let at = hay.len() - tail.len();
    tail.iter().position(|&b| b == byte).map(|k| at + k)
}

/// The whole digit run at the start of `bytes`, parsed, and the bytes
/// after it; `None` unless the run is canonical (no leading zero other
/// than `0` itself) and fits `T`.
fn canonical_number<T: std::str::FromStr>(bytes: &[u8]) -> Option<(T, &[u8])> {
    let len = bytes.iter().take_while(|b| b.is_ascii_digit()).count();
    let (digits, rest) = bytes.split_at(len);
    if len == 0 || (len > 1 && digits[0] == b'0') {
        return None;
    }
    let n = std::str::from_utf8(digits).ok()?.parse().ok()?;
    Some((n, rest))
}

/// A method's marker families, built once per sink.
#[derive(Debug)]
struct MarkerScanner {
    request: MarkerFamily,
    /// `None` for echo transports, whose response is the request
    /// marker itself.
    response: Option<MarkerFamily>,
}

impl MarkerScanner {
    fn new(method: MethodId) -> MarkerScanner {
        let label = method.label();
        let family = |prefix: String, query| MarkerFamily {
            prefix: prefix.into_bytes(),
            query,
        };
        if method.is_http_based() {
            MarkerScanner {
                request: family(format!("m={label}&r="), true),
                response: Some(family("pong r=".into(), false)),
            }
        } else {
            MarkerScanner {
                request: family(format!("probe m={label} r="), false),
                response: None,
            }
        }
    }

    /// The family a client tap looks for in `dir`: requests leave on
    /// Tx, responses arrive on Rx.
    fn client_family(&self, dir: CaptureDir) -> &MarkerFamily {
        match (dir, &self.response) {
            (CaptureDir::Rx, Some(resp)) => resp,
            _ => &self.request,
        }
    }
}

/// Finds the session's round markers in each record of its *client* tap
/// as it is captured: one scan per record, of the family its direction
/// carries, and one `==` against the session's token per marker found.
///
/// Its evidence equals `ParsedCapture::evidence` over the retained trace
/// — same payload extraction, same whole-token rule — asserted against
/// the batch matcher by the tests below, by `tests/properties.rs` on
/// hostile payloads and by `tests/streaming_parity.rs` on full runs.
#[derive(Debug)]
pub struct SessionMarkerSink {
    scanner: MarkerScanner,
    /// `[request on Tx, response on Rx]` evidence of rounds `1..=n`, in
    /// order.
    rounds: Vec<[MarkerHits; 2]>,
    /// The session's composite marker token.
    token: u64,
    /// Records seen (diagnostics only).
    records: u64,
    /// The markers of the record being scanned.
    found: Vec<(u8, u64)>,
}

impl SessionMarkerSink {
    /// A sink grepping for `rounds` rounds of `method` probes under
    /// `token` (the session's composite marker token).
    pub fn new(method: MethodId, rounds: u8, token: u64) -> SessionMarkerSink {
        SessionMarkerSink {
            scanner: MarkerScanner::new(method),
            rounds: vec![Default::default(); usize::from(rounds)],
            token,
            records: 0,
            found: Vec::new(),
        }
    }

    /// The round's evidence on this tap, `[request marker on Tx,
    /// response marker on Rx]`, as `ParsedCapture::evidence` counts it
    /// over the retained trace; empty for a round outside the plan.
    pub fn evidence(&self, round: u8) -> [MarkerHits; 2] {
        round_index(round, self.rounds.len()).map_or_else(Default::default, |i| self.rounds[i])
    }

    /// `ParsedCapture::match_round`, answered from the accumulated
    /// evidence through the same [`judge_round`].
    pub fn match_round(&self, round: u8) -> Result<WireTimes, MatchError> {
        let [tx, rx] = self.evidence(round);
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
            let [probe_tx, echo_rx] = self.evidence(seq);
            let at_server = server.evidence(seq, self.token).unwrap_or_default();
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
        let family = self.scanner.client_family(dir);
        family.scan(&payload, &mut self.found);
        for &(round, token) in &self.found {
            match round_index(round, self.rounds.len()) {
                Some(i) if token == self.token => {
                    self.rounds[i][usize::from(dir == CaptureDir::Rx)].note(ts);
                }
                _ => {}
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

/// Index of plan round `round` in per-round storage of `rounds` rounds.
fn round_index(round: u8, rounds: usize) -> Option<usize> {
    usize::from(round).checked_sub(1).filter(|&i| i < rounds)
}

/// Marker kinds a server-side record can evidence. The order indexes
/// the per-slot evidence array: `[req_tx, req_rx, resp_tx, resp_rx]`.
const KIND_DIRS: usize = 4;

fn kind_dir_index(is_resp: bool, dir: CaptureDir) -> usize {
    (usize::from(is_resp) << 1) | usize::from(dir == CaptureDir::Rx)
}

/// An incremental per-direction marker index over the *server* tap,
/// shared by every session of a repetition.
///
/// Re-grepping the server capture per session × round is O(sessions ×
/// rounds × frames) over a trace that grows with the whole crowd's
/// traffic. This index instead scans each record once per marker family
/// at capture time (at most twice, and independent of the session
/// count), looks each marker's token up once, and folds the record into
/// the [`MarkerHits`] of each `(session, round, marker, direction)` it
/// carries. Lookups — the server half of the exclusion rule and the
/// server quadrants of a datagram train — are then O(1).
#[derive(Debug)]
pub struct ServerMarkerIndex {
    scanner: MarkerScanner,
    /// Registered token → slot (`slot * rounds` indexes `hits`).
    tokens: HashMap<u64, u32>,
    /// `[req_tx, req_rx, resp_tx, resp_rx]` per (token slot × round).
    hits: Vec<[MarkerHits; KIND_DIRS]>,
    rounds: usize,
    /// The markers of the record being scanned.
    found: Vec<(u8, u64)>,
}

impl ServerMarkerIndex {
    /// An index for `rounds` rounds of `method` probes from the sessions
    /// whose marker tokens are `tokens`.
    pub fn new(method: MethodId, rounds: u8, tokens: &[u64]) -> ServerMarkerIndex {
        let rounds = usize::from(rounds);
        ServerMarkerIndex {
            scanner: MarkerScanner::new(method),
            tokens: (0..).zip(tokens).map(|(slot, &t)| (t, slot)).collect(),
            hits: vec![[MarkerHits::default(); KIND_DIRS]; tokens.len() * rounds],
            rounds,
            found: Vec::new(),
        }
    }

    /// The evidence of one round of one registered session on the
    /// server tap, `[request on Tx, request on Rx, response on Tx,
    /// response on Rx]`, as `ParsedCapture::evidence` counts it (an echo
    /// transport's response is its request marker); `None` for an
    /// unknown token or round.
    pub fn evidence(&self, round: u8, token: u64) -> Option<[MarkerHits; KIND_DIRS]> {
        let &slot = self.tokens.get(&token)?;
        let h = self.hits[slot as usize * self.rounds + round_index(round, self.rounds)?];
        Some(match self.scanner.response {
            Some(_) => h,
            None => [h[0], h[1], h[0], h[1]],
        })
    }

    /// `ParsedCapture::round_retransmitted`, answered from the index:
    /// whether either of the round's markers hit more than one record
    /// in any one direction.
    pub fn round_retransmitted(&self, round: u8, token: u64) -> bool {
        self.evidence(round, token)
            .is_some_and(|h| h.iter().any(|q| q.repeated()))
    }
}

impl CaptureSink for ServerMarkerIndex {
    fn on_record(&mut self, ts: SimTime, dir: CaptureDir, frame: &Bytes) {
        let Some(payload) = payload_of(frame) else {
            return;
        };
        let families = [
            (false, Some(&self.scanner.request)),
            (true, self.scanner.response.as_ref()),
        ];
        for (is_resp, family) in families {
            let Some(family) = family else { continue };
            family.scan(&payload, &mut self.found);
            for &(round, token) in &self.found {
                let slot = self.tokens.get(&token);
                if let (Some(&slot), Some(ri)) = (slot, round_index(round, self.rounds)) {
                    self.hits[slot as usize * self.rounds + ri][kind_dir_index(is_resp, dir)]
                        .note(ts);
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

    use crate::matching::{request_marker, ParsedCapture};

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
    /// each other. The HTTP request marker has no terminator, but token
    /// 1 must still not hit a frame carrying token 10: the index and the
    /// batch oracle both match the whole digit run.
    #[test]
    fn server_index_matches_whole_tokens_only() {
        let t_short = 1u64;
        let t_long = 10u64;
        let records: &[(u64, CaptureDir, &[u8])] = &[
            // One occurrence for token 1...
            (10, CaptureDir::Rx, b"m=xhr_get&r=1&t=1 HTTP/1.1"),
            // ...and token 10's request, whose digit run "10" is not
            // token 1 although "m=xhr_get&r=1&t=1" is a substring.
            (11, CaptureDir::Rx, b"m=xhr_get&r=1&t=10 HTTP/1.1"),
            // Responses are space-terminated: no cross-hit either.
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
        // Each request was seen once: neither round is retransmitted.
        assert!(!idx.round_retransmitted(1, t_short));
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
            // (the run is "7"), space-terminated "pong r=1 t=7 " would
            // not.
            (2, CaptureDir::Rx, b"m=xhr_get&r=1&t=7x"),
            // Two occurrences of the same marker in one payload: one hit
            // (a hit is per-record).
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
    fn find_byte_agrees_with_position() {
        let hay: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37) % 7).collect();
        for start in 0..hay.len() {
            for byte in 0..8 {
                let hay = &hay[start..];
                assert_eq!(
                    find_byte(hay, byte),
                    hay.iter().position(|&b| b == byte),
                    "start {start} byte {byte}"
                );
            }
        }
        assert_eq!(find_byte(&[0x80, 0x01, 0x00, 0xff], 0xff), Some(3));
    }

    #[test]
    fn discard_sink_only_counts() {
        let mut s = DiscardSink::default();
        s.on_record(SimTime::ZERO, CaptureDir::Tx, &tcp_frame(b"anything"));
        s.on_record(SimTime::ZERO, CaptureDir::Rx, &Bytes::from_static(b"junk"));
        assert_eq!(s.records_seen(), 2);
    }
}
