//! Property-based tests (proptest) over the core data structures and
//! invariants: wire codecs, checksums, WebSocket framing, base64/SHA-1,
//! sequence arithmetic, buffers, statistics, delay models, clocks.

use bytes::Bytes;
use proptest::prelude::*;
use std::net::Ipv4Addr;

use bnm::core::frames::payload_of;
use bnm::http::websocket::{accept_key, base64, frame::Frame, frame::FrameDecoder, frame::Opcode};
use bnm::sim::time::{SimDuration, SimTime};
use bnm::sim::wire::{
    DataChunk, Envelope, EtherType, EthernetFrame, IcmpEcho, IpProtocol, Ipv4Packet, MacAddr,
    ParsedPacket, TcpFlags, TcpSegment, Transport, UdpDatagram,
};
use bnm::stats::{summary::quantile, BoxStats, Cdf, Summary};
use bnm::tcp::seq::SeqNum;

fn ip_strategy() -> impl Strategy<Value = Ipv4Addr> {
    any::<u32>().prop_map(Ipv4Addr::from)
}

/// A TCP (with or without MSS), UDP or ICMP frame, by `kind % 3`, built
/// both ways: `(one pass, layered reference)`.
fn frame_both_ways(
    kind: u8,
    env: &Envelope,
    seed: u64,
    mss: Option<u16>,
    payload: &[u8],
) -> (Bytes, Bytes) {
    let payload = Bytes::copy_from_slice(payload);
    let (protocol, one_pass, transport) = match kind % 3 {
        0 => {
            let seg = TcpSegment {
                src_port: seed as u16,
                dst_port: (seed >> 16) as u16,
                seq: (seed >> 8) as u32,
                ack: (seed >> 24) as u32,
                flags: TcpFlags((seed >> 40) as u8 & 0x1F),
                window: (seed >> 48) as u16,
                mss,
                payload,
            };
            (
                IpProtocol::Tcp,
                env.tcp(&seg),
                seg.emit(env.src_ip, env.dst_ip),
            )
        }
        1 => {
            let dgram = UdpDatagram {
                src_port: seed as u16,
                dst_port: (seed >> 16) as u16,
                payload,
            };
            (
                IpProtocol::Udp,
                env.udp(&dgram),
                dgram.emit(env.src_ip, env.dst_ip),
            )
        }
        _ => {
            let echo = IcmpEcho {
                is_request: seed & 1 == 0,
                ident: (seed >> 16) as u16,
                seq: (seed >> 32) as u16,
                payload,
            };
            (IpProtocol::Icmp, env.icmp(&echo), echo.emit())
        }
    };
    let layered = EthernetFrame {
        dst: env.dst_mac,
        src: env.src_mac,
        ethertype: EtherType::Ipv4,
        payload: Ipv4Packet {
            src: env.src_ip,
            dst: env.dst_ip,
            protocol,
            ttl: env.ttl,
            ident: env.ident,
            payload: transport,
        }
        .emit(),
    }
    .emit();
    (one_pass, layered)
}

/// Whether `view` lies inside `frame`'s bytes: a view, not a copy.
fn is_view_into(view: &[u8], frame: &[u8]) -> bool {
    let range = frame.as_ptr_range();
    let (lo, hi) = (view.as_ptr(), view.as_ptr().wrapping_add(view.len()));
    range.start <= lo && hi <= range.end
}

/// Feed `bytes` to every wire parser and to `payload_of`, as a frame and
/// as each layer's input. Each returns `Ok` or a `WireError`; none may
/// panic.
fn parse_everywhere(bytes: &Bytes, src: Ipv4Addr, dst: Ipv4Addr) {
    for at in [0, 14, 34] {
        let b = bytes.slice(at.min(bytes.len())..);
        let _ = EthernetFrame::parse(&b);
        let _ = Ipv4Packet::parse(&b);
        let _ = TcpSegment::parse(&b, src, dst);
        let _ = UdpDatagram::parse(&b, src, dst);
        let _ = IcmpEcho::parse(&b);
        let _ = DataChunk::parse(&b);
        let _ = ParsedPacket::parse(&b);
        let _ = payload_of(&b);
    }
}

proptest! {
    // ---------- wire formats ----------

    #[test]
    fn tcp_segment_roundtrips(
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in 0u8..32,
        window in any::<u16>(),
        mss in proptest::option::of(536u16..9000),
        payload in proptest::collection::vec(any::<u8>(), 0..600),
        src in ip_strategy(),
        dst in ip_strategy(),
    ) {
        let seg = TcpSegment {
            src_port, dst_port, seq, ack,
            flags: TcpFlags(flags),
            window, mss,
            payload: Bytes::from(payload.clone()),
        };
        let wire = seg.emit(src, dst);
        let back = TcpSegment::parse(&wire, src, dst).unwrap();
        prop_assert_eq!(back.src_port, src_port);
        prop_assert_eq!(back.dst_port, dst_port);
        prop_assert_eq!(back.seq, seq);
        prop_assert_eq!(back.ack, ack);
        prop_assert_eq!(back.flags.0, flags);
        prop_assert_eq!(back.window, window);
        prop_assert_eq!(back.mss, mss);
        prop_assert_eq!(&back.payload[..], &payload[..]);
    }

    #[test]
    fn full_frame_roundtrips_and_any_corruption_is_caught(
        payload in proptest::collection::vec(any::<u8>(), 1..200),
        ident in any::<u16>(),
        corrupt_at in any::<usize>(),
        corrupt_xor in 1u8..=255,
    ) {
        let src = Ipv4Addr::new(192, 168, 1, 2);
        let dst = Ipv4Addr::new(192, 168, 1, 10);
        let seg = TcpSegment {
            src_port: 50000, dst_port: 80, seq: 1, ack: 2,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 100, mss: None,
            payload: Bytes::from(payload),
        };
        let frame = EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
            payload: Ipv4Packet {
                src, dst, protocol: IpProtocol::Tcp, ttl: 64, ident,
                payload: seg.emit(src, dst),
            }.emit(),
        }.emit();
        // Clean parse succeeds.
        prop_assert!(ParsedPacket::parse(&frame).is_ok());
        // Flip one byte anywhere past the Ethernet header: the IPv4 or TCP
        // checksum must catch it (or the parse must fail structurally).
        let mut bad = frame.to_vec();
        let idx = 14 + corrupt_at % (bad.len() - 14);
        bad[idx] ^= corrupt_xor;
        let parsed = ParsedPacket::parse(&Bytes::from(bad));
        prop_assert!(parsed.is_err(), "corruption at {} went unnoticed", idx);
    }

    #[test]
    fn udp_roundtrips(
        src_port in any::<u16>(),
        dst_port in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..400),
        src in ip_strategy(),
        dst in ip_strategy(),
    ) {
        let d = UdpDatagram { src_port, dst_port, payload: Bytes::from(payload.clone()) };
        let back = UdpDatagram::parse(&d.emit(src, dst), src, dst).unwrap();
        prop_assert_eq!(back.src_port, src_port);
        prop_assert_eq!(&back.payload[..], &payload[..]);
    }

    #[test]
    fn one_pass_frames_equal_the_layered_reference_and_parse_to_views(
        kind in 0u8..3,
        seed in any::<u64>(),
        mss in proptest::option::of(536u16..9000),
        payload in proptest::collection::vec(any::<u8>(), 0..=1460),
        macs in any::<[u8; 12]>(),
        src in ip_strategy(),
        dst in ip_strategy(),
        ttl in any::<u8>(),
        ident in any::<u16>(),
    ) {
        let env = Envelope {
            dst_mac: MacAddr(macs[..6].try_into().unwrap()),
            src_mac: MacAddr(macs[6..].try_into().unwrap()),
            src_ip: src,
            dst_ip: dst,
            ttl,
            ident,
        };
        let (frame, layered) = frame_both_ways(kind, &env, seed, mss, &payload);
        prop_assert_eq!(&frame, &layered, "kind {}", kind);
        let parsed = ParsedPacket::parse(&frame).expect("a built frame parses");
        let body = match &parsed.transport {
            Transport::Tcp(seg) => seg.payload.clone(),
            Transport::Udp(d) => d.payload.clone(),
            Transport::Icmp(e) => e.payload.clone(),
            Transport::Other(p) => panic!("protocol {p}"),
        };
        prop_assert_eq!(&body[..], &payload[..]);
        prop_assert!(is_view_into(&body, &frame), "kind {}: payload was copied", kind);
        prop_assert!(is_view_into(&parsed.ip.payload, &frame));
        if let Some(p) = payload_of(&frame) {
            prop_assert!(is_view_into(&p, &frame), "payload_of copied");
        }
    }

    #[test]
    fn truncated_and_spliced_frames_are_errors_not_panics(
        kinds in any::<[u8; 2]>(),
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        mss in proptest::option::of(536u16..9000),
        payload in proptest::collection::vec(any::<u8>(), 0..200),
        cut_a in any::<usize>(),
        cut_b in any::<usize>(),
    ) {
        let (src, dst) = (Ipv4Addr::new(192, 168, 1, 2), Ipv4Addr::new(192, 168, 1, 10));
        let env = Envelope {
            dst_mac: MacAddr::local(1),
            src_mac: MacAddr::local(2),
            src_ip: src,
            dst_ip: dst,
            ttl: 64,
            ident: 7,
        };
        let (a, _) = frame_both_ways(kinds[0], &env, seed_a, mss, &payload);
        let (b, _) = frame_both_ways(kinds[1], &env, seed_b, mss, &payload[payload.len() / 2..]);
        for n in 0..a.len() {
            let prefix = a.slice(..n);
            prop_assert!(ParsedPacket::parse(&prefix).is_err(), "a {}-byte prefix parsed", n);
            parse_everywhere(&prefix, src, dst);
        }
        let (cut_a, cut_b) = (cut_a % (a.len() + 1), cut_b % (b.len() + 1));
        let mut spliced = a[..cut_a].to_vec();
        spliced.extend_from_slice(&b[cut_b..]);
        parse_everywhere(&Bytes::from(spliced), src, dst);
    }

    // ---------- WebSocket / base64 ----------

    #[test]
    fn ws_frames_roundtrip_masked_and_unmasked(
        payload in proptest::collection::vec(any::<u8>(), 0..70000),
        mask in proptest::option::of(any::<[u8; 4]>()),
    ) {
        let f = Frame { opcode: Opcode::Binary, payload: Bytes::from(payload) };
        let wire = f.emit(mask);
        let mut d = FrameDecoder::new();
        d.feed(&wire);
        let out = d.poll().unwrap().unwrap();
        prop_assert_eq!(out, f);
        prop_assert!(d.poll().unwrap().is_none());
    }

    #[test]
    fn ws_decoder_is_incremental(
        payload in proptest::collection::vec(any::<u8>(), 0..300),
        split in any::<usize>(),
    ) {
        let f = Frame { opcode: Opcode::Text, payload: Bytes::from(payload) };
        let wire = f.emit(Some([1, 2, 3, 4]));
        let cut = split % wire.len().max(1);
        let mut d = FrameDecoder::new();
        d.feed(&wire[..cut]);
        let early = d.poll().unwrap();
        prop_assert!(early.is_none() || cut == wire.len());
        d.feed(&wire[cut..]);
        prop_assert_eq!(d.poll().unwrap().unwrap(), f);
    }

    #[test]
    fn base64_roundtrips(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        prop_assert_eq!(base64::decode(&base64::encode(&data)).unwrap(), data);
    }

    #[test]
    fn accept_key_is_deterministic_and_injective_ish(a in "[A-Za-z0-9+/]{22}==", b in "[A-Za-z0-9+/]{22}==") {
        prop_assert_eq!(accept_key(&a), accept_key(&a));
        if a != b {
            prop_assert_ne!(accept_key(&a), accept_key(&b));
        }
    }

    // ---------- sequence arithmetic ----------

    #[test]
    fn seqnum_ordering_is_antisymmetric_for_small_gaps(base in any::<u32>(), gap in 1u32..1_000_000) {
        let a = SeqNum(base);
        let b = a + gap;
        prop_assert!(a.lt(b));
        prop_assert!(!b.lt(a));
        prop_assert!(b.gt(a));
        prop_assert_eq!(b.since(a), gap);
    }

    #[test]
    fn seqnum_window_membership(base in any::<u32>(), len in 1u32..10_000, off in 0u32..20_000) {
        let s = SeqNum(base);
        let x = s + off;
        prop_assert_eq!(x.in_window(s, len), off < len);
    }

    // ---------- statistics ----------

    #[test]
    fn summary_orders_its_quantiles(data in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(&data);
        prop_assert!(s.min <= s.q1 + 1e-9);
        prop_assert!(s.q1 <= s.median + 1e-9);
        prop_assert!(s.median <= s.q3 + 1e-9);
        prop_assert!(s.q3 <= s.max + 1e-9);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.std >= 0.0);
    }

    #[test]
    fn boxstats_whiskers_inside_data_outliers_outside_fences(
        data in proptest::collection::vec(-1e4f64..1e4, 4..150)
    ) {
        let b = BoxStats::of(&data);
        let s = Summary::of(&data);
        prop_assert!(b.whisker_lo >= s.min - 1e-9);
        prop_assert!(b.whisker_hi <= s.max + 1e-9);
        prop_assert!(b.whisker_lo <= b.q1 + 1e-9);
        prop_assert!(b.whisker_hi >= b.q3 - 1e-9);
        let lo_fence = b.q1 - 1.5 * b.iqr();
        let hi_fence = b.q3 + 1.5 * b.iqr();
        for o in &b.outliers {
            prop_assert!(*o < lo_fence || *o > hi_fence);
        }
        // Outlier count + in-fence count == n.
        let inside = data.iter().filter(|&&x| x >= lo_fence && x <= hi_fence).count();
        prop_assert_eq!(inside + b.outliers.len(), b.n);
    }

    #[test]
    fn cdf_is_monotone_and_bounded(data in proptest::collection::vec(-1e4f64..1e4, 1..100), probes in proptest::collection::vec(-2e4f64..2e4, 2..20)) {
        let c = Cdf::of(&data);
        let mut sorted_probes = probes.clone();
        sorted_probes.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut last = 0.0;
        for p in sorted_probes {
            let f = c.eval(p);
            prop_assert!((0.0..=1.0).contains(&f));
            prop_assert!(f >= last - 1e-12);
            last = f;
        }
        let (lo, hi) = c.range();
        prop_assert_eq!(c.eval(hi), 1.0);
        prop_assert!(c.eval(lo - 1.0) == 0.0);
    }

    #[test]
    fn quantile_is_monotone_in_p(data in proptest::collection::vec(-1e4f64..1e4, 1..100), p1 in 0.0f64..1.0, p2 in 0.0f64..1.0) {
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = if p1 <= p2 { (p1, p2) } else { (p2, p1) };
        prop_assert!(quantile(&sorted, lo) <= quantile(&sorted, hi) + 1e-9);
    }

    // The streaming sketch must agree with the exact R-7 quantiles it
    // replaces in bounded-retention mode, within its documented bound:
    // a relative error of `relative_error_bound()` on the value axis
    // (plus the tiny absolute epsilon that the zero bucket absorbs).
    // Signs, duplicates and wide magnitude spreads are all fair game.
    #[test]
    fn sketch_quantiles_match_exact_r7_within_bound(
        data in proptest::collection::vec(-1e6f64..1e6, 1..400),
        ps in proptest::collection::vec(0.0f64..=1.0, 1..20),
        split in any::<usize>(),
    ) {
        use bnm::stats::QuantileSketch;

        // Build one sketch by straight insertion and one by merging two
        // halves: both must satisfy the bound (merge adds no error).
        let mut whole = QuantileSketch::default();
        whole.extend(&data);
        let cut = split % data.len();
        let mut left = QuantileSketch::default();
        left.extend(&data[..cut]);
        let mut right = QuantileSketch::default();
        right.extend(&data[cut..]);
        left.merge(&right);

        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let scale = sorted.iter().fold(0.0f64, |m, x| m.max(x.abs()));
        for sk in [&whole, &left] {
            prop_assert_eq!(sk.count(), data.len() as u64);
            let bound = sk.relative_error_bound() * scale + 1e-8;
            for &p in &ps {
                let exact = quantile(&sorted, p);
                let est = sk.quantile(p);
                prop_assert!(
                    (est - exact).abs() <= bound,
                    "p={}: sketch {} vs exact {} (bound {})", p, est, exact, bound
                );
            }
            // Extremes are exact: the sketch tracks min/max directly.
            prop_assert_eq!(sk.quantile(0.0), sorted[0]);
            prop_assert_eq!(sk.quantile(1.0), sorted[sorted.len() - 1]);
        }
    }

    #[test]
    fn cdf_levels_masses_sum_to_one(data in proptest::collection::vec(-100f64..100.0, 1..80), tol in 0.1f64..20.0) {
        let c = Cdf::of(&data);
        let levels = c.levels(tol);
        let total: f64 = levels.iter().map(|(_, m)| m).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        // Level centers are strictly increasing.
        for w in levels.windows(2) {
            prop_assert!(w[0].0 < w[1].0);
        }
    }

    // ---------- time & delay models ----------

    #[test]
    fn sim_time_arithmetic_is_consistent(a in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(a);
        let dur = SimDuration::from_nanos(d);
        let t2 = t + dur;
        prop_assert_eq!(t2.saturating_since(t), dur);
        prop_assert_eq!(t2.signed_millis_since(t), d as f64 / 1e6);
        prop_assert_eq!(t.signed_millis_since(t2), -(d as f64) / 1e6);
    }

    #[test]
    fn delay_model_respects_its_floor(floor in 0.0f64..10_000.0, median in 0.0f64..10_000.0, sigma in 0.0f64..2.0, seed in any::<u64>()) {
        use bnm::browser::DelayModel;
        let m = DelayModel::lognorm(floor, median, sigma);
        let mut rng = bnm::sim::rng::stream(seed, "prop");
        for _ in 0..20 {
            let s = m.sample(&mut rng);
            prop_assert!(s.as_nanos() as f64 >= floor * 1e3 - 1.0);
        }
    }

    #[test]
    fn gettime_is_monotone_nondecreasing(seed in any::<u64>(), steps in proptest::collection::vec(1u64..10_000_000, 1..50)) {
        use bnm::timeapi::{make_api, MachineTimer, OsKind, TimingApiKind};
        let machine = MachineTimer::new(OsKind::Windows7, seed);
        let mut api = make_api(TimingApiKind::JavaDateGetTime, &machine);
        let mut t = SimTime::ZERO;
        let mut last = api.read(t);
        for step in steps {
            t += SimDuration::from_nanos(step);
            let v = api.read(t);
            prop_assert!(v >= last, "clock went backwards: {} -> {}", last, v);
            last = v;
        }
    }

    #[test]
    fn granularity_quantization_error_is_bounded(seed in any::<u64>(), t_ns in 0u64..3_600_000_000_000) {
        use bnm::timeapi::{MachineTimer, OsKind};
        let machine = MachineTimer::new(OsKind::Windows7, seed);
        let t = SimTime::from_nanos(t_ns);
        let reported = machine.system_time_ms(t) as i128 - machine.epoch_ms() as i128;
        let actual = (t_ns / 1_000_000) as i128;
        let g_ms = (machine.system_granularity(t).as_nanos() / 1_000_000) as i128;
        // The reported clock lags actual time by at most one granule.
        prop_assert!(reported <= actual + 1);
        prop_assert!(actual - reported <= g_ms + 1, "lag {} > granule {}", actual - reported, g_ms);
    }
}

// ---------- event queue contract ----------
//
// Every simulation's determinism rests on one rule: events pop in
// `(time, seq)` order, with `seq` stamped by `EventQueue` in push
// order. This is the spec any scheduler must pass. The model is a plain
// `Vec` of `(time, push index)` whose next pop is its minimum; for ANY
// interleaving of pushes and pops the queue must return the same
// events, `peek_time` must name the next pop's time, and `len` must
// match.

use bnm::sim::event::{EventKind, EventQueue};

/// The queue and its model, fed the same pushes and checked pop for
/// pop.
#[derive(Default)]
struct QueueAndModel {
    queue: EventQueue,
    model: Vec<(u64, u64)>,
    pushed: u64,
}

impl QueueAndModel {
    fn push(&mut self, at_ns: u64) {
        let kind = EventKind::Timer {
            node: 0,
            token: self.pushed,
        };
        self.queue.push(SimTime::from_nanos(at_ns), kind);
        self.model.push((at_ns, self.pushed));
        self.pushed += 1;
        assert_eq!(self.queue.len(), self.model.len());
    }

    /// Pop from both, which must agree; returns the popped time.
    fn pop(&mut self) -> Option<u64> {
        let want = (0..self.model.len())
            .min_by_key(|&i| self.model[i])
            .map(|i| self.model.swap_remove(i));
        let peeked = self.queue.peek_time().map(SimTime::as_nanos);
        let got = self.queue.pop().map(|e| match e.kind {
            EventKind::Timer { token, .. } => (e.at.as_nanos(), token),
            other => panic!("only timers were pushed, popped {other:?}"),
        });
        assert_eq!(got, want, "queue and model diverged");
        let at = got.map(|(at, _)| at);
        assert_eq!(peeked, at, "peek_time is not the next pop");
        assert_eq!(self.queue.len(), self.model.len());
        at
    }

    /// Drain both: the tails must agree too, and both end empty.
    fn drain(mut self) {
        while self.pop().is_some() {}
        assert!(self.queue.is_empty());
    }
}

proptest! {
    #[test]
    fn event_queue_pops_in_time_then_push_order(
        ops in proptest::collection::vec(any::<u64>(), 1..300),
        seed in any::<u64>(),
    ) {
        // Arbitrary times. Each sampled word encodes one step: bit 0
        // chooses pop-then-push vs push; bits 1..7 pick a magnitude
        // shift so event times span nanoseconds up to the full u64
        // range, with plenty of exact duplicates at large shifts; the
        // rotated word is the raw timestamp.
        let mut q = QueueAndModel::default();
        for raw in ops {
            if raw & 1 == 1 {
                q.pop();
            }
            let shift = ((raw >> 1) & 63) as u32;
            q.push(raw.rotate_left(7) >> shift);
        }
        q.drain();

        // An engine-like schedule: never behind the last pop, mostly
        // short hops, some at the instant just popped (a node that
        // reacts by sending immediately), occasionally seconds ahead,
        // pops interleaved.
        let mut q = QueueAndModel::default();
        let mut x = seed | 1; // a xorshift state must be non-zero
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut last = 0u64;
        for _ in 0..500 {
            let hop = match next() % 10 {
                0 => next() % 4_000_000_000,
                1..=3 => next() % 1_000_000,
                4 => 0,
                _ => next() % 10_000,
            };
            q.push(last + hop);
            if next() % 3 == 0 {
                last = last.max(q.pop().expect("an event was just pushed"));
            }
        }
        q.drain();
    }
}

// ---------- link dynamics ----------
//
// The lazily-evaluated rate schedule must conserve bytes: the rate in
// force at any instant never exceeds `max_rate`, and because every
// serialization span is rounded *up*, no window of virtual time can
// deliver more than `max_rate × span` bits back-to-back. This is the
// bound the bufferbloat appraisal leans on — a schedule can starve a
// queue but never smuggle extra capacity in.
proptest! {
    #[test]
    fn rate_schedule_conserves_bytes(
        kind in 0u8..3,
        raw_steps in proptest::collection::vec(any::<u64>(), 0..16),
        period in 1u64..1_000_000_000,
        on_permille in 0u64..=1000,
        on_bps in 1u64..100_000_000,
        base_bps in 1u64..100_000_000,
        frames in proptest::collection::vec(1usize..1500, 1..50),
        probes in proptest::collection::vec(any::<u64>(), 0..32),
    ) {
        use bnm::RateSchedule;

        // The shim has no one-of combinator, so the schedule variant and
        // its parameters are sampled as primitives and assembled here.
        let schedule = match kind {
            0 => RateSchedule::Static,
            1 => {
                let mut steps: Vec<(SimTime, u64)> = raw_steps
                    .chunks_exact(2)
                    .map(|w| {
                        (
                            SimTime::from_nanos(w[0] % 60_000_000_000),
                            w[1] % 99_999_999 + 1,
                        )
                    })
                    .collect();
                steps.sort_by_key(|(t, _)| *t);
                steps.dedup_by_key(|(t, _)| *t);
                RateSchedule::Steps(steps)
            }
            _ => RateSchedule::OnOff {
                period: SimDuration::from_nanos(period),
                on: SimDuration::from_nanos(period * on_permille / 1000),
                on_bps,
            },
        };
        prop_assert!(schedule.validate().is_ok());
        let max = schedule.max_rate(base_bps);

        // At any probe instant the rate is positive and bounded, and the
        // static schedule is exactly the base rate.
        for raw in probes {
            let t = SimTime::from_nanos(raw);
            let rate = schedule.rate_at(t, base_bps);
            prop_assert!(rate >= 1);
            prop_assert!(rate <= max);
            if matches!(schedule, RateSchedule::Static) {
                prop_assert_eq!(rate, base_bps);
            }
        }

        // Serialize the frames back-to-back under the lazy rule the link
        // uses (rate sampled when serialization starts) and check the
        // conservation bound in exact integer arithmetic.
        let mut now = SimTime::ZERO;
        let mut bits: u128 = 0;
        for bytes in frames {
            let rate = schedule.rate_at(now, base_bps);
            now += SimDuration::serialization(bytes, rate);
            bits += bytes as u128 * 8;
        }
        prop_assert!(
            bits * 1_000_000_000 <= max as u128 * now.as_nanos() as u128,
            "delivered {} bits in {} ns at max rate {} bps",
            bits, now.as_nanos(), max
        );
    }
}

// An all-static schedule — explicit specs plus a `Steps` schedule with
// no change-points — must be bit-identical to the plain fixed-rate cell
// at EVERY seed, not just the one the deterministic parity test pins.
// One repetition per side keeps the whole-cell runs cheap.
proptest! {
    #[test]
    fn all_static_schedule_is_bit_identical_to_fixed_rate(seed in any::<u64>()) {
        use bnm::prelude::*;
        use bnm::sim::link::LinkSpec;
        use bnm::{LinkDynamics, LinkShape, RateSchedule};

        let build = |shaped: bool| {
            let b = ExperimentCell::builder(
                MethodId::WebSocket,
                RuntimeSel::Browser(BrowserKind::Chrome),
                OsKind::Ubuntu1204,
            )
            .reps(1)
            .seed(seed);
            let b = if shaped {
                b.link_shape(LinkShape {
                    down_spec: Some(LinkSpec::fast_ethernet()),
                    up_spec: Some(LinkSpec::fast_ethernet()),
                    down: LinkDynamics::scheduled(RateSchedule::Steps(Vec::new())),
                    up: LinkDynamics::scheduled(RateSchedule::Steps(Vec::new())),
                })
            } else {
                b
            };
            b.build().unwrap()
        };
        let plain = ExperimentRunner::try_run(&build(false)).unwrap();
        let shaped = ExperimentRunner::try_run(&build(true)).unwrap();
        prop_assert_eq!(plain.d1, shaped.d1);
        prop_assert_eq!(plain.d2, shaped.d2);
        prop_assert_eq!(plain.measurements, shaped.measurements);
        prop_assert_eq!(plain.link, shaped.link);
    }
}

// ---------- marker scanning on hostile bytes ----------
//
// The capture sinks read every marker in one pass per marker family;
// the batch matcher tests each marker on its own, with the same
// whole-token rule. On payloads built from planted markers and their
// near-misses, both must count the same evidence for every registered
// round, token and direction.

use bnm::core::matching::{request_marker, response_marker, ParsedCapture};
use bnm::core::{ServerMarkerIndex, SessionMarkerSink};
use bnm::methods::MethodId;
use bnm::sim::capture::{CaptureBuffer, CaptureDir, CaptureSink};

/// Tokens the sinks register: decimal prefixes of each other (1, 10,
/// 100), session 1 of rep 0 (`1 << 32`) and its tenfold, and the ends of
/// the range.
const SCAN_TOKENS: [u64; 7] = [0, 1, 10, 100, 1 << 32, 10 << 32, u64::MAX];

/// Where the digit run after the first `field` (`r=` or `t=`) of
/// `marker` starts.
fn after_field(marker: &[u8], field: &[u8]) -> usize {
    marker.windows(2).position(|w| w == field).unwrap() + 2
}

/// `marker` with the digit run after its first `field` replaced by
/// `digits`.
fn with_field(marker: &[u8], field: &[u8], digits: &[u8]) -> Vec<u8> {
    let at = after_field(marker, field);
    let run = marker[at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    [&marker[..at], digits, &marker[at + run..]].concat()
}

/// One payload piece, chosen by `gene`: a marker of any round from 0 to
/// past the plan and of a registered or unregistered token, or a
/// near-miss of one: a leading zero in the round or token, `r=256`, a
/// 21-digit token, 2^64, the bare prefix (a false start overlapping the
/// next piece), digits that extend the previous piece's token, a repeat
/// of the previous piece, or filler.
fn marker_piece(method: MethodId, rounds: u8, gene: u64, prev: &[u8]) -> Vec<u8> {
    let round = (gene >> 8) as u8 % (rounds + 2);
    let token = match (gene >> 16) % 9 {
        7 => 11,
        8 => 1000,
        i => SCAN_TOKENS[i as usize],
    };
    let marker = if gene >> 24 & 1 == 0 {
        request_marker(method, round, token)
    } else {
        response_marker(method, round, token)
    };
    let zero_led = |x: u64| format!("0{x}").into_bytes();
    match gene % 12 {
        0..=2 => marker,
        3 => with_field(&marker, b"r=", &zero_led(u64::from(round))),
        4 => with_field(&marker, b"t=", &zero_led(token)),
        5 => with_field(&marker, b"r=", b"256"),
        6 => with_field(&marker, b"t=", b"123456789012345678901"),
        7 => with_field(&marker, b"t=", b"18446744073709551616"),
        8 => marker[..after_field(&marker, b"r=")].to_vec(),
        9 => (gene >> 32 & 0xff).to_string().into_bytes(),
        10 => prev.to_vec(),
        _ => [&b" "[..], b"&", b"x", b"\r\n", b"t=", b"pong "][(gene >> 32) as usize % 6].to_vec(),
    }
}

/// `payload` in a TCP frame, as a tap captures it.
fn tcp_frame(payload: &[u8]) -> Bytes {
    let (src, dst) = (Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 2));
    let seg = TcpSegment {
        src_port: 50000,
        dst_port: 80,
        seq: 1,
        ack: 1,
        flags: TcpFlags::ACK | TcpFlags::PSH,
        window: 1000,
        mss: None,
        payload: Bytes::copy_from_slice(payload),
    };
    EthernetFrame {
        dst: MacAddr::local(1),
        src: MacAddr::local(2),
        ethertype: EtherType::Ipv4,
        payload: Ipv4Packet {
            src,
            dst,
            protocol: IpProtocol::Tcp,
            ttl: 64,
            ident: 1,
            payload: seg.emit(src, dst),
        }
        .emit(),
    }
    .emit()
}

/// Both capture sinks, registered for every scan token, beside a
/// retaining tap that the batch oracle reads.
struct SinksAndOracle {
    method: MethodId,
    rounds: u8,
    index: ServerMarkerIndex,
    clients: Vec<SessionMarkerSink>,
    oracle_tap: CaptureBuffer,
}

impl SinksAndOracle {
    fn new(method: MethodId, rounds: u8) -> SinksAndOracle {
        SinksAndOracle {
            method,
            rounds,
            index: ServerMarkerIndex::new(method, rounds, &SCAN_TOKENS),
            clients: SCAN_TOKENS
                .iter()
                .map(|&t| SessionMarkerSink::new(method, rounds, t))
                .collect(),
            oracle_tap: CaptureBuffer::new("oracle"),
        }
    }

    fn record(&mut self, ts: SimTime, dir: CaptureDir, frame: &Bytes) {
        self.index.on_record(ts, dir, frame);
        for client in &mut self.clients {
            client.on_record(ts, dir, frame);
        }
        self.oracle_tap.record(ts, dir, frame);
    }

    /// For every round and registered token, the sinks' evidence equals
    /// what `ParsedCapture` counts over the same records.
    fn assert_count_like_the_oracle(&self) {
        let (method, oracle) = (self.method, ParsedCapture::parse(&self.oracle_tap));
        for round in 1..=self.rounds {
            for (client, &token) in self.clients.iter().zip(&SCAN_TOKENS) {
                let req = request_marker(method, round, token);
                let resp = response_marker(method, round, token);
                let (tx, rx) = (CaptureDir::Tx, CaptureDir::Rx);
                prop_assert_eq!(
                    client.evidence(round),
                    [oracle.evidence(tx, &req), oracle.evidence(rx, &resp)],
                    "client {:?} round {} token {}",
                    method,
                    round,
                    token
                );
                prop_assert_eq!(
                    self.index.evidence(round, token),
                    Some([
                        oracle.evidence(tx, &req),
                        oracle.evidence(rx, &req),
                        oracle.evidence(tx, &resp),
                        oracle.evidence(rx, &resp),
                    ]),
                    "server {:?} round {} token {}",
                    method,
                    round,
                    token
                );
            }
        }
    }
}

proptest! {
    /// Each record's first gene also picks its direction and how many
    /// bytes to cut off its end, which can split the last marker.
    #[test]
    fn marker_sinks_count_like_the_batch_matcher(
        method in 0usize..MethodId::ALL.len(),
        rounds in 1u8..=4,
        records in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 1..8), 1..12),
    ) {
        let mut sinks = SinksAndOracle::new(MethodId::ALL[method], rounds);
        for (i, genes) in records.iter().enumerate() {
            let mut payload = Vec::new();
            let mut prev = Vec::new();
            for &gene in genes {
                prev = marker_piece(sinks.method, rounds, gene, &prev);
                payload.extend_from_slice(&prev);
            }
            payload.truncate(payload.len().saturating_sub((genes[0] >> 40) as usize % 4));
            let dir = if genes[0] >> 44 & 1 == 0 { CaptureDir::Tx } else { CaptureDir::Rx };
            sinks.record(SimTime::from_millis(i as u64), dir, &tcp_frame(&payload));
        }
        sinks.assert_count_like_the_oracle();
    }
}

// ---------- in-place readers and capture sinks on hostile frames ----------
//
// The sinks, the locator and the receiving host read each frame in
// place with `FrameLayout::read`; the batch oracle and analysis code
// parse it into owned layers with `ParsedPacket::parse`. On frames that
// are truncated, spliced, bit-flipped or rearranged, both must accept
// and reject alike, read the same fields and payload, and count the same
// marker evidence.

use bnm::core::frames::payload_range;
use bnm::sim::wire::FrameLayout;

/// A frame built from `gene` around `payload`: TCP, UDP or ICMP, an
/// IPv4 packet of a protocol this crate does not parse, or a non-IPv4
/// frame. Then kept whole, truncated, spliced with `other`, bit-flipped,
/// or with two aligned 16-bit words swapped, which keeps every
/// one's-complement sum that covers both, so such a frame may still
/// parse, with its bytes moved.
fn hostile_frame(gene: u64, payload: &[u8], other: &[u8]) -> Bytes {
    let (src, dst) = (
        Ipv4Addr::new(192, 168, 1, 2),
        Ipv4Addr::new(192, 168, 1, 10),
    );
    let env = Envelope {
        dst_mac: MacAddr::local(1),
        src_mac: MacAddr::local(2),
        src_ip: src,
        dst_ip: dst,
        ttl: 64,
        ident: gene as u16,
    };
    let frame = match gene % 5 {
        kind @ 0..=2 => frame_both_ways(kind as u8, &env, gene >> 8, None, payload).0,
        kind => {
            let ip = Ipv4Packet {
                src,
                dst,
                protocol: IpProtocol::Other([2, 41, 47, 50, 132][(gene >> 8) as usize % 5]),
                ttl: 64,
                ident: 1,
                payload: Bytes::copy_from_slice(payload),
            };
            let ethertype = if kind == 3 {
                EtherType::Ipv4
            } else {
                EtherType::Other(0x86DD)
            };
            EthernetFrame {
                dst: env.dst_mac,
                src: env.src_mac,
                ethertype,
                payload: ip.emit(),
            }
            .emit()
        }
    };
    let mut bytes = frame.to_vec();
    let (a, b) = ((gene >> 16) as usize, (gene >> 40) as usize);
    match (gene >> 4) % 6 {
        0 | 1 => {}
        2 => bytes.truncate(a % (bytes.len() + 1)),
        3 => {
            bytes.truncate(a % (bytes.len() + 1));
            bytes.extend_from_slice(&other[b % (other.len() + 1)..]);
        }
        4 => bytes[a % frame.len()] ^= 1 << (b % 8),
        _ => {
            let words = bytes.len() / 2;
            let (i, j) = (2 * (a % words), 2 * (b % words));
            let (wi, wj) = ([bytes[i], bytes[i + 1]], [bytes[j], bytes[j + 1]]);
            bytes[i..i + 2].copy_from_slice(&wj);
            bytes[j..j + 2].copy_from_slice(&wi);
        }
    }
    Bytes::from(bytes)
}

/// `FrameLayout::read` and the host's one-view transport against
/// `ParsedPacket::parse`, field for field.
fn read_in_place_like_parse(frame: &Bytes) {
    match (FrameLayout::read(frame), ParsedPacket::parse(frame)) {
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        (Ok(l), Ok(p)) => {
            prop_assert_eq!((l.dst_mac, l.src_mac), (p.eth.dst, p.eth.src));
            prop_assert_eq!(p.eth.ethertype, EtherType::Ipv4);
            prop_assert_eq!(
                (l.ip.src, l.ip.dst, l.ip.protocol, l.ip.ttl, l.ip.ident),
                (p.ip.src, p.ip.dst, p.ip.protocol, p.ip.ttl, p.ip.ident)
            );
            prop_assert_eq!(&frame[l.segment.clone()], &p.ip.payload[..]);
            let body = match (l.transport(frame), &p.transport) {
                (Transport::Tcp(a), Transport::Tcp(b)) => {
                    prop_assert_eq!(
                        (a.src_port, a.dst_port, a.seq, a.ack, a.flags, a.window, a.mss),
                        (b.src_port, b.dst_port, b.seq, b.ack, b.flags, b.window, b.mss)
                    );
                    prop_assert_eq!(&a.payload, &b.payload);
                    a.payload
                }
                (Transport::Udp(a), Transport::Udp(b)) => {
                    prop_assert_eq!((a.src_port, a.dst_port), (b.src_port, b.dst_port));
                    prop_assert_eq!(&a.payload, &b.payload);
                    a.payload
                }
                (Transport::Icmp(a), Transport::Icmp(b)) => {
                    prop_assert_eq!(&a, b);
                    a.payload
                }
                (Transport::Other(a), Transport::Other(b)) => {
                    prop_assert_eq!(a, *b);
                    Bytes::new()
                }
                (a, b) => panic!("layout read {a:?}, parse read {b:?}"),
            };
            prop_assert_eq!(&body[..], &frame[l.payload.clone()]);
            prop_assert!(
                body.is_empty() || is_view_into(&body, frame),
                "the payload was copied"
            );
        }
        (l, p) => panic!("layout {l:?} but parse {p:?}"),
    }
    let greppable = ParsedPacket::parse(frame)
        .ok()
        .and_then(|p| match p.transport {
            Transport::Tcp(seg) => Some(seg.payload),
            Transport::Udp(d) => Some(d.payload),
            Transport::Icmp(_) | Transport::Other(_) => None,
        });
    prop_assert_eq!(
        payload_range(frame).map(|r| &frame[r]),
        greppable.as_deref()
    );
}

proptest! {
    /// Each record's first gene builds and mutates its frame; the rest
    /// plant its markers. The previous record's frame is the splice
    /// partner.
    #[test]
    fn hostile_frames_read_in_place_like_the_owned_parsers(
        method in 0usize..MethodId::ALL.len(),
        rounds in 1u8..=3,
        records in proptest::collection::vec(proptest::collection::vec(any::<u64>(), 1..6), 1..12),
    ) {
        let mut sinks = SinksAndOracle::new(MethodId::ALL[method], rounds);
        let mut other = Bytes::new();
        for (i, genes) in records.iter().enumerate() {
            let mut payload = Vec::new();
            let mut prev = Vec::new();
            for &gene in &genes[1..] {
                prev = marker_piece(sinks.method, rounds, gene, &prev);
                payload.extend_from_slice(&prev);
            }
            let frame = hostile_frame(genes[0], &payload, &other);
            read_in_place_like_parse(&frame);
            let dir = if genes[0] >> 3 & 1 == 0 { CaptureDir::Tx } else { CaptureDir::Rx };
            sinks.record(SimTime::from_millis(i as u64), dir, &frame);
            other = frame;
        }
        sinks.assert_count_like_the_oracle();
    }
}

// ---------- HTTP parser: hostile and split input ----------

use bnm::http::{HttpParser, HttpRequest, HttpResponse, Method, ParseOutcome};

/// The message `gene` describes, as its `emit` writes it: a GET, POST
/// or HEAD request or a response of one of six statuses, with up to
/// three headers and a body of up to 3,000 bytes (two segments' worth).
/// A 101 upgrade carries no body, since it announces no length.
fn http_message(gene: u64) -> Bytes {
    const NAMES: [&str; 5] = ["Host", "User-Agent", "X-Probe", "Cache-Control", "Server"];
    let status = [200, 204, 404, 500, 101, 299][(gene >> 4) as usize % 6];
    let body_len = if status == 101 {
        0
    } else {
        (gene >> 8) as usize % 3_000
    };
    let body: Bytes = (0..body_len)
        .map(|i| (i as u64).wrapping_mul(31).wrapping_add(gene) as u8)
        .collect();
    let headers = (0..(gene >> 20) % 4).map(|i| {
        let name = NAMES[((gene >> (24 + 3 * i)) % 5) as usize];
        (name, format!("v{}:{}", gene >> 40, i))
    });
    if gene & 1 == 0 {
        let method = [Method::Get, Method::Post, Method::Head][(gene >> 1) as usize % 3];
        let target = format!("/probe?r={}&t={}", gene % 7, gene >> 50);
        let mut req = HttpRequest::new(method, target).with_body(body);
        for (n, v) in headers {
            req = req.header(n, v);
        }
        req.emit()
    } else {
        let mut resp = HttpResponse::new(status).with_body(body);
        for (n, v) in headers {
            resp = resp.header(n, v);
        }
        resp.emit()
    }
}

/// What a parser makes of a stream: each message re-emitted with its
/// body, then the error that stopped the stream, if one did.
type Parsed = (Vec<(Bytes, Bytes)>, Option<&'static str>);

/// Feed `wire` to a fresh parser in pieces cut at `cuts` (taken modulo
/// the stream length), draining every message each piece completes.
fn parse_split(wire: &[u8], cuts: &[usize]) -> Parsed {
    let mut bounds: Vec<usize> = cuts.iter().map(|c| c % (wire.len() + 1)).collect();
    bounds.extend([0, wire.len()]);
    bounds.sort_unstable();
    bounds.dedup();
    let mut p = HttpParser::new();
    let mut messages = Vec::new();
    for piece in bounds.windows(2) {
        let mut outcome = p.feed(Bytes::copy_from_slice(&wire[piece[0]..piece[1]]));
        loop {
            match outcome {
                ParseOutcome::Incomplete => break,
                ParseOutcome::Error(e) => return (messages, Some(e)),
                ParseOutcome::Request(r) => messages.push((r.emit(), r.body)),
                ParseOutcome::Response(r) => messages.push((r.emit(), r.body)),
            }
            outcome = p.poll();
        }
    }
    (messages, None)
}

proptest! {
    #[test]
    fn emitted_http_streams_parse_the_same_whole_or_split(
        genes in proptest::collection::vec(any::<u64>(), 1..5),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        let sent: Vec<Bytes> = genes.iter().map(|&g| http_message(g)).collect();
        let wire = sent.concat();
        let (whole, error) = parse_split(&wire, &[]);
        prop_assert_eq!(error, None);
        prop_assert_eq!(whole.len(), sent.len());
        for ((emitted, body), original) in whole.iter().zip(&sent) {
            prop_assert_eq!(emitted, original);
            prop_assert!(original.ends_with(body), "the body is not the message's tail");
        }
        prop_assert_eq!(parse_split(&wire, &cuts), (whole, None));
    }

    #[test]
    fn hostile_http_bytes_are_outcomes_not_panics(
        genes in proptest::collection::vec(any::<u64>(), 1..4),
        noise in proptest::collection::vec(any::<u8>(), 0..300),
        mutation in any::<u64>(),
        flips in proptest::collection::vec(any::<usize>(), 1..6),
        cuts in proptest::collection::vec(any::<usize>(), 0..8),
    ) {
        let wire = genes.iter().map(|&g| http_message(g)).collect::<Vec<_>>().concat();
        let at = |x: u64| x as usize % (wire.len() + 1);
        let hostile = match mutation % 4 {
            0 => noise,
            1 => wire[..at(mutation >> 8)].to_vec(),
            2 => {
                let (a, b) = (at(mutation >> 8), at(mutation >> 36));
                [&wire[..a], &noise[..], &wire[b..]].concat()
            }
            _ => {
                let mut w = wire.clone();
                for f in flips {
                    let i = f % w.len();
                    w[i] ^= 1 << (f / w.len() % 8);
                }
                w
            }
        };
        // Whole or in pieces, every feed gives an outcome, and the same one.
        prop_assert_eq!(parse_split(&hostile, &cuts), parse_split(&hostile, &[]));
    }
}
