//! Microbenchmarks of the simulation substrate: event loop throughput,
//! wire-format codec, switch forwarding.

use std::any::Any;

use bytes::Bytes;
use criterion::{criterion_group, BatchSize, Criterion};

use bnm_sim::engine::{Ctx, Engine, Node, PortNo};
use bnm_sim::link::LinkSpec;
use bnm_sim::switch::Switch;
use bnm_sim::time::SimDuration;
use bnm_sim::wire::{
    EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, ParsedPacket, TcpFlags, TcpSegment,
};

struct Echo;
impl Node for Echo {
    fn on_frame(&mut self, ctx: &mut Ctx, port: PortNo, frame: Bytes) {
        ctx.send_frame(port, frame);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct Burst {
    count: usize,
    received: usize,
}
impl Node for Burst {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for i in 0..self.count {
            ctx.send_frame(0, Bytes::from(vec![i as u8; 64]));
        }
    }
    fn on_frame(&mut self, _ctx: &mut Ctx, _port: PortNo, _frame: Bytes) {
        self.received += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn bench_engine_pingpong(c: &mut Criterion) {
    // Both variants run the *instrumented* engine; the first with the
    // default disabled trace handle (every record call is one inlined
    // branch — the tier-1 budget holds this within 2% of pre-obs wall
    // time), the second with a live buffer for the enabled-path cost.
    for (name, traced) in [
        ("engine/1000_frame_roundtrips", false),
        ("engine/1000_frame_roundtrips_traced", true),
    ] {
        c.bench_function(name, |b| {
            b.iter_batched(
                || {
                    let mut e = Engine::new();
                    let p = e.add_node(Box::new(Burst {
                        count: 1000,
                        received: 0,
                    }));
                    let s = e.add_node(Box::new(Echo));
                    e.connect(p, 0, s, 0, LinkSpec::fast_ethernet());
                    if traced {
                        e.set_trace(bnm_obs::Trace::enabled());
                    }
                    e
                },
                |mut e| {
                    e.run();
                    e.events_processed()
                },
                BatchSize::SmallInput,
            )
        });
    }
}

fn bench_switch_forwarding(c: &mut Criterion) {
    c.bench_function("engine/switched_500_roundtrips", |b| {
        b.iter_batched(
            || {
                let mut e = Engine::new();
                let p = e.add_node(Box::new(Burst {
                    count: 500,
                    received: 0,
                }));
                let s = e.add_node(Box::new(Echo));
                let sw = e.add_node(Box::new(Switch::new(2)));
                e.connect(p, 0, sw, 0, LinkSpec::fast_ethernet());
                e.connect(s, 0, sw, 1, LinkSpec::fast_ethernet());
                e
            },
            |mut e| {
                e.run();
                e.events_processed()
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_wire_codec(c: &mut Criterion) {
    let src = std::net::Ipv4Addr::new(192, 168, 1, 2);
    let dst = std::net::Ipv4Addr::new(192, 168, 1, 10);
    let seg = TcpSegment {
        src_port: 49152,
        dst_port: 80,
        seq: 1000,
        ack: 2000,
        flags: TcpFlags::ACK | TcpFlags::PSH,
        window: 65535,
        mss: None,
        payload: Bytes::from(vec![0x42u8; 512]),
    };
    let frame = EthernetFrame {
        dst: MacAddr::local(1),
        src: MacAddr::local(2),
        ethertype: EtherType::Ipv4,
        payload: Ipv4Packet {
            src,
            dst,
            protocol: IpProtocol::Tcp,
            ttl: 64,
            ident: 7,
            payload: seg.emit(src, dst),
        }
        .emit(),
    }
    .emit();
    c.bench_function("wire/emit_tcp_frame_512B", |b| {
        b.iter(|| {
            let p = Ipv4Packet {
                src,
                dst,
                protocol: IpProtocol::Tcp,
                ttl: 64,
                ident: 7,
                payload: seg.emit(src, dst),
            };
            EthernetFrame {
                dst: MacAddr::local(1),
                src: MacAddr::local(2),
                ethertype: EtherType::Ipv4,
                payload: p.emit(),
            }
            .emit()
        })
    });
    c.bench_function("wire/parse_tcp_frame_512B", |b| {
        b.iter(|| ParsedPacket::parse(&frame).unwrap())
    });
}

// ---------------------------------------------------------------------
// Crowd workload: the scheduler-bound regime.
//
// N clients each arm T timers at pseudorandom instants inside a 16 ms
// horizon, and every 32nd firing pushes a 200-byte frame down a
// dedicated link to a shared sink. The standing event population is
// N * T at boot (4,096,000 for the default 1000 x 4096): the regime
// the hierarchical timer wheel exists for, where a binary heap pays
// O(log n) with cache misses per operation.

const CROWD_CLIENTS: usize = 1000;
const CROWD_TIMERS: usize = 4096;

fn xorshift(mut x: u64) -> u64 {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    x
}

struct CrowdClient {
    seed: u64,
    timers: usize,
}
impl Node for CrowdClient {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for k in 0..self.timers {
            self.seed = xorshift(self.seed);
            let delay = self.seed % 16_000_000; // inside a 16 ms horizon
            ctx.set_timer(SimDuration::from_nanos(delay), k as u64);
        }
    }
    fn on_frame(&mut self, _ctx: &mut Ctx, _port: PortNo, _frame: Bytes) {}
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        // Every 32nd firing pushes a frame so the pool stays exercised
        // without the transmit path drowning out the scheduler.
        if token.is_multiple_of(32) {
            ctx.send_frame(0, Bytes::from(vec![token as u8; 200]));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

struct Sink {
    received: u64,
}
impl Node for Sink {
    fn on_frame(&mut self, _ctx: &mut Ctx, _port: PortNo, _frame: Bytes) {
        self.received += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn crowd_engine(clients: usize, timers: usize) -> Engine {
    let mut e = Engine::new();
    let sink = e.add_node(Box::new(Sink { received: 0 }));
    for i in 0..clients {
        let c = e.add_node(Box::new(CrowdClient {
            seed: 0x9E37_79B9_7F4A_7C15 ^ (i as u64 + 1),
            timers,
        }));
        e.connect(c, 0, sink, i, LinkSpec::fast_ethernet());
    }
    e
}

/// One full crowd run; returns (events processed, frames delivered).
fn run_crowd(clients: usize, timers: usize) -> (u64, u64) {
    let mut e = crowd_engine(clients, timers);
    e.run();
    let sink: &Sink = e.node_ref(0);
    (e.events_processed(), sink.received)
}

fn bench_crowd_scheduler(c: &mut Criterion) {
    let mut g = c.benchmark_group("engine");
    g.sample_size(10);
    g.bench_function("crowd_1000x4096_wheel_pooled", |b| {
        b.iter(|| run_crowd(CROWD_CLIENTS, CROWD_TIMERS))
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Quick mode: `BNM_BENCH_QUICK=1 cargo bench -p bnm-bench --bench engine`
// (what `scripts/check.sh --bench` runs) skips the statistics pass,
// times the crowd workload directly — best of three — and writes
// machine-readable `BENCH_engine.json` (events/sec and peak RSS) to
// `$BNM_BENCH_OUT` or the current directory.

use bnm_bench::meta::peak_rss_kib;

fn time_crowd() -> (u64, f64) {
    let mut best = f64::INFINITY;
    let mut events = 0;
    for _ in 0..3 {
        let start = std::time::Instant::now();
        let (ev, _) = run_crowd(CROWD_CLIENTS, CROWD_TIMERS);
        let dt = start.elapsed().as_secs_f64();
        events = ev;
        if dt < best {
            best = dt;
        }
    }
    (events, best)
}

fn quick_crowd_report() {
    let (events, seconds) = time_crowd();
    let eps = events as f64 / seconds;
    let rss = peak_rss_kib();
    let json = format!(
        "{{\n  \"bench\": \"engine_crowd\",\n  \"meta\": {},\n  \"clients\": {CROWD_CLIENTS},\n  \"timers_per_client\": {CROWD_TIMERS},\n  \"events\": {events},\n  \"wheel_pooled\": {{ \"seconds\": {seconds:.6}, \"events_per_sec\": {eps:.0} }},\n  \"peak_rss_kib\": {rss}\n}}\n",
        bnm_bench::meta::json_object()
    );
    let out = std::env::var("BNM_BENCH_OUT").unwrap_or_else(|_| "BENCH_engine.json".into());
    std::fs::write(&out, &json).expect("write BENCH_engine.json");
    println!(
        "engine crowd bench ({CROWD_CLIENTS} clients x {CROWD_TIMERS} timers, {events} events)"
    );
    println!("  wheel+pool      {eps:>12.0} events/sec  ({seconds:.3} s)");
    println!("  peak RSS        {rss:>12} KiB");
    println!("  wrote {out}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_engine_pingpong, bench_switch_forwarding, bench_wire_codec, bench_crowd_scheduler
}

fn main() {
    if std::env::var("BNM_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
    {
        quick_crowd_report();
        return;
    }
    benches();
}
