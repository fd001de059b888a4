//! Tier-1 guarantees of the link-dynamics layer and the scored battery:
//!
//! 1. **Static-shape parity** — a [`LinkShape`] that spells out the
//!    defaults (an explicit spec equal to the stock server link, an
//!    empty step schedule) is byte-identical to the unshaped cell: the
//!    lazily-evaluated rate path reduces to the exact fixed-rate
//!    expression.
//! 2. **Bufferbloat appraisal** — the deep drop-tail queue inflates the
//!    fresh-connection method's Δd1 severalfold over the clean testbed;
//!    the CoDel variant of the same scenario shows measurably less
//!    inflation and converts the standing delay into visible drops.
//! 3. **Standing-queue control** — at the engine level, a sustained
//!    overload through a deep drop-tail queue builds seconds of
//!    queueing delay; the identical flood under CoDel stays bounded
//!    near the target.
//! 4. **Scheduler parity** — shaped cells (AQM, time-varying) and the
//!    whole scored battery stay bit-identical between the serial and
//!    the work-stealing executor.

#![deny(deprecated)]

use std::any::Any;

use bnm::core::recommend::appraise_snapshot;
use bnm::prelude::*;
use bnm::sim::link::LinkSpec;
use bnm::sim::time::{SimDuration, SimTime};
use bnm::sim::{Ctx, Engine, Node, PortNo};
use bnm::{run_battery, BatteryConfig, LinkDynamics, LinkShape, QueueDiscipline, RateSchedule};
use bytes::Bytes;

const SEED: u64 = 0xB32B_D1CE;

fn cell(method: MethodId, browser: BrowserKind, os: OsKind, reps: u32) -> CellBuilder {
    ExperimentCell::builder(method, RuntimeSel::Browser(browser), os)
        .reps(reps)
        .seed(SEED)
}

/// (1) Spelling out the defaults through the shape plumbing changes no
/// output bit: same Δd samples, same matched measurements.
#[test]
fn explicit_static_shape_is_byte_identical_to_the_unshaped_cell() {
    let plain = cell(
        MethodId::WebSocket,
        BrowserKind::Chrome,
        OsKind::Ubuntu1204,
        3,
    )
    .build()
    .unwrap();
    // An explicit spec equal to the stock server link, plus an on-off
    // schedule that is never on: none of it is `is_static()`, so the
    // whole dynamics path is installed and must still reproduce the
    // fixed-rate arithmetic exactly.
    let never_on = || RateSchedule::OnOff {
        period: SimDuration::from_secs(1),
        on: SimDuration::ZERO,
        on_bps: 1,
    };
    let shaped = cell(
        MethodId::WebSocket,
        BrowserKind::Chrome,
        OsKind::Ubuntu1204,
        3,
    )
    .link_shape(LinkShape {
        down_spec: Some(LinkSpec::fast_ethernet()),
        up_spec: Some(LinkSpec::fast_ethernet()),
        down: LinkDynamics::scheduled(never_on()),
        up: LinkDynamics::scheduled(never_on()),
    })
    .build()
    .unwrap();
    assert!(!shaped.link_shape.is_static());

    let a = ExperimentRunner::try_run(&plain).unwrap();
    let b = ExperimentRunner::try_run(&shaped).unwrap();
    assert_eq!(a.d1, b.d1);
    assert_eq!(a.d2, b.d2);
    assert_eq!(a.measurements, b.measurements);
    assert_eq!(a.excluded_rounds, b.excluded_rounds);
    assert_eq!(a.link, b.link);
}

/// The bufferbloat scenario pair used by the battery and by (2): eight
/// synchronized clients over a 0.4 Mbps server link, stock 256 KiB
/// drop-tail queue vs the same link under an RFC 8289 CoDel.
fn bloat_builder(aqm: bool) -> CellBuilder {
    let b = cell(MethodId::FlashGet, BrowserKind::Opera, OsKind::Windows7, 5)
        .contention(ContentionSpec::clients(8).with_server_link_rate(400_000));
    if aqm {
        b.link_shape(LinkShape::symmetric(LinkDynamics::codel()))
    } else {
        b
    }
}

/// (2) The deep queue inflates Flash GET's Δd1 (its in-round handshake
/// waits behind the crowd before `tN_s`); the CoDel variant shows less
/// inflation and reports the drops the drop-tail queue never takes.
#[test]
fn bufferbloat_inflates_flash_d1_and_the_aqm_variant_relieves_it() {
    let appraise = |cell: &ExperimentCell| {
        let result = ExperimentRunner::try_run(cell).unwrap();
        let snap = result.summary(cell);
        (appraise_snapshot(&snap).unwrap(), snap.link.unwrap())
    };
    let clean = cell(MethodId::FlashGet, BrowserKind::Opera, OsKind::Windows7, 5)
        .build()
        .unwrap();
    let (clean_v, _) = appraise(&clean);
    let (bloat_v, bloat_link) = appraise(&bloat_builder(false).build().unwrap());
    let (aqm_v, aqm_link) = appraise(&bloat_builder(true).build().unwrap());

    assert!(
        bloat_v.median_ms > 2.0 * clean_v.median_ms,
        "deep queue must inflate Δd1: clean {:.1} ms, bloated {:.1} ms",
        clean_v.median_ms,
        bloat_v.median_ms
    );
    assert!(
        aqm_v.median_ms < bloat_v.median_ms,
        "CoDel must relieve the inflation: drop-tail {:.1} ms, AQM {:.1} ms",
        bloat_v.median_ms,
        aqm_v.median_ms
    );
    // The drop-tail queue is deep enough to absorb the whole burst
    // silently; CoDel signals instead of queueing.
    assert_eq!(
        bloat_link.down_queue_drops + bloat_link.up_queue_drops,
        0,
        "bufferbloat means no drops, only delay"
    );
    assert!(
        aqm_link.down_queue_drops > 0,
        "the AQM must actually drop: {aqm_link:?}"
    );
}

/// A node flooding fixed-size frames on port 0 at a fixed interval.
struct Flood {
    frames: usize,
    every: SimDuration,
    size: usize,
}

impl Node for Flood {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for i in 0..self.frames {
            ctx.set_timer(self.every.saturating_mul(i as u64), i as u64);
        }
    }
    fn on_frame(&mut self, _: &mut Ctx, _: PortNo, _: Bytes) {}
    fn on_timer(&mut self, ctx: &mut Ctx, token: u64) {
        ctx.send_frame(0, Bytes::from(vec![token as u8; self.size]));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A sink that just counts arrivals.
struct Sink {
    received: usize,
}

impl Node for Sink {
    fn on_frame(&mut self, _: &mut Ctx, _: PortNo, _: Bytes) {
        self.received += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// (3) Sustained 1.2× overload through a deep queue: drop-tail lets the
/// backlog grow until the 256 KiB bound — seconds of standing delay —
/// while the same flood under CoDel is shed early, holding the standing
/// queue an order of magnitude smaller.
#[test]
fn engine_level_standing_queue_is_bounded_by_codel() {
    // 1500 B every 25 ms = 480 kbps offered over a 0.4 Mbps link.
    let spec = LinkSpec {
        rate_bps: 400_000,
        propagation: SimDuration::ZERO,
        extra_delay: SimDuration::ZERO,
        queue_limit_bytes: 256 * 1024,
    };
    let run = |aqm: bool| {
        let mut e = Engine::new();
        let flood = e.add_node(Box::new(Flood {
            frames: 1200,
            every: SimDuration::from_millis(25),
            size: 1500,
        }));
        let sink = e.add_node(Box::new(Sink { received: 0 }));
        let link = e.connect(flood, 0, sink, 0, spec);
        if aqm {
            e.set_dynamics(link, flood, LinkDynamics::codel());
        }
        e.run_until(SimTime::from_secs(60));
        (
            e.queue_peak_bytes(link, flood),
            e.queue_drops(link, flood),
            e.node_ref::<Sink>(sink).received,
        )
    };
    let (droptail_peak, droptail_drops, droptail_received) = run(false);
    let (codel_peak, codel_drops, codel_received) = run(true);

    // Peak backlog in seconds of service time at 0.4 Mbps.
    let delay_secs = |bytes: usize| bytes as f64 * 8.0 / 400_000.0;
    assert!(
        delay_secs(droptail_peak) > 2.0,
        "drop-tail must build seconds of standing queue, got {:.2} s",
        delay_secs(droptail_peak)
    );
    assert!(
        delay_secs(codel_peak) < 0.5,
        "CoDel must hold the standing queue near target, got {:.2} s",
        delay_secs(codel_peak)
    );
    assert!(codel_peak * 10 < droptail_peak);
    assert!(
        codel_drops > droptail_drops,
        "CoDel signals early and often: {codel_drops} vs {droptail_drops}"
    );
    // Both runs still deliver the serviceable share of the flood.
    assert!(droptail_received > 0 && codel_received > 0);
}

/// (4a) Cells with live dynamics — the AQM bloat pair and a time-varying
/// schedule — keep the executor's serial/parallel bit parity.
#[test]
fn dynamic_cells_are_bit_identical_across_schedulers() {
    let varying = cell(MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204, 3)
        .link_shape(LinkShape {
            down_spec: Some(LinkSpec {
                rate_bps: 2_000_000,
                ..LinkSpec::fast_ethernet()
            }),
            down: LinkDynamics::scheduled(RateSchedule::OnOff {
                period: SimDuration::from_millis(200),
                on: SimDuration::from_millis(50),
                on_bps: 256_000,
            }),
            ..LinkShape::default()
        })
        .build()
        .unwrap();
    let aqm = bloat_builder(true).build().unwrap();
    let cells = vec![varying, aqm];

    let serial = Executor::serial().run(&cells);
    let parallel = Executor::with_workers(4).run(&cells);
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
        assert_eq!(s.measurements, p.measurements, "cell {i}");
        assert_eq!(s.link, p.link, "cell {i} link telemetry");
        assert_eq!(s.sessions.len(), p.sessions.len());
        for (ss, ps) in s.sessions.iter().zip(&p.sessions) {
            assert_eq!(ss.session, ps.session);
            assert_eq!(ss.d1, ps.d1);
            assert_eq!(ss.d2, ps.d2);
        }
        assert_eq!(
            s.summary(&cells[i]).to_json(),
            p.summary(&cells[i]).to_json(),
            "cell {i} snapshot"
        );
    }
}

/// (4b) The whole scored battery — every scenario family — renders the
/// identical report from the serial and the work-stealing executor, and
/// covers all six scenario families.
#[test]
fn battery_report_is_bit_identical_across_schedulers() {
    let cfg = BatteryConfig {
        reps: 2,
        seed: SEED,
    };
    let serial = run_battery(&cfg, &Executor::serial()).unwrap();
    let parallel = run_battery(&cfg, &Executor::with_workers(4)).unwrap();
    assert_eq!(serial.to_json(), parallel.to_json());
    assert_eq!(serial.to_csv(), parallel.to_csv());
    assert_eq!(serial.scenarios.len(), 6);
    for s in &serial.scenarios {
        assert!(
            !s.entries.is_empty(),
            "{:?} has no scored entries",
            s.scenario
        );
    }
}

/// The AQM discipline plumbs through the public config types unchanged.
#[test]
fn shape_round_trips_through_the_cell() {
    let shape = LinkShape::symmetric(LinkDynamics {
        schedule: RateSchedule::Static,
        discipline: QueueDiscipline::CoDel,
    });
    let c = cell(
        MethodId::WebSocket,
        BrowserKind::Chrome,
        OsKind::Ubuntu1204,
        1,
    )
    .link_shape(shape.clone())
    .build()
    .unwrap();
    assert_eq!(c.link_shape, shape);
}
