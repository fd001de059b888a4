//! The memory a run holds, counted through the thread-local
//! `bytes::pool` gauges and a counting global allocator.
//!
//! 1. **One buffer per frame.** A host writes each frame into one
//!    buffer and every reader (taps, switch, receiving host) parses it
//!    through views, so pool acquisitions stay near one per captured
//!    frame. Layered emits and copying parsers cost 7.6 per record.
//! 2. **A demand-bounded free list.** A thread parks at most as many
//!    idle buffers as it has had alive at once.
//! 3. **Only the bytes in flight.** A client holds its connections'
//!    unacknowledged and unread chunks, and shares its browser profile
//!    with the scenario's other sessions, so a crowd's peak heap per
//!    client stays small.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::Arc;

use bnm::browser::{BrowserKind, BrowserProfile};
use bnm::core::scenario::{Scenario, SessionSpec};
use bnm::core::testbed::TestbedConfig;
use bnm::prelude::*;
use bnm::timeapi::MachineTimer;
use bytes::{pool, Bytes};

/// Heap counts of one thread while its counting is switched on.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    on: bool,
    /// Allocations and reallocations.
    allocs: u64,
    /// Bytes allocated and not yet freed.
    live: i64,
    /// High-water mark of `live`.
    peak: i64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { on: false, allocs: 0, live: 0, peak: 0 })
    };
}

/// Apply `f` to this thread's counts, if it counts.
fn note(f: impl FnOnce(&mut Counts)) {
    let _ = COUNTS.try_with(|c| {
        let mut v = c.get();
        if v.on {
            f(&mut v);
            c.set(v);
        }
    });
}

fn grew(c: &mut Counts, by: i64) {
    c.allocs += 1;
    c.live += by;
    c.peak = c.peak.max(c.live);
}

/// The system allocator, counting on the threads that asked for it
/// ([`counted`]) and on no other.
struct Counting;

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(|c| grew(c, layout.size() as i64));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(|c| grew(c, layout.size() as i64));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(|c| grew(c, new_size as i64 - layout.size() as i64));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(|c| c.live -= layout.size() as i64);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Run `f` with this thread's heap counted from zero; its result and
/// the counts.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Counts) {
    COUNTS.with(|c| {
        c.set(Counts {
            on: true,
            ..Counts::default()
        })
    });
    let out = f();
    let counts = COUNTS.with(|c| {
        let v = c.get();
        c.set(Counts::default());
        v
    });
    (out, counts)
}

/// Run `f` on a thread of its own, so the pool it sees starts empty.
fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f)
        .join()
        .expect("the probe thread panicked")
}

/// `clients` Chrome/Ubuntu XHR sessions.
fn xhr_specs(clients: u64) -> impl Iterator<Item = SessionSpec> {
    (0..clients).map(|id| SessionSpec {
        id,
        plan: MethodId::XhrGet.plan(None),
        profile: BrowserProfile::build(BrowserKind::Chrome, OsKind::Ubuntu1204).unwrap(),
        machine: MachineTimer::new(OsKind::Ubuntu1204, 7 + id),
        seed: 100 + id,
    })
}

/// Pool acquisitions (fresh and recycled) per client-tap record over one
/// run of a `clients`-session XHR scenario at `loss`, taps retaining.
fn acquisitions_per_record(clients: u64, loss: f64) -> f64 {
    on_fresh_thread(move || {
        let cfg = TestbedConfig {
            impairment: Impairment::loss(loss),
            ..TestbedConfig::default()
        };
        let mut sc = Scenario::builder()
            .config(cfg)
            .sessions(xhr_specs(clients))
            .build()
            .unwrap();
        pool::reset_stats();
        sc.run();
        let stats = pool::stats();
        let records: usize = sc.client_taps.iter().map(|&t| sc.engine.tap(t).len()).sum();
        assert!(records > 0);
        (stats.allocated + stats.reused) as f64 / records as f64
    })
}

#[test]
fn each_frame_costs_about_one_buffer() {
    for (clients, loss) in [(1, 0.0), (8, 0.0), (8, 0.02)] {
        let per_record = acquisitions_per_record(clients, loss);
        assert!(
            per_record <= 3.0,
            "{clients} clients at {loss} loss: {per_record:.2} buffers per captured frame"
        );
    }
}

#[test]
fn the_free_list_never_outgrows_the_live_peak() {
    let (free, live_peak) = on_fresh_thread(|| {
        let cell = ExperimentCell::paper(
            MethodId::XhrGet,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        );
        for rep in 0..10 {
            ExperimentRunner::run_rep_traced(&cell, rep).expect("a paper repetition runs");
        }
        (pool::free_buffers(), pool::stats().live_peak)
    });
    assert!(live_peak > 0);
    assert!(
        free as i64 <= live_peak,
        "{free} idle buffers parked for a peak of {live_peak} live"
    );
}

#[test]
fn the_empty_buffer_allocates_nothing() {
    let ((), counts) = on_fresh_thread(|| {
        counted(|| {
            for _ in 0..1_000 {
                black_box(Bytes::new());
                black_box(Bytes::default());
            }
        })
    });
    assert_eq!(counts.allocs, 0, "empty buffers allocated");
}

#[test]
fn a_scenario_shares_one_profile() {
    let sc = Scenario::builder().sessions(xhr_specs(3)).build().unwrap();
    let first = sc.session(0).profile();
    for i in 1..sc.len() {
        assert!(
            Arc::ptr_eq(first, sc.session(i).profile()),
            "session {i} holds its own copy of the profile"
        );
    }
}

/// Peak live heap per client, in KiB, over one repetition of a crowd
/// of `clients` XHR sessions at 2% loss behind a 6.25 Mbps server
/// link, counted on a fresh thread from scenario build to verdicts.
fn peak_heap_per_client_kib(clients: u32) -> f64 {
    let (outcome, counts) = on_fresh_thread(move || {
        let cell = ExperimentCell::builder(
            MethodId::XhrGet,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        )
        .contention(ContentionSpec::clients(clients).with_server_link_rate(6_250_000))
        .impairment(Impairment::loss(0.02))
        .streaming(StreamingSpec::bounded(64))
        .build()
        .expect("a valid crowd cell");
        counted(|| ExperimentRunner::run_rep_traced(&cell, 0).map(|o| o.measurements.len()))
    });
    assert!(outcome.expect("the crowd repetition runs") > 0);
    counts.peak as f64 / 1024.0 / f64::from(clients)
}

#[test]
fn a_crowd_holds_only_the_bytes_in_flight() {
    // Per-connection byte deques that keep their largest-ever capacity,
    // a parser buffer per connection and an inline profile per session
    // read 19.0 KiB here; chunked buffers, a parser that keeps nothing
    // between messages and one shared profile read 12.8.
    let per_client = peak_heap_per_client_kib(256);
    assert!(
        per_client < 16.0,
        "peak live heap {per_client:.2} KiB per client"
    );
}
