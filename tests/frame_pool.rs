//! The frame buffers a run allocates, counted through the thread-local
//! `bytes::pool` gauges.
//!
//! 1. **One buffer per frame.** A host writes each frame into one
//!    buffer and every reader (taps, switch, receiving host) parses it
//!    through views, so pool acquisitions stay near one per captured
//!    frame. Layered emits and copying parsers cost 7.6 per record.
//! 2. **A demand-bounded free list.** A thread parks at most as many
//!    idle buffers as it has had alive at once.

use bnm::browser::{BrowserKind, BrowserProfile};
use bnm::core::scenario::{Scenario, SessionSpec};
use bnm::core::testbed::TestbedConfig;
use bnm::prelude::*;
use bnm::timeapi::MachineTimer;
use bytes::pool;

/// Run `f` on a thread of its own, so the pool it sees starts empty.
fn on_fresh_thread<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::spawn(f)
        .join()
        .expect("the probe thread panicked")
}

/// Pool acquisitions (fresh and recycled) per client-tap record over one
/// run of a `clients`-session XHR scenario at `loss`, taps retaining.
fn acquisitions_per_record(clients: u64, loss: f64) -> f64 {
    on_fresh_thread(move || {
        let specs = (0..clients).map(|id| SessionSpec {
            id,
            plan: MethodId::XhrGet.plan(None),
            profile: BrowserProfile::build(BrowserKind::Chrome, OsKind::Ubuntu1204).unwrap(),
            machine: MachineTimer::new(OsKind::Ubuntu1204, 7 + id),
            seed: 100 + id,
        });
        let cfg = TestbedConfig {
            impairment: Impairment::loss(loss),
            ..TestbedConfig::default()
        };
        let mut sc = Scenario::builder()
            .config(cfg)
            .sessions(specs)
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
