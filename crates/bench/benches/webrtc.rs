//! WebRTC datagram-appraisal benchmark: the per-probe matching path.
//!
//! The workload is a WebRTC data-channel cell under 2% symmetric loss —
//! every rep fires a 16-probe train, streams both capture taps through
//! marker sinks, and judges every probe from their evidence (delivered /
//! lost-by-direction / reordered / duplicated) plus per-probe OWDs and
//! RFC 3550 jitter. Two costs matter and both are reported:
//!
//! * `reps_per_sec` — end-to-end throughput of the datagram cell
//!   (simulate + capture + per-probe match + fold), the number that must
//!   not regress as the matcher grows features.
//! * `probes_per_sec` — the same run normalised to appraised probes,
//!   comparable across train lengths.
//!
//! Quick mode (`BNM_BENCH_QUICK=1`, what `scripts/check.sh --bench`
//! runs) times one batch and writes `BENCH_webrtc.json` (to
//! `$BNM_BENCH_WEBRTC_OUT` or the current directory).

use criterion::{criterion_group, Criterion};

use bnm_bench::meta;
use bnm_browser::BrowserKind;
use bnm_core::{CellResult, ExperimentCell, ExperimentRunner, Impairment, RuntimeSel};
use bnm_methods::MethodId;
use bnm_time::OsKind;

/// Frame loss on the path, so the matcher exercises the lost/reordered
/// verdict arms and not just the happy path.
const LOSS: f64 = 0.02;
/// Repetitions (16-probe trains) folded in quick mode.
const REPS: u32 = 200;

fn webrtc_cell(reps: u32) -> ExperimentCell {
    ExperimentCell::builder(
        MethodId::WebRtc,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(reps)
    .seed(0x5E17_BEEF)
    .impairment(Impairment::loss(LOSS))
    .build()
    .expect("webrtc cell is runnable")
}

/// Run the cell; wall seconds spent and the result.
fn timed_run(cell: &ExperimentCell) -> (f64, CellResult) {
    let start = std::time::Instant::now();
    let r = ExperimentRunner::try_run(cell).expect("webrtc cell runs");
    (start.elapsed().as_secs_f64(), r)
}

// ---------------------------------------------------------------------
// Criterion mode: smaller rep counts so the statistics pass stays
// tractable.

fn bench_webrtc(c: &mut Criterion) {
    let mut g = c.benchmark_group("webrtc");
    g.sample_size(10);
    g.bench_function("train_10_reps", |b| {
        let cell = webrtc_cell(10);
        b.iter(|| ExperimentRunner::try_run(&cell).expect("runnable"))
    });
    g.finish();
}

// ---------------------------------------------------------------------
// Quick mode: one batch with the acceptance numbers written to
// BENCH_webrtc.json.

fn quick_webrtc_report() {
    let cell = webrtc_cell(REPS);
    let (secs, result) = timed_run(&cell);
    let reps_per_sec = f64::from(REPS) / secs.max(1e-9);

    let d = result
        .sessions
        .iter()
        .find_map(|s| s.datagram.as_ref())
        .expect("webrtc cell yields datagram samples");
    assert_eq!(d.sent, u64::from(REPS) * 16, "every probe appraised");
    assert!(d.delivered > 0, "loss sweep must deliver probes");
    let probes_per_sec = d.sent as f64 / secs.max(1e-9);

    let json = format!(
        "{{\n  \"bench\": \"webrtc_datagram\",\n  \"meta\": {},\n  \"loss\": {LOSS},\n  \"reps\": {REPS},\n  \"probes_sent\": {},\n  \"probes_delivered\": {},\n  \"reps_per_sec\": {reps_per_sec:.2},\n  \"probes_per_sec\": {probes_per_sec:.1},\n  \"peak_rss_kib\": {}\n}}\n",
        meta::json_object(),
        d.sent,
        d.delivered,
        meta::peak_rss_kib()
    );
    let out = std::env::var("BNM_BENCH_WEBRTC_OUT").unwrap_or_else(|_| "BENCH_webrtc.json".into());
    std::fs::write(&out, &json).expect("write BENCH_webrtc.json");
    println!("webrtc datagram bench ({REPS} reps, {LOSS} loss)");
    println!("  run       {secs:>9.3} s  ({reps_per_sec:.1} reps/s)");
    println!(
        "  probes    {} sent, {} delivered ({probes_per_sec:.0} probes/s)",
        d.sent, d.delivered
    );
    println!("  wrote {out}");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_webrtc
}

fn main() {
    if std::env::var("BNM_BENCH_QUICK")
        .map(|v| v != "0")
        .unwrap_or(false)
    {
        quick_webrtc_report();
        return;
    }
    benches();
}
