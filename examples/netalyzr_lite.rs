//! A Netalyzr-style diagnostic built on the appraisal library: pick the
//! best measurement method the "browser" supports, calibrate it, measure
//! RTT + jitter + throughput, and report with error bars — the workflow
//! the paper's findings imply a careful tool should follow.
//!
//! ```sh
//! cargo run --release --example netalyzr_lite            # desktop Firefox/Windows
//! cargo run --release --example netalyzr_lite -- mobile  # mobile WebKit
//! ```

#![deny(deprecated)]

use bnm::browser::BrowserKind;
use bnm::core::baseline::ping_baseline;
use bnm::core::calibration::Calibration;
use bnm::core::recommend::{recommend_methods, Constraints};
use bnm::core::throughput::run_bulk_rep;
use bnm::core::{ExperimentCell, ExperimentRunner, RuntimeSel};
use bnm::stats::{jitter, Summary};
use bnm::timeapi::OsKind;

fn main() {
    let mobile = std::env::args().nth(1).as_deref() == Some("mobile");
    let (runtime, os, label) = if mobile {
        (
            RuntimeSel::MobileWebKit,
            OsKind::Ubuntu1204,
            "mobile WebKit",
        )
    } else {
        (
            RuntimeSel::Browser(BrowserKind::Firefox),
            OsKind::Windows7,
            "Firefox / Windows 7",
        )
    };
    println!("netalyzr-lite: diagnosing connectivity from {label}\n");

    // 1. Pick the best method the platform supports (§5 rules).
    let constraints = Constraints {
        mobile,
        ..Constraints::default()
    };
    let rec = recommend_methods(&constraints)
        .into_iter()
        .find(|r| ExperimentCell::paper(r.method, runtime, os).is_runnable())
        .expect("some method is always available");
    println!(
        "method selection: {} with {}",
        rec.method.display_name(),
        rec.timing
    );
    println!("  rationale: {}\n", rec.rationale);

    // 2. Measure RTT with it, and calibrate using Δd2 (§5).
    let cell = ExperimentCell::paper(rec.method, runtime, os)
        .with_reps(20)
        .with_timing(rec.timing);
    let result = ExperimentRunner::try_run(&cell).expect("recommended method is runnable");
    let browser_rtts: Vec<f64> = result
        .measurements
        .iter()
        .filter(|m| m.round == 2)
        .map(|m| m.browser_rtt_ms())
        .collect();
    let cal = Calibration::derive(&result);
    let corrected: Vec<f64> = browser_rtts.iter().map(|&r| cal.correct(r)).collect();
    let raw = Summary::of(&browser_rtts);
    let fixed = Summary::of(&corrected);
    println!(
        "RTT (raw browser measurement) : median {:7.2} ms",
        raw.median
    );
    println!(
        "RTT (calibrated, −{:.2} ms)    : median {:7.2} ms ± residual IQR {:.2} ms",
        cal.offset_ms, fixed.median, cal.residual_iqr_ms
    );

    // Ground truth for the curious (a real tool would not have this!).
    let truth = Summary::of(&ping_baseline(
        10,
        bnm::sim::time::SimDuration::from_millis(50),
    ))
    .median;
    println!("RTT (ICMP ping ground truth)  : median {truth:7.2} ms");

    // 3. Jitter from the same samples.
    println!(
        "\njitter (consecutive-difference): {:.2} ms",
        jitter::consecutive_jitter(&browser_rtts)
    );

    // 4. Throughput with a 256 KB download, where the transport allows.
    if matches!(
        rec.method.transport(),
        bnm::browser::ProbeTransport::HttpGet | bnm::browser::ProbeTransport::WebSocketEcho
    ) {
        match run_bulk_rep(&cell, 0, 256 * 1024) {
            Ok(ms) => {
                let m = &ms[ms.len() - 1];
                println!(
                    "throughput (256 KB download)   : {:.2} Mbit/s measured ({:.2} on the wire, {:.1}% under)",
                    m.browser_bps() / 1e6,
                    m.wire_bps() / 1e6,
                    m.underestimation() * 100.0
                );
            }
            Err(e) => println!("throughput test failed: {e:?}"),
        }
    } else {
        println!("throughput: transport has no bulk path; skipping");
    }

    println!(
        "\nverdict: calibrated {} keeps RTT error within ±{:.2} ms of truth on this platform.",
        rec.method.display_name(),
        (fixed.median - truth).abs().max(cal.residual_iqr_ms)
    );
}
