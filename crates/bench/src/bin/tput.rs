//! Extension experiment: throughput-measurement accuracy (§2.2 and the
//! "Tput" column of Table 1).
//!
//! For each method that speedtest tools download through, and for several
//! object sizes, compare the browser-level throughput estimate against
//! the wire-level truth. Also prints the ICMP ping baseline (§6, the
//! Yeboah et al. comparison).

use bnm_bench::cli::BenchArgs;
use bnm_bench::{heading, skip_failed};
use bnm_browser::BrowserKind;
use bnm_core::baseline::ping_baseline;
use bnm_core::experiments::throughput_table;
use bnm_core::{ExperimentCell, RuntimeSel};
use bnm_methods::MethodId;
use bnm_stats::Summary;
use bnm_time::OsKind;

const METHODS: [MethodId; 4] = [
    MethodId::XhrGet,
    MethodId::FlashGet,
    MethodId::JavaGet,
    MethodId::WebSocket,
];
const SIZES: [usize; 3] = [16 * 1024, 128 * 1024, 1024 * 1024];

fn main() {
    let args = BenchArgs::parse();
    let n_reps = args.reps.min(10); // bulk repetitions are heavier

    heading("Extension: ICMP ping baseline (§6)");
    let pings = ping_baseline(10, bnm_sim::time::SimDuration::from_millis(50), args.seed);
    let s = Summary::of(&pings);
    println!(
        "ping RTT over the testbed: median {:.3} ms (min {:.3}, max {:.3}) — the ground truth\n\
         browser methods are judged against.",
        s.median, s.min, s.max
    );

    heading("Extension: throughput-estimate accuracy by method and size");
    let runs: Vec<(ExperimentCell, usize)> = METHODS
        .iter()
        .flat_map(|&method| {
            SIZES.map(|size| {
                let cell = ExperimentCell::paper(
                    method,
                    RuntimeSel::Browser(BrowserKind::Chrome),
                    OsKind::Ubuntu1204,
                );
                (cell.with_seed(args.seed), size)
            })
        })
        .collect();
    let title = format!(
        "Browser vs wire throughput ({n_reps} reps, seed {:#x})",
        args.seed
    );
    let mut table = skip_failed(throughput_table(title, &runs, n_reps));
    table.note(
        "Reading: the overhead is a fixed per-transfer tax, so it dominates small \
         transfers and dilutes on large ones — and Flash taxes every size hardest (§2.2). \
         Round 2, the reuse round, is the one speedtests resemble.",
    );
    args.emit("tput.csv", &table);
}
