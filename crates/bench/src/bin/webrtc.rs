//! Extension experiment: WebRTC data channel vs WebSocket under loss.
//!
//! Sweeps a symmetric loss rate from 0 to 5% and compares the two
//! socket-era in-browser transports side by side:
//!
//! * **WebSocket** (reliable): a lost probe is retransmitted by TCP, so
//!   the round is *excluded* per the paper's §3.2 rule and the Δd
//!   medians estimate only the clean rounds.
//! * **WebRTC data channel** (unreliable datagram): a lost probe is a
//!   *measurement* — the per-probe matcher attributes it to a
//!   direction, and the delivered probes still yield per-probe OWD and
//!   RFC 3550 jitter alongside Δd.
//!
//! The table shows the complementary behaviours: the WebSocket row's
//! `excluded_rounds` grows with the injected rate while its medians
//! barely move, and the WebRTC row's `loss_pct_meas` tracks the
//! injected `loss_pct` while its delivered-probe medians stay put.

use bnm_bench::cli::BenchArgs;
use bnm_bench::{heading, skip_failed};
use bnm_browser::BrowserKind;
use bnm_core::experiments::sweep_table;
use bnm_core::{ExperimentCell, Impairment, RuntimeSel};
use bnm_methods::MethodId;
use bnm_time::OsKind;

const METHODS: [MethodId; 2] = [MethodId::WebRtc, MethodId::WebSocket];
const LOSS_PCTS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 5.0];

fn main() {
    let args = BenchArgs::parse();
    let n = args.reps.min(20);
    heading("Extension: WebRTC datagrams vs WebSocket — loss as a measurement vs an exclusion");

    let cells: Vec<ExperimentCell> = METHODS
        .iter()
        .flat_map(|&method| {
            LOSS_PCTS.map(|pct| {
                ExperimentCell::builder(
                    method,
                    RuntimeSel::Browser(BrowserKind::Chrome),
                    OsKind::Ubuntu1204,
                )
                .reps(n)
                .seed(args.seed)
                .impairment(Impairment::loss(pct / 100.0))
                .build()
                .expect("sweep cells are runnable")
            })
        })
        .collect();
    let title = format!(
        "WebRTC vs WebSocket under loss ({n} reps, seed {:#x})",
        args.seed
    );
    let mut table = skip_failed(sweep_table(title, &cells));
    table.note(
        "Reading: both transports keep their Δd medians flat across the sweep, but for \
         opposite reasons. WebSocket hides loss behind TCP retransmission, so affected \
         rounds are excluded (excluded_rounds grows with the rate) and the estimator never \
         sees them. WebRTC's unreliable channel surfaces loss directly: loss_pct_meas \
         tracks the injected loss_pct, the delivered probes keep their one-way delays, and \
         nothing needs excluding.",
    );
    args.emit("webrtc.csv", &table);
}
