//! Extension experiment: Δd vs concurrent measuring clients — what does
//! contention on the shared server link do to each method's overhead?
//!
//! Sweeps the client count from 1 to 64 at a fixed narrowed link, every
//! client running the same method concurrently against one web server
//! whose access link is the shared bottleneck — then pushes on into the
//! crowd regime (128 to 1,000 clients) with the link scaled to a
//! constant per-client share. Per Eq. 1, queueing
//! *between* `tN_s` and `tN_r` cancels out of Δd — so methods that reuse
//! their measurement connection (XHR steady-state, WebSocket) should
//! stay tight at any client count, while methods that open a **fresh TCP
//! connection inside a timed round** (Opera's Flash GET in round 1,
//! Flash POST in every round) absorb a handshake that queues behind the
//! other clients' traffic: their Δd medians grow with the crowd.

use bnm_bench::cli::BenchArgs;
use bnm_bench::{heading, skip_failed};
use bnm_browser::BrowserKind;
use bnm_core::config::{ContentionSpec, StreamingSpec};
use bnm_core::experiments::sweep_table;
use bnm_core::{CellBuilder, ExperimentCell, RuntimeSel};
use bnm_methods::MethodId;
use bnm_time::OsKind;

/// The narrowed server access link, bits/s (`bnm contend --rate-mbps`
/// runs one method at other rates). 100 Mbps never queues long enough
/// to see; narrowed, the concurrent sessions' page/asset/probe
/// responses share the line and in-round handshakes have to wait their
/// turn.
const RATE_BPS: u64 = 400_000;

/// Two fresh-connection methods (Opera Flash: GET handshakes in round
/// 1, POST in every round) against two connection-reusing controls.
const ROSTER: [(MethodId, BrowserKind, OsKind); 4] = [
    (MethodId::FlashGet, BrowserKind::Opera, OsKind::Windows7),
    (MethodId::FlashPost, BrowserKind::Opera, OsKind::Windows7),
    (MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204),
    (MethodId::WebSocket, BrowserKind::Chrome, OsKind::Ubuntu1204),
];
const COUNTS: [u32; 7] = [1, 2, 4, 8, 16, 32, 64];

/// The crowd regime runs the two connection-reusing controls.
const CROWD_ROSTER: [(MethodId, BrowserKind, OsKind); 2] = [
    (MethodId::WebSocket, BrowserKind::Chrome, OsKind::Ubuntu1204),
    (MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204),
];
const CROWD_COUNTS: [u32; 4] = [128, 256, 512, 1000];

/// `clients` sessions of one roster entry sharing a `rate`-bps server
/// link.
fn tier(
    (method, browser, os): (MethodId, BrowserKind, OsKind),
    clients: u32,
    rate: u64,
    reps: u32,
    seed: u64,
) -> CellBuilder {
    ExperimentCell::builder(method, RuntimeSel::Browser(browser), os)
        .reps(reps)
        .seed(seed)
        .contention(ContentionSpec::clients(clients).with_server_link_rate(rate))
}

fn main() {
    let args = BenchArgs::parse();
    let n = args.reps.min(10);
    heading("Extension: Δd vs concurrent clients — contention on the shared server link");

    let mut cells: Vec<ExperimentCell> = ROSTER
        .iter()
        .flat_map(|&entry| {
            COUNTS.map(|c| {
                tier(entry, c, RATE_BPS, n, args.seed)
                    .build()
                    .expect("sweep cells are runnable")
            })
        })
        .collect();

    // ---- Crowd regime: 128 .. 1,000 clients -------------------------
    //
    // At these scales a fixed link would starve every session, so the
    // shared link grows with the crowd instead: each client keeps the
    // same per-client share it had at the legacy sweep's 64-client
    // endpoint (RATE_BPS/64, 6,250 bps). What is held constant is
    // therefore *fairness*, and what the sweep shows is pure crowd-size
    // effect: whether a method's Δd degrades simply because 1,000
    // handshakes and probes interleave on one line.
    //
    // Crowd tiers run with bounded retention: the per-session samples
    // spill to sketches past 64 raw values (at crowd reps <= 2 every raw
    // sample is retained, so the medians stay exact).
    let per_client = RATE_BPS / 64;
    let crowd_reps = n.min(2);
    cells.extend(CROWD_ROSTER.iter().flat_map(|&entry| {
        CROWD_COUNTS.map(|c| {
            tier(entry, c, per_client * u64::from(c), crowd_reps, args.seed)
                .streaming(StreamingSpec::bounded(64))
                .build()
                .expect("sweep cells are runnable")
        })
    }));

    let title = format!(
        "Δd vs concurrent clients ({n} reps, seed {:#x}, legacy link {RATE_BPS} bps)",
        args.seed
    );
    let mut table = skip_failed(sweep_table(title, &cells));
    table.note(
        "Reading: the Flash methods' Δd medians (Δd1 for GET, both rounds for POST) \
         climb with the client count — their in-round TCP handshakes queue behind the \
         other sessions' traffic on the narrowed shared server link, and that wait sits \
         *before* tN_s, inside the browser-timed interval. The reused-connection \
         methods barely move: for them the crowd's queueing falls between tN_s and \
         tN_r, which Eq. 1 subtracts away.",
    );
    table.note(
        "Crowd tiers (128+) hold the per-client link share constant at the 64-client \
         endpoint's, so they show pure crowd-size effect, with bounded sample \
         retention.",
    );
    args.emit("contend.csv", &table);
}
