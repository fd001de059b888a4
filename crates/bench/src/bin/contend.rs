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
use bnm_bench::heading;
use bnm_browser::BrowserKind;
use bnm_core::config::{ContentionSpec, StreamingSpec};
use bnm_core::report::{DistSummary, Render, Table, Value};
use bnm_core::{CellResult, Executor, ExperimentCell, RunError, RuntimeSel};
use bnm_methods::MethodId;
use bnm_time::OsKind;

/// The narrowed server access link, bits/s (overridable through
/// `BNM_CONTEND_RATE_MBPS`). 100 Mbps never queues long enough to see;
/// narrowed, the concurrent sessions' page/asset/probe responses share
/// the line and in-round handshakes have to wait their turn.
fn rate_bps() -> u64 {
    std::env::var("BNM_CONTEND_RATE_MBPS")
        .ok()
        .and_then(|v| v.parse::<f64>().ok())
        .map(|mbps| (mbps * 1e6) as u64)
        .unwrap_or(400_000)
}

fn median(v: &[f64]) -> f64 {
    DistSummary::of_samples(v).p50
}

/// One tier end to end, returning the result plus the frame pool's
/// per-tier counters (live-buffer high-water mark and fresh
/// allocations) so the CSV records the capture footprint alongside the
/// Δd numbers.
fn run_tier(cell: &ExperimentCell) -> Result<(CellResult, bytes::pool::PoolStats), RunError> {
    let (mut results, stats) = Executor::new().run_with_stats(std::slice::from_ref(cell), |_| {});
    let r = results.pop().expect("one result per cell")?;
    Ok((r, stats.pool))
}

/// Run one (method, clients, rate) tier and append its row.
#[allow(clippy::too_many_arguments)] // a sweep point is genuinely this wide
fn tier_row(
    table: &mut Table,
    method: MethodId,
    browser: BrowserKind,
    os: OsKind,
    clients: u32,
    rate: u64,
    reps: u32,
    seed: u64,
    streaming: Option<StreamingSpec>,
) {
    let label = format!("{} / {}", method.display_name(), browser.initial());
    let mut builder = ExperimentCell::builder(method, RuntimeSel::Browser(browser), os)
        .reps(reps)
        .seed(seed)
        .contention(ContentionSpec::clients(clients).with_server_link_rate(rate));
    if let Some(s) = streaming {
        builder = builder.streaming(s);
    }
    let cell = builder.build().expect("sweep cells are runnable");
    let (r, pool) = match run_tier(&cell) {
        Ok(out) => out,
        Err(e) => {
            eprintln!("skipping {label} @ {clients} clients: {e}");
            return;
        }
    };
    // Pool every session's samples: each of the N clients is a
    // measuring client, and the paper's question — "what does the
    // browser add on top of the wire RTT?" — applies to each.
    let d1: Vec<f64> = r.sessions.iter().flat_map(|s| s.d1.clone()).collect();
    let d2: Vec<f64> = r.sessions.iter().flat_map(|s| s.d2.clone()).collect();
    table.row(vec![
        Value::Text(method.label().to_string()),
        Value::Text(browser.initial().to_string()),
        Value::Int(clients as i64),
        Value::Int(rate as i64),
        Value::Num(median(&d1)),
        Value::Num(median(&d2)),
        Value::Int(d1.len() as i64),
        Value::Int(d2.len() as i64),
        Value::Int(r.excluded_rounds as i64),
        Value::Int(r.failures as i64),
        Value::Int(pool.live_peak),
        Value::Int(pool.allocated as i64),
    ]);
}

fn main() {
    let args = BenchArgs::parse();
    let n = args.reps.min(10);
    let rate = rate_bps();
    heading("Extension: Δd vs concurrent clients — contention on the shared server link");

    // Two fresh-connection methods (Opera Flash: GET handshakes in round
    // 1, POST in every round) against two connection-reusing controls.
    let methods = [
        (MethodId::FlashGet, BrowserKind::Opera, OsKind::Windows7),
        (MethodId::FlashPost, BrowserKind::Opera, OsKind::Windows7),
        (MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204),
        (MethodId::WebSocket, BrowserKind::Chrome, OsKind::Ubuntu1204),
    ];
    let counts = [1u32, 2, 4, 8, 16, 32, 64];

    let mut table = Table::new(
        format!(
            "Δd vs concurrent clients ({n} reps, seed {:#x}, legacy link {rate} bps)",
            args.seed
        ),
        &[
            "method",
            "runtime",
            "clients",
            "rate_bps",
            "d1_median_ms",
            "d2_median_ms",
            "d1_n",
            "d2_n",
            "excluded_rounds",
            "failures",
            "pool_live_peak",
            "pool_allocated",
        ],
    );
    for (method, browser, os) in methods {
        for c in counts {
            tier_row(&mut table, method, browser, os, c, rate, n, args.seed, None);
        }
    }

    // ---- Crowd regime: 128 .. 1,000 clients -------------------------
    //
    // At these scales a fixed link would starve every session, so the
    // shared link grows with the crowd instead: each client keeps the
    // same per-client share it had at the legacy sweep's 64-client
    // endpoint (rate/64, 6,250 bps under the default 0.4 Mbps). What is
    // held constant is therefore *fairness*, and what the sweep shows is
    // pure crowd-size effect: whether a method's Δd degrades simply
    // because 1,000 handshakes and probes interleave on one line.
    //
    // Crowd tiers run with bounded retention: the per-session samples
    // spill to sketches past 64 raw values (at crowd reps <= 2 every raw
    // sample is retained, so the medians stay exact).
    let per_client = (rate / 64).max(1);
    let crowd_reps = n.min(2);
    let crowd_counts = [128u32, 256, 512, 1000];
    for (method, browser, os) in [
        (MethodId::WebSocket, BrowserKind::Chrome, OsKind::Ubuntu1204),
        (MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204),
    ] {
        for c in crowd_counts {
            tier_row(
                &mut table,
                method,
                browser,
                os,
                c,
                per_client * u64::from(c),
                crowd_reps,
                args.seed,
                Some(StreamingSpec::bounded(64)),
            );
        }
    }

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
    println!("{}", table.render(args.format.report_format()));
    let path = args.save_artifact("contend.csv", &table.to_csv());
    println!("Artifact written to {}", path.display());
}
