//! `bnm` — command-line front end to the appraisal library.
//!
//! ```text
//! bnm list                          the methods and their taxonomy
//! bnm appraise [options]           run one experiment cell and appraise it
//! bnm trace [options]              run traced and attribute Δd to components
//! bnm impair [options]             run a cell on an impaired network
//! bnm contend [options]            Δd vs concurrent clients on a shared link
//! bnm serve [options]              continuous monitoring with periodic snapshots
//! bnm probe [--os windows|ubuntu]  the Figure 5 granularity probe
//! bnm ping                          ICMP baseline over the testbed
//! bnm tput [options]               throughput-estimate accuracy
//! bnm recommend [constraints]      §5 method recommendations
//! bnm battery [options]            the full scored appraisal battery
//! ```
//!
//! Every data-producing subcommand shares one `--format {text,json,csv}`
//! code path: it builds a [`Render`]able (`Table`, `ReportSnapshot` or
//! `TraceReport`) and emits it — no per-command formatters.

#![deny(deprecated)]

use std::collections::HashMap;

use bnm::browser::BrowserKind;
use bnm::core::appraisal::Appraisal;
use bnm::core::baseline::ping_baseline;
use bnm::core::recommend::{self, Constraints};
use bnm::core::report::{Table, TraceReport, Value};
use bnm::core::throughput::run_bulk_rep;
use bnm::core::{
    ContentionSpec, DistSummary, ExperimentCell, ExperimentRunner, FaultSpec, Impairment, Monitor,
    MonitorConfig, Render, ReportFormat, RuntimeSel, StreamingSpec,
};
use bnm::methods::{table1_rows, MethodId};
use bnm::sim::time::{SimDuration, SimTime};
use bnm::stats::Summary;
use bnm::timeapi::{make_api, probe_granularity, MachineTimer, OsKind, TimingApiKind};

fn parse_flags(args: &[String]) -> (Vec<String>, HashMap<String, String>) {
    let mut positional = Vec::new();
    let mut flags = HashMap::new();
    let mut it = args.iter().peekable();
    while let Some(a) = it.next() {
        if let Some(name) = a.strip_prefix("--") {
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().unwrap().clone(),
                _ => "true".to_string(),
            };
            flags.insert(name.to_string(), value);
        } else {
            positional.push(a.clone());
        }
    }
    (positional, flags)
}

fn method_by_label(label: &str) -> Option<MethodId> {
    // EXTENDED = the Table 1 eleven plus post-paper additions (webrtc).
    MethodId::EXTENDED.into_iter().find(|m| m.label() == label)
}

fn browser_by_name(name: &str) -> Option<BrowserKind> {
    BrowserKind::ALL
        .into_iter()
        .find(|b| b.name().eq_ignore_ascii_case(name))
}

fn os_by_name(name: &str) -> Option<OsKind> {
    match name.to_ascii_lowercase().as_str() {
        "windows" | "win" | "w" => Some(OsKind::Windows7),
        "ubuntu" | "linux" | "u" => Some(OsKind::Ubuntu1204),
        _ => None,
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: bnm <command> [options]\n\
         commands:\n  \
           list                                  show the Table 1 method taxonomy\n  \
           appraise [--method L] [--browser B] [--os O] [--reps N] [--seed S] [--nanotime]\n  \
           trace [--method L] [--browser B] [--os O] [--reps N] [--seed S]\n        \
                 [--format text|json|csv] [--events]   Δd attribution per round\n  \
           impair [--method L] [--browser B] [--os O] [--reps N] [--seed S]\n        \
                 [--loss P] [--corrupt P] [--duplicate P] [--jitter MS]\n        \
                 [--format text|json|csv]     Δd on an impaired network (P in [0,1])\n  \
           contend [--method L] [--browser B] [--os O] [--clients N] [--reps N]\n        \
                 [--seed S] [--rate-mbps R] [--format text|json|csv]\n        \
                 Δd vs concurrent clients sharing one server link (N in [1,4096])\n  \
           serve [--method L] [--browser B] [--os O] [--clients N] [--rate-mbps R]\n        \
                 [--loss P] [--seed S] [--duration SECS] [--every SECS] [--period MS]\n        \
                 [--format text|json|csv]     continuous monitoring: windowed snapshots\n  \
           webrtc [--browser B] [--os O] [--reps N] [--seed S] [--loss P] [--jitter MS]\n        \
                 [--format text|json|csv]     WebRTC data channel: per-probe OWD,\n        \
                 RFC 3550 jitter, loss and reordering from both taps\n  \
           probe [--os O]                        timestamp-granularity probe (Figure 5)\n  \
           ping                                  ICMP baseline over the testbed\n  \
           tput [--method L] [--size BYTES] [--format text|json|csv]\n        \
                 throughput-estimate accuracy\n  \
           recommend [--mobile] [--no-plugins] [--no-ports] [--strict-origin]\n        \
                 [--format text|json|csv]     §5 method recommendations\n  \
           battery [--quick] [--reps N] [--seed S] [--serial]\n        \
                 [--format text|json|csv]     run every method across the clean,\n        \
                 impaired, contended, bufferbloat (drop-tail vs CoDel) and\n        \
                 time-varying scenarios; rank by measured deployment score\n\
         \nmethod labels: {}",
        MethodId::EXTENDED
            .iter()
            .map(|m| m.label())
            .collect::<Vec<_>>()
            .join(", ")
    );
    std::process::exit(2);
}

/// The one `--format` flag shared by every data-producing subcommand.
fn parse_format(flags: &HashMap<String, String>) -> ReportFormat {
    match flags.get("format") {
        None => ReportFormat::Text,
        Some(f) => f.parse().unwrap_or_else(|_| usage()),
    }
}

/// Emit a renderable in the chosen format — text gets a trailing-newline
/// print, csv/json come out exactly as rendered.
fn emit(r: &impl Render, fmt: ReportFormat) {
    let out = r.render(fmt);
    if out.ends_with('\n') {
        print!("{out}");
    } else {
        println!("{out}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    let (_, flags) = parse_flags(&args[1..]);

    match cmd.as_str() {
        "list" => cmd_list(),
        "appraise" => cmd_appraise(&flags),
        "trace" => cmd_trace(&flags),
        "impair" => cmd_impair(&flags),
        "contend" => cmd_contend(&flags),
        "serve" => cmd_serve(&flags),
        "webrtc" => cmd_webrtc(&flags),
        "probe" => cmd_probe(&flags),
        "ping" => cmd_ping(),
        "tput" => cmd_tput(&flags),
        "recommend" => cmd_recommend(&flags),
        "battery" => cmd_battery(&flags),
        _ => usage(),
    }
}

fn cmd_list() {
    println!(
        "{:<12} {:<13} {:<12} {:<10} {:<11} metrics",
        "label", "approach", "technology", "method", "same-origin"
    );
    for row in table1_rows() {
        println!(
            "{:<12} {:<13} {:<12} {:<10} {:<11} {}",
            row.id.label(),
            row.approach,
            row.technology,
            row.method,
            row.same_origin,
            row.metrics
        );
    }
    // Post-paper extensions live outside Table 1.
    for m in MethodId::EXTENDED {
        if MethodId::ALL.contains(&m) {
            continue;
        }
        println!(
            "{:<12} {:<13} {:<12} {:<10} {:<11} {}  (extension)",
            m.label(),
            if m.is_http_based() {
                "HTTP-based"
            } else {
                "Socket-based"
            },
            m.display_name(),
            m.transport().name(),
            m.same_origin().cell(),
            m.metrics()
        );
    }
}

fn cmd_appraise(flags: &HashMap<String, String>) {
    let method = flags
        .get("method")
        .map(|m| method_by_label(m).unwrap_or_else(|| usage()))
        .unwrap_or(MethodId::WebSocket);
    let browser = flags
        .get("browser")
        .map(|b| browser_by_name(b).unwrap_or_else(|| usage()))
        .unwrap_or(BrowserKind::Chrome);
    let os = flags
        .get("os")
        .map(|o| os_by_name(o).unwrap_or_else(|| usage()))
        .unwrap_or(OsKind::Ubuntu1204);
    let reps: u32 = flags.get("reps").and_then(|r| r.parse().ok()).unwrap_or(25);
    let seed: u64 = flags
        .get("seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xB32B_2013);

    let mut builder = ExperimentCell::builder(method, RuntimeSel::Browser(browser), os)
        .reps(reps)
        .seed(seed);
    if flags.contains_key("nanotime") {
        builder = builder.timing(TimingApiKind::JavaNanoTime);
    }
    let cell = match builder.build() {
        Ok(cell) => cell,
        Err(e @ bnm::RunError::Unrunnable { .. }) => {
            eprintln!("{e} (Table 2 feature matrix)");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    println!(
        "Appraising {} ({} reps, seed {seed:#x}) …",
        cell.label(),
        reps
    );
    let result = match ExperimentRunner::try_run(&cell) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    };
    let a = match Appraisal::try_of(&result) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("appraisal failed: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "\nΔd1: median {:8.3} ms  IQR [{:8.3}, {:8.3}]  outliers {}",
        a.d1.median,
        a.d1.q1,
        a.d1.q3,
        a.d1.outliers.len()
    );
    println!(
        "Δd2: median {:8.3} ms  IQR [{:8.3}, {:8.3}]  outliers {}",
        a.d2.median,
        a.d2.q1,
        a.d2.q3,
        a.d2.outliers.len()
    );
    println!("pooled mean ± 95% CI: {} ms", a.mean_ci.format_table4());
    println!("verdict: {:?}", a.verdict);
    if result.failures > 0 {
        println!("({} repetitions failed)", result.failures);
    }
}

fn cmd_trace(flags: &HashMap<String, String>) {
    let method = flags
        .get("method")
        .map(|m| method_by_label(m).unwrap_or_else(|| usage()))
        .unwrap_or(MethodId::XhrGet);
    let browser = flags
        .get("browser")
        .map(|b| browser_by_name(b).unwrap_or_else(|| usage()))
        .unwrap_or(BrowserKind::Chrome);
    let os = flags
        .get("os")
        .map(|o| os_by_name(o).unwrap_or_else(|| usage()))
        .unwrap_or(OsKind::Ubuntu1204);
    let reps: u32 = flags.get("reps").and_then(|r| r.parse().ok()).unwrap_or(5);
    let seed: u64 = flags
        .get("seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xB32B_2013);
    let format = parse_format(flags);

    let cell = match ExperimentCell::builder(method, RuntimeSel::Browser(browser), os)
        .reps(reps)
        .seed(seed)
        .trace(true)
        .build()
    {
        Ok(cell) => cell,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let result = match ExperimentRunner::try_run(&cell) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    };

    if format == ReportFormat::Text {
        println!(
            "Δd attribution for {} ({} reps, seed {seed:#x}), ms:\n",
            cell.label(),
            reps
        );
    }
    emit(&TraceReport::new(&result.attributions), format);
    if format == ReportFormat::Text && result.failures > 0 {
        println!("({} repetitions failed)", result.failures);
    }

    // Raw event dump for the first repetition, in the same format.
    if flags.contains_key("events") {
        if let Some(t) = result.traces.first() {
            match format {
                ReportFormat::Json => println!("{}", t.to_json()),
                _ => print!("{}", t.to_csv()),
            }
        }
    }
}

fn cmd_impair(flags: &HashMap<String, String>) {
    let method = flags
        .get("method")
        .map(|m| method_by_label(m).unwrap_or_else(|| usage()))
        .unwrap_or(MethodId::WebSocket);
    let browser = flags
        .get("browser")
        .map(|b| browser_by_name(b).unwrap_or_else(|| usage()))
        .unwrap_or(BrowserKind::Chrome);
    let os = flags
        .get("os")
        .map(|o| os_by_name(o).unwrap_or_else(|| usage()))
        .unwrap_or(OsKind::Ubuntu1204);
    let reps: u32 = flags.get("reps").and_then(|r| r.parse().ok()).unwrap_or(25);
    let seed: u64 = flags
        .get("seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xB32B_2013);
    let format = parse_format(flags);
    let prob = |name: &str| -> f64 {
        let p = flags.get(name).and_then(|v| v.parse().ok()).unwrap_or(0.0);
        if !(0.0..=1.0).contains(&p) {
            usage();
        }
        p
    };
    let spec = FaultSpec {
        drop_chance: prob("loss"),
        corrupt_chance: prob("corrupt"),
        duplicate_chance: prob("duplicate"),
        ..FaultSpec::CLEAN
    };
    let jitter_ms: f64 = flags
        .get("jitter")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    let imp = Impairment {
        up: spec,
        down: spec,
        jitter: SimDuration::from_millis_f64(jitter_ms),
    };

    let cell = match ExperimentCell::builder(method, RuntimeSel::Browser(browser), os)
        .reps(reps)
        .seed(seed)
        .impairment(imp)
        .build()
    {
        Ok(cell) => cell,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let result = match ExperimentRunner::try_run(&cell) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    };
    let med = |v: &[f64]| DistSummary::of_samples(v).p50;
    let mut table = Table::new(
        format!(
            "{} on an impaired network ({} reps, seed {seed:#x})",
            cell.label(),
            reps
        ),
        &[
            "cell",
            "loss",
            "corrupt",
            "duplicate",
            "jitter_ms",
            "d1_median_ms",
            "d2_median_ms",
            "d1_n",
            "d2_n",
            "excluded_rounds",
            "failures",
            "dgram_delivered",
            "dgram_lost",
            "dgram_reordered",
        ],
    );
    let (dg_delivered, dg_lost, dg_reordered) = datagram_cells(&result);
    table.row(vec![
        Value::Text(cell.label()),
        Value::Num(spec.drop_chance),
        Value::Num(spec.corrupt_chance),
        Value::Num(spec.duplicate_chance),
        Value::Num(jitter_ms),
        Value::Num(med(&result.d1)),
        Value::Num(med(&result.d2)),
        Value::Int(result.d1.len() as i64),
        Value::Int(result.d2.len() as i64),
        Value::Int(result.excluded_rounds as i64),
        Value::Int(result.failures as i64),
        dg_delivered,
        dg_lost,
        dg_reordered,
    ]);
    table.note(
        "Rounds hit by retransmission are excluded per §3.2; medians are R-7 \
         over the surviving rounds. The dgram_* columns are populated only for \
         datagram methods (webrtc), whose losses are measured, not excluded.",
    );
    emit(&table, format);
}

/// The three `dgram_*` sweep cells: per-probe counters summed over every
/// session for datagram methods, empty fields otherwise.
fn datagram_cells(result: &bnm::core::runner::CellResult) -> (Value, Value, Value) {
    let stats: Vec<_> = result
        .sessions
        .iter()
        .filter_map(|s| s.datagram.as_ref())
        .collect();
    if stats.is_empty() {
        return (
            Value::Text(String::new()),
            Value::Text(String::new()),
            Value::Text(String::new()),
        );
    }
    let delivered: u64 = stats.iter().map(|d| d.delivered).sum();
    let lost: u64 = stats
        .iter()
        .map(|d| d.lost_upstream + d.lost_downstream)
        .sum();
    let reordered: u64 = stats.iter().map(|d| d.reordered).sum();
    (
        Value::Int(delivered as i64),
        Value::Int(lost as i64),
        Value::Int(reordered as i64),
    )
}

fn cmd_contend(flags: &HashMap<String, String>) {
    let method = flags
        .get("method")
        .map(|m| method_by_label(m).unwrap_or_else(|| usage()))
        .unwrap_or(MethodId::FlashGet);
    let browser = flags
        .get("browser")
        .map(|b| browser_by_name(b).unwrap_or_else(|| usage()))
        .unwrap_or(BrowserKind::Opera);
    let os = flags
        .get("os")
        .map(|o| os_by_name(o).unwrap_or_else(|| usage()))
        .unwrap_or(OsKind::Windows7);
    let max_clients: u32 = flags
        .get("clients")
        .and_then(|c| c.parse().ok())
        .unwrap_or(64);
    if !(1..=4096).contains(&max_clients) {
        usage();
    }
    let reps: u32 = flags.get("reps").and_then(|r| r.parse().ok()).unwrap_or(10);
    let seed: u64 = flags
        .get("seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xB32B_2013);
    let rate_mbps: f64 = flags
        .get("rate-mbps")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.4);
    if rate_mbps <= 0.0 || !rate_mbps.is_finite() {
        usage();
    }
    let rate_bps = (rate_mbps * 1e6) as u64;
    let format = parse_format(flags);

    // Sweep the powers of two up to the requested cap (the cap itself is
    // always included so `--clients 48` still ends at 48).
    let mut counts: Vec<u32> = std::iter::successors(Some(1u32), |c| Some(c * 2))
        .take_while(|c| *c < max_clients)
        .collect();
    counts.push(max_clients);

    let med = |v: &[f64]| DistSummary::of_samples(v).p50;
    let mut table = Table::new(
        format!(
            "{} vs concurrent clients on a {rate_mbps} Mbps server link \
             ({reps} reps, seed {seed:#x})",
            method.display_name()
        ),
        &[
            "cell",
            "clients",
            "rate_mbps",
            "d1_median_ms",
            "d2_median_ms",
            "d1_n",
            "d2_n",
            "excluded_rounds",
            "failures",
            "dgram_delivered",
            "dgram_lost",
            "dgram_reordered",
        ],
    );
    for c in counts {
        let cell = match ExperimentCell::builder(method, RuntimeSel::Browser(browser), os)
            .reps(reps)
            .seed(seed)
            .contention(ContentionSpec::clients(c).with_server_link_rate(rate_bps))
            .build()
        {
            Ok(cell) => cell,
            Err(e) => {
                eprintln!("{e}");
                std::process::exit(1);
            }
        };
        let result = match ExperimentRunner::try_run(&cell) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("run failed at {c} client(s): {e}");
                std::process::exit(1);
            }
        };
        // Every session is a measuring client, so pool them all.
        let d1: Vec<f64> = result
            .sessions
            .iter()
            .flat_map(|s| s.d1.iter().copied())
            .collect();
        let d2: Vec<f64> = result
            .sessions
            .iter()
            .flat_map(|s| s.d2.iter().copied())
            .collect();
        let (dg_delivered, dg_lost, dg_reordered) = datagram_cells(&result);
        table.row(vec![
            Value::Text(cell.label()),
            Value::Int(c as i64),
            Value::Num(rate_mbps),
            Value::Num(med(&d1)),
            Value::Num(med(&d2)),
            Value::Int(d1.len() as i64),
            Value::Int(d2.len() as i64),
            Value::Int(result.excluded_rounds as i64),
            Value::Int(result.failures as i64),
            dg_delivered,
            dg_lost,
            dg_reordered,
        ]);
    }
    table.note(
        "Fresh-connection methods (Flash GET round 1, Flash POST every round) \
         queue their in-round handshake behind the crowd's traffic — that wait \
         lands before tN_s and inflates Δd. Connection-reusing methods shed the \
         crowd's queueing because it falls between tN_s and tN_r (Eq. 1).",
    );
    emit(&table, format);
}

/// `bnm webrtc` — run the WebRTC data-channel cell and emit its
/// per-probe appraisal: OWD both ways, RFC 3550 jitter (wire vs
/// browser), loss and reordering, plus the usual Δd digests.
fn cmd_webrtc(flags: &HashMap<String, String>) {
    let browser = flags
        .get("browser")
        .map(|b| browser_by_name(b).unwrap_or_else(|| usage()))
        .unwrap_or(BrowserKind::Chrome);
    let os = flags
        .get("os")
        .map(|o| os_by_name(o).unwrap_or_else(|| usage()))
        .unwrap_or(OsKind::Ubuntu1204);
    let reps: u32 = flags.get("reps").and_then(|r| r.parse().ok()).unwrap_or(25);
    let seed: u64 = flags
        .get("seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xB32B_2013);
    let loss: f64 = flags
        .get("loss")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    if !(0.0..=1.0).contains(&loss) {
        usage();
    }
    let jitter_ms: f64 = flags
        .get("jitter")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    let format = parse_format(flags);

    let mut builder = ExperimentCell::builder(MethodId::WebRtc, RuntimeSel::Browser(browser), os)
        .reps(reps)
        .seed(seed);
    if loss > 0.0 || jitter_ms > 0.0 {
        let spec = FaultSpec {
            drop_chance: loss,
            ..FaultSpec::CLEAN
        };
        builder = builder.impairment(Impairment {
            up: spec,
            down: spec,
            jitter: SimDuration::from_millis_f64(jitter_ms),
        });
    }
    let cell = match builder.build() {
        Ok(cell) => cell,
        Err(e @ bnm::RunError::Unrunnable { .. }) => {
            eprintln!("{e} (WebRTC needs a WebSocket-era engine, Table 2)");
            std::process::exit(1);
        }
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let result = match ExperimentRunner::try_run(&cell) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("run failed: {e}");
            std::process::exit(1);
        }
    };
    emit(&result.summary(&cell), format);
}

fn cmd_serve(flags: &HashMap<String, String>) {
    let method = flags
        .get("method")
        .map(|m| method_by_label(m).unwrap_or_else(|| usage()))
        .unwrap_or(MethodId::XhrGet);
    let browser = flags
        .get("browser")
        .map(|b| browser_by_name(b).unwrap_or_else(|| usage()))
        .unwrap_or(BrowserKind::Chrome);
    let os = flags
        .get("os")
        .map(|o| os_by_name(o).unwrap_or_else(|| usage()))
        .unwrap_or(OsKind::Ubuntu1204);
    let clients: u32 = flags
        .get("clients")
        .and_then(|c| c.parse().ok())
        .unwrap_or(1);
    if !(1..=4096).contains(&clients) {
        usage();
    }
    let rate_mbps: Option<f64> = flags.get("rate-mbps").and_then(|v| v.parse().ok());
    if rate_mbps.is_some_and(|r| r <= 0.0 || !r.is_finite()) {
        usage();
    }
    let loss: f64 = flags
        .get("loss")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0.0);
    if !(0.0..=1.0).contains(&loss) {
        usage();
    }
    let seed: u64 = flags
        .get("seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(0xB32B_2013);
    let duration_secs: f64 = flags
        .get("duration")
        .and_then(|v| v.parse().ok())
        .unwrap_or(60.0);
    let every_secs: f64 = flags
        .get("every")
        .and_then(|v| v.parse().ok())
        .unwrap_or(10.0);
    let period_ms: f64 = flags
        .get("period")
        .and_then(|v| v.parse().ok())
        .unwrap_or(1000.0);
    if duration_secs <= 0.0 || every_secs <= 0.0 || period_ms <= 0.0 {
        usage();
    }
    let format = parse_format(flags);

    // The monitor owns the round loop, so the cell's rep count is only a
    // label-level detail; streaming capture with bounded retention keeps
    // per-round memory flat no matter how long the run goes.
    let mut builder = ExperimentCell::builder(method, RuntimeSel::Browser(browser), os)
        .reps(1)
        .seed(seed)
        .streaming(StreamingSpec::serve());
    if clients > 1 || rate_mbps.is_some() {
        let mut spec = ContentionSpec::clients(clients);
        if let Some(r) = rate_mbps {
            spec = spec.with_server_link_rate((r * 1e6) as u64);
        }
        builder = builder.contention(spec);
    }
    if loss > 0.0 {
        let spec = FaultSpec {
            drop_chance: loss,
            ..FaultSpec::CLEAN
        };
        builder = builder.impairment(Impairment {
            up: spec,
            down: spec,
            jitter: SimDuration::ZERO,
        });
    }
    let cell = match builder.build() {
        Ok(cell) => cell,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    let cfg = MonitorConfig {
        round_period: SimDuration::from_millis_f64(period_ms),
        ..MonitorConfig::default()
    };
    let mut monitor = match Monitor::with_config(cell, cfg) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };

    let end = SimTime::ZERO + SimDuration::from_secs_f64(duration_secs);
    let every = SimDuration::from_secs_f64(every_secs);
    let mut polls = 0u32;
    while monitor.now() < end {
        let remaining = SimDuration::from_nanos(end.as_nanos() - monitor.now().as_nanos());
        let slice = if every.as_nanos() < remaining.as_nanos() {
            every
        } else {
            remaining
        };
        monitor.run_for(slice);
        let snap = monitor.snapshot();
        let out = snap.render(format);
        match format {
            // One CSV header for the whole run: strip it off every poll
            // after the first so the stream stays machine-readable.
            ReportFormat::Csv if polls > 0 => {
                if let Some((_, rest)) = out.split_once('\n') {
                    print!("{rest}");
                }
            }
            ReportFormat::Csv => print!("{out}"),
            ReportFormat::Json => println!("{out}"),
            ReportFormat::Text => {
                if polls > 0 {
                    println!();
                }
                print!("{out}");
            }
        }
        polls += 1;
    }
}

fn cmd_probe(flags: &HashMap<String, String>) {
    let os = flags
        .get("os")
        .map(|o| os_by_name(o).unwrap_or_else(|| usage()))
        .unwrap_or(OsKind::Windows7);
    let machine = MachineTimer::new(os, 2013);
    println!("Granularity probe on {} (Figure 5):", os.name());
    for kind in [TimingApiKind::JavaDateGetTime, TimingApiKind::JavaNanoTime] {
        let mut api = make_api(kind, &machine);
        // Probe at several points of the regime timeline.
        let mut seen = Vec::new();
        for minute in [0u64, 5, 17, 43, 91] {
            if let Some(p) =
                probe_granularity(api.as_mut(), SimTime::from_secs(minute * 60), 10_000_000)
            {
                if !seen.iter().any(|s: &f64| (s - p.observed_ms).abs() < 1e-9) {
                    seen.push(p.observed_ms);
                }
            }
        }
        println!(
            "  {:<26} observed tick(s): {}",
            kind.to_string(),
            seen.iter()
                .map(|g| format!("{g:.6} ms"))
                .collect::<Vec<_>>()
                .join(", ")
        );
    }
}

fn cmd_ping() {
    let rtts = ping_baseline(10, SimDuration::from_millis(50), 1);
    let s = Summary::of(&rtts);
    for (i, r) in rtts.iter().enumerate() {
        println!("64 bytes from 192.168.1.10: icmp_seq={i} time={r:.3} ms");
    }
    println!(
        "\n--- 192.168.1.10 ping statistics ---\n{} packets, min/med/max = {:.3}/{:.3}/{:.3} ms",
        rtts.len(),
        s.min,
        s.median,
        s.max
    );
}

fn cmd_tput(flags: &HashMap<String, String>) {
    let method = flags
        .get("method")
        .map(|m| method_by_label(m).unwrap_or_else(|| usage()))
        .unwrap_or(MethodId::XhrGet);
    let size: usize = flags
        .get("size")
        .and_then(|s| s.parse().ok())
        .unwrap_or(128 * 1024);
    let format = parse_format(flags);
    let cell = ExperimentCell::paper(
        method,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    );
    let mut table = Table::new(
        format!("Throughput check: {} downloading {} bytes", method, size),
        &["round", "wire_mbps", "measured_mbps", "underestimated_pct"],
    );
    match run_bulk_rep(&cell, 0, size) {
        Ok(ms) => {
            for m in ms {
                table.row(vec![
                    Value::Int(m.round as i64),
                    Value::Num(m.wire_bps() / 1e6),
                    Value::Num(m.browser_bps() / 1e6),
                    Value::Num(m.underestimation() * 100.0),
                ]);
            }
        }
        Err(e) => {
            eprintln!("measurement failed: {e}");
            std::process::exit(1);
        }
    }
    emit(&table, format);
}

/// `bnm battery` — the full scored appraisal suite: every roster method
/// across the clean, impaired, contended, bufferbloat (drop-tail and
/// CoDel) and time-varying scenarios, ranked per scenario by the
/// measured deployment score.
fn cmd_battery(flags: &HashMap<String, String>) {
    let mut cfg = if flags.contains_key("quick") {
        bnm::BatteryConfig::quick()
    } else {
        bnm::BatteryConfig::default()
    };
    if let Some(reps) = flags.get("reps") {
        cfg.reps = reps.parse().unwrap_or_else(|_| usage());
        if cfg.reps == 0 {
            usage();
        }
    }
    if let Some(seed) = flags.get("seed") {
        cfg.seed = seed.parse().unwrap_or_else(|_| usage());
    }
    let format = parse_format(flags);
    let exec = if flags.contains_key("serial") {
        bnm::Executor::serial()
    } else {
        bnm::Executor::new()
    };
    match bnm::run_battery(&cfg, &exec) {
        Ok(report) => emit(&report, format),
        Err(e) => {
            eprintln!("battery failed: {e}");
            std::process::exit(1);
        }
    }
}

fn cmd_recommend(flags: &HashMap<String, String>) {
    let c = Constraints {
        mobile: flags.contains_key("mobile"),
        plugins_allowed: !flags.contains_key("no-plugins"),
        can_open_ports: !flags.contains_key("no-ports"),
        strict_cross_origin: flags.contains_key("strict-origin"),
    };
    let format = parse_format(flags);
    let mut table = Table::new(
        format!("§5 method recommendations under {c:?}"),
        &["rank", "method", "timing", "rationale"],
    );
    for (i, rec) in recommend::recommend_methods(&c).iter().enumerate() {
        table.row(vec![
            Value::Int((i + 1) as i64),
            Value::Text(rec.method.display_name().to_string()),
            Value::Text(rec.timing.to_string()),
            Value::Text(rec.rationale.to_string()),
        ]);
    }
    for (m, why) in recommend::discouraged() {
        table.note(format!("Discouraged: {} — {}", m.display_name(), why));
    }
    emit(&table, format);
}
