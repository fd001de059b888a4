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
//! bnm reproduce [options]          regenerate every table, figure and sweep
//! ```
//!
//! Every subcommand reads its flags through one typed parser,
//! [`bnm::core::cli::Args`]: an unknown, repeated, malformed or
//! out-of-range flag, or a stray positional, prints usage and exits 2.
//! Every data-producing subcommand shares one `--format {text,json,csv}`
//! code path: it builds a [`Render`]able (`Table`, `ReportSnapshot` or
//! `TraceReport`) and emits it — no per-command formatters. The sweep
//! and throughput tables are built by [`bnm::core::experiments`], which
//! also holds every experiment `bnm reproduce` runs.

#![deny(deprecated)]

use bnm::browser::BrowserKind;
use bnm::core::appraisal::Appraisal;
use bnm::core::baseline::ping_baseline;
use bnm::core::cli::{ArgError, Args};
use bnm::core::experiments::{self, sweep_table, throughput_table, Failed, PAPER_REPS};
use bnm::core::recommend::{self, Constraints};
use bnm::core::report::{Table, TraceReport, Value};
use bnm::core::{
    CellBuilder, CellResult, ContentionSpec, ExperimentCell, ExperimentRunner, FaultSpec,
    Impairment, Monitor, Render, ReportFormat, RuntimeSel, StreamingSpec, DEFAULT_SEED,
};
use bnm::methods::{table1_rows, MethodId};
use bnm::sim::time::{SimDuration, SimTime};
use bnm::stats::Summary;
use bnm::timeapi::{make_api, probe_granularity, MachineTimer, OsKind, TimingApiKind};

/// A subcommand: its name, the value flags and switches it takes, and
/// its body.
type Command = (
    &'static str,
    &'static [&'static str],
    &'static [&'static str],
    fn(&Args) -> Result<(), ArgError>,
);

#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    ("list", &[], &[], cmd_list),
    ("appraise", &["method", "browser", "os", "reps", "seed"], &["nanotime"], cmd_appraise),
    ("trace", &["method", "browser", "os", "reps", "seed", "format"], &["events"], cmd_trace),
    ("impair", &["method", "browser", "os", "reps", "seed", "loss", "corrupt", "duplicate",
                 "jitter", "format"], &[], cmd_impair),
    ("contend", &["method", "browser", "os", "reps", "seed", "clients", "rate-mbps", "format"],
                &[], cmd_contend),
    ("serve", &["method", "browser", "os", "seed", "clients", "rate-mbps", "loss", "duration",
                "every", "period", "format"], &[], cmd_serve),
    ("webrtc", &["browser", "os", "reps", "seed", "loss", "jitter", "format"], &[], cmd_webrtc),
    ("probe", &["os"], &[], cmd_probe),
    ("ping", &[], &[], cmd_ping),
    ("tput", &["method", "size", "format"], &[], cmd_tput),
    ("recommend", &["format"], &["mobile", "no-plugins", "no-ports", "strict-origin"],
                  cmd_recommend),
    ("battery", &["reps", "seed", "format"], &["quick", "serial"], cmd_battery),
    ("reproduce", &["only", "results", "reps", "seed"], &[], cmd_reproduce),
];

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
                 time-varying scenarios; rank by measured deployment score\n  \
           reproduce [--only NAME,...] [--results DIR] [--reps N] [--seed S]\n        \
                 regenerate Tables 1-4, Figures 3-5 and the extension sweeps:\n        \
                 print each table, write each CSV under DIR (default results/)\n\
         \nmethod labels: {}\nexperiment names: {}",
        MethodId::EXTENDED
            .iter()
            .map(|m| m.label())
            .collect::<Vec<_>>()
            .join(", "),
        experiments::EXPERIMENTS.map(|e| e.name).join(", ")
    );
    std::process::exit(2);
}

/// Print why a run could not finish, and exit 1.
fn fail(why: impl std::fmt::Display) -> ! {
    eprintln!("{why}");
    std::process::exit(1);
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
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        usage()
    };
    let Some(&(_, values, switches, run)) = COMMANDS.iter().find(|c| c.0 == cmd.as_str()) else {
        usage()
    };
    let outcome = Args::parse(rest.iter().cloned(), values, switches).and_then(|args| run(&args));
    if let Err(e) = outcome {
        eprintln!("bnm {cmd}: {e}");
        usage();
    }
}

/// The method/browser/OS/reps/seed block the experiment subcommands
/// share, over each subcommand's own defaults. A flag the subcommand
/// does not take keeps its default.
fn cell_builder(
    args: &Args,
    method: MethodId,
    browser: BrowserKind,
    os: OsKind,
    reps: u32,
) -> Result<CellBuilder, ArgError> {
    let runtime = RuntimeSel::Browser(args.browser()?.unwrap_or(browser));
    let builder = ExperimentCell::builder(
        args.method()?.unwrap_or(method),
        runtime,
        args.os()?.unwrap_or(os),
    );
    Ok(builder
        .reps(args.reps()?.unwrap_or(reps))
        .seed(args.seed()?.unwrap_or(DEFAULT_SEED)))
}

/// Validate a cell, exiting 1 with the reason when it cannot run.
fn build_cell(builder: CellBuilder) -> ExperimentCell {
    builder.build().unwrap_or_else(|e| match e {
        bnm::RunError::Unrunnable { .. } => fail(format!("{e} (Table 2 feature matrix)")),
        _ => fail(e),
    })
}

/// Run a cell, exiting 1 when it cannot.
fn run_cell(cell: &ExperimentCell) -> CellResult {
    ExperimentRunner::try_run(cell).unwrap_or_else(|e| fail(format!("run failed: {e}")))
}

/// An experiments table's rows, exiting 1 at the first cell that did not
/// run: a CLI table is printed whole or not at all.
fn all_rows((table, failed): (Table, Failed)) -> Table {
    if let Some((cell, e)) = failed.first() {
        fail(format!("run failed for {}: {e}", cell.label()));
    }
    table
}

fn cmd_list(_: &Args) -> Result<(), ArgError> {
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
    Ok(())
}

fn cmd_appraise(args: &Args) -> Result<(), ArgError> {
    let mut builder = cell_builder(
        args,
        MethodId::WebSocket,
        BrowserKind::Chrome,
        OsKind::Ubuntu1204,
        25,
    )?;
    if args.switch("nanotime") {
        builder = builder.timing(TimingApiKind::JavaNanoTime);
    }
    let cell = build_cell(builder);
    println!(
        "Appraising {} ({} reps, seed {:#x}) …",
        cell.label(),
        cell.reps,
        cell.seed
    );
    let result = run_cell(&cell);
    let a = Appraisal::try_of(&result).unwrap_or_else(|e| fail(format!("appraisal failed: {e}")));
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
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), ArgError> {
    let builder = cell_builder(
        args,
        MethodId::XhrGet,
        BrowserKind::Chrome,
        OsKind::Ubuntu1204,
        5,
    )?;
    let format = args.format()?.unwrap_or_default();
    let cell = build_cell(builder.trace(true));
    let result = run_cell(&cell);

    if format == ReportFormat::Text {
        println!(
            "Δd attribution for {} ({} reps, seed {:#x}), ms:\n",
            cell.label(),
            cell.reps,
            cell.seed
        );
    }
    emit(&TraceReport::new(&result.attributions), format);
    if format == ReportFormat::Text && result.failures > 0 {
        println!("({} repetitions failed)", result.failures);
    }

    // Raw event dump for the first repetition, in the same format.
    if args.switch("events") {
        if let Some(t) = result.traces.first() {
            match format {
                ReportFormat::Json => println!("{}", t.to_json()),
                _ => print!("{}", t.to_csv()),
            }
        }
    }
    Ok(())
}

fn cmd_impair(args: &Args) -> Result<(), ArgError> {
    let builder = cell_builder(
        args,
        MethodId::WebSocket,
        BrowserKind::Chrome,
        OsKind::Ubuntu1204,
        25,
    )?;
    let spec = FaultSpec {
        drop_chance: args.probability("loss")?.unwrap_or(0.0),
        corrupt_chance: args.probability("corrupt")?.unwrap_or(0.0),
        duplicate_chance: args.probability("duplicate")?.unwrap_or(0.0),
    };
    let jitter_ms = args.non_negative("jitter")?.unwrap_or(0.0);
    let format = args.format()?.unwrap_or_default();
    let cell = build_cell(builder.impairment(Impairment {
        up: spec,
        down: spec,
        jitter: SimDuration::from_millis_f64(jitter_ms),
    }));
    let title = format!(
        "{} on an impaired network ({} reps, seed {:#x})",
        cell.label(),
        cell.reps,
        cell.seed
    );
    let mut table = all_rows(sweep_table(title, &[cell]));
    table.note(
        "Rounds hit by retransmission are excluded per §3.2; medians are R-7 \
         over the surviving rounds. The datagram columns (dgram_* through \
         wire_jitter_p50_ms) are populated only for datagram methods (webrtc), \
         whose losses are measured, not excluded.",
    );
    emit(&table, format);
    Ok(())
}

fn cmd_contend(args: &Args) -> Result<(), ArgError> {
    let builder = cell_builder(
        args,
        MethodId::FlashGet,
        BrowserKind::Opera,
        OsKind::Windows7,
        10,
    )?;
    let max_clients = args.clients()?.unwrap_or(64);
    let rate_mbps = args.positive("rate-mbps")?.unwrap_or(0.4);
    let format = args.format()?.unwrap_or_default();

    // Sweep the powers of two up to the requested cap (the cap itself is
    // always included so `--clients 48` still ends at 48).
    let mut counts: Vec<u32> = std::iter::successors(Some(1u32), |c| Some(c * 2))
        .take_while(|c| *c < max_clients)
        .collect();
    counts.push(max_clients);
    let link = |c| ContentionSpec::clients(c).with_server_link_rate((rate_mbps * 1e6) as u64);
    let cells: Vec<ExperimentCell> = counts
        .into_iter()
        .map(|c| build_cell(builder.clone().contention(link(c))))
        .collect();
    let title = format!(
        "{} vs concurrent clients on a {rate_mbps} Mbps server link ({} reps, seed {:#x})",
        cells[0].method.display_name(),
        cells[0].reps,
        cells[0].seed
    );
    let mut table = all_rows(sweep_table(title, &cells));
    table.note(
        "Fresh-connection methods (Flash GET round 1, Flash POST every round) \
         queue their in-round handshake behind the crowd's traffic — that wait \
         lands before tN_s and inflates Δd. Connection-reusing methods shed the \
         crowd's queueing because it falls between tN_s and tN_r (Eq. 1).",
    );
    emit(&table, format);
    Ok(())
}

/// `bnm webrtc` — run the WebRTC data-channel cell and emit its
/// per-probe appraisal: OWD both ways, RFC 3550 jitter (wire vs
/// browser), loss and reordering, plus the usual Δd digests.
fn cmd_webrtc(args: &Args) -> Result<(), ArgError> {
    let mut builder = cell_builder(
        args,
        MethodId::WebRtc,
        BrowserKind::Chrome,
        OsKind::Ubuntu1204,
        25,
    )?;
    let loss = args.probability("loss")?.unwrap_or(0.0);
    let jitter_ms = args.non_negative("jitter")?.unwrap_or(0.0);
    let format = args.format()?.unwrap_or_default();
    if loss > 0.0 || jitter_ms > 0.0 {
        builder = builder.impairment(
            Impairment::loss(loss).with_jitter(SimDuration::from_millis_f64(jitter_ms)),
        );
    }
    let cell = build_cell(builder);
    emit(&run_cell(&cell).summary(&cell), format);
    Ok(())
}

fn cmd_serve(args: &Args) -> Result<(), ArgError> {
    // The monitor owns the round loop, so the cell's rep count is only a
    // label-level detail; streaming capture with bounded retention keeps
    // per-round memory flat no matter how long the run goes.
    let mut builder = cell_builder(
        args,
        MethodId::XhrGet,
        BrowserKind::Chrome,
        OsKind::Ubuntu1204,
        1,
    )?
    .streaming(StreamingSpec::serve());
    let clients = args.clients()?.unwrap_or(1);
    let rate_mbps = args.positive("rate-mbps")?;
    let loss = args.probability("loss")?.unwrap_or(0.0);
    let duration = args.duration("duration", SimDuration::from_secs_f64)?;
    let every = args.duration("every", SimDuration::from_secs_f64)?;
    let period = args.duration("period", SimDuration::from_millis_f64)?;
    let format = args.format()?.unwrap_or_default();

    if clients > 1 || rate_mbps.is_some() {
        let mut spec = ContentionSpec::clients(clients);
        if let Some(r) = rate_mbps {
            spec = spec.with_server_link_rate((r * 1e6) as u64);
        }
        builder = builder.contention(spec);
    }
    if loss > 0.0 {
        builder = builder.impairment(Impairment::loss(loss));
    }
    let cell = build_cell(builder);

    let period = period.unwrap_or(SimDuration::from_secs(1));
    let mut monitor = Monitor::with_period(cell, period).unwrap_or_else(|e| fail(e));

    let end = SimTime::ZERO + duration.unwrap_or(SimDuration::from_secs(60));
    let every = every.unwrap_or(SimDuration::from_secs(10));
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
    Ok(())
}

fn cmd_probe(args: &Args) -> Result<(), ArgError> {
    let os = args.os()?.unwrap_or(OsKind::Windows7);
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
    Ok(())
}

fn cmd_ping(_: &Args) -> Result<(), ArgError> {
    let rtts = ping_baseline(10, SimDuration::from_millis(50));
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
    Ok(())
}

fn cmd_tput(args: &Args) -> Result<(), ArgError> {
    let method = args.method()?.unwrap_or(MethodId::XhrGet);
    let size = args.size()?.unwrap_or(128 * 1024);
    let format = args.format()?.unwrap_or_default();
    // The tput experiment's cell at its default seed: these rows are
    // its first repetition's.
    let cell = ExperimentCell::paper(
        method,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .with_seed(DEFAULT_SEED);
    let title = format!("Throughput check: {method} downloading {size} bytes");
    let table = all_rows(throughput_table(title, &[(cell, size)], 1));
    emit(&table, format);
    Ok(())
}

/// `bnm battery` — the full scored appraisal suite: every roster method
/// across the clean, impaired, contended, bufferbloat (drop-tail and
/// CoDel) and time-varying scenarios, ranked per scenario by the
/// measured deployment score.
fn cmd_battery(args: &Args) -> Result<(), ArgError> {
    let mut cfg = if args.switch("quick") {
        bnm::BatteryConfig::quick()
    } else {
        bnm::BatteryConfig::default()
    };
    cfg.reps = args.reps()?.unwrap_or(cfg.reps);
    cfg.seed = args.seed()?.unwrap_or(cfg.seed);
    let format = args.format()?.unwrap_or_default();
    let exec = if args.switch("serial") {
        bnm::Executor::serial()
    } else {
        bnm::Executor::new()
    };
    match bnm::run_battery(&cfg, &exec) {
        Ok(report) => emit(&report, format),
        Err(e) => fail(format!("battery failed: {e}")),
    }
    Ok(())
}

fn cmd_recommend(args: &Args) -> Result<(), ArgError> {
    let c = Constraints {
        mobile: args.switch("mobile"),
        plugins_allowed: !args.switch("no-plugins"),
        can_open_ports: !args.switch("no-ports"),
        strict_cross_origin: args.switch("strict-origin"),
    };
    let format = args.format()?.unwrap_or_default();
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
    Ok(())
}

/// `bnm reproduce` — run the experiments in this process, in order:
/// print each one's tables and write its CSV artifact. A cell that could
/// not run is reported on stderr and its rows are left out.
fn cmd_reproduce(args: &Args) -> Result<(), ArgError> {
    let only = args.list(
        "only",
        "a comma-separated list of experiment names",
        experiments::find,
    )?;
    let reps = args.reps()?.unwrap_or(PAPER_REPS);
    let seed = args.seed()?.unwrap_or(DEFAULT_SEED);
    let dir = std::path::Path::new(args.value("results").unwrap_or("results"));
    if let Err(e) = std::fs::create_dir_all(dir) {
        fail(format!("cannot create {}: {e}", dir.display()));
    }
    let selected = experiments::EXPERIMENTS.iter().filter(|e| {
        only.as_ref()
            .is_none_or(|o| o.iter().any(|s| s.name == e.name))
    });
    for experiment in selected {
        println!("== {} ==", experiment.name);
        let artifact = experiment.run(seed, reps);
        for (cell, e) in &artifact.failed {
            eprintln!("skipping {}: {e}", cell.label());
        }
        for table in &artifact.tables {
            println!("{}", table.to_text());
        }
        let path = dir.join(experiment.file);
        if let Err(e) = std::fs::write(&path, &artifact.csv) {
            fail(format!("cannot write {}: {e}", path.display()));
        }
        println!("Artifact written to {}\n", path.display());
    }
    Ok(())
}
