//! The experiments: every table and figure of the paper, and the
//! extension sweeps, each a function from a seed and a rep count to the
//! tables it prints and the CSV artifact it writes.
//!
//! [`EXPERIMENTS`] lists them in `bnm reproduce` order, under the names
//! `--only` takes. Each keeps its cell list, rep cap and seed derivation
//! as data here, and nowhere else. The sweep and throughput rows are
//! built by [`sweep_table`] and [`throughput_table`], which `bnm impair`,
//! `bnm contend` and `bnm tput` call with the cells their flags describe,
//! so a CLI table and an artifact differ only in the cells they list.
//! Every table comes back with the cells that did not run: an experiment
//! keeps the rows of the others, and the CLI refuses a partial table.

use std::fmt::Write as _;

use bnm_browser::BrowserKind;
use bnm_methods::{table1_rows, table2_rows, MethodId};
use bnm_sim::link::LinkSpec;
use bnm_sim::time::{SimDuration, SimTime};
use bnm_sim::Impairment;
use bnm_stats::{MeanCi, Summary};
use bnm_time::probe::probe_series;
use bnm_time::{make_api, probe_granularity, MachineTimer, OsKind, TimingApiKind};

use crate::appraisal::Appraisal;
use crate::baseline::ping_baseline;
use crate::config::{figure3_combos, ContentionSpec, ExperimentCell, RuntimeSel, StreamingSpec};
use crate::error::RunError;
use crate::exec::Executor;
use crate::impact::{JitterImpact, ThroughputImpact};
use crate::report::{
    panel_rows, panel_table, push_csv_rows, render_cdf_block, DistSummary, Render, Table, Value,
    CSV_HEADER,
};
use crate::runner::{CellResult, DatagramSamples};
use crate::sweep::{d1_slope, d2_slope, try_sweep};
use crate::throughput::run_bulk_rep;

/// Repetitions per cell: the paper's 50.
pub const PAPER_REPS: u32 = 50;

/// The cells of a table that did not run, each with its error.
pub type Failed = Vec<(ExperimentCell, RunError)>;

/// What one experiment regenerates.
#[derive(Debug, Clone, Default)]
pub struct Artifact {
    /// The tables it prints, in order.
    pub tables: Vec<Table>,
    /// The CSV artifact.
    pub csv: String,
    /// The cells that did not run; every other cell keeps its rows.
    pub failed: Failed,
}

impl Artifact {
    /// The artifact of one table, which is also its CSV.
    fn of(table: Table, failed: Failed) -> Artifact {
        Artifact {
            csv: table.to_csv(),
            tables: vec![table],
            failed,
        }
    }
}

/// One table or figure of the paper, or one extension sweep.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    /// Its `bnm reproduce --only` name.
    pub name: &'static str,
    /// Its CSV artifact's file name.
    pub file: &'static str,
    regenerate: fn(u64, u32) -> Artifact,
}

impl Experiment {
    /// Regenerate the artifact from the master `seed` with `reps`
    /// repetitions per cell (at least 1), or fewer where the experiment
    /// caps them.
    pub fn run(&self, seed: u64, reps: u32) -> Artifact {
        (self.regenerate)(seed, reps.max(1))
    }
}

const fn experiment(
    name: &'static str,
    file: &'static str,
    regenerate: fn(u64, u32) -> Artifact,
) -> Experiment {
    Experiment {
        name,
        file,
        regenerate,
    }
}

/// Every experiment, in `bnm reproduce` order.
pub const EXPERIMENTS: [Experiment; 13] = [
    experiment("table1", "table1.csv", table1),
    experiment("table2", "table2.csv", table2),
    experiment("fig3", "fig3_deltas.csv", fig3),
    experiment("table3", "table3.csv", table3),
    experiment("fig4", "fig4_cdfs.csv", fig4),
    experiment("fig5", "fig5_granularity.csv", fig5),
    experiment("table4", "table4.csv", table4),
    experiment("tput", "tput.csv", tput),
    experiment("sweep", "sweep.csv", sweep),
    experiment("appraisals", "appraisals.csv", appraisals),
    experiment("impair", "impair.csv", impair),
    experiment("contend", "contend.csv", contend),
    experiment("webrtc", "webrtc.csv", webrtc),
];

/// The experiment `--only` calls `name`.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

fn text(s: impl Into<String>) -> Value {
    Value::Text(s.into())
}

/// Run `cells` as one executor batch: the cells that ran, with their
/// results in input order, and the cells that did not. A cell whose Δd1
/// or Δd2 came out empty failed with [`RunError::NoSamples`].
fn run_cells(cells: Vec<ExperimentCell>) -> (Vec<(ExperimentCell, CellResult)>, Failed) {
    let results = Executor::new().run(&cells);
    let (mut ran, mut failed) = (Vec::new(), Vec::new());
    for (cell, result) in cells.into_iter().zip(results) {
        match result {
            Ok(r) if r.d1.is_empty() || r.d2.is_empty() => failed.push((cell, RunError::NoSamples)),
            Ok(r) => ran.push((cell, r)),
            Err(e) => failed.push((cell, e)),
        }
    }
    (ran, failed)
}

/// The derived seed of the per-method experiments (Figure 3, Tables 3
/// and 4): each method runs on its own streams.
fn method_seed(seed: u64, method: MethodId) -> u64 {
    seed ^ ((method as u64) << 8)
}

/// Table 1: the taxonomy of browser-based measurement methods and the
/// tools that use them.
fn table1(_: u64, _: u32) -> Artifact {
    let mut table = Table::new(
        "Table 1: A summary of the browser-based network measurement methods and tools",
        &[
            "approach",
            "technology",
            "availability",
            "method",
            "same_origin",
            "metrics",
            "tools",
        ],
    );
    let mut csv = table.columns.join(",") + "\n";
    for r in table1_rows() {
        #[rustfmt::skip]
        let cells = [r.approach, r.technology, r.availability, r.method, r.same_origin, r.metrics, r.tools];
        // The artifact quotes the two list columns, whatever they hold.
        let _ = writeln!(
            csv,
            "{},\"{}\",\"{}\"",
            cells[..5].join(","),
            cells[5],
            cells[6]
        );
        table.row(cells.map(text).to_vec());
    }
    table.note("\"Yes*\": the same-origin policy can be bypassed.");
    Artifact {
        tables: vec![table],
        csv,
        failed: Vec::new(),
    }
}

/// Table 2: the browser and system configurations of the testbed.
fn table2(_: u64, _: u32) -> Artifact {
    let mut table = Table::new(
        "Table 2: Configurations of the browsers and systems used in the experiments",
        &["os", "browser", "version", "flash", "java", "websocket"],
    );
    for r in table2_rows() {
        let cells = [r.os.name(), r.browser.name(), r.version, r.flash, r.java];
        let mut row = cells.map(text).to_vec();
        row.push(text(r.websocket.to_string()));
        table.row(row);
    }
    Artifact::of(table, Vec::new())
}

/// Figure 3 (a)–(j): box plots of Δd1/Δd2 for the ten methods across the
/// eight browser-OS combinations. The artifact holds every sample.
fn fig3(seed: u64, n: u32) -> Artifact {
    let mut out = Artifact {
        csv: CSV_HEADER.to_string(),
        ..Artifact::default()
    };
    for method in MethodId::FIGURE3 {
        let cells = figure3_combos()
            .into_iter()
            .map(|(rt, os)| {
                ExperimentCell::paper(method, rt, os)
                    .with_reps(n)
                    .with_seed(method_seed(seed, method))
            })
            .filter(ExperimentCell::is_runnable)
            .collect();
        // The executor keeps input order, so the panel already reads in
        // the paper's x-axis order (Ubuntu block then Windows block).
        let (results, failed) = run_cells(cells);
        let mut rows = Vec::new();
        for (cell, result) in &results {
            rows.extend(panel_rows(cell, result));
            push_csv_rows(&mut out.csv, cell, result);
        }
        let title = format!(
            "Figure 3({}) {}: Δd (ms), {n} reps/cell, seed {seed:#x}",
            method.figure3_panel().unwrap_or('?'),
            method.display_name()
        );
        out.tables.push(panel_table(title, &rows, 58));
        out.failed.extend(failed);
    }
    out
}

/// Table 3: median Δd1/Δd2 of the Flash HTTP methods in Opera, the
/// TCP-handshake-inclusion finding (§4.1).
fn table3(seed: u64, n: u32) -> Artifact {
    let mut cells = Vec::new();
    for method in [MethodId::FlashGet, MethodId::FlashPost] {
        for os in [OsKind::Windows7, OsKind::Ubuntu1204] {
            let runtime = RuntimeSel::Browser(BrowserKind::Opera);
            cells.push(
                ExperimentCell::paper(method, runtime, os)
                    .with_reps(n)
                    .with_seed(method_seed(seed, method)),
            );
        }
    }
    let (results, failed) = run_cells(cells);
    let median = |m: MethodId, os: OsKind, round: u8| {
        results
            .iter()
            .find(|(c, _)| c.method == m && c.os == os)
            .and_then(|(_, r)| r.round(round).ok())
            .map_or(f64::NAN, |d| Summary::of(d).median)
    };
    let mut table = Table::new(
        "Table 3: Median Δd1 and Δd2 for the Flash HTTP methods in Opera (ms)",
        &["method", "round", "ow_ms", "ou_ms"],
    );
    for (method, name) in [(MethodId::FlashGet, "GET"), (MethodId::FlashPost, "POST")] {
        for round in [1u8, 2] {
            let w = median(method, OsKind::Windows7, round);
            let u = median(method, OsKind::Ubuntu1204, round);
            let (w, u) = (format!("{w:.2}"), format!("{u:.2}"));
            table.row(vec![text(name), Value::Int(round.into()), text(w), text(u)]);
        }
    }
    // The §4.1 check: POST Δd2 − 50 ms (the simulated delay) ≈ GET Δd2.
    table.note(format!(
        "§4.1 check (O(W)): POST Δd2 − 50 = {:.1} vs GET Δd2 = {:.1} (handshake ≈ simulated delay)",
        median(MethodId::FlashPost, OsKind::Windows7, 2) - 50.0,
        median(MethodId::FlashGet, OsKind::Windows7, 2)
    ));
    Artifact::of(table, failed)
}

/// Figure 4: the discrete Δd levels of the Java applet TCP socket method
/// on Windows, (a) in the five browsers and (b) under `appletviewer`, no
/// browser and no Java Plug-in. The artifact holds every sample.
fn fig4(seed: u64, n: u32) -> Artifact {
    let java_tcp = |rt| ExperimentCell::paper(MethodId::JavaTcp, rt, OsKind::Windows7).with_reps(n);
    let mut cells: Vec<ExperimentCell> = BrowserKind::ALL
        .iter()
        .map(|&b| java_tcp(RuntimeSel::Browser(b)).with_seed(seed))
        .collect();
    // The appletviewer control runs in its own session (a different
    // afternoon on the machine's regime timeline): derive its seed so the
    // run straddles the coarse regime like the paper's Figure 4(b).
    cells.push(java_tcp(RuntimeSel::AppletViewer).with_seed(seed ^ 0x0A12));
    let (results, failed) = run_cells(cells);

    let columns = ["runtime", "round", "level_ms", "mass_pct"];
    let mut browsers = Table::new(
        "Figure 4(a): Δd levels, Java applet TCP socket launched in browsers (Windows)",
        &columns,
    );
    let mut viewer = Table::new(
        "Figure 4(b): the same, launched with appletviewer (no browser)",
        &columns,
    );
    let mut csv = String::from("runtime,round,delta_ms\n");
    for (cell, result) in &results {
        let label = cell.runtime.figure_label(cell.os);
        let (c1, c2) = Appraisal::cdfs(result);
        let (table, cdf_title) = match cell.runtime {
            RuntimeSel::AppletViewer => (&mut viewer, Some("appletviewer Δd1 CDF")),
            // One full CDF plot for the most story-telling browser.
            RuntimeSel::Browser(BrowserKind::Firefox) => {
                (&mut browsers, Some("Firefox Δd1 CDF (Windows)"))
            }
            _ => (&mut browsers, None),
        };
        for (round, cdf, data) in [(1u8, &c1, &result.d1), (2, &c2, &result.d2)] {
            for (level, mass) in cdf.levels(3.0) {
                let round = Value::Int(round.into());
                table.row(vec![
                    text(&label),
                    round,
                    Value::Num(level),
                    Value::Num(mass * 100.0),
                ]);
            }
            for d in data {
                let _ = writeln!(csv, "{label},{round},{d:.4}");
            }
        }
        if let Some(title) = cdf_title {
            table.note(render_cdf_block(title, &c1, 58, 10));
        }
    }
    viewer.note(
        "Reading: discrete levels ~15.6 ms apart appear with and without a browser; the \
         granularity of Date.getTime()/currentTimeMillis() on Windows is the cause (§4.2).",
    );
    Artifact {
        tables: vec![browsers, viewer],
        csv,
        failed,
    }
}

/// Figure 5: the paper's busy-wait loop on `Date.getTime()`, run against
/// the modelled timing APIs over hours of virtual time. The Windows
/// granularity flips between 1 ms and ~15.6 ms with multi-minute dwell
/// times; `System.nanoTime()` is immune to all of it.
fn fig5(seed: u64, _: u32) -> Artifact {
    let windows = MachineTimer::new(OsKind::Windows7, seed);
    let ubuntu = MachineTimer::new(OsKind::Ubuntu1204, seed);
    let mut probes = Table::new(
        "Figure 5: timestamp-granularity probe, single probes (busy-wait until the clock ticks)",
        &["api", "os", "observed_ms", "calls", "elapsed"],
    );
    for (kind, machine, max_calls) in [
        (TimingApiKind::JavaDateGetTime, &windows, 10_000_000),
        (TimingApiKind::JavaDateGetTime, &ubuntu, 10_000_000),
        (TimingApiKind::JavaNanoTime, &windows, 10_000),
    ] {
        let mut api = make_api(kind, machine);
        if let Some(p) = probe_granularity(api.as_mut(), SimTime::from_secs(1), max_calls) {
            probes.row(vec![
                text(kind.to_string()),
                text(machine.os().name()),
                Value::Num(p.observed_ms),
                Value::Int(p.calls as i64),
                text(p.elapsed.to_string()),
            ]);
        }
    }

    let mut api = make_api(TimingApiKind::JavaDateGetTime, &windows);
    let series = probe_series(api.as_mut(), SimTime::ZERO, SimDuration::from_secs(60), 180);
    let mut csv = String::from("minute,observed_ms\n");
    for (i, (_, g)) in series.iter().enumerate() {
        let _ = writeln!(csv, "{i},{g:.3}");
    }
    let mut hours = Table::new(
        "Figure 5: probe series on Windows, one probe per simulated minute",
        &["hour", "regimes"],
    );
    let coarse = |g: f64| g > 2.0;
    for (hour, minutes) in series.chunks(60).enumerate() {
        let regimes: String = minutes
            .iter()
            .map(|&(_, g)| if coarse(g) { 'C' } else { '.' })
            .collect();
        hours.row(vec![Value::Int(hour as i64 + 1), text(regimes)]);
    }
    hours.note("Legend: '.' = 1 ms regime, 'C' = ~15.6 ms regime.");
    hours.note(format!(
        "{} of {} probes saw the coarse (~15.6 ms) granularity; regimes persist for minutes.",
        series.iter().filter(|&&(_, g)| coarse(g)).count(),
        series.len()
    ));
    Artifact {
        tables: vec![probes, hours],
        csv,
        failed: Vec::new(),
    }
}

/// Table 4: the Java applet methods on Windows with `System.nanoTime()`,
/// mean Δd ± 95% CI. The §4.2 fix removes the under-estimation, and the
/// socket method becomes comparable to the capture tool.
fn table4(seed: u64, n: u32) -> Artifact {
    let mut cells = Vec::new();
    for method in MethodId::JAVA {
        for browser in BrowserKind::ALL {
            cells.push(
                ExperimentCell::paper(method, RuntimeSel::Browser(browser), OsKind::Windows7)
                    .with_reps(n)
                    .with_seed(method_seed(seed, method))
                    .with_timing(TimingApiKind::JavaNanoTime)
                    // §5: Table 4's Safari numbers come from the fixed
                    // (Oracle-JRE) Java interface.
                    .with_fixed_safari_java(),
            );
        }
    }
    let (results, failed) = run_cells(cells);
    let mut table = Table::new(
        "Table 4: Delay overheads of the Java applet methods on Windows with \
         System.nanoTime() (mean ± 95% CI, ms)",
        &[
            "browser",
            "GET Δd1",
            "GET Δd2",
            "POST Δd1",
            "POST Δd2",
            "Socket Δd1",
            "Socket Δd2",
        ],
    );
    let mut csv = String::from("browser,method,round,mean_ms,ci_ms\n");
    for browser in BrowserKind::ALL {
        let mut row = vec![text(browser.name())];
        for method in MethodId::JAVA {
            let result = results
                .iter()
                .find(|(c, _)| c.method == method && c.runtime == RuntimeSel::Browser(browser));
            let Some((_, r)) = result else {
                row.extend([text("-"), text("-")]);
                continue;
            };
            for (round, data) in [(1u8, &r.d1), (2, &r.d2)] {
                let ci = MeanCi::of(data);
                row.push(text(ci.format_table4()));
                let (name, label) = (browser.name(), method.label());
                let (mean, half) = (ci.mean, ci.half_width);
                let _ = writeln!(csv, "{name},{label},{round},{mean:.4},{half:.4}");
            }
        }
        table.row(row);
    }
    table.note(
        "Reading: no negative means anywhere; socket overheads ≲ 0.2 ms, comparable to the \
         capture tool itself, as §4.2 concludes.",
    );
    Artifact {
        tables: vec![table],
        csv,
        failed,
    }
}

/// Throughput-measurement accuracy (§2.2 and Table 1's "Tput" column):
/// each method's browser-level throughput estimate against the wire
/// truth, per object size, beside the ICMP ping baseline of §6.
fn tput(seed: u64, reps: u32) -> Artifact {
    const METHODS: [MethodId; 4] = [
        MethodId::XhrGet,
        MethodId::FlashGet,
        MethodId::JavaGet,
        MethodId::WebSocket,
    ];
    const SIZES: [usize; 3] = [16 * 1024, 128 * 1024, 1024 * 1024];
    let n = reps.min(10); // bulk repetitions are heavier
    let runs: Vec<(ExperimentCell, usize)> = METHODS
        .iter()
        .flat_map(|&method| {
            SIZES.map(|size| {
                let runtime = RuntimeSel::Browser(BrowserKind::Chrome);
                let cell = ExperimentCell::paper(method, runtime, OsKind::Ubuntu1204);
                (cell.with_seed(seed), size)
            })
        })
        .collect();
    let title = format!("Browser vs wire throughput ({n} reps, seed {seed:#x})");
    let (mut table, failed) = throughput_table(title, &runs, n);
    table.note(
        "Reading: the overhead is a fixed per-transfer tax, so it dominates small \
         transfers and dilutes on large ones, and Flash taxes every size hardest (§2.2). \
         Round 2, the reuse round, is the one speedtests resemble.",
    );
    let pings = ping_baseline(10, SimDuration::from_millis(50));
    let s = Summary::of(&pings);
    let mut ping = Table::new(
        "ICMP ping baseline over the testbed (§6): the ground truth browser methods are judged against",
        &["pings", "min_ms", "median_ms", "max_ms"],
    );
    let stats = [s.min, s.median, s.max].map(Value::Num);
    ping.row([vec![Value::Int(pings.len() as i64)], stats.to_vec()].concat());
    Artifact {
        csv: table.to_csv(),
        tables: vec![table, ping],
        failed,
    }
}

/// Δd against the server delay (§3's remark on handshake inflation):
/// connection-reusing methods stay flat, handshake-including ones grow by
/// one RTT per RTT.
fn sweep(seed: u64, reps: u32) -> Artifact {
    const DELAYS_MS: [u64; 5] = [10, 25, 50, 100, 200];
    let n = reps.min(15);
    let delays = DELAYS_MS.map(SimDuration::from_millis);
    let mut table = Table::new(
        format!("Median Δd1 (ms) vs server delay ({n} reps, seed {seed:#x})"),
        &[
            "method / runtime",
            "10ms",
            "25ms",
            "50ms",
            "100ms",
            "200ms",
            "d1_slope",
            "d2_slope",
        ],
    );
    let mut csv = String::from("method,runtime,delay_ms,d1_median,d2_median\n");
    let mut failed = Vec::new();
    for (method, browser, os) in [
        (MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204),
        (MethodId::WebSocket, BrowserKind::Chrome, OsKind::Ubuntu1204),
        (MethodId::FlashGet, BrowserKind::Chrome, OsKind::Windows7),
        (MethodId::FlashGet, BrowserKind::Opera, OsKind::Windows7),
        (MethodId::FlashPost, BrowserKind::Opera, OsKind::Windows7),
    ] {
        let cell = ExperimentCell::paper(method, RuntimeSel::Browser(browser), os)
            .with_reps(n)
            .with_seed(seed);
        let pts = match try_sweep(&cell, &delays) {
            Ok(pts) => pts,
            Err(e) => {
                failed.push((cell, e));
                continue;
            }
        };
        let mut row = vec![text(format!(
            "{} / {}",
            method.display_name(),
            browser.initial()
        ))];
        row.extend(pts.iter().map(|p| Value::Num(p.d1_median)));
        let slopes = [d1_slope(&pts), d2_slope(&pts)];
        row.extend(slopes.map(|s| Value::Num(s.unwrap_or(f64::NAN))));
        table.row(row);
        for p in &pts {
            let _ = writeln!(
                csv,
                "{},{},{},{:.3},{:.3}",
                method.label(),
                browser.initial(),
                p.delay_ms,
                p.d1_median,
                p.d2_median
            );
        }
    }
    table.note(
        "Reading: slope ≈ 0 means the overhead is client-side and calibratable regardless \
         of path length; slope ≈ +1 (Opera Flash Δd1, Flash POST Δd2) means the \
         \"overhead\" is a hidden handshake, growing with every ms of network delay (§3/§4.1).",
    );
    Artifact {
        tables: vec![table],
        csv,
        failed,
    }
}

/// Run `cells` and tabulate one appraisal row per cell that ran: Δd
/// medians, pooled IQR and verdict. Returns the results too.
fn appraisal_table(
    title: &str,
    cells: Vec<ExperimentCell>,
) -> (Table, Vec<(ExperimentCell, CellResult)>, Failed) {
    let (results, mut failed) = run_cells(cells);
    let mut table = Table::new(title, &["cell", "d1_median", "d2_median", "iqr", "verdict"]);
    for (cell, result) in &results {
        match Appraisal::try_of(result) {
            Ok(a) => table.row(vec![
                text(cell.label()),
                Value::Num(a.d1.median),
                Value::Num(a.d2.median),
                Value::Num(a.pooled.iqr()),
                text(format!("{:?}", a.verdict)),
            ]),
            Err(e) => failed.push((cell.clone(), e)),
        }
    }
    (table, results, failed)
}

/// The §5 appraisal verdict of every method in its best runtime per OS,
/// then the §7 mobile WebKit runtime and the §2.2 impact of Δd on
/// jitter and throughput estimates.
fn appraisals(seed: u64, n: u32) -> Artifact {
    let mut cells = Vec::new();
    for method in MethodId::ALL {
        for (rt, os) in [
            (RuntimeSel::Browser(BrowserKind::Firefox), OsKind::Windows7),
            (RuntimeSel::Browser(BrowserKind::Chrome), OsKind::Ubuntu1204),
        ] {
            // The builder rejects Table 2 holes at construction time.
            if let Ok(cell) = ExperimentCell::builder(method, rt, os)
                .reps(n)
                .seed(seed)
                .build()
            {
                cells.push(cell);
            }
        }
    }
    let (verdicts, results, mut failed) =
        appraisal_table("Appraisal verdicts (best runtime per OS)", cells);

    let mobile_cells = MethodId::ALL
        .iter()
        .map(|&m| {
            ExperimentCell::paper(m, RuntimeSel::MobileWebKit, OsKind::Ubuntu1204)
                .with_reps(n)
                .with_seed(seed)
        })
        .filter(ExperimentCell::is_runnable)
        .collect();
    let (mut mobile, _, mobile_failed) = appraisal_table(
        "Mobile WebKit appraisals (§7): native methods only",
        mobile_cells,
    );
    failed.extend(mobile_failed);
    mobile.note(
        "Reading: without plug-ins, WebSocket is \"the remaining choice for performing \
         socket-based measurement in both fixed and mobile network platforms\" (§2.1).",
    );

    let mut impact = Table::new(
        "Impact of Δd on jitter and throughput estimates (§2.2)",
        &[
            "cell",
            "true_jitter_ms",
            "measured_jitter_ms",
            "tput_100kb_underest_pct",
        ],
    );
    for (cell, result) in &results {
        if !matches!(cell.method, MethodId::FlashGet | MethodId::WebSocket) {
            continue;
        }
        let wire: Vec<f64> = result
            .measurements
            .iter()
            .map(|m| m.network_rtt_ms())
            .collect();
        let browser: Vec<f64> = result
            .measurements
            .iter()
            .map(|m| m.browser_rtt_ms())
            .collect();
        let j = JitterImpact::of(&wire, &browser);
        let (med_wire, med_browser) = (Summary::of(&wire).median, Summary::of(&browser).median);
        if let Ok(t) = ThroughputImpact::try_of(100_000, med_wire, med_browser) {
            impact.row(vec![
                text(cell.label()),
                Value::Num(j.true_jitter_ms),
                Value::Num(j.measured_jitter_ms),
                Value::Num(t.underestimation() * 100.0),
            ]);
        }
    }
    Artifact {
        csv: verdicts.to_csv(),
        tables: vec![verdicts, mobile, impact],
        failed,
    }
}

/// The loss rates the `impair` and `webrtc` sweeps step through, in %.
const LOSS_PCTS: [f64; 5] = [0.0, 0.5, 1.0, 2.0, 5.0];

/// `reps` repetitions of each roster entry at each loss rate, in roster
/// order.
fn loss_sweep(
    roster: &[(MethodId, BrowserKind, OsKind)],
    seed: u64,
    reps: u32,
) -> Vec<ExperimentCell> {
    roster
        .iter()
        .flat_map(|&(method, browser, os)| {
            LOSS_PCTS.map(|pct| {
                ExperimentCell::builder(method, RuntimeSel::Browser(browser), os)
                    .reps(reps)
                    .seed(seed)
                    .impairment(Impairment::loss(pct / 100.0))
                    .build()
                    .expect("sweep cells are runnable")
            })
        })
        .collect()
}

/// Δd against packet loss: how well the paper's retransmission-exclusion
/// rule protects the delay estimates. The three socket methods, where a
/// retransmitted probe looks like a slow one without the capture, and
/// DOM, the HTTP method with the heaviest per-round machinery.
fn impair(seed: u64, reps: u32) -> Artifact {
    const ROSTER: [(MethodId, BrowserKind, OsKind); 4] = [
        (MethodId::WebSocket, BrowserKind::Chrome, OsKind::Ubuntu1204),
        (MethodId::JavaTcp, BrowserKind::Chrome, OsKind::Ubuntu1204),
        (MethodId::FlashTcp, BrowserKind::Chrome, OsKind::Windows7),
        (MethodId::Dom, BrowserKind::Chrome, OsKind::Ubuntu1204),
    ];
    let n = reps.min(20);
    let title = format!("Δd vs loss ({n} reps, seed {seed:#x})");
    let (mut table, failed) = sweep_table(title, &loss_sweep(&ROSTER, seed, n));
    table.note(
        "Reading: the Δd medians barely move across the loss sweep. Excluded rounds \
         (those whose probes were retransmitted) absorb the RTO penalty, so the included \
         rounds keep estimating the clean browser overhead, exactly as the paper's \
         exclusion rule intends. Without it, every leaked retransmission would inflate \
         Δd by a full retransmission timeout.",
    );
    Artifact::of(table, failed)
}

/// Δd against concurrent measuring clients on a shared server link. Per
/// Eq. 1, queueing between `tN_s` and `tN_r` cancels out of Δd, so
/// methods that reuse their connection stay tight at any client count,
/// while methods that open a fresh TCP connection inside a timed round
/// (Opera's Flash GET in round 1, Flash POST in every round) absorb a
/// handshake that queues behind the other clients' traffic.
fn contend(seed: u64, reps: u32) -> Artifact {
    /// The narrowed server access link, bits/s (`bnm contend
    /// --rate-mbps` runs one method at other rates).
    const RATE_BPS: u64 = 400_000;
    /// Two fresh-connection methods against two connection-reusing
    /// controls.
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
    let n = reps.min(10);
    let tier = |(method, browser, os): (MethodId, BrowserKind, OsKind), clients, rate, reps| {
        ExperimentCell::builder(method, RuntimeSel::Browser(browser), os)
            .reps(reps)
            .seed(seed)
            .contention(ContentionSpec::clients(clients).with_server_link_rate(rate))
    };
    let mut cells: Vec<ExperimentCell> = ROSTER
        .iter()
        .flat_map(|&entry| {
            COUNTS.map(|c| {
                tier(entry, c, RATE_BPS, n)
                    .build()
                    .expect("sweep cells are runnable")
            })
        })
        .collect();
    // The crowd regime, 128 to 1,000 clients. A fixed link would starve
    // every session, so each client keeps the share it had at the 64-client
    // endpoint (RATE_BPS/64): what the crowd tiers show is pure crowd-size
    // effect. Their samples spill to sketches past 64 raw values; at crowd
    // reps <= 2 every raw sample is retained, so the medians stay exact.
    let per_client = RATE_BPS / 64;
    cells.extend(CROWD_ROSTER.iter().flat_map(|&entry| {
        CROWD_COUNTS.map(|c| {
            tier(entry, c, per_client * u64::from(c), n.min(2))
                .streaming(StreamingSpec::bounded(64))
                .build()
                .expect("sweep cells are runnable")
        })
    }));
    let title =
        format!("Δd vs concurrent clients ({n} reps, seed {seed:#x}, legacy link {RATE_BPS} bps)");
    let (mut table, failed) = sweep_table(title, &cells);
    table.note(
        "Reading: the Flash methods' Δd medians (Δd1 for GET, both rounds for POST) \
         climb with the client count: their in-round TCP handshakes queue behind the \
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
    Artifact::of(table, failed)
}

/// The WebRTC data channel against WebSocket under loss. WebSocket hides
/// a lost probe behind TCP retransmission, so its round is excluded;
/// the datagram channel measures the loss, and its delivered probes keep
/// their one-way delays.
fn webrtc(seed: u64, reps: u32) -> Artifact {
    const ROSTER: [(MethodId, BrowserKind, OsKind); 2] = [
        (MethodId::WebRtc, BrowserKind::Chrome, OsKind::Ubuntu1204),
        (MethodId::WebSocket, BrowserKind::Chrome, OsKind::Ubuntu1204),
    ];
    let n = reps.min(20);
    let title = format!("WebRTC vs WebSocket under loss ({n} reps, seed {seed:#x})");
    let (mut table, failed) = sweep_table(title, &loss_sweep(&ROSTER, seed, n));
    table.note(
        "Reading: both transports keep their Δd medians flat across the sweep, but for \
         opposite reasons. WebSocket hides loss behind TCP retransmission, so affected \
         rounds are excluded (excluded_rounds grows with the rate) and the estimator never \
         sees them. WebRTC's unreliable channel surfaces loss directly: loss_pct_meas \
         tracks the injected loss_pct, the delivered probes keep their one-way delays, and \
         nothing needs excluding.",
    );
    Artifact::of(table, failed)
}

#[rustfmt::skip]
const SWEEP_COLUMNS: [&str; 23] = [
    "cell", "method", "runtime",
    "clients", "rate_mbps", "loss_pct", "corrupt_pct", "duplicate_pct", "jitter_ms",
    "d1_median_ms", "d2_median_ms", "d1_n", "d2_n", "excluded_rounds", "failures",
    "dgram_sent", "dgram_delivered", "dgram_lost", "dgram_reordered", "loss_pct_meas",
    "owd_up_p50_ms", "owd_down_p50_ms", "wire_jitter_p50_ms",
];

/// How many of [`SWEEP_COLUMNS`] are datagram fields (blank for a
/// reliable method).
const DATAGRAM_COLUMNS: usize = 8;

#[rustfmt::skip]
const THROUGHPUT_COLUMNS: [&str; 7] = [
    "method", "browser", "size_bytes", "round",
    "wire_mbps", "browser_mbps", "underestimated_pct",
];

/// Run the cells as one executor batch and tabulate one row per cell
/// that ran, in input order.
///
/// The network columns come from the cell: clients, server link rate,
/// the fault rates (sweeps impair both directions alike, so the uplink
/// spec speaks for both) and the jitter bound. Δd pools every session:
/// the medians and `d1_n`/`d2_n` cover all clients, not only the
/// reference one. The datagram counters sum over sessions and the
/// one-way-delay and wire-jitter medians pool them; all eight fields are
/// blank for a reliable method. Every column is a measurement, so the
/// table is the same however the executor spreads the reps.
pub fn sweep_table(title: impl Into<String>, cells: &[ExperimentCell]) -> (Table, Failed) {
    let mut table = Table::new(title, &SWEEP_COLUMNS);
    let mut failed = Vec::new();
    for (cell, result) in cells.iter().zip(Executor::new().run(cells)) {
        match result {
            Ok(r) => table.row(sweep_row(cell, &r)),
            Err(e) => failed.push((cell.clone(), e)),
        }
    }
    (table, failed)
}

fn sweep_row(cell: &ExperimentCell, r: &CellResult) -> Vec<Value> {
    let median = |v: &[f64]| Value::Num(DistSummary::of_samples(v).p50);
    let d1: Vec<f64> = r
        .sessions
        .iter()
        .flat_map(|s| s.d1.iter().copied())
        .collect();
    let d2: Vec<f64> = r
        .sessions
        .iter()
        .flat_map(|s| s.d2.iter().copied())
        .collect();
    let runtime = match cell.runtime {
        RuntimeSel::Browser(b) => b.initial().to_string(),
        other => other.figure_label(cell.os),
    };
    let rate_bps = cell
        .server_link_rate_bps
        .unwrap_or(LinkSpec::fast_ethernet().rate_bps);
    let faults = cell.impairment.up;
    let mut row = vec![
        Value::Text(cell.label()),
        Value::Text(cell.method.label().to_string()),
        Value::Text(runtime),
        Value::Int(i64::from(cell.clients)),
        Value::Num(rate_bps as f64 / 1e6),
        Value::Num(faults.drop_chance * 100.0),
        Value::Num(faults.corrupt_chance * 100.0),
        Value::Num(faults.duplicate_chance * 100.0),
        Value::Num(cell.impairment.jitter.as_millis_f64()),
        median(&d1),
        median(&d2),
        Value::Int(d1.len() as i64),
        Value::Int(d2.len() as i64),
        Value::Int(i64::from(r.excluded_rounds)),
        Value::Int(i64::from(r.failures)),
    ];
    let datagram = r.sessions.iter().filter_map(|s| s.datagram.as_ref()).fold(
        None,
        |sum: Option<DatagramSamples>, d| {
            let mut sum = sum.unwrap_or_default();
            sum.merge(d);
            Some(sum)
        },
    );
    match datagram {
        Some(d) => row.extend([
            Value::Int(d.sent as i64),
            Value::Int(d.delivered as i64),
            Value::Int((d.lost_upstream + d.lost_downstream) as i64),
            Value::Int(d.reordered as i64),
            Value::Num(d.loss_rate() * 100.0),
            median(&d.owd_up_ms),
            median(&d.owd_down_ms),
            median(&d.wire_jitter_ms),
        ]),
        None => {
            row.extend(std::iter::repeat_with(|| Value::Text(String::new())).take(DATAGRAM_COLUMNS))
        }
    }
    row
}

/// Run `reps` bulk-download repetitions of each `(cell, bytes)` pair and
/// tabulate one row per measured round: in input order, then rep order.
/// Each repetition that fails is reported with its cell.
pub fn throughput_table(
    title: impl Into<String>,
    runs: &[(ExperimentCell, usize)],
    reps: u32,
) -> (Table, Failed) {
    let mut table = Table::new(title, &THROUGHPUT_COLUMNS);
    let mut failed = Vec::new();
    for (cell, bytes) in runs {
        for rep in 0..reps {
            match run_bulk_rep(cell, rep, *bytes) {
                Ok(rounds) => {
                    for m in rounds {
                        table.row(vec![
                            Value::Text(cell.method.label().to_string()),
                            Value::Text(cell.runtime.figure_label(cell.os)),
                            Value::Int(*bytes as i64),
                            Value::Int(i64::from(m.round)),
                            Value::Num(m.wire_bps() / 1e6),
                            Value::Num(m.browser_bps() / 1e6),
                            Value::Num(m.underestimation() * 100.0),
                        ]);
                    }
                }
                Err(e) => failed.push((cell.clone(), e)),
            }
        }
    }
    (table, failed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ExperimentRunner;

    fn column<'a>(row: &'a [Value], name: &str) -> &'a Value {
        &row[SWEEP_COLUMNS
            .iter()
            .position(|c| *c == name)
            .expect("a sweep column")]
    }

    /// One pooling rule at any client count: Δd pools every session's
    /// samples, and each datagram counter is the per-session sum.
    #[test]
    fn sweep_rows_pool_every_session() {
        let cell = |method, clients| {
            ExperimentCell::builder(
                method,
                RuntimeSel::Browser(BrowserKind::Chrome),
                OsKind::Ubuntu1204,
            )
            .reps(3)
            .impairment(Impairment::loss(0.02))
            .contention(ContentionSpec::clients(clients))
            .build()
            .expect("a runnable cell")
        };
        let cells = [cell(MethodId::WebRtc, 3), cell(MethodId::XhrGet, 4)];
        let (table, failed) = sweep_table("pooling", &cells);
        assert!(failed.is_empty());
        assert_eq!(table.rows.len(), cells.len());
        for (cell, row) in cells.iter().zip(&table.rows) {
            let r = ExperimentRunner::try_run(cell).expect("the cell runs");
            let d1: Vec<f64> = r.sessions.iter().flat_map(|s| s.d1.clone()).collect();
            let d2: Vec<f64> = r.sessions.iter().flat_map(|s| s.d2.clone()).collect();
            assert!(
                d1.len() > r.d1.len(),
                "{}: not only session 0",
                cell.label()
            );
            let p50 = |v: &[f64]| Value::Num(DistSummary::of_samples(v).p50);
            assert_eq!(column(row, "d1_median_ms"), &p50(&d1));
            assert_eq!(column(row, "d2_median_ms"), &p50(&d2));
            assert_eq!(column(row, "d1_n"), &Value::Int(d1.len() as i64));
            assert_eq!(column(row, "d2_n"), &Value::Int(d2.len() as i64));

            let dgram: Vec<&DatagramSamples> = r
                .sessions
                .iter()
                .filter_map(|s| s.datagram.as_ref())
                .collect();
            if !cell.method.is_datagram() {
                assert!(dgram.is_empty());
                for name in &SWEEP_COLUMNS[15..15 + DATAGRAM_COLUMNS] {
                    assert_eq!(column(row, name), &Value::Text(String::new()), "{name}");
                }
                continue;
            }
            assert_eq!(r.failures, 0, "every repetition's train is counted");
            assert_eq!(dgram.len(), 3);
            let sum = |count: fn(&DatagramSamples) -> u64| {
                Value::Int(dgram.iter().map(|&d| count(d)).sum::<u64>() as i64)
            };
            let sent = i64::from(cell.clients * cell.reps * 16);
            assert_eq!(column(row, "dgram_sent"), &Value::Int(sent));
            assert_eq!(column(row, "dgram_sent"), &sum(|d| d.sent));
            assert_eq!(column(row, "dgram_delivered"), &sum(|d| d.delivered));
            assert_eq!(
                column(row, "dgram_lost"),
                &sum(|d| d.lost_upstream + d.lost_downstream)
            );
            assert_eq!(column(row, "dgram_reordered"), &sum(|d| d.reordered));
            let owd_up: Vec<f64> = dgram.iter().flat_map(|d| d.owd_up_ms.clone()).collect();
            assert_eq!(column(row, "owd_up_p50_ms"), &p50(&owd_up));
        }
    }

    /// An experiment keeps the rows of the cells that ran and reports the
    /// one that could not run.
    #[test]
    fn unrunnable_cells_are_reported_and_the_rest_kept() {
        let cell = |method, browser, os| {
            ExperimentCell::paper(method, RuntimeSel::Browser(browser), os).with_reps(2)
        };
        let cells = vec![
            cell(MethodId::WebSocket, BrowserKind::Ie9, OsKind::Windows7),
            cell(MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204),
        ];
        let (table, results, failed) = appraisal_table("verdicts", cells);
        assert_eq!(table.rows.len(), 1);
        assert_eq!(table.rows[0][0], Value::Text(results[0].0.label()));
        assert_eq!(results[0].1.d1.len(), 2);
        assert_eq!(failed.len(), 1);
        assert_eq!(failed[0].0.method, MethodId::WebSocket);
        assert!(matches!(failed[0].1, RunError::Unrunnable { .. }));
    }

    #[test]
    fn experiments_have_distinct_names_and_files() {
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert_eq!(find(e.name).map(|f| f.file), Some(e.file));
            assert!(e.file.ends_with(".csv"));
            assert!(EXPERIMENTS[..i].iter().all(|o| o.file != e.file));
        }
        assert!(find("fig9").is_none());
    }

    /// `bnm tput`'s one-rep table is the first repetition of the
    /// experiment's longer one.
    #[test]
    fn throughput_rows_are_rounds_in_rep_order() {
        let cell = ExperimentCell::paper(
            MethodId::XhrGet,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        );
        let (one, _) = throughput_table("", &[(cell.clone(), 16 * 1024)], 1);
        let (two, failed) = throughput_table("", &[(cell, 16 * 1024)], 2);
        assert!(failed.is_empty());
        assert_eq!(one.rows.len(), 2, "two rounds per repetition");
        assert_eq!(two.rows.len(), 4);
        assert_eq!(two.rows[..2], one.rows[..]);
    }

    #[test]
    fn oversized_bulk_downloads_are_failed_cells() {
        let cell = ExperimentCell::paper(
            MethodId::XhrGet,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        );
        let (table, failed) = throughput_table("", &[(cell, 16 * 1024 * 1024 + 1)], 1);
        assert!(table.rows.is_empty());
        assert!(matches!(failed[..], [(_, RunError::InvalidInput(_))]));
    }
}
