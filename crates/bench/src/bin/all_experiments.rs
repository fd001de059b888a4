//! Run every regenerator in sequence: Tables 1–4 and Figures 3–5, plus
//! the extension experiments (server-side overhead, impact analysis,
//! Java UDP). Writes all CSV artifacts under `results/`.

use std::process::Command;

use bnm_bench::cli::BenchArgs;
use bnm_bench::{heading, run_cells};
use bnm_browser::BrowserKind;
use bnm_core::appraisal::Appraisal;
use bnm_core::impact::{JitterImpact, ThroughputImpact};
use bnm_core::report::{Render, Table, Value};
use bnm_core::{ExperimentCell, RuntimeSel};
use bnm_methods::MethodId;
use bnm_stats::Summary;
use bnm_time::OsKind;

/// One appraisal row per cell: Δd medians, pooled IQR and verdict.
fn appraisal_table(title: &str, results: &[(ExperimentCell, bnm_core::CellResult)]) -> Table {
    let mut table = Table::new(title, &["cell", "d1_median", "d2_median", "iqr", "verdict"]);
    for (cell, result) in results {
        let Ok(a) = Appraisal::try_of(result) else {
            eprintln!("no samples for {}", cell.label());
            continue;
        };
        table.row(vec![
            Value::Text(cell.label()),
            Value::Num(a.d1.median),
            Value::Num(a.d2.median),
            Value::Num(a.pooled.iqr()),
            Value::Text(format!("{:?}", a.verdict)),
        ]);
    }
    table
}

fn run_bin(name: &str) {
    // Re-exec the sibling binaries so each prints its own report; the
    // shared flags (--seed/--reps/--results/--format) pass straight
    // through.
    let exe = std::env::current_exe().expect("current exe");
    let dir = exe.parent().expect("bin dir");
    let status = Command::new(dir.join(name))
        .args(std::env::args().skip(1))
        .status()
        .unwrap_or_else(|e| panic!("failed to launch {name}: {e}"));
    assert!(status.success(), "{name} failed");
}

fn main() {
    let args = BenchArgs::parse();
    for bin in [
        "table1", "table2", "fig3", "table3", "fig4", "fig5", "table4", "tput", "sweep",
    ] {
        run_bin(bin);
    }

    // ---- Extensions beyond the paper's own tables ----
    let (seed, n) = (args.seed, args.reps);

    heading("Extension: appraisal verdicts per method (best runtime per OS, §5 framing)");
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
    let results = run_cells(cells);
    let table = appraisal_table("Appraisal verdicts (best runtime per OS)", &results);
    println!("{}", table.render(args.stdout_format()));
    args.save_artifact("appraisals.csv", &table.to_csv());

    heading("Extension: mobile WebKit runtime (§7) — native methods only");
    let mobile_cells: Vec<ExperimentCell> = MethodId::ALL
        .iter()
        .map(|&m| {
            ExperimentCell::paper(m, RuntimeSel::MobileWebKit, bnm_time::OsKind::Ubuntu1204)
                .with_reps(n)
                .with_seed(seed)
        })
        .filter(ExperimentCell::is_runnable)
        .collect();
    let mobile_results = run_cells(mobile_cells);
    let table = appraisal_table("Mobile WebKit appraisals", &mobile_results);
    println!("{}", table.render(args.stdout_format()));
    println!(
        "Reading: without plug-ins, WebSocket is \"the remaining choice for performing\n\
         socket-based measurement in both fixed and mobile network platforms\" (§2.1)."
    );

    heading("Extension: impact of Δd on jitter and throughput estimates (§2.2)");
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
        let med_wire = Summary::of(&wire).median;
        let med_browser = Summary::of(&browser).median;
        let Ok(t) = ThroughputImpact::try_of(100_000, med_wire, med_browser) else {
            continue;
        };
        println!(
            "{:40} jitter {:6.2} → {:6.2} ms   100KB-tput underest {:5.1}%",
            cell.label(),
            j.true_jitter_ms,
            j.measured_jitter_ms,
            t.underestimation() * 100.0
        );
    }

    println!("\nAll experiments complete; artifacts in results/.");
}
