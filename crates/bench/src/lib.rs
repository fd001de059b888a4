//! # bnm-bench — experiment regenerators and benches
//!
//! One binary per table/figure of the paper:
//!
//! | binary            | regenerates                                    |
//! |-------------------|------------------------------------------------|
//! | `table1`          | Table 1 — method taxonomy                      |
//! | `table2`          | Table 2 — browser/OS configurations            |
//! | `fig3`            | Figure 3 (a)–(j) — Δd box plots, full grid     |
//! | `table3`          | Table 3 — Opera Flash GET/POST medians         |
//! | `fig4`            | Figure 4 — Java TCP Δd CDFs (browsers + appletviewer) |
//! | `fig5`            | Figure 5 — timestamp-granularity probe         |
//! | `table4`          | Table 4 — Java methods with `System.nanoTime()`|
//! | `all_experiments` | everything above + CSV dumps under `results/`  |
//!
//! Run with `cargo run --release -p bnm-bench --bin fig3`.
//!
//! Every binary accepts the shared flags of [`cli::BenchArgs`]
//! (`--seed`, `--reps`, `--results`, `--format text|json|csv`), read by
//! the same [`bnm_core::cli`] parser as the `bnm` CLI. The extension
//! sweeps (`impair`, `contend`, `webrtc`, `tput`) are cell lists handed
//! to [`bnm_core::experiments`], which builds the rows `bnm impair`,
//! `bnm contend` and `bnm tput` print too.

#![deny(deprecated)]

pub mod cli;
pub mod meta;

use std::io::IsTerminal;
use std::path::Path;

use bnm_core::experiments::Failed;
use bnm_core::report::Table;
use bnm_core::{CellResult, Executor, ExperimentCell};

/// Repetitions per cell: the paper's 50.
pub const PAPER_REPS: u32 = 50;

/// Run a batch of cells on `bnm_core`'s work-stealing executor.
///
/// Results come back **in input order** with numbers bit-identical to a
/// serial run (the executor parallelises at the `(cell × rep)` grain and
/// merges deterministically). Unrunnable cells are reported to stderr
/// and dropped; when stderr is a terminal, a live rep counter is shown.
pub fn run_cells(cells: Vec<ExperimentCell>) -> Vec<(ExperimentCell, CellResult)> {
    let live = std::io::stderr().is_terminal();
    let (results, stats) = Executor::new().run_with_stats(&cells, |p| {
        if live {
            eprint!("\r  {}/{} reps", p.completed, p.total);
        }
    });
    if live && !cells.is_empty() {
        eprintln!("\r  {}", stats.summary());
    }
    cells
        .into_iter()
        .zip(results)
        .filter_map(|(cell, r)| match r {
            Ok(result) => Some((cell, result)),
            Err(e) => {
                eprintln!("skipping {}: {e}", cell.label());
                None
            }
        })
        .collect()
}

/// The rows of a [`bnm_core::experiments`] table, reporting each cell
/// that did not run to stderr: a regenerator skips a failed cell rather
/// than abort the sweep.
pub fn skip_failed((table, failed): (Table, Failed)) -> Table {
    for (cell, e) in failed {
        eprintln!("skipping {}: {e}", cell.label());
    }
    table
}

/// Print a horizontal rule + heading.
pub fn heading(title: &str) {
    println!("\n{}", "=".repeat(78));
    println!("{title}");
    println!("{}", "=".repeat(78));
}

/// Format a median table cell.
pub fn fmt_med(v: f64) -> String {
    format!("{v:8.2}")
}

/// Check that a path exists relative to the repo (diagnostics for the
/// all_experiments binary).
pub fn exists(p: &Path) -> bool {
    p.exists()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnm_browser::BrowserKind;
    use bnm_core::RuntimeSel;
    use bnm_methods::MethodId;
    use bnm_time::OsKind;

    #[test]
    fn parallel_and_serial_runs_agree() {
        let mk = || {
            vec![
                ExperimentCell::paper(
                    MethodId::Dom,
                    RuntimeSel::Browser(BrowserKind::Chrome),
                    OsKind::Ubuntu1204,
                )
                .with_reps(4),
                ExperimentCell::paper(
                    MethodId::WebSocket,
                    RuntimeSel::Browser(BrowserKind::Firefox),
                    OsKind::Ubuntu1204,
                )
                .with_reps(4),
            ]
        };
        let par = run_cells(mk());
        let ser: Vec<_> = mk()
            .into_iter()
            .map(|c| {
                let r = bnm_core::ExperimentRunner::try_run(&c).unwrap();
                (c, r)
            })
            .collect();
        // The executor preserves input order, so the rows line up 1:1.
        assert_eq!(par.len(), ser.len());
        for ((pc, pr), (sc, sr)) in par.iter().zip(&ser) {
            assert_eq!(pc.label(), sc.label());
            assert_eq!(pr.d1, sr.d1);
            assert_eq!(pr.d2, sr.d2);
        }
    }

    #[test]
    fn unrunnable_cells_are_dropped_not_fatal() {
        let cells = vec![
            ExperimentCell::paper(
                MethodId::WebSocket,
                RuntimeSel::Browser(BrowserKind::Ie9),
                OsKind::Windows7,
            )
            .with_reps(2),
            ExperimentCell::paper(
                MethodId::XhrGet,
                RuntimeSel::Browser(BrowserKind::Chrome),
                OsKind::Ubuntu1204,
            )
            .with_reps(2),
        ];
        let out = run_cells(cells);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0.method, MethodId::XhrGet);
        assert_eq!(out[0].1.d1.len(), 2);
    }
}
