//! The experiment tables every front end shares.
//!
//! `bnm impair` and `bnm contend`, and the `impair`, `contend` and
//! `webrtc` regenerators, run a list of cells and print one row per
//! cell; `bnm tput` and the `tput` regenerator print one row per
//! bulk-download round. Both rows are built here and nowhere else, so a
//! CLI table and a regenerator artifact differ only in the cells they
//! list. Each table comes back with the cells that did not run; whether
//! those skip a row or abort the run is the caller's policy.

use bnm_sim::link::LinkSpec;

use crate::config::{ExperimentCell, RuntimeSel};
use crate::error::RunError;
use crate::exec::Executor;
use crate::report::{DistSummary, Table, Value};
use crate::runner::{CellResult, DatagramSamples};
use crate::throughput::run_bulk_rep;

/// The cells of a table that did not run, each with its error.
pub type Failed = Vec<(ExperimentCell, RunError)>;

#[rustfmt::skip]
const SWEEP_COLUMNS: [&str; 25] = [
    "cell", "method", "runtime",
    "clients", "rate_mbps", "loss_pct", "corrupt_pct", "duplicate_pct", "jitter_ms",
    "d1_median_ms", "d2_median_ms", "d1_n", "d2_n", "excluded_rounds", "failures",
    "dgram_sent", "dgram_delivered", "dgram_lost", "dgram_reordered", "loss_pct_meas",
    "owd_up_p50_ms", "owd_down_p50_ms", "wire_jitter_p50_ms",
    "pool_live_peak", "pool_allocated",
];

/// How many of [`SWEEP_COLUMNS`] are datagram fields (blank for a
/// reliable method).
const DATAGRAM_COLUMNS: usize = 8;

#[rustfmt::skip]
const THROUGHPUT_COLUMNS: [&str; 7] = [
    "method", "browser", "size_bytes", "round",
    "wire_mbps", "browser_mbps", "underestimated_pct",
];

/// Run each cell as its own executor batch and tabulate one row per cell
/// that ran, in input order.
///
/// The network columns come from the cell: clients, server link rate,
/// the fault rates (sweeps impair both directions alike, so the uplink
/// spec speaks for both) and the jitter bound. Δd pools every session:
/// the medians and `d1_n`/`d2_n` cover all clients, not only the
/// reference one. The datagram counters sum over sessions and the
/// one-way-delay and wire-jitter medians pool them; all eight fields are
/// blank for a reliable method. `pool_live_peak`/`pool_allocated` are
/// the frame-pool gauges of the cell's own batch, which is why each cell
/// runs alone.
pub fn sweep_table(title: impl Into<String>, cells: &[ExperimentCell]) -> (Table, Failed) {
    let mut table = Table::new(title, &SWEEP_COLUMNS);
    let mut failed = Vec::new();
    for cell in cells {
        let (mut results, stats) =
            Executor::new().run_with_stats(std::slice::from_ref(cell), |_| {});
        match results
            .pop()
            .expect("the executor returns one result per cell")
        {
            Ok(r) => table.row(sweep_row(cell, &r, &stats.pool)),
            Err(e) => failed.push((cell.clone(), e)),
        }
    }
    (table, failed)
}

fn sweep_row(cell: &ExperimentCell, r: &CellResult, pool: &bytes::pool::PoolStats) -> Vec<Value> {
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
    row.extend([
        Value::Int(pool.live_peak),
        Value::Int(pool.allocated as i64),
    ]);
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
    use bnm_browser::BrowserKind;
    use bnm_methods::MethodId;
    use bnm_sim::Impairment;
    use bnm_time::OsKind;

    use crate::config::ContentionSpec;
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

    /// `bnm tput`'s one-rep table is the first repetition of the
    /// regenerator's longer one.
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
}
