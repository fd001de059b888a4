//! The single rendering surface for every bnm output path.
//!
//! Historically each subcommand and bench binary hand-rolled its own
//! text/JSON/CSV formatting. This module now owns all of it:
//!
//! * [`Render`] — the one trait every reportable artefact implements,
//!   with [`Render::to_text`] / [`Render::to_json`] / [`Render::to_csv`]
//!   backends selected by a [`ReportFormat`].
//! * [`Table`] — a titled column/row table; the workhorse behind the
//!   sweep subcommands (`impair`, `contend`, `tput`, `recommend`) and
//!   every `bnm reproduce` experiment.
//! * [`ReportSnapshot`] — the pollable summary the continuous monitor
//!   ([`crate::monitor::Monitor`]) emits and that
//!   [`crate::runner::CellResult::summary`] produces for batch runs:
//!   per-window distribution digests ([`WindowReport`] /
//!   [`DistSummary`]) plus lifetime counters.
//! * [`TraceReport`] — adapter rendering attribution rows through the
//!   same trait.
//!
//! The figure-style helpers ([`panel_rows`], [`panel_table`],
//! [`render_cdf_block`], [`push_csv_rows`]) serve the Figure 3/4 paths of
//! [`crate::experiments`].

use std::fmt::Write as _;

use bnm_stats::{ascii, summary, BoxStats, Cdf, QuantileSketch};

use crate::appraisal::{Appraisal, Thresholds, Verdict};
use crate::attribution::{self, RoundAttribution};
use crate::config::ExperimentCell;
use crate::runner::CellResult;

// ---------------------------------------------------------------------------
// Format selection and the Render trait
// ---------------------------------------------------------------------------

/// Output format shared by every subcommand's `--format` flag.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReportFormat {
    /// Human-oriented aligned text (the default).
    #[default]
    Text,
    /// A single JSON document.
    Json,
    /// Comma-separated values with a header line.
    Csv,
}

impl std::str::FromStr for ReportFormat {
    type Err = String;

    fn from_str(s: &str) -> Result<ReportFormat, String> {
        match s {
            "text" => Ok(ReportFormat::Text),
            "json" => Ok(ReportFormat::Json),
            "csv" => Ok(ReportFormat::Csv),
            other => Err(format!("unknown format '{other}' (text|json|csv)")),
        }
    }
}

/// Anything that can be rendered in all three report formats.
///
/// Every renderer returns a complete document ending in a newline.
pub trait Render {
    /// Aligned human-readable text.
    fn to_text(&self) -> String;
    /// One JSON document.
    fn to_json(&self) -> String;
    /// CSV with a header line.
    fn to_csv(&self) -> String;

    /// Dispatch on a [`ReportFormat`].
    fn render(&self, fmt: ReportFormat) -> String {
        match fmt {
            ReportFormat::Text => self.to_text(),
            ReportFormat::Json => self.to_json(),
            ReportFormat::Csv => self.to_csv(),
        }
    }
}

/// A single table cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Free text (JSON-escaped / CSV-quoted as needed).
    Text(String),
    /// An integer count.
    Int(i64),
    /// A float; non-finite values render as JSON `null` / text `nan`.
    Num(f64),
}

impl Value {
    fn text(&self) -> String {
        match self {
            Value::Text(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::Num(v) => fmt_num(*v),
        }
    }

    fn csv(&self) -> String {
        match self {
            // RFC 4180 §2: fields containing commas, quotes or line
            // breaks are quoted, with internal quotes doubled. Line
            // breaks stay verbatim inside the quotes.
            Value::Text(s) if s.contains([',', '"', '\n', '\r']) => {
                format!("\"{}\"", s.replace('"', "\"\""))
            }
            // A NaN cell renders as an empty field, mirroring the JSON
            // `null` — "nan" is not a number any CSV consumer parses.
            Value::Num(v) if !v.is_finite() => String::new(),
            other => other.text(),
        }
    }

    fn json(&self) -> String {
        match self {
            Value::Text(s) => json_string(s),
            Value::Int(i) => i.to_string(),
            Value::Num(v) if v.is_finite() => fmt_num(*v),
            Value::Num(_) => "null".into(),
        }
    }
}

/// Render a float compactly: up to six decimals, trailing zeros
/// trimmed, so counts print as `3` and medians as `4.125`.
pub(crate) fn fmt_num(v: f64) -> String {
    if !v.is_finite() {
        return "nan".into();
    }
    let s = format!("{v:.6}");
    let s = s.trim_end_matches('0').trim_end_matches('.');
    if s.is_empty() || s == "-" {
        "0".into()
    } else {
        s.to_string()
    }
}

/// Escape a string as a JSON string literal.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON rendering of a float field (non-finite becomes `null`).
pub(crate) fn json_num(v: f64) -> String {
    if v.is_finite() {
        fmt_num(v)
    } else {
        "null".into()
    }
}

/// CSV rendering of a float field (non-finite becomes an empty field,
/// the CSV analogue of JSON `null`).
fn csv_num(v: f64) -> String {
    if v.is_finite() {
        fmt_num(v)
    } else {
        String::new()
    }
}

// ---------------------------------------------------------------------------
// Table
// ---------------------------------------------------------------------------

/// A titled table — the shared shape behind all sweep-style output.
///
/// Text mode prints the title, an aligned header and rows, then any
/// notes as trailing paragraphs; CSV mode emits only header + rows
/// (machine consumers don't want prose); JSON mode emits
/// `{"title": …, "rows": [{column: value, …}, …]}`.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Table {
    /// Table heading (text mode) / `"title"` (JSON mode).
    pub title: String,
    /// Column names; every row must have exactly this many cells.
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Vec<Value>>,
    /// Explanatory paragraphs appended in text mode only.
    pub notes: Vec<String>,
}

impl Table {
    /// A table with the given title and column names.
    pub fn new(title: impl Into<String>, columns: &[&str]) -> Table {
        Table {
            title: title.into(),
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append a row; panics if the cell count does not match the header.
    pub fn row(&mut self, cells: Vec<Value>) {
        assert_eq!(
            cells.len(),
            self.columns.len(),
            "table '{}': row width {} != {} columns",
            self.title,
            cells.len(),
            self.columns.len()
        );
        self.rows.push(cells);
    }

    /// Append an explanatory paragraph (text mode only).
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }
}

impl Render for Table {
    fn to_text(&self) -> String {
        let mut out = String::new();
        if !self.title.is_empty() {
            let _ = writeln!(out, "{}", self.title);
        }
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::text).collect())
            .collect();
        let widths: Vec<usize> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| {
                cells
                    .iter()
                    .map(|r| r[i].len())
                    .chain(std::iter::once(c.chars().count()))
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut line = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            let _ = write!(line, "{:>w$}  ", c, w = widths[i]);
        }
        let _ = writeln!(out, "{}", line.trim_end());
        for row in &cells {
            let mut line = String::new();
            for (i, cell) in row.iter().enumerate() {
                let _ = write!(line, "{:>w$}  ", cell, w = widths[i]);
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        for note in &self.notes {
            let _ = writeln!(out, "\n{note}");
        }
        out
    }

    fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"title\": {}, \"rows\": [",
            json_string(&self.title)
        );
        for (ri, row) in self.rows.iter().enumerate() {
            if ri > 0 {
                out.push_str(", ");
            }
            out.push('{');
            for (ci, cell) in row.iter().enumerate() {
                if ci > 0 {
                    out.push_str(", ");
                }
                let _ = write!(out, "{}: {}", json_string(&self.columns[ci]), cell.json());
            }
            out.push('}');
        }
        out.push_str("]}\n");
        out
    }

    fn to_csv(&self) -> String {
        let mut out = self.columns.join(",");
        out.push('\n');
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(Value::csv).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
        out
    }
}

// ---------------------------------------------------------------------------
// Distribution digests, windows, snapshots
// ---------------------------------------------------------------------------

/// A fixed-size digest of one Δd distribution: count, extremes, mean
/// and the working set of quantiles. Quantiles are `NaN` when empty.
///
/// Built either exactly from retained samples (R-7 interpolation) or
/// from a [`QuantileSketch`], in which case each quantile carries the
/// sketch's documented relative-error bound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DistSummary {
    /// Samples digested.
    pub count: u64,
    /// Exact minimum (`NaN` when empty).
    pub min: f64,
    /// Exact maximum (`NaN` when empty).
    pub max: f64,
    /// Exact mean (`NaN` when empty).
    pub mean: f64,
    /// 10th percentile.
    pub p10: f64,
    /// Lower quartile.
    pub p25: f64,
    /// Median.
    pub p50: f64,
    /// Upper quartile.
    pub p75: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
}

const PROBES: [f64; 6] = [0.10, 0.25, 0.50, 0.75, 0.90, 0.99];

impl DistSummary {
    /// The empty digest: count 0, everything else `NaN`.
    pub fn empty() -> DistSummary {
        DistSummary {
            count: 0,
            min: f64::NAN,
            max: f64::NAN,
            mean: f64::NAN,
            p10: f64::NAN,
            p25: f64::NAN,
            p50: f64::NAN,
            p75: f64::NAN,
            p90: f64::NAN,
            p99: f64::NAN,
        }
    }

    /// Exact digest of already-sorted samples (R-7 quantiles).
    pub fn of_sorted(sorted: &[f64]) -> DistSummary {
        if sorted.is_empty() {
            return DistSummary::empty();
        }
        let q: Vec<f64> = PROBES
            .iter()
            .map(|p| summary::quantile(sorted, *p))
            .collect();
        DistSummary {
            count: sorted.len() as u64,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            mean: sorted.iter().sum::<f64>() / sorted.len() as f64,
            p10: q[0],
            p25: q[1],
            p50: q[2],
            p75: q[3],
            p90: q[4],
            p99: q[5],
        }
    }

    /// Exact digest of unsorted samples.
    pub fn of_samples(xs: &[f64]) -> DistSummary {
        let mut sorted = xs.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("Δd samples are finite"));
        DistSummary::of_sorted(&sorted)
    }

    /// Digest of a sketch: exact count/min/max/mean, quantiles within
    /// the sketch's relative-error bound.
    pub fn of_sketch(sk: &QuantileSketch) -> DistSummary {
        if sk.count() == 0 {
            return DistSummary::empty();
        }
        DistSummary {
            count: sk.count(),
            min: sk.min(),
            max: sk.max(),
            mean: sk.mean(),
            p10: sk.quantile(PROBES[0]),
            p25: sk.quantile(PROBES[1]),
            p50: sk.quantile(PROBES[2]),
            p75: sk.quantile(PROBES[3]),
            p90: sk.quantile(PROBES[4]),
            p99: sk.quantile(PROBES[5]),
        }
    }

    /// Inter-quartile range (`NaN` when empty).
    pub fn iqr(&self) -> f64 {
        self.p75 - self.p25
    }

    fn json(&self) -> String {
        format!(
            "{{\"count\": {}, \"min\": {}, \"max\": {}, \"mean\": {}, \
             \"p10\": {}, \"p25\": {}, \"p50\": {}, \"p75\": {}, \
             \"p90\": {}, \"p99\": {}}}",
            self.count,
            json_num(self.min),
            json_num(self.max),
            json_num(self.mean),
            json_num(self.p10),
            json_num(self.p25),
            json_num(self.p50),
            json_num(self.p75),
            json_num(self.p90),
            json_num(self.p99),
        )
    }
}

/// One aggregation window of a [`ReportSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct WindowReport {
    /// Human label: `"1s"`, `"10s"`, `"1m"`, or `"total"`.
    pub label: String,
    /// Window span in virtual seconds; `None` for the lifetime window.
    pub span_secs: Option<f64>,
    /// Rounds attempted inside the window.
    pub rounds: u64,
    /// Rounds excluded for retransmissions inside the window.
    pub excluded_rounds: u64,
    /// Repetitions that failed outright inside the window.
    pub failures: u64,
    /// Round-1 Δd digest.
    pub d1: DistSummary,
    /// Round-2 Δd digest.
    pub d2: DistSummary,
    /// Δd1 ∪ Δd2 digest (the appraisal operates on this pool).
    pub pooled: DistSummary,
}

impl WindowReport {
    fn json(&self) -> String {
        let span = match self.span_secs {
            Some(s) => fmt_num(s),
            None => "null".into(),
        };
        format!(
            "{{\"window\": {}, \"span_secs\": {}, \"rounds\": {}, \
             \"excluded_rounds\": {}, \"failures\": {}, \
             \"d1\": {}, \"d2\": {}, \"pooled\": {}}}",
            json_string(&self.label),
            span,
            self.rounds,
            self.excluded_rounds,
            self.failures,
            self.d1.json(),
            self.d2.json(),
            self.pooled.json(),
        )
    }
}

/// Per-probe datagram digest attached to a [`ReportSnapshot`] when the
/// cell ran an unreliable-transport method: delivery counters plus
/// one-way-delay and jitter distributions. Losses are measurements here
/// (nothing retransmits under the browser), so `sent - delivered` *is*
/// the loss statistic rather than an exclusion count.
#[derive(Debug, Clone, PartialEq)]
pub struct DatagramReport {
    /// Probes put on the wire.
    pub sent: u64,
    /// Probes whose echo reached the client NIC.
    pub delivered: u64,
    /// Probes lost before the server tap.
    pub lost_upstream: u64,
    /// Echoes lost after the server tap.
    pub lost_downstream: u64,
    /// Probes duplicated on the wire.
    pub duplicated: u64,
    /// Probes whose echo arrived after a higher sequence number's.
    pub reordered: u64,
    /// Upstream one-way delay digest (client Tx → server Rx), ms.
    pub owd_up: DistSummary,
    /// Downstream one-way delay digest (server Tx → client Rx), ms.
    pub owd_down: DistSummary,
    /// RFC 3550 jitter from wire transit pairs, one sample per rep.
    pub wire_jitter: DistSummary,
    /// The same estimator over browser stamps — the inflation the
    /// paper's §2.2 warns about is the gap to `wire_jitter`.
    pub browser_jitter: DistSummary,
}

impl DatagramReport {
    /// Digest a session's accumulated datagram samples.
    pub fn of(d: &crate::runner::DatagramSamples) -> DatagramReport {
        DatagramReport {
            sent: d.sent,
            delivered: d.delivered,
            lost_upstream: d.lost_upstream,
            lost_downstream: d.lost_downstream,
            duplicated: d.duplicated,
            reordered: d.reordered,
            owd_up: DistSummary::of_samples(&d.owd_up_ms),
            owd_down: DistSummary::of_samples(&d.owd_down_ms),
            wire_jitter: DistSummary::of_samples(&d.wire_jitter_ms),
            browser_jitter: DistSummary::of_samples(&d.browser_jitter_ms),
        }
    }

    /// Fraction of sent probes lost (`NaN` when nothing was sent).
    pub fn loss_rate(&self) -> f64 {
        (self.sent - self.delivered) as f64 / self.sent as f64
    }

    /// Fraction of sent probes reordered (`NaN` when nothing was sent).
    pub fn reorder_rate(&self) -> f64 {
        self.reordered as f64 / self.sent as f64
    }

    fn json(&self) -> String {
        format!(
            "{{\"sent\": {}, \"delivered\": {}, \"lost_upstream\": {}, \
             \"lost_downstream\": {}, \"duplicated\": {}, \"reordered\": {}, \
             \"loss_rate\": {}, \"reorder_rate\": {}, \
             \"owd_up\": {}, \"owd_down\": {}, \
             \"wire_jitter\": {}, \"browser_jitter\": {}}}",
            self.sent,
            self.delivered,
            self.lost_upstream,
            self.lost_downstream,
            self.duplicated,
            self.reordered,
            json_num(self.loss_rate()),
            json_num(self.reorder_rate()),
            self.owd_up.json(),
            self.owd_down.json(),
            self.wire_jitter.json(),
            self.browser_jitter.json(),
        )
    }
}

/// Queue telemetry of the server's access link, accumulated over a
/// cell's repetitions: drop counters (drop-tail overflow + AQM drops)
/// and queue-depth high-water marks, per direction. "Down" is the
/// direction the server transmits. This is what makes a bufferbloat run
/// explainable: a deep drop-tail queue shows a large
/// `down_queue_peak_bytes` with zero drops, while the CoDel variant
/// shows drops and a shallow peak.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkReport {
    /// Frames dropped at the downstream queue (server → clients).
    pub down_queue_drops: u64,
    /// Frames dropped at the upstream queue (clients → server).
    pub up_queue_drops: u64,
    /// Downstream queue-depth high-water mark, bytes.
    pub down_queue_peak_bytes: u64,
    /// Upstream queue-depth high-water mark, bytes.
    pub up_queue_peak_bytes: u64,
}

impl LinkReport {
    /// Fold another repetition's telemetry in: drops sum, peaks max.
    pub fn merge(&mut self, other: &LinkReport) {
        self.down_queue_drops += other.down_queue_drops;
        self.up_queue_drops += other.up_queue_drops;
        self.down_queue_peak_bytes = self.down_queue_peak_bytes.max(other.down_queue_peak_bytes);
        self.up_queue_peak_bytes = self.up_queue_peak_bytes.max(other.up_queue_peak_bytes);
    }

    fn json(&self) -> String {
        format!(
            "{{\"down_queue_drops\": {}, \"up_queue_drops\": {}, \
             \"down_queue_peak_bytes\": {}, \"up_queue_peak_bytes\": {}}}",
            self.down_queue_drops,
            self.up_queue_drops,
            self.down_queue_peak_bytes,
            self.up_queue_peak_bytes,
        )
    }
}

/// The pollable summary shape shared by the continuous monitor and the
/// batch runner ([`CellResult::summary`]).
///
/// `windows` always ends with the lifetime `"total"` window, so a batch
/// summary is simply a snapshot with that single window. Snapshots are
/// plain data and compare bit-exactly — serial and parallel runs of the
/// same cell produce `==` snapshots.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSnapshot {
    /// The measured cell, e.g. `"XHR GET / C (U)"`.
    pub label: String,
    /// Virtual time of the snapshot, seconds since the monitor started
    /// (`0.0` for batch summaries).
    pub at_secs: f64,
    /// Lifetime rounds attempted.
    pub rounds: u64,
    /// Lifetime Δd samples folded.
    pub samples: u64,
    /// Lifetime excluded rounds.
    pub excluded_rounds: u64,
    /// Lifetime failed repetitions.
    pub failures: u64,
    /// Guaranteed relative error of the quantiles: `0.0` when they were
    /// computed exactly, else the sketch's `√γ − 1` bound.
    pub relative_error_bound: f64,
    /// Aggregation windows, lifetime `"total"` last. Never empty.
    pub windows: Vec<WindowReport>,
    /// Per-probe datagram digest — `Some` only for datagram methods
    /// (the reference session's view, like `windows`' Δd digests).
    pub datagram: Option<DatagramReport>,
    /// Server-access-link queue telemetry — `Some` for batch summaries
    /// (the runner reads the engine's gauges after every repetition),
    /// `None` for monitor polls, which do not own the engine.
    pub link: Option<LinkReport>,
}

impl ReportSnapshot {
    /// The lifetime window (always present, always last).
    pub fn total(&self) -> &WindowReport {
        self.windows.last().expect("snapshot has a total window")
    }

    /// Appraise the lifetime pooled distribution under the default
    /// thresholds; `None` when no samples have been folded yet.
    pub fn verdict(&self) -> Option<Verdict> {
        let pooled = &self.total().pooled;
        if pooled.count == 0 {
            return None;
        }
        Some(Appraisal::verdict_of_summary(
            pooled,
            &Thresholds::default(),
        ))
    }
}

impl Render for ReportSnapshot {
    fn to_text(&self) -> String {
        let mut out = String::new();
        let verdict = match self.verdict() {
            Some(v) => format!("{v:?}"),
            None => "-".into(),
        };
        let _ = writeln!(
            out,
            "{} @ {}s  rounds {}  samples {}  excluded {}  failures {}  verdict {}",
            self.label,
            fmt_num(self.at_secs),
            self.rounds,
            self.samples,
            self.excluded_rounds,
            self.failures,
            verdict,
        );
        if let Some(dg) = &self.datagram {
            let _ = writeln!(
                out,
                "datagram: sent {}  delivered {}  lost {}↑ {}↓  dup {}  reordered {}  \
                 owd p50 {}↑ {}↓ ms  jitter wire {} / browser {} ms",
                dg.sent,
                dg.delivered,
                dg.lost_upstream,
                dg.lost_downstream,
                dg.duplicated,
                dg.reordered,
                fmt_num(dg.owd_up.p50),
                fmt_num(dg.owd_down.p50),
                fmt_num(dg.wire_jitter.p50),
                fmt_num(dg.browser_jitter.p50),
            );
        }
        if let Some(link) = &self.link {
            let _ = writeln!(
                out,
                "link queue: drops {}↓ {}↑  peak {}↓ {}↑ bytes",
                link.down_queue_drops,
                link.up_queue_drops,
                link.down_queue_peak_bytes,
                link.up_queue_peak_bytes,
            );
        }
        let mut t = Table::new(
            "",
            &[
                "window", "rounds", "excl", "fail", "d1_p50", "d2_p50", "p10", "p50", "p90", "iqr",
            ],
        );
        for w in &self.windows {
            t.row(vec![
                Value::Text(w.label.clone()),
                Value::Int(w.rounds as i64),
                Value::Int(w.excluded_rounds as i64),
                Value::Int(w.failures as i64),
                Value::Num(w.d1.p50),
                Value::Num(w.d2.p50),
                Value::Num(w.pooled.p10),
                Value::Num(w.pooled.p50),
                Value::Num(w.pooled.p90),
                Value::Num(w.pooled.iqr()),
            ]);
        }
        out.push_str(&t.to_text());
        out
    }

    fn to_json(&self) -> String {
        let verdict = match self.verdict() {
            Some(v) => json_string(&format!("{v:?}")),
            None => "null".into(),
        };
        let windows: Vec<String> = self.windows.iter().map(WindowReport::json).collect();
        let datagram = match &self.datagram {
            Some(dg) => dg.json(),
            None => "null".into(),
        };
        let link = match &self.link {
            Some(l) => l.json(),
            None => "null".into(),
        };
        format!(
            "{{\"label\": {}, \"at_secs\": {}, \"rounds\": {}, \"samples\": {}, \
             \"excluded_rounds\": {}, \"failures\": {}, \
             \"relative_error_bound\": {}, \"verdict\": {}, \
             \"datagram\": {}, \"link\": {}, \"windows\": [{}]}}\n",
            json_string(&self.label),
            json_num(self.at_secs),
            self.rounds,
            self.samples,
            self.excluded_rounds,
            self.failures,
            json_num(self.relative_error_bound),
            verdict,
            datagram,
            link,
            windows.join(", "),
        )
    }

    fn to_csv(&self) -> String {
        let mut out = String::from(
            "label,at_secs,window,span_secs,rounds,excluded_rounds,failures,\
             series,count,min,p10,p25,p50,p75,p90,p99,max,mean,\
             link_down_drops,link_up_drops,link_down_peak_bytes,link_up_peak_bytes\n",
        );
        // Link telemetry repeats on every row (it is per-cell, not
        // per-window); empty fields when the snapshot carries none.
        let link_cols = match &self.link {
            Some(l) => format!(
                "{},{},{},{}",
                l.down_queue_drops,
                l.up_queue_drops,
                l.down_queue_peak_bytes,
                l.up_queue_peak_bytes
            ),
            None => ",,,".into(),
        };
        let mut series_row = |w: &WindowReport, series: &str, d: &DistSummary| {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
                Value::Text(self.label.clone()).csv(),
                fmt_num(self.at_secs),
                w.label,
                w.span_secs.map(fmt_num).unwrap_or_default(),
                w.rounds,
                w.excluded_rounds,
                w.failures,
                series,
                d.count,
                csv_num(d.min),
                csv_num(d.p10),
                csv_num(d.p25),
                csv_num(d.p50),
                csv_num(d.p75),
                csv_num(d.p90),
                csv_num(d.p99),
                csv_num(d.max),
                csv_num(d.mean),
                link_cols,
            );
        };
        for w in &self.windows {
            for (series, d) in [("d1", &w.d1), ("d2", &w.d2), ("pooled", &w.pooled)] {
                series_row(w, series, d);
            }
        }
        // Datagram digests ride along as extra series of the lifetime
        // window, so one header serves the whole document.
        if let Some(dg) = &self.datagram {
            let total = self.total().clone();
            for (series, d) in [
                ("owd_up", &dg.owd_up),
                ("owd_down", &dg.owd_down),
                ("wire_jitter", &dg.wire_jitter),
                ("browser_jitter", &dg.browser_jitter),
            ] {
                series_row(&total, series, d);
            }
        }
        out
    }
}

/// [`Render`] adapter over attribution rows, so `bnm trace` shares the
/// one `--format` code path.
#[derive(Debug, Clone, Copy)]
pub struct TraceReport<'a> {
    /// The attributed rounds to render.
    pub attributions: &'a [RoundAttribution],
}

impl<'a> TraceReport<'a> {
    /// Wrap attribution rows for rendering.
    pub fn new(attributions: &'a [RoundAttribution]) -> Self {
        TraceReport { attributions }
    }
}

impl Render for TraceReport<'_> {
    fn to_text(&self) -> String {
        attribution::render_table(self.attributions)
    }

    fn to_json(&self) -> String {
        attribution::to_json(self.attributions)
    }

    fn to_csv(&self) -> String {
        attribution::to_csv(self.attributions)
    }
}

// ---------------------------------------------------------------------------
// Figure-style helpers (the Figure 3/4 experiments)
// ---------------------------------------------------------------------------

/// A labelled box-plot row of a Figure 3 panel.
#[derive(Debug, Clone)]
pub struct PanelRow {
    /// The paper's x-axis label, e.g. "C (U) Δd1".
    pub label: String,
    /// Box statistics.
    pub stats: BoxStats,
}

/// Build the two rows (Δd1, Δd2) a cell contributes to its panel.
pub fn panel_rows(cell: &ExperimentCell, result: &CellResult) -> Vec<PanelRow> {
    let base = cell.runtime.figure_label(cell.os);
    vec![
        PanelRow {
            label: format!("{base} Δd1"),
            stats: BoxStats::of(&result.d1),
        },
        PanelRow {
            label: format!("{base} Δd2"),
            stats: BoxStats::of(&result.d2),
        },
    ]
}

/// A Figure 3 panel as a table: one ASCII box per row on a shared axis,
/// with the axis range as a note. An empty panel has no rows.
pub fn panel_table(title: impl Into<String>, rows: &[PanelRow], width: usize) -> Table {
    let mut table = Table::new(title, &["cell", "box", "median_ms"]);
    if rows.is_empty() {
        return table;
    }
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for r in rows {
        let (a, b) = r.stats.full_range();
        lo = lo.min(a);
        hi = hi.max(b);
    }
    if hi - lo < 1e-9 {
        hi = lo + 1.0;
    }
    let pad = (hi - lo) * 0.05;
    let (lo, hi) = (lo - pad, hi + pad);
    for r in rows {
        table.row(vec![
            Value::Text(r.label.clone()),
            Value::Text(format!("|{}|", ascii::render_box(&r.stats, lo, hi, width))),
            Value::Num(r.stats.median),
        ]);
    }
    table.note(format!("axis: {lo:.1} to {hi:.1} ms"));
    table
}

/// Render a Figure 4 style CDF block.
pub fn render_cdf_block(title: &str, cdf: &Cdf, width: usize, height: usize) -> String {
    let (lo, hi) = cdf.range();
    let pad = ((hi - lo) * 0.05).max(0.5);
    format!(
        "{title}\n{}",
        ascii::render_cdf(cdf, lo - pad, hi + pad, width, height)
    )
}

/// The header line of the Δd sample CSV that [`push_csv_rows`] fills.
pub const CSV_HEADER: &str = "method,runtime,os,round,index,delta_ms\n";

/// Append one CSV line per Δd sample of `cell`,
/// `method,runtime,os,round,rep_index,delta_ms`, to `out`; a file that
/// gathers several cells starts with one [`CSV_HEADER`].
pub fn push_csv_rows(out: &mut String, cell: &ExperimentCell, result: &CellResult) {
    let runtime = cell.runtime.figure_label(cell.os);
    for (round, data) in [(1u8, &result.d1), (2u8, &result.d2)] {
        for (i, d) in data.iter().enumerate() {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{:.6}",
                cell.method.label(),
                runtime,
                cell.os.initial(),
                round,
                i,
                d
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeSel;
    use bnm_browser::BrowserKind;
    use bnm_methods::MethodId;
    use bnm_time::OsKind;

    fn cell() -> ExperimentCell {
        ExperimentCell::paper(
            MethodId::XhrGet,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        )
    }

    fn result() -> CellResult {
        CellResult {
            d1: (0..20).map(|i| 4.0 + (i % 5) as f64 * 0.3).collect(),
            d2: (0..20).map(|i| 3.0 + (i % 4) as f64 * 0.2).collect(),
            ..CellResult::default()
        }
    }

    #[test]
    fn panel_rows_carry_figure_labels() {
        let rows = panel_rows(&cell(), &result());
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].label, "C (U) Δd1");
        assert_eq!(rows[1].label, "C (U) Δd2");
    }

    #[test]
    fn panel_table_has_a_box_per_row_and_the_axis() {
        let rows = panel_rows(&cell(), &result());
        let t = panel_table("(a) XHR GET", &rows, 50);
        assert_eq!(t.rows.len(), 2);
        assert_eq!(t.rows[1][0], Value::Text("C (U) Δd2".into()));
        assert_eq!(t.rows[0][2], Value::Num(rows[0].stats.median));
        let s = t.to_text();
        assert!(s.contains("(a) XHR GET"));
        assert!(s.contains("axis: "));
    }

    #[test]
    fn csv_has_header_and_all_samples() {
        let mut csv = String::from(CSV_HEADER);
        push_csv_rows(&mut csv, &cell(), &result());
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "method,runtime,os,round,index,delta_ms");
        assert_eq!(lines.len(), 1 + 40);
        assert!(lines[1].starts_with("xhr_get,C (U),U,1,0,"));
    }

    #[test]
    fn empty_panel_has_no_rows() {
        let t = panel_table("(z) empty", &[], 50);
        assert!(t.rows.is_empty());
        assert!(t.to_text().contains("(z) empty"));
    }

    #[test]
    fn cdf_block_renders() {
        let c = Cdf::of(&result().d1);
        let s = render_cdf_block("Δd1 CDF", &c, 40, 8);
        assert!(s.contains("Δd1 CDF"));
        assert!(s.contains('*'));
    }

    #[test]
    fn table_renders_all_three_formats() {
        let mut t = Table::new("sweep", &["method", "clients", "d1_median_ms"]);
        t.row(vec![
            Value::Text("xhr_get".into()),
            Value::Int(4),
            Value::Num(3.125),
        ]);
        t.row(vec![
            Value::Text("ws".into()),
            Value::Int(8),
            Value::Num(f64::NAN),
        ]);
        t.note("Reading: medians grow with contention.");

        let text = t.to_text();
        assert!(text.contains("sweep"));
        assert!(text.contains("xhr_get"));
        assert!(text.contains("3.125"));
        assert!(text.contains("Reading:"));

        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "method,clients,d1_median_ms");
        assert_eq!(lines[1], "xhr_get,4,3.125");
        assert!(!csv.contains("Reading:"), "notes are text-only");

        let json = t.to_json();
        assert!(json.contains("\"title\": \"sweep\""));
        assert!(json.contains("\"clients\": 4"));
        assert!(json.contains("\"d1_median_ms\": null"), "NaN -> null");
    }

    #[test]
    fn csv_cells_with_commas_are_quoted() {
        let mut t = Table::new("", &["label", "n"]);
        t.row(vec![
            Value::Text("XHR GET / C (U), impaired".into()),
            Value::Int(1),
        ]);
        let csv = t.to_csv();
        assert!(csv.contains("\"XHR GET / C (U), impaired\",1"));
    }

    #[test]
    fn csv_cells_with_quotes_and_newlines_follow_rfc4180() {
        let mut t = Table::new("", &["label", "n"]);
        t.row(vec![
            Value::Text("tricky \", \n cell".into()),
            Value::Int(1),
        ]);
        t.row(vec![Value::Text("cr\rcell".into()), Value::Int(2)]);
        let csv = t.to_csv();
        // Quotes doubled, the field quoted, the newline verbatim inside.
        assert!(
            csv.contains("\"tricky \"\", \n cell\",1"),
            "bad quoting: {csv:?}"
        );
        assert!(csv.contains("\"cr\rcell\",2"), "CR must quote: {csv:?}");
    }

    #[test]
    fn csv_nan_cell_is_an_empty_field() {
        let mut t = Table::new("", &["label", "v"]);
        t.row(vec![Value::Text("ws".into()), Value::Num(f64::NAN)]);
        let csv = t.to_csv();
        assert!(csv.contains("ws,\n"), "NaN cell must be empty: {csv:?}");
        // Text mode keeps the explicit marker.
        assert!(t.to_text().contains("nan"));
    }

    #[test]
    fn dist_summary_exact_matches_r7() {
        let xs: Vec<f64> = (0..40).map(|i| i as f64 * 0.5).collect();
        let d = DistSummary::of_samples(&xs);
        assert_eq!(d.count, 40);
        assert_eq!(d.min, 0.0);
        assert_eq!(d.max, 19.5);
        assert_eq!(d.p50, summary::quantile(&xs, 0.5));
        assert!((d.iqr() - (d.p75 - d.p25)).abs() < 1e-12);
        let e = DistSummary::empty();
        assert_eq!(e.count, 0);
        assert!(e.p50.is_nan());
    }

    #[test]
    fn dist_summary_of_sketch_within_bound() {
        let xs: Vec<f64> = (1..200).map(|i| i as f64 * 0.25).collect();
        let mut sk = QuantileSketch::new(0.01);
        for x in &xs {
            sk.insert(*x);
        }
        let d = DistSummary::of_sketch(&sk);
        let exact = DistSummary::of_samples(&xs);
        assert_eq!(d.count, exact.count);
        assert_eq!(d.min, exact.min);
        assert_eq!(d.max, exact.max);
        let eps = sk.relative_error_bound();
        for (a, b) in [(d.p10, exact.p10), (d.p50, exact.p50), (d.p90, exact.p90)] {
            assert!((a - b).abs() <= eps * b.abs() + 1e-9, "{a} vs {b}");
        }
    }

    fn snapshot() -> ReportSnapshot {
        ReportSnapshot {
            label: "XHR GET / C (U)".into(),
            at_secs: 2.0,
            rounds: 2,
            samples: 4,
            excluded_rounds: 0,
            failures: 0,
            relative_error_bound: 0.0,
            windows: vec![
                WindowReport {
                    label: "1s".into(),
                    span_secs: Some(1.0),
                    rounds: 1,
                    excluded_rounds: 0,
                    failures: 0,
                    d1: DistSummary::of_samples(&[4.0]),
                    d2: DistSummary::of_samples(&[3.0]),
                    pooled: DistSummary::of_samples(&[4.0, 3.0]),
                },
                WindowReport {
                    label: "total".into(),
                    span_secs: None,
                    rounds: 2,
                    excluded_rounds: 0,
                    failures: 0,
                    d1: DistSummary::of_samples(&[4.0, 4.5]),
                    d2: DistSummary::of_samples(&[3.0, 3.5]),
                    pooled: DistSummary::of_samples(&[4.0, 4.5, 3.0, 3.5]),
                },
            ],
            datagram: None,
            link: None,
        }
    }

    #[test]
    fn snapshot_renders_all_three_formats() {
        let s = snapshot();
        assert_eq!(s.total().label, "total");

        let text = s.to_text();
        assert!(text.contains("XHR GET / C (U)"));
        assert!(text.contains("total"));
        assert!(text.contains("verdict"));

        let json = s.to_json();
        for key in [
            "\"label\"",
            "\"windows\"",
            "\"p50\"",
            "\"rounds\"",
            "\"verdict\"",
        ] {
            assert!(json.contains(key), "json missing {key}: {json}");
        }
        assert!(json.contains("\"span_secs\": null"), "total window span");

        let csv = s.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        // Header + 3 series per window.
        assert_eq!(lines.len(), 1 + 3 * 2);
        assert!(lines[0].starts_with("label,at_secs,window"));
    }

    #[test]
    fn snapshot_link_telemetry_renders_in_all_formats() {
        let mut s = snapshot();
        // No telemetry: JSON null, CSV fields empty.
        assert!(s.to_json().contains("\"link\": null"));
        assert!(s.to_csv().lines().nth(1).unwrap().ends_with(",,,"));
        s.link = Some(LinkReport {
            down_queue_drops: 7,
            up_queue_drops: 0,
            down_queue_peak_bytes: 65536,
            up_queue_peak_bytes: 1514,
        });
        let text = s.to_text();
        assert!(text.contains("link queue"), "{text}");
        let json = s.to_json();
        assert!(json.contains("\"down_queue_drops\": 7"), "{json}");
        assert!(json.contains("\"down_queue_peak_bytes\": 65536"), "{json}");
        let csv = s.to_csv();
        assert!(csv
            .lines()
            .next()
            .unwrap()
            .ends_with("link_down_drops,link_up_drops,link_down_peak_bytes,link_up_peak_bytes"));
        assert!(csv.lines().nth(1).unwrap().ends_with("7,0,65536,1514"));
        // Merging sums drops and maxes peaks.
        let mut a = LinkReport {
            down_queue_drops: 2,
            up_queue_drops: 1,
            down_queue_peak_bytes: 100,
            up_queue_peak_bytes: 900,
        };
        a.merge(&LinkReport {
            down_queue_drops: 3,
            up_queue_drops: 0,
            down_queue_peak_bytes: 700,
            up_queue_peak_bytes: 10,
        });
        assert_eq!(
            a,
            LinkReport {
                down_queue_drops: 5,
                up_queue_drops: 1,
                down_queue_peak_bytes: 700,
                up_queue_peak_bytes: 900,
            }
        );
    }

    #[test]
    fn snapshot_verdict_uses_pooled_total() {
        let s = snapshot();
        // Medians well above 1 ms but IQR below 5 ms -> Calibratable.
        assert_eq!(s.verdict(), Some(Verdict::Calibratable));
        let mut empty = s.clone();
        for w in &mut empty.windows {
            w.pooled = DistSummary::empty();
        }
        assert_eq!(empty.verdict(), None);
    }

    #[test]
    fn report_format_parses() {
        use std::str::FromStr as _;
        assert_eq!(ReportFormat::from_str("text").unwrap(), ReportFormat::Text);
        assert_eq!(ReportFormat::from_str("json").unwrap(), ReportFormat::Json);
        assert_eq!(ReportFormat::from_str("csv").unwrap(), ReportFormat::Csv);
        assert!(ReportFormat::from_str("yaml").is_err());
    }
}
