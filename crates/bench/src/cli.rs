//! The regenerator binaries' shared flags, read by the same
//! [`bnm_core::cli`] parser as every `bnm` subcommand:
//!
//! ```text
//! --seed S                 master seed        (decimal or 0x hex, default bnm_core::DEFAULT_SEED)
//! --reps N                 repetitions/cell   (default 50)
//! --results DIR            artifact directory (default results/)
//! --format text|json|csv   artifact format    (default csv)
//! ```
//!
//! An unknown flag or a malformed or out-of-range value exits 2 with
//! usage, as in the CLI. `--format` governs [`BenchArgs::save_artifact`]:
//! `json` converts the CSV table into an array of objects before
//! writing; `text` and `csv` write the CSV as-is (stdout is already the
//! human-readable view).

use std::fs;
use std::path::PathBuf;

use bnm_core::cli::{ArgError, Args};
use bnm_core::report::{Render, ReportFormat, Table};

/// Parsed arguments shared by every regenerator binary.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Master seed for all cells.
    pub seed: u64,
    /// Repetitions per cell.
    pub reps: u32,
    /// Directory artifacts are written into (created on first save).
    pub results_dir: PathBuf,
    /// Artifact format: JSON under `Json`, CSV otherwise.
    pub format: ReportFormat,
}

impl Default for BenchArgs {
    fn default() -> Self {
        BenchArgs {
            seed: bnm_core::DEFAULT_SEED,
            reps: crate::PAPER_REPS,
            results_dir: PathBuf::from("results"),
            format: ReportFormat::Csv,
        }
    }
}

impl BenchArgs {
    /// The value flags every regenerator takes.
    const FLAGS: [&'static str; 4] = ["seed", "reps", "results", "format"];

    /// Parse the process arguments, exiting 2 with usage on a bad flag.
    pub fn parse() -> BenchArgs {
        Args::parse(std::env::args().skip(1), &Self::FLAGS, &[])
            .and_then(|args| Self::from_parsed(&args))
            .unwrap_or_else(|e| {
                eprintln!(
                    "{e}\nusage: [--seed S] [--reps N] [--results DIR] [--format text|json|csv]"
                );
                std::process::exit(2);
            })
    }

    /// The typed view of a command line parsed against
    /// [`BenchArgs::FLAGS`]; absent flags keep their defaults.
    fn from_parsed(args: &Args) -> Result<BenchArgs, ArgError> {
        let default = BenchArgs::default();
        Ok(BenchArgs {
            seed: args.seed()?.unwrap_or(default.seed),
            reps: args.reps()?.unwrap_or(default.reps),
            results_dir: args
                .value("results")
                .map_or(default.results_dir, PathBuf::from),
            format: args.format()?.unwrap_or(default.format),
        })
    }

    /// What stdout renders in: JSON under `--format json`, else the text
    /// report (the CSV goes to the artifact).
    pub fn stdout_format(&self) -> ReportFormat {
        match self.format {
            ReportFormat::Json => ReportFormat::Json,
            ReportFormat::Text | ReportFormat::Csv => ReportFormat::Text,
        }
    }

    /// Print `table` in the stdout format, then save it as the CSV
    /// artifact `name`.
    pub fn emit(&self, name: &str, table: &Table) {
        println!("{}", table.render(self.stdout_format()));
        let path = self.save_artifact(name, &table.to_csv());
        println!("Artifact written to {}", path.display());
    }

    /// Write a CSV artifact under the results directory, honouring the
    /// selected format: `json` transposes the table to an array of
    /// objects and swaps the extension; `text`/`csv` write it verbatim.
    /// Returns the path written.
    pub fn save_artifact(&self, name: &str, csv: &str) -> PathBuf {
        fs::create_dir_all(&self.results_dir).expect("create results dir");
        let (path, contents) = match self.format {
            ReportFormat::Json => {
                let json_name = match name.strip_suffix(".csv") {
                    Some(stem) => format!("{stem}.json"),
                    None => format!("{name}.json"),
                };
                (self.results_dir.join(json_name), csv_to_json(csv))
            }
            _ => (self.results_dir.join(name), csv.to_string()),
        };
        fs::write(&path, contents).expect("write artifact");
        path
    }
}

/// Convert a CSV table (double-quoted fields allowed, no embedded
/// newlines — all our artifacts satisfy this) into a deterministic JSON
/// array of objects keyed by the header row. Numeric fields stay
/// numbers; everything else becomes a string.
pub fn csv_to_json(csv: &str) -> String {
    let mut lines = csv.lines();
    let Some(header) = lines.next() else {
        return "[]".to_string();
    };
    let keys = split_csv_line(header);
    let mut out = String::from("[");
    for (i, line) in lines.filter(|l| !l.is_empty()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('{');
        for (j, (k, v)) in keys.iter().zip(split_csv_line(line)).enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&escape(k));
            out.push_str("\":");
            if v.parse::<f64>().is_ok() && !v.is_empty() {
                out.push_str(&v);
            } else {
                out.push('"');
                out.push_str(&escape(&v));
                out.push('"');
            }
        }
        out.push('}');
    }
    out.push(']');
    out
}

/// Split one CSV line into fields, honouring double-quoted fields (a
/// doubled quote inside one is a literal quote).
fn split_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes && chars.peek() == Some(&'"') => {
                chars.next();
                cur.push('"');
            }
            '"' => in_quotes = !in_quotes,
            ',' if !in_quotes => fields.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<BenchArgs, ArgError> {
        let args = Args::parse(argv.iter().map(|s| s.to_string()), &BenchArgs::FLAGS, &[])?;
        BenchArgs::from_parsed(&args)
    }

    #[test]
    fn flags_override_defaults() {
        let a = parse(&[
            "--seed",
            "0xAB",
            "--reps",
            "7",
            "--results",
            "/tmp/r",
            "--format",
            "json",
        ])
        .unwrap();
        assert_eq!(a.seed, 0xAB);
        assert_eq!(a.reps, 7);
        assert_eq!(a.results_dir, PathBuf::from("/tmp/r"));
        assert_eq!(a.format, ReportFormat::Json);
        assert_eq!(a.stdout_format(), ReportFormat::Json);
        assert_eq!(parse(&["--seed", "12"]).unwrap().seed, 12);
        let d = parse(&[]).unwrap();
        assert_eq!(
            (d.seed, d.reps),
            (bnm_core::DEFAULT_SEED, crate::PAPER_REPS)
        );
        assert_eq!(d.results_dir, PathBuf::from("results"));
        assert_eq!(d.stdout_format(), ReportFormat::Text);
    }

    #[test]
    fn bad_flags_are_reported() {
        let invalid = |argv: &[&str]| matches!(parse(argv), Err(ArgError::Invalid { .. }));
        assert!(invalid(&["--format", "xml"]));
        assert!(invalid(&["--seed", "zap"]));
        assert!(invalid(&["--reps", "0"]));
        assert_eq!(
            parse(&["--reps"]).unwrap_err(),
            ArgError::MissingValue("reps".into())
        );
        assert_eq!(
            parse(&["--frobnicate"]).unwrap_err(),
            ArgError::Unknown("frobnicate".into())
        );
    }

    #[test]
    fn csv_converts_to_json_objects() {
        let json = csv_to_json("method,round,med_ms\nxhr_get,1,4.25\nws,2,0.5\n");
        assert_eq!(
            json,
            "[{\"method\":\"xhr_get\",\"round\":1,\"med_ms\":4.25},\
             {\"method\":\"ws\",\"round\":2,\"med_ms\":0.5}]"
                .replace("             ", "")
        );
        assert_eq!(csv_to_json(""), "[]");
    }

    #[test]
    fn quoted_fields_survive_json_conversion() {
        let json = csv_to_json("a,b\n\"x, y\",\"he said \"\"hi\"\"\"\n");
        assert_eq!(json, "[{\"a\":\"x, y\",\"b\":\"he said \\\"hi\\\"\"}]");
    }

    #[test]
    fn save_artifact_honours_format() {
        let dir = std::env::temp_dir().join("bnm_cli_test");
        let _ = fs::remove_dir_all(&dir);
        let mut a = BenchArgs {
            results_dir: dir.clone(),
            ..BenchArgs::default()
        };
        let p = a.save_artifact("t.csv", "a,b\n1,2\n");
        assert!(p.to_string_lossy().ends_with("t.csv"));
        a.format = ReportFormat::Json;
        let p = a.save_artifact("t.csv", "a,b\n1,2\n");
        assert!(p.to_string_lossy().ends_with("t.json"));
        assert_eq!(fs::read_to_string(&p).unwrap(), "[{\"a\":1,\"b\":2}]");
        let _ = fs::remove_dir_all(&dir);
    }
}
