//! `benchmark`: the end-to-end and per-layer benchmark of the bnm
//! simulator. The workloads, metrics and how to run and compare are in
//! this package's README.md; the metric table is `BENCHMARK.json` at the
//! repository root.
//!
//! Each workload runs in its own child process (a re-execution of this
//! binary), so its peak RSS and warm caches belong to that workload
//! alone. The child reports to the parent as one JSON document; the
//! parent prints every metric as `workload metric value unit`, writes
//! the records and spans asked for, and ends its output with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads peak RSS through 64-bit Linux's getrusage");

mod compare;
mod json;
mod replay;
mod spans;
mod stats;
mod table;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use compare::Record;
use json::Json;
use table::table;

/// The seed of the committed baseline, and the default.
const DEFAULT_SEED: u64 = 0xB32B_2013;

/// First argument of the re-executed child.
const CHILD: &str = "--child";

const USAGE: &str = "usage: benchmark [--workload <name>|all] [--seed <u64>] [--seconds <n>] \
                     [--trace 0|1] [--out <records.json>] [--spans <spans.json>]\n       \
                     benchmark compare <base.json>... [-- <change.json>...]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        Some(CHILD) => child(&args[1..]),
        _ => parent(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

struct Options {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<String>,
    spans: Option<String>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let t = table();
    let mut o = Options {
        workloads: t.workloads.clone(),
        seed: DEFAULT_SEED,
        seconds: t.run_seconds,
        trace: false,
        out: None,
        spans: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" if value == "all" => o.workloads = t.workloads.clone(),
            "--workload" if t.workloads.contains(value) => o.workloads = vec![value.clone()],
            "--workload" => {
                return Err(format!(
                    "unknown workload {value:?}; one of {:?} or all",
                    t.workloads
                ))
            }
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                o.seed = parsed.map_err(|_| format!("--seed takes a u64, got {value:?}"))?;
            }
            "--seconds" => {
                o.seconds =
                    value.parse().ok().filter(|&s| s >= 1).ok_or_else(|| {
                        format!("--seconds takes a whole number >= 1, got {value:?}")
                    })?;
            }
            "--trace" => {
                o.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                }
            }
            "--out" => o.out = Some(value.clone()),
            "--spans" => o.spans = Some(value.clone()),
            _ => return Err(format!("unknown argument {flag:?}\n{USAGE}")),
        }
    }
    Ok(o)
}

/// The layer a per-layer metric belongs to: its name without the last
/// dotted segment (`sim.run.self_ms` → `sim.run`).
fn layer_of(metric: &str) -> &str {
    metric.rsplit_once('.').map_or(metric, |(layer, _)| layer)
}

fn parent(args: &[String]) -> Result<ExitCode, String> {
    let o = parse_options(args)?;
    let t = table();
    let listed = if o.trace { &t.per_layer } else { &t.end_to_end };
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let mut records = Vec::new();
    let mut span_docs = Vec::new();
    let mut summary = Vec::new();
    let (mut correct, mut attempted, mut failed) = (true, 0.0, 0.0);
    for w in &o.workloads {
        let output = Command::new(&exe)
            .args([
                CHILD,
                w,
                &o.seed.to_string(),
                &o.seconds.to_string(),
                if o.trace { "1" } else { "0" },
                if o.spans.is_some() { "1" } else { "0" },
            ])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run workload {w}: {e}"))?;
        if !output.status.success() {
            return Err(format!("workload {w} did not finish ({})", output.status));
        }
        let doc = Json::parse(String::from_utf8_lossy(&output.stdout).trim())
            .map_err(|e| format!("workload {w} reported unreadable results: {e}"))?;
        for check in doc.arr_field("checks")? {
            correct = false;
            eprintln!("{w}: check failed: {}", check.as_str().unwrap_or("?"));
        }
        attempted += doc.num_field("attempted")?;
        failed += doc.num_field("failed")?;
        for m in doc.arr_field("metrics")? {
            let (name, unit) = (m.str_field("name")?, m.str_field("unit")?);
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            println!("{w} {name} {value} {unit}");
            let def = t.find(name);
            records.push(Record {
                workload: w.clone(),
                metric: name.to_string(),
                value,
                unit: unit.to_string(),
                better: def.map(|d| d.better.clone()),
                bound: def.and_then(|d| d.bound),
                // A traced run reports per-layer metrics only.
                layer: o.trace.then(|| layer_of(name).to_string()),
            });
        }
        if let Some(d) = doc.get("digest").and_then(Json::as_str) {
            println!("{w} output_digest {d} fnv64");
        }
        for def in listed {
            let key = if o.workloads.len() == 1 {
                def.name.clone()
            } else {
                format!("{w}/{}", def.name)
            };
            match records
                .iter()
                .find(|r| &r.workload == w && r.metric == def.name && r.value.is_finite())
            {
                Some(r) => summary.push((
                    key,
                    Json::Obj(vec![
                        ("value".into(), r.value.into()),
                        ("unit".into(), def.unit.as_str().into()),
                    ]),
                )),
                None => {
                    correct = false;
                    eprintln!("{w}: metric {} was not measured", def.name);
                }
            }
        }
        if o.spans.is_some() {
            span_docs.push((w.clone(), doc.get("spans").cloned().unwrap_or(Json::Null)));
        }
    }
    if let Some(path) = &o.out {
        let lines: Vec<String> = records.iter().map(|r| r.to_json().to_string()).collect();
        write(path, &format!("[\n{}\n]\n", lines.join(",\n")))?;
    }
    if let Some(path) = &o.spans {
        write(path, &format!("{}\n", Json::Obj(span_docs)))?;
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(attempted)),
        ("failed".into(), Json::Num(failed)),
        ("metrics".into(), Json::Obj(summary)),
    ]);
    println!("{result}");
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn write(path: &str, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {path}: {e}"))
}

/// The child: run one workload and print its result as one JSON line.
fn child(args: &[String]) -> Result<ExitCode, String> {
    let [name, seed, seconds, trace, spans] = args else {
        return Err(format!("{CHILD} takes five arguments, got {args:?}"));
    };
    let seed = seed.parse().map_err(|_| "bad child seed".to_string())?;
    let seconds = seconds
        .parse()
        .map_err(|_| "bad child seconds".to_string())?;
    let out = workloads::run(name, seed, seconds, trace == "1")?;
    let metrics = out
        .metrics
        .iter()
        .map(|m| {
            Json::Obj(vec![
                ("name".into(), m.name.as_str().into()),
                ("value".into(), m.value.into()),
                ("unit".into(), m.unit.as_str().into()),
            ])
        })
        .collect();
    let spans = match spans.as_str() {
        "1" => out.spans.iter().map(spans::Span::to_json).collect(),
        _ => Vec::new(),
    };
    let doc = Json::Obj(vec![
        (
            "checks".into(),
            Json::Arr(
                out.failed_checks
                    .iter()
                    .map(|c| c.as_str().into())
                    .collect(),
            ),
        ),
        ("attempted".into(), Json::Num(out.attempted as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        (
            "digest".into(),
            out.digest
                .map_or(Json::Null, |d| Json::Str(format!("0x{d:016x}"))),
        ),
        ("metrics".into(), Json::Arr(metrics)),
        ("spans".into(), Json::Arr(spans)),
    ]);
    println!("{doc}");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn options_parse_the_run_flags() {
        let o = parse_options(&args(
            "--workload battery --seed 0x10 --seconds 3 --trace 1",
        ))
        .unwrap();
        assert_eq!(o.workloads, ["battery"]);
        assert_eq!((o.seed, o.seconds, o.trace), (16, 3, true));
        let all = parse_options(&[]).unwrap();
        assert_eq!(all.workloads.len(), 4);
        assert_eq!(all.seed, DEFAULT_SEED);
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seconds 0",
            "--seed x",
            "--frobnicate 1",
            "--seed",
        ] {
            assert!(parse_options(&args(bad)).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn layers_are_metric_prefixes() {
        assert_eq!(layer_of("sim.run.self_ms"), "sim.run");
        assert_eq!(layer_of("pool.allocated"), "pool");
        assert_eq!(layer_of("plain"), "plain");
    }
}
