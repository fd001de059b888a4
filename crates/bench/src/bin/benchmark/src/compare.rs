//! Result records and `benchmark compare`.
//!
//! A run's `--out` file is one flat list of records. `compare` pools the
//! records of each side by workload and metric, reports each side's
//! median and quartiles, and judges every gated metric by its bound and
//! direction from the metric table.

use std::collections::BTreeMap;
use std::process::ExitCode;

use crate::json::Json;
use crate::stats::{median, quartiles};
use crate::table::{table, MetricDef};

/// One measured value of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    pub workload: String,
    pub metric: String,
    pub value: f64,
    pub unit: String,
    pub better: Option<String>,
    pub bound: Option<f64>,
    /// The layer a per-layer metric belongs to.
    pub layer: Option<String>,
}

impl Record {
    pub fn to_json(&self) -> Json {
        let mut kv = vec![
            ("workload".to_string(), Json::from(self.workload.as_str())),
            ("metric".into(), self.metric.as_str().into()),
            ("value".into(), self.value.into()),
            ("unit".into(), self.unit.as_str().into()),
            (
                "better".into(),
                self.better.as_deref().map_or(Json::Null, Json::from),
            ),
            ("bound".into(), self.bound.map_or(Json::Null, Json::from)),
        ];
        if let Some(layer) = &self.layer {
            kv.push(("layer".into(), layer.as_str().into()));
        }
        Json::Obj(kv)
    }

    pub fn from_json(v: &Json) -> Result<Record, String> {
        Ok(Record {
            workload: v.str_field("workload")?.to_string(),
            metric: v.str_field("metric")?.to_string(),
            // A value that was not a finite number is written as null.
            value: v.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
            unit: v.str_field("unit")?.to_string(),
            better: v.get("better").and_then(Json::as_str).map(str::to_string),
            bound: v.get("bound").and_then(Json::as_f64),
            layer: v.get("layer").and_then(Json::as_str).map(str::to_string),
        })
    }
}

/// Parse a record file: a list of records, or an object whose
/// `records` member is one (the committed baseline's shape).
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let doc = Json::parse(text)?;
    let list = match &doc {
        Json::Arr(items) => items.as_slice(),
        _ => doc.arr_field("records")?,
    };
    list.iter().map(Record::from_json).collect()
}

type Pooled = BTreeMap<(String, String), Vec<f64>>;

fn load(files: &[String]) -> Result<Pooled, String> {
    let mut pooled = Pooled::new();
    for path in files {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        for r in parse_records(&text).map_err(|e| format!("{path}: {e}"))? {
            if r.value.is_finite() {
                pooled
                    .entry((r.workload, r.metric))
                    .or_default()
                    .push(r.value);
            }
        }
    }
    Ok(pooled)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// Run-to-run spread wider than the bound, and the change's runs do
    /// not all read better than the base's.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge the change side `b` against the base side `a` for a gated
/// metric: its median may worsen by at most the bound.
pub fn verdict(def: &MetricDef, bound: f64, a: &[f64], b: &[f64]) -> Verdict {
    let spread = |v: &[f64]| {
        let (q1, m, q3) = quartiles(v);
        (q3 - q1) / m.abs()
    };
    let worse = def.worsening(median(a), median(b));
    let all_better = a
        .iter()
        .all(|&x| b.iter().all(|&y| def.worsening(x, y) < 0.0));
    // A NaN spread (a zero median) is not steady either.
    let steady = spread(a) <= bound && spread(b) <= bound;
    if !steady && !all_better {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound || all_better {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

fn stats_cell(v: Option<&Vec<f64>>) -> String {
    match v {
        Some(v) if !v.is_empty() => {
            let (q1, m, q3) = quartiles(v);
            format!("{m:.6} [{q1:.6} {q3:.6}] n={}", v.len())
        }
        _ => "-".into(),
    }
}

/// `benchmark compare BASE... [-- CHANGE...]`. Without `--`, the first
/// file is the base and the rest are the change; one file alone is
/// summarised. Exits 1 when a gated metric regressed.
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let (base, change): (&[String], &[String]) = match args.iter().position(|a| a == "--") {
        Some(i) => (&args[..i], &args[i + 1..]),
        None if !args.is_empty() => (&args[..1], &args[1..]),
        None => return Err("compare needs at least one record file".into()),
    };
    if base.is_empty() {
        return Err("compare needs a base record file".into());
    }
    let a = load(base)?;
    let b = load(change)?;
    let mut keys: Vec<&(String, String)> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    println!(
        "{:<14} {:<32} {:<44} {:<44} {:>9}  verdict",
        "workload", "metric", "base median [q1 q3]", "change median [q1 q3]", "worse"
    );
    let mut regressed = false;
    for key in keys {
        let (va, vb) = (a.get(key), b.get(key));
        let def = table().find(&key.1);
        let (worse, verdict) = match (def, va, vb) {
            (Some(def), Some(va), Some(vb)) if !vb.is_empty() => {
                let worse = format!("{:+.2}%", 100.0 * def.worsening(median(va), median(vb)));
                let verdict = def.bound.map(|bound| verdict(def, bound, va, vb));
                (worse, verdict)
            }
            _ => ("-".into(), None),
        };
        regressed |= verdict == Some(Verdict::Regressed);
        println!(
            "{:<14} {:<32} {:<44} {:<44} {:>9}  {}",
            key.0,
            key.1,
            stats_cell(va),
            stats_cell(vb),
            worse,
            verdict.map_or("-", Verdict::label)
        );
    }
    Ok(if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_lists_parse_in_both_shapes() {
        let rec = Record {
            workload: "battery".into(),
            metric: "rounds_per_s".into(),
            value: 1234.5,
            unit: "rounds/s".into(),
            better: Some("higher".into()),
            bound: Some(0.1),
            layer: None,
        };
        let layered = Record {
            metric: "sim.run.share".into(),
            value: f64::NAN,
            unit: "ratio".into(),
            better: None,
            bound: None,
            layer: Some("sim.run".into()),
            ..rec.clone()
        };
        let list = Json::Arr(vec![rec.to_json(), layered.to_json()]).to_string();
        let parsed = parse_records(&list).unwrap();
        assert_eq!(parsed[0], rec);
        assert_eq!(parsed[1].layer.as_deref(), Some("sim.run"));
        assert!(parsed[1].value.is_nan(), "null values read back as NaN");
        let wrapped = format!("{{\"meta\":{{\"nproc\":2}},\"records\":{list}}}");
        assert_eq!(parse_records(&wrapped).unwrap().len(), 2);
    }

    #[test]
    fn record_lists_reject_missing_fields() {
        assert!(parse_records(r#"[{"workload":"battery","value":1,"unit":"s"}]"#).is_err());
        assert!(parse_records(r#"{"meta":{}}"#).is_err());
        assert!(parse_records("[").is_err());
    }

    #[test]
    fn verdicts_apply_bound_direction_and_spread() {
        let lower = MetricDef {
            name: "unit_ms.p50".into(),
            unit: "ms".into(),
            better: "lower".into(),
            bound: Some(0.1),
        };
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        let v = |b: &[f64]| verdict(&lower, 0.1, &base, b);
        assert_eq!(v(&[10.5, 10.4, 10.6]), Verdict::WithinBound);
        assert_eq!(v(&[12.0, 12.1, 11.9]), Verdict::Regressed);
        assert_eq!(v(&[8.0, 8.1, 7.9]), Verdict::Improved);
        // Spread wider than the bound: unresolved, not unchanged...
        assert_eq!(v(&[5.0, 10.0, 20.0, 11.0]), Verdict::Unresolved);
        // ...unless every change run beats every base run.
        assert_eq!(v(&[1.0, 3.0, 9.0, 5.0]), Verdict::Improved);
        let higher = MetricDef {
            better: "higher".into(),
            ..lower
        };
        assert_eq!(
            verdict(&higher, 0.1, &base, &[8.0, 8.1, 7.9]),
            Verdict::Regressed
        );
    }
}
