//! The metric table: `BENCHMARK.json` at the repository root is the one
//! place that names the workloads and metrics with their units,
//! directions and bounds. It is compiled in, so every run and every
//! comparison applies the table the binary was built with.

use std::sync::OnceLock;

use crate::json::Json;

const BENCHMARK_JSON: &str = include_str!("../../../../../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the baseline median by which the metric may worsen
    /// before it counts as a regression; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

impl MetricDef {
    /// How much worse `value` is than `base`, as a share of `base`
    /// (negative when it is better).
    pub fn worsening(&self, base: f64, value: f64) -> f64 {
        let delta = (value - base) / base.abs();
        if self.better == "higher" {
            -delta
        } else {
            delta
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Table {
    pub fn parse(text: &str) -> Result<Table, String> {
        let doc = Json::parse(text)?;
        let metrics = |key: &str, gated: bool| -> Result<Vec<MetricDef>, String> {
            doc.arr_field(key)?
                .iter()
                .map(|m| {
                    Ok(MetricDef {
                        name: m.str_field("name")?.to_string(),
                        unit: m.str_field("unit")?.to_string(),
                        better: m.str_field("better")?.to_string(),
                        bound: if gated {
                            Some(m.num_field("bound")?)
                        } else {
                            None
                        },
                    })
                })
                .collect()
        };
        Ok(Table {
            run_seconds: doc.num_field("run_seconds")? as u64,
            workloads: doc
                .arr_field("workloads")?
                .iter()
                .map(|w| w.str_field("name").map(str::to_string))
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end", true)?,
            per_layer: metrics("per_layer", false)?,
        })
    }

    /// The definition of a named metric, gated or per-layer.
    pub fn find(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// The compiled-in table.
pub fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| Table::parse(BENCHMARK_JSON).expect("BENCHMARK.json is well-formed"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn benchmark_json_parses_and_names_every_workload() {
        let t = table();
        assert_eq!(
            t.workloads,
            ["battery", "crowd-lossy", "serve-monitor", "dgram-crowd"]
        );
        assert!(t.run_seconds >= 1);
        let setup = t.find("setup_s").expect("setup_s is gated");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
        let largest = t
            .end_to_end
            .iter()
            .filter_map(|m| m.bound)
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "set-up carries the largest bound"
        );
        assert!(t.per_layer.iter().all(|m| m.bound.is_none()));
    }

    #[test]
    fn worsening_follows_direction() {
        let lower = MetricDef {
            name: "t".into(),
            unit: "ms".into(),
            better: "lower".into(),
            bound: Some(0.1),
        };
        let higher = MetricDef {
            better: "higher".into(),
            ..lower.clone()
        };
        assert!((lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((higher.worsening(10.0, 11.0) + 0.1).abs() < 1e-12);
    }
}
