//! Wall-clock spans recorded by the traced run around each call into a
//! layer, kept in memory and summarised (or written out) at the end.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::stats::median;

/// One timed call. Every root span starts a new unit; descendants carry
/// their root's unit id.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub unit: usize,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn to_json(&self) -> Json {
        let num = |n: u64| Json::Num(n as f64);
        Json::Obj(vec![
            ("id".into(), num(self.id as u64)),
            (
                "parent".into(),
                self.parent.map_or(Json::Null, |p| num(p as u64)),
            ),
            ("name".into(), self.name.into()),
            ("start_ns".into(), num(self.start_ns)),
            ("end_ns".into(), num(self.end_ns)),
            ("unit".into(), num(self.unit as u64)),
        ])
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    units: usize,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            units: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested in the innermost open
    /// span (or as the root of a new unit).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let unit = match parent {
            Some(p) => self.spans[p].unit,
            None => {
                self.units += 1;
                self.units - 1
            }
        };
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            unit,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (children clipped to the parent and merged,
/// so nested and back-to-back children are both counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Per-name summary of a traced run.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: &'static str,
    /// Median self time per occurrence, ms.
    pub self_ms: f64,
    /// Summed self time over the summed duration of all root spans.
    pub share: f64,
}

/// Summarise a run's spans by name, roots excluded. Returns the rows in
/// name order and the roots' own share: the wall time inside units that
/// no layer span claims.
pub fn layer_table(spans: &[Span]) -> (Vec<LayerRow>, f64) {
    let selfs = self_times(spans);
    let mut root_ns = 0u64;
    let mut root_self_ns = 0u64;
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (s, &own) in spans.iter().zip(&selfs) {
        if s.parent.is_none() {
            root_ns += s.dur_ns();
            root_self_ns += own;
        } else {
            by_name.entry(s.name).or_default().push(own);
        }
    }
    let total = root_ns.max(1) as f64;
    let rows = by_name
        .into_iter()
        .map(|(name, own)| {
            let ms: Vec<f64> = own.iter().map(|&ns| ns as f64 / 1e6).collect();
            LayerRow {
                name,
                self_ms: median(&ms),
                share: own.iter().sum::<u64>() as f64 / total,
            }
        })
        .collect();
    (rows, root_self_ns as f64 / total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &'static str, a: u64, b: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: a,
            end_ns: b,
            unit: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span(0, None, "unit", 0, 100),
            span(1, Some(0), "a", 10, 60),
            span(2, Some(1), "b", 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_handles_back_to_back_and_overlapping_children() {
        let spans = [
            span(0, None, "unit", 0, 100),
            span(1, Some(0), "a", 10, 20),
            span(2, Some(0), "b", 20, 30),
            span(3, Some(0), "c", 25, 40),
            span(4, Some(0), "d", 90, 120),
        ];
        // Covered: 10..40 (30) plus 90..100 clipped (10).
        assert_eq!(self_times(&spans)[0], 60);
    }

    #[test]
    fn layer_table_shares_are_of_root_time() {
        let spans = [
            span(0, None, "unit", 0, 100),
            span(1, Some(0), "sim", 0, 60),
            span(2, Some(0), "match", 60, 90),
            span(3, None, "unit", 100, 200),
            span(4, Some(3), "sim", 100, 200),
        ];
        let (rows, unattributed) = layer_table(&spans);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].name, "match");
        assert!((rows[0].share - 0.15).abs() < 1e-12);
        assert_eq!(rows[1].name, "sim");
        assert!((rows[1].self_ms - 80e-6).abs() < 1e-12);
        assert!((rows[1].share - 0.8).abs() < 1e-12);
        assert!((unattributed - 0.05).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_numbers_units() {
        let mut t = Tracer::new();
        t.span("unit", |t| t.span("inner", |_| ()));
        t.span("unit", |_| ());
        let s = t.spans();
        assert_eq!(s.len(), 3);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!((s[0].unit, s[1].unit, s[2].unit), (0, 0, 1));
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
