//! `bnm-obs`: lightweight, zero-cost-when-disabled instrumentation for
//! the bnm stack.
//!
//! The simulation is deterministic and single-threaded per repetition,
//! so observability can be too: every event carries a *virtual-time*
//! timestamp (nanoseconds of `bnm-sim` clock), events are recorded in
//! emission order, and a parallel run's trace is byte-identical to a
//! serial one because each repetition owns its own buffer.
//!
//! The API is a [`Trace`] handle — a cheap clone-able reference that is
//! either *enabled* (backed by a shared buffer) or *disabled* (a `None`,
//! making every recording call a single inlined branch). Components hold
//! a `Trace` and call [`Trace::span`], [`Trace::instant`],
//! [`Trace::count`] or [`Trace::observe`] unconditionally; when tracing
//! is off these compile down to a tag check and return.
//!
//! At the end of a repetition the owner extracts the plain-data
//! [`TraceData`] (which is `Send`, unlike the `Rc`-based handle) with
//! [`Trace::take`] and ships it across the executor boundary.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Named Δd overhead components (Eq. 1 decomposition).
///
/// The first six are *attributed* from virtual-time spans; the last two
/// are derived per round: quantization from the browser-clock reads vs.
/// the virtual interval, residual as whatever is left of measured Δd.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Component {
    /// Event-loop dispatch, JS execution, DOM work and timing-API call
    /// cost on the browser side.
    Dispatch,
    /// Plugin bridge hops (Flash `ExternalInterface` and friends).
    Bridge,
    /// Payload handling in the measurement object (XHR / URLLoader /
    /// Java HTTP / WebSocket framing), including cache lookups.
    Parse,
    /// Host OS socket stack send/receive costs.
    Stack,
    /// TCP connection establishment awaited inside a timed round.
    Handshake,
    /// One-time first-use costs (object instantiation, class loading).
    Init,
    /// Time lost waiting for TCP data retransmissions (RTO expiries and
    /// fast-retransmit recoveries on the traced stack). The paper
    /// excluded rounds containing retransmissions, so attributed rounds
    /// carry 0 here; the component makes the exclusion auditable.
    Retrans,
    /// Browser timestamp quantization: `(tb_r − tb_s)` minus the
    /// virtual-time width of the round.
    Quantization,
    /// Measured Δd minus everything above; ≈ 0 for single-segment
    /// probes on a noise-free capture.
    Residual,
}

impl Component {
    /// The components attributed directly from trace spans, in report
    /// order.
    pub const ATTRIBUTED: [Component; 7] = [
        Component::Dispatch,
        Component::Bridge,
        Component::Parse,
        Component::Stack,
        Component::Handshake,
        Component::Init,
        Component::Retrans,
    ];

    /// Stable lower-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            Component::Dispatch => "dispatch",
            Component::Bridge => "bridge",
            Component::Parse => "parse",
            Component::Stack => "stack",
            Component::Handshake => "handshake",
            Component::Init => "init",
            Component::Retrans => "retrans",
            Component::Quantization => "quantization",
            Component::Residual => "residual",
        }
    }
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded event: a span (`end_ns > start_ns`) or an instant
/// (`end_ns == start_ns`). Timestamps are virtual-time nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Virtual-time start, ns.
    pub start_ns: u64,
    /// Virtual-time end, ns (equal to `start_ns` for instants).
    pub end_ns: u64,
    /// Subsystem that emitted the event (`"session"`, `"link"`, `"tcp"`,
    /// `"http"`, `"tap"`).
    pub scope: &'static str,
    /// Event name within the scope (`"xhr_send"`, `"serialize"`, …).
    pub label: &'static str,
    /// Δd component this span is attributed to, if any.
    pub component: Option<Component>,
    /// Probe round the event belongs to (set while a round is open).
    pub round: Option<u8>,
    /// Free-slot payload: browser clock reading for round markers,
    /// frame length for link events.
    pub value: Option<f64>,
}

impl TraceEvent {
    /// Span duration in nanoseconds (0 for instants).
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A power-of-two-bucketed histogram of nanosecond observations.
///
/// Bucket `i` counts observations with `floor(log2(v)) == i` (bucket 0
/// also takes `v == 0`); the top bucket is open-ended. Fixed buckets
/// keep merging and export deterministic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations, ns.
    pub sum_ns: u64,
    /// log2 buckets.
    pub buckets: [u64; 64],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum_ns: 0,
            buckets: [0; 64],
        }
    }
}

impl Histogram {
    /// Record one observation.
    pub fn observe(&mut self, v_ns: u64) {
        self.count += 1;
        self.sum_ns += v_ns;
        let idx = (63 - u64::leading_zeros(v_ns.max(1))) as usize;
        self.buckets[idx] += 1;
    }

    /// Mean observation, ns (0 when empty).
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }
}

/// The extracted, plain-data form of a trace: safe to send across
/// threads, compare for equality and export.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceData {
    /// Events in emission order (which is virtual-time order per scope).
    pub events: Vec<TraceEvent>,
    /// Named monotonic counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Named histograms of nanosecond observations.
    pub histograms: BTreeMap<&'static str, Histogram>,
}

impl TraceData {
    /// Total virtual time of all spans carrying `component`, ns.
    pub fn component_total_ns(&self, c: Component, round: Option<u8>) -> u64 {
        self.events
            .iter()
            .filter(|e| e.component == Some(c) && (round.is_none() || e.round == round))
            .map(TraceEvent::duration_ns)
            .sum()
    }

    /// Serialize to deterministic JSON (stable key order, shortest
    /// round-trip float formatting).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\"events\":[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"start_ns\":{},\"end_ns\":{},\"scope\":{},\"label\":{}",
                e.start_ns,
                e.end_ns,
                json_str(e.scope),
                json_str(e.label)
            );
            if let Some(c) = e.component {
                let _ = write!(s, ",\"component\":{}", json_str(c.name()));
            }
            if let Some(r) = e.round {
                let _ = write!(s, ",\"round\":{r}");
            }
            if let Some(v) = e.value {
                let _ = write!(s, ",\"value\":{v:?}");
            }
            s.push('}');
        }
        s.push_str("],\"counters\":{");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{}:{v}", json_str(k));
        }
        s.push_str("},\"histograms\":{");
        for (i, (k, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{}:{{\"count\":{},\"sum_ns\":{},\"mean_ns\":{:?}}}",
                json_str(k),
                h.count,
                h.sum_ns,
                h.mean_ns()
            );
        }
        s.push_str("}}");
        s
    }

    /// Serialize events to CSV with a header row.
    pub fn to_csv(&self) -> String {
        let mut s = String::from("start_ns,end_ns,scope,label,component,round,value\n");
        for e in &self.events {
            let _ = write!(s, "{},{},{},{},", e.start_ns, e.end_ns, e.scope, e.label);
            if let Some(c) = e.component {
                s.push_str(c.name());
            }
            s.push(',');
            if let Some(r) = e.round {
                let _ = write!(s, "{r}");
            }
            s.push(',');
            if let Some(v) = e.value {
                let _ = write!(s, "{v:?}");
            }
            s.push('\n');
        }
        s
    }
}

/// Escape a string for JSON. Labels are plain identifiers, so this only
/// needs the minimal escapes.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Internal buffer behind an enabled trace: the recorded data plus the
/// "current round" tag applied to events as they are emitted.
#[derive(Debug, Default)]
struct TraceBuf {
    data: TraceData,
    round: Option<u8>,
}

/// A recording handle, either enabled (shared buffer) or disabled.
///
/// Cloning is cheap; clones share the buffer. The handle is deliberately
/// *not* `Send`: a repetition's simulation is single-threaded, and the
/// extracted [`TraceData`] is what crosses thread boundaries.
#[derive(Debug, Clone, Default)]
pub struct Trace(Option<Rc<RefCell<TraceBuf>>>);

impl Trace {
    /// A handle that records nothing; every call is a single branch.
    pub fn disabled() -> Trace {
        Trace(None)
    }

    /// A handle backed by a fresh buffer.
    pub fn enabled() -> Trace {
        Trace(Some(Rc::new(RefCell::new(TraceBuf::default()))))
    }

    /// Whether recording is on. Inlined so disabled-path call sites
    /// reduce to one predictable branch.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Tag subsequent events with a probe round (or clear the tag).
    pub fn set_round(&self, round: Option<u8>) {
        if let Some(buf) = &self.0 {
            buf.borrow_mut().round = round;
        }
    }

    /// Record a span `[start_ns, end_ns]`, optionally attributed to a
    /// Δd component. No-op when disabled.
    #[inline]
    pub fn span(
        &self,
        start_ns: u64,
        end_ns: u64,
        scope: &'static str,
        label: &'static str,
        component: Option<Component>,
    ) {
        if let Some(buf) = &self.0 {
            let mut b = buf.borrow_mut();
            let round = b.round;
            b.data.events.push(TraceEvent {
                start_ns,
                end_ns,
                scope,
                label,
                component,
                round,
                value: None,
            });
        }
    }

    /// Record a point event with an optional payload. No-op when
    /// disabled.
    #[inline]
    pub fn instant(&self, t_ns: u64, scope: &'static str, label: &'static str, value: Option<f64>) {
        if let Some(buf) = &self.0 {
            let mut b = buf.borrow_mut();
            let round = b.round;
            b.data.events.push(TraceEvent {
                start_ns: t_ns,
                end_ns: t_ns,
                scope,
                label,
                component: None,
                round,
                value,
            });
        }
    }

    /// Add `n` to a named counter. No-op when disabled.
    #[inline]
    pub fn count(&self, key: &'static str, n: u64) {
        if let Some(buf) = &self.0 {
            *buf.borrow_mut().data.counters.entry(key).or_insert(0) += n;
        }
    }

    /// Record a nanosecond observation into a named histogram. No-op
    /// when disabled.
    #[inline]
    pub fn observe(&self, key: &'static str, v_ns: u64) {
        if let Some(buf) = &self.0 {
            buf.borrow_mut()
                .data
                .histograms
                .entry(key)
                .or_default()
                .observe(v_ns);
        }
    }

    /// Extract the recorded data, leaving the buffer empty. Returns
    /// `None` when the handle is disabled.
    pub fn take(&self) -> Option<TraceData> {
        self.0
            .as_ref()
            .map(|buf| std::mem::take(&mut buf.borrow_mut().data))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing_and_takes_none() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        t.span(0, 10, "session", "xhr_send", Some(Component::Parse));
        t.instant(5, "session", "round.start", Some(1.0));
        t.count("frames", 3);
        t.observe("serialize", 42);
        assert!(t.take().is_none());
    }

    #[test]
    fn clones_share_one_buffer_and_round_tag() {
        let t = Trace::enabled();
        let t2 = t.clone();
        t.set_round(Some(1));
        t2.span(0, 7, "session", "js_exec", Some(Component::Dispatch));
        t.set_round(None);
        t2.instant(9, "session", "done", None);
        let data = t.take().unwrap();
        assert_eq!(data.events.len(), 2);
        assert_eq!(data.events[0].round, Some(1));
        assert_eq!(data.events[1].round, None);
        // Taking drains the shared buffer for every clone.
        assert_eq!(t2.take().unwrap(), TraceData::default());
    }

    #[test]
    fn counters_and_histograms_accumulate() {
        let t = Trace::enabled();
        t.count("frames", 2);
        t.count("frames", 3);
        t.observe("ser", 8);
        t.observe("ser", 16);
        let d = t.take().unwrap();
        assert_eq!(d.counters["frames"], 5);
        let h = &d.histograms["ser"];
        assert_eq!(h.count, 2);
        assert_eq!(h.sum_ns, 24);
        assert_eq!(h.buckets[3], 1);
        assert_eq!(h.buckets[4], 1);
        assert!((h.mean_ns() - 12.0).abs() < 1e-12);
    }

    #[test]
    fn component_totals_filter_by_round() {
        let t = Trace::enabled();
        t.set_round(Some(1));
        t.span(0, 10, "session", "a", Some(Component::Stack));
        t.set_round(Some(2));
        t.span(20, 25, "session", "b", Some(Component::Stack));
        let d = t.take().unwrap();
        assert_eq!(d.component_total_ns(Component::Stack, None), 15);
        assert_eq!(d.component_total_ns(Component::Stack, Some(1)), 10);
        assert_eq!(d.component_total_ns(Component::Stack, Some(2)), 5);
        assert_eq!(d.component_total_ns(Component::Parse, None), 0);
    }

    #[test]
    fn json_and_csv_are_deterministic() {
        let mk = || {
            let t = Trace::enabled();
            t.set_round(Some(1));
            t.span(1, 4, "link", "serialize", None);
            t.instant(4, "tap", "rx", Some(64.0));
            t.count("frames", 1);
            t.observe("ser", 3);
            t.take().unwrap()
        };
        let a = mk();
        let b = mk();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_csv(), b.to_csv());
        assert!(a.to_json().contains("\"counters\":{\"frames\":1}"));
        assert!(a.to_csv().starts_with("start_ns,end_ns,scope,label"));
    }

    #[test]
    fn histogram_bucket_zero_takes_zero_values() {
        let mut h = Histogram::default();
        h.observe(0);
        h.observe(1);
        assert_eq!(h.buckets[0], 2);
    }

    #[test]
    fn component_names_are_stable() {
        assert_eq!(Component::ATTRIBUTED.len(), 7);
        assert_eq!(Component::Retrans.name(), "retrans");
        assert_eq!(Component::Quantization.name(), "quantization");
        assert_eq!(Component::Dispatch.to_string(), "dispatch");
    }
}
