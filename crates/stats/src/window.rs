//! Virtual-time windowed quantile sketches for continuous monitoring.
//!
//! A long-running monitor folds every round's Δd into *windows* — "the
//! last second", "the last ten seconds", "the last minute" of virtual
//! time — and must do so in memory that is bounded regardless of how
//! many rounds it has seen. [`WindowedSketch`] provides that: it keeps
//! a ring of per-*pan* [`QuantileSketch`]es (a pan is the tumbling base
//! interval, e.g. 1 s) and rotates pans out as virtual time advances,
//! so a window spanning `N` pans holds at most `N` sketches no matter
//! how long the monitor runs. Querying merges the live pans into one
//! sketch, which preserves the per-sketch relative-error bound exactly
//! (bucket counts add; see [`crate::sketch`]).
//!
//! Rotation is driven by the caller's clock ([`WindowedSketch::advance`]
//! / the timestamp given to [`WindowedSketch::record`]), never by wall
//! time — the monitor runs over *virtual* time and must stay
//! deterministic.

use std::collections::VecDeque;

use crate::sketch::QuantileSketch;

/// A sliding window of [`QuantileSketch`]es over virtual time.
///
/// The window covers the `span_pans` pans ending at the pan of the most
/// recent timestamp passed to [`WindowedSketch::advance`] or
/// [`WindowedSketch::record`]. With `span_pans == 1` it degenerates to
/// a tumbling window (the current pan only).
///
/// Timestamps must be non-decreasing (the monitor's virtual clock only
/// moves forward); a value older than the live window is dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedSketch {
    alpha: f64,
    pan_ns: u64,
    span_pans: usize,
    /// Live `(pan index, sketch)` pairs, ascending pan index; only pans
    /// that received samples exist, and at most `span_pans` are live.
    pans: VecDeque<(u64, QuantileSketch)>,
}

impl WindowedSketch {
    /// A window of `span_pans` pans of `pan_ns` nanoseconds each, whose
    /// per-pan sketches use accuracy `alpha`. `pan_ns` and `span_pans`
    /// are clamped to at least 1.
    pub fn new(alpha: f64, pan_ns: u64, span_pans: usize) -> WindowedSketch {
        WindowedSketch {
            alpha,
            pan_ns: pan_ns.max(1),
            span_pans: span_pans.max(1),
            pans: VecDeque::new(),
        }
    }

    /// The per-pan sketch accuracy parameter.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Pan width in nanoseconds.
    pub fn pan_ns(&self) -> u64 {
        self.pan_ns
    }

    /// Window span in pans.
    pub fn span_pans(&self) -> usize {
        self.span_pans
    }

    /// The guaranteed relative error of merged-window quantiles — the
    /// same `√γ − 1` bound every per-pan sketch carries (merging only
    /// adds bucket counts, it never re-buckets).
    pub fn relative_error_bound(&self) -> f64 {
        QuantileSketch::new(self.alpha).relative_error_bound()
    }

    fn pan_of(&self, t_ns: u64) -> u64 {
        t_ns / self.pan_ns
    }

    /// Advance the window's clock to `t_ns`, rotating out pans that
    /// fall outside the span ending at `t_ns`'s pan. Idempotent; safe
    /// to call with any timestamp at or after the last one.
    pub fn advance(&mut self, t_ns: u64) {
        let current = self.pan_of(t_ns);
        let oldest_live = current.saturating_sub(self.span_pans as u64 - 1);
        while self.pans.front().is_some_and(|(pan, _)| *pan < oldest_live) {
            self.pans.pop_front();
        }
    }

    /// Record `v` at virtual time `t_ns`, rotating first. A timestamp
    /// older than the live window drops the value (the window has
    /// already moved past it).
    pub fn record(&mut self, t_ns: u64, v: f64) {
        self.advance(t_ns);
        let pan = self.pan_of(t_ns);
        if self.pans.back().is_some_and(|(last, _)| *last > pan) {
            // Out-of-window past (advance() kept a newer pan ring).
            return;
        }
        if self.pans.back().is_none_or(|(last, _)| *last != pan) {
            self.pans.push_back((pan, QuantileSketch::new(self.alpha)));
        }
        // The push above guarantees a back entry for `pan`.
        self.pans
            .back_mut()
            .expect("current pan exists")
            .1
            .insert(v);
    }

    /// All live pans merged into one sketch — the window's distribution.
    pub fn merged(&self) -> QuantileSketch {
        let mut out = QuantileSketch::new(self.alpha);
        for (_, sk) in &self.pans {
            out.merge(sk);
        }
        out
    }

    /// Samples currently inside the window.
    pub fn count(&self) -> u64 {
        self.pans.iter().map(|(_, sk)| sk.count()).sum()
    }

    /// Whether the window currently holds no samples.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// Live pans — the rotation gauge, never more than
    /// [`WindowedSketch::span_pans`].
    pub fn live_pans(&self) -> usize {
        self.pans.len()
    }

    /// Occupied buckets summed over live pans — the memory gauge,
    /// `O(span_pans · log(max/min)/α)` regardless of rounds folded.
    pub fn bucket_count(&self) -> usize {
        self.pans.iter().map(|(_, sk)| sk.bucket_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::summary::quantile as r7;

    const S: u64 = 1_000_000_000;

    #[test]
    fn tumbling_window_keeps_only_the_current_pan() {
        let mut w = WindowedSketch::new(0.01, S, 1);
        w.record(0, 1.0);
        w.record(S / 2, 2.0);
        assert_eq!(w.count(), 2);
        w.record(S, 3.0); // next pan: the first tumbles out
        assert_eq!(w.count(), 1);
        assert_eq!(w.live_pans(), 1);
        assert_eq!(w.merged().max(), 3.0);
    }

    #[test]
    fn sliding_window_rotates_at_pan_boundaries() {
        let mut w = WindowedSketch::new(0.01, S, 3);
        for t in 0..6u64 {
            w.record(t * S, t as f64);
        }
        // Pans 3, 4, 5 are live.
        assert_eq!(w.live_pans(), 3);
        assert_eq!(w.count(), 3);
        assert_eq!(w.merged().min(), 3.0);
        assert_eq!(w.merged().max(), 5.0);
        // Advancing without recording still rotates.
        w.advance(7 * S);
        assert_eq!(w.count(), 1);
        w.advance(100 * S);
        assert!(w.is_empty());
        assert_eq!(w.live_pans(), 0);
    }

    #[test]
    fn sparse_pans_only_exist_when_sampled() {
        let mut w = WindowedSketch::new(0.01, S, 10);
        w.record(0, 1.0);
        w.record(9 * S, 2.0);
        assert_eq!(w.live_pans(), 2, "empty pans are not materialised");
        assert_eq!(w.count(), 2);
        w.record(10 * S, 3.0); // pan 0 exits the 10-pan span
        assert_eq!(w.count(), 2);
    }

    #[test]
    fn too_old_values_are_dropped() {
        let mut w = WindowedSketch::new(0.01, S, 2);
        w.record(5 * S, 1.0);
        w.record(0, 99.0); // five pans in the past: outside the window
        assert_eq!(w.count(), 1);
        assert_eq!(w.merged().max(), 1.0);
    }

    #[test]
    fn merged_quantiles_track_exact_within_bound() {
        let mut w = WindowedSketch::new(0.01, S, 4);
        let mut x = 0xDEAD_BEEFu64;
        let mut window_vals = Vec::new();
        for t in 0..8u64 {
            for _ in 0..50 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = (x % 10_000) as f64 / 100.0;
                w.record(t * S, v);
                if t >= 4 {
                    window_vals.push(v);
                }
            }
        }
        window_vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let m = w.merged();
        assert_eq!(m.count(), window_vals.len() as u64);
        for p in [0.0, 0.25, 0.5, 0.75, 0.9, 1.0] {
            let exact = r7(&window_vals, p);
            let est = m.quantile(p);
            let bound = m.relative_error_bound() * exact.abs().max(1e-9) + 1e-9;
            assert!(
                (est - exact).abs() <= bound,
                "p={p}: {est} vs {exact} (bound {bound})"
            );
        }
    }

    #[test]
    fn footprint_is_bounded_by_span_not_rounds() {
        let mut w = WindowedSketch::new(0.01, S, 5);
        let mut peak = 0usize;
        for t in 0..10_000u64 {
            w.record(t * S, (t % 37) as f64);
            peak = peak.max(w.bucket_count());
        }
        assert!(w.live_pans() <= 5);
        // 5 pans × a handful of distinct values each.
        assert!(peak < 5 * 64, "bucket peak {peak}");
    }
}
