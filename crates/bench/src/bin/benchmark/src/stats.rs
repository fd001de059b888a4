//! Order statistics, seed derivation and the output digest.
//!
//! These live in the benchmark rather than coming from `bnm-stats` or
//! `bnm_sim::rng`: a change to the program must not change how the
//! benchmark generates its inputs or summarises its measurements.

/// Median of `v` (mean of the middle two for an even count); `NaN` when
/// empty.
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v);
    let n = s.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the rule of Python's
/// `statistics.quantiles(v, n=4)` (the default "exclusive" method), so
/// spreads read the same here as in any script that recomputes them.
/// A single value is its own quartiles; empty input gives `NaN`s.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let s = sorted(v);
    let ld = s.len();
    if ld < 2 {
        let x = s.first().copied().unwrap_or(f64::NAN);
        return (x, x, x);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (q(1), q(2), q(3))
}

/// The `p`-th percentile (0..=100) of `v` by linear interpolation
/// between closest ranks (R-7); `NaN` when empty.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    let s = sorted(v);
    if s.is_empty() {
        return f64::NAN;
    }
    let h = (s.len() - 1) as f64 * p / 100.0;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (h - lo as f64)
}

/// The highest of the percentiles 99.9, 99 and 90 that has at least ten
/// of `n` samples beyond it; `None` when even p90 has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0 - 1e-9)
}

fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A seed for the input named `label`, derived from the run's `--seed`:
/// FNV-1a of the label folded into the seed through SplitMix64.
pub fn derive_seed(seed: u64, label: &str) -> u64 {
    let mut fnv = Fnv64::new();
    fnv.update(label.as_bytes());
    let mut z = (seed ^ fnv.finish()).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a, the digest of a workload's rendered outputs.
#[derive(Debug, Clone, Copy)]
pub struct Fnv64(u64);

impl Fnv64 {
    pub fn new() -> Fnv64 {
        Fnv64(0xCBF2_9CE4_8422_2325)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01B3);
        }
    }

    pub fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Reference values from CPython's `statistics.quantiles(v, n=4)`
    /// and `statistics.median(v)`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        assert_eq!(quartiles(&[3.0, 1.0]), (0.5, 2.0, 3.5));
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        let seven = [10.5, 7.25, 9.0, 8.0, 12.0, 11.0, 6.5];
        assert_eq!(quartiles(&seven), (7.25, 9.0, 11.0));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert!(quartiles(&[]).0.is_nan());
        assert_eq!(median(&[10.5, 7.25, 9.0, 8.0, 12.0, 11.0, 6.5]), 9.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 51.0);
        assert_eq!(percentile(&v, 99.0), 100.0);
        assert_eq!(percentile(&[1.0, 2.0], 50.0), 1.5);
        assert!(percentile(&[], 50.0).is_nan());
    }

    /// The tail rule: report the highest percentile with at least ten
    /// samples beyond it.
    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None);
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    /// Seeds are part of the workload definition: these values must
    /// never change, or runs before and after the change would measure
    /// different inputs.
    #[test]
    fn seed_derivation_is_stable() {
        assert_eq!(derive_seed(0, ""), 0xC381_7C01_6BA4_FF30);
        assert_eq!(derive_seed(7, "battery.0"), 0xDF28_3569_D1BE_6500);
        assert_ne!(derive_seed(7, "battery.0"), derive_seed(7, "battery.1"));
        assert_ne!(derive_seed(7, "battery.0"), derive_seed(8, "battery.0"));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        let digest = |s: &str| {
            let mut h = Fnv64::new();
            h.update(s.as_bytes());
            h.finish()
        };
        assert_eq!(digest(""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(digest("a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(digest("foobar"), 0x8594_4171_F739_67E8);
    }
}
