//! Jitter metrics.
//!
//! Section 2.2 of the paper: "the delay overhead, if not stable enough,
//! will also affect the jitter measurement". These estimators quantify
//! that effect for the impact-analysis extension experiment.

/// Mean absolute difference of consecutive samples — the simplest jitter
/// estimator speedtest-style tools use.
pub fn consecutive_jitter(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let sum: f64 = samples.windows(2).map(|w| (w[1] - w[0]).abs()).sum();
    sum / (samples.len() - 1) as f64
}

/// RFC 3550 §6.4.1 interarrival jitter, computed as the RFC defines it:
/// over `(send, receive)` timestamp pairs of consecutively *arriving*
/// packets.
///
/// For each pair of consecutive arrivals `i-1, i`:
///
/// ```text
/// D(i-1, i) = (R_i − R_{i-1}) − (S_i − S_{i-1})
/// J_i       = J_{i-1} + (|D(i-1, i)| − J_{i-1}) / 16
/// ```
///
/// `pairs` must be ordered by arrival (the order the receiver saw the
/// packets — NOT sorted by sequence number: reordered arrivals
/// legitimately contribute negative interarrival transit differences).
/// Units are whatever the timestamps are in (ms here).
pub fn rfc3550_transit_jitter(pairs: &[(f64, f64)]) -> f64 {
    let mut j = 0.0;
    for w in pairs.windows(2) {
        let (s0, r0) = w[0];
        let (s1, r1) = w[1];
        let d = (r1 - r0) - (s1 - s0);
        j += (d.abs() - j) / 16.0;
    }
    j
}

/// Peak-to-peak spread.
pub fn peak_to_peak(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let min = samples.iter().copied().fold(f64::INFINITY, f64::min);
    let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    max - min
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_series_has_zero_jitter() {
        let s = [50.0; 20];
        assert_eq!(consecutive_jitter(&s), 0.0);
        assert_eq!(peak_to_peak(&s), 0.0);
    }

    #[test]
    fn alternating_series() {
        let s = [50.0, 52.0, 50.0, 52.0, 50.0];
        assert_eq!(consecutive_jitter(&s), 2.0);
        assert_eq!(peak_to_peak(&s), 2.0);
    }

    #[test]
    fn short_inputs() {
        assert_eq!(consecutive_jitter(&[]), 0.0);
        assert_eq!(consecutive_jitter(&[1.0]), 0.0);
        assert_eq!(peak_to_peak(&[]), 0.0);
    }

    #[test]
    fn transit_jitter_matches_hand_computed_rfc_reference() {
        // Reference trace, hand-evaluated per RFC 3550 §6.4.1.
        // Sends every 20 ms; transit times 50, 55, 52, 60 ms.
        let pairs = [(0.0, 50.0), (20.0, 75.0), (40.0, 92.0), (60.0, 120.0)];
        // D = 5, -3, 8  →  J = 5/16, then +(3-J)/16, then +(8-J)/16.
        let j = rfc3550_transit_jitter(&pairs);
        assert!((j - 0.950439453125).abs() < 1e-12, "J = {j}");
    }

    #[test]
    fn transit_jitter_follows_arrival_order() {
        // Sent at 0/20/40 ms; packet 2 is delayed past packet 3.
        // Arrival order: 1, 3, 2.
        let arrival_pairs = [(0.0, 50.0), (40.0, 95.0), (20.0, 100.0)];
        // D(1,3) = 45-40 = 5; D(3,2) = 5-(-20) = 25.
        let j = rfc3550_transit_jitter(&arrival_pairs);
        assert!((j - 1.85546875).abs() < 1e-12, "J = {j}");
    }

    #[test]
    fn transit_jitter_short_inputs() {
        assert_eq!(rfc3550_transit_jitter(&[]), 0.0);
        assert_eq!(rfc3550_transit_jitter(&[(0.0, 50.0)]), 0.0);
    }

    #[test]
    fn overhead_noise_inflates_jitter() {
        // True RTT constant at 50; overhead adds alternating 0/10 ms —
        // measured jitter is entirely an artifact of the overhead.
        let truth = [50.0; 10];
        let measured: Vec<f64> = (0..10)
            .map(|i| 50.0 + if i % 2 == 0 { 0.0 } else { 10.0 })
            .collect();
        assert_eq!(consecutive_jitter(&truth), 0.0);
        assert_eq!(consecutive_jitter(&measured), 10.0);
    }
}
