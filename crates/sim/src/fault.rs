//! Link fault injection, in the spirit of smoltcp's example options
//! (`--drop-chance`, `--corrupt-chance`, …).
//!
//! The paper's experiments are explicitly run on a clean network
//! ("we also ensure that the network was free of cross traffic, packet
//! loss, and retransmissions"), so the default injector is a no-op.
//! The knobs exist for robustness testing of the TCP substrate and for
//! extension experiments.

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::time::SimDuration;

/// What the injector decided to do with one frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultAction {
    /// Deliver unchanged.
    Deliver(Bytes),
    /// Deliver a corrupted copy (one octet mutated, like smoltcp).
    DeliverCorrupted(Bytes),
    /// Deliver twice.
    Duplicate(Bytes),
    /// Drop silently.
    Drop,
}

/// Per-direction fault configuration.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Probability ∈ \[0,1\] of dropping a frame.
    pub drop_chance: f64,
    /// Probability ∈ \[0,1\] of mutating one octet.
    pub corrupt_chance: f64,
    /// Probability ∈ \[0,1\] of duplicating a frame.
    pub duplicate_chance: f64,
}

impl FaultSpec {
    /// A clean link: everything delivers.
    pub const CLEAN: FaultSpec = FaultSpec {
        drop_chance: 0.0,
        corrupt_chance: 0.0,
        duplicate_chance: 0.0,
    };

    /// Whether this spec can ever alter a frame.
    pub fn is_clean(&self) -> bool {
        self.drop_chance == 0.0 && self.corrupt_chance == 0.0 && self.duplicate_chance == 0.0
    }

    /// A spec that only drops, at `rate` ∈ \[0,1\].
    pub fn loss(rate: f64) -> FaultSpec {
        FaultSpec {
            drop_chance: rate,
            ..FaultSpec::CLEAN
        }
    }
}

/// End-to-end network impairment for a testbed: per-direction fault
/// specs plus a netem-style uniform jitter bound on the server's
/// egress delay (`tc qdisc … netem delay 50ms <jitter>`).
///
/// "Up" is the client→server direction, "down" server→client, matching
/// where the paper's netem delay sits. The default is the paper's
/// clean network: no loss, no corruption, no duplication, no jitter.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Impairment {
    /// Faults on the client→server direction.
    pub up: FaultSpec,
    /// Faults on the server→client direction.
    pub down: FaultSpec,
    /// Uniform jitter bound added to the server-egress one-way delay:
    /// each frame draws an extra delay in `[0, jitter]`.
    pub jitter: SimDuration,
}

impl Impairment {
    /// The paper's clean network (§3): no impairment at all.
    pub const NONE: Impairment = Impairment {
        up: FaultSpec::CLEAN,
        down: FaultSpec::CLEAN,
        jitter: SimDuration::ZERO,
    };

    /// Symmetric random loss at `rate` ∈ \[0,1\] in both directions.
    pub fn loss(rate: f64) -> Impairment {
        Impairment {
            up: FaultSpec::loss(rate),
            down: FaultSpec::loss(rate),
            ..Impairment::NONE
        }
    }

    /// Replace the jitter bound.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Impairment {
        self.jitter = jitter;
        self
    }

    /// Whether this impairment can ever perturb the network. A clean
    /// impairment must leave every simulation bit-identical to one that
    /// never heard of impairments.
    pub fn is_clean(&self) -> bool {
        self.up.is_clean() && self.down.is_clean() && self.jitter == SimDuration::ZERO
    }
}

/// Stateful injector: a spec plus its RNG stream.
#[derive(Debug)]
pub struct FaultInjector {
    spec: FaultSpec,
    rng: SmallRng,
    drops: u64,
    corruptions: u64,
    duplicates: u64,
}

impl FaultInjector {
    /// Build an injector from a spec and a dedicated RNG stream.
    pub fn new(spec: FaultSpec, rng: SmallRng) -> Self {
        FaultInjector {
            spec,
            rng,
            drops: 0,
            corruptions: 0,
            duplicates: 0,
        }
    }

    /// Decide the fate of one frame.
    pub fn apply(&mut self, frame: Bytes) -> FaultAction {
        if self.spec.is_clean() {
            return FaultAction::Deliver(frame);
        }
        if self.spec.drop_chance > 0.0 && self.rng.gen_bool(self.spec.drop_chance.min(1.0)) {
            self.drops += 1;
            return FaultAction::Drop;
        }
        // An empty frame has no octet to mutate: skip the corruption
        // draw entirely rather than counting a corruption that never
        // happened and mislabelling the delivery.
        if !frame.is_empty()
            && self.spec.corrupt_chance > 0.0
            && self.rng.gen_bool(self.spec.corrupt_chance.min(1.0))
        {
            self.corruptions += 1;
            let mut data = frame.to_vec();
            let idx = self.rng.gen_range(0..data.len());
            // Guaranteed-visible mutation.
            data[idx] ^= self.rng.gen_range(1..=255u8);
            return FaultAction::DeliverCorrupted(Bytes::from(data));
        }
        if self.spec.duplicate_chance > 0.0
            && self.rng.gen_bool(self.spec.duplicate_chance.min(1.0))
        {
            self.duplicates += 1;
            return FaultAction::Duplicate(frame);
        }
        FaultAction::Deliver(frame)
    }

    /// (drops, corruptions, duplicates) so far.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.drops, self.corruptions, self.duplicates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    fn frame() -> Bytes {
        Bytes::from_static(&[1, 2, 3, 4, 5, 6, 7, 8])
    }

    #[test]
    fn clean_spec_never_touches_frames() {
        let mut inj = FaultInjector::new(FaultSpec::CLEAN, rng::stream(1, "t"));
        for _ in 0..1000 {
            assert_eq!(inj.apply(frame()), FaultAction::Deliver(frame()));
        }
        assert_eq!(inj.counters(), (0, 0, 0));
    }

    #[test]
    fn always_drop() {
        let spec = FaultSpec {
            drop_chance: 1.0,
            ..FaultSpec::CLEAN
        };
        let mut inj = FaultInjector::new(spec, rng::stream(1, "t"));
        assert_eq!(inj.apply(frame()), FaultAction::Drop);
        assert_eq!(inj.counters().0, 1);
    }

    #[test]
    fn corruption_changes_exactly_one_octet() {
        let spec = FaultSpec {
            corrupt_chance: 1.0,
            ..FaultSpec::CLEAN
        };
        let mut inj = FaultInjector::new(spec, rng::stream(2, "t"));
        match inj.apply(frame()) {
            FaultAction::DeliverCorrupted(data) => {
                let orig = frame();
                let diffs = data.iter().zip(orig.iter()).filter(|(a, b)| a != b).count();
                assert_eq!(diffs, 1);
                assert_eq!(data.len(), orig.len());
            }
            other => panic!("expected corruption, got {other:?}"),
        }
    }

    #[test]
    fn empty_frames_are_never_counted_as_corrupted() {
        let spec = FaultSpec {
            corrupt_chance: 1.0,
            ..FaultSpec::CLEAN
        };
        let mut inj = FaultInjector::new(spec, rng::stream(5, "t"));
        for _ in 0..100 {
            assert_eq!(
                inj.apply(Bytes::new()),
                FaultAction::Deliver(Bytes::new()),
                "an empty frame cannot be corrupted"
            );
        }
        assert_eq!(inj.counters(), (0, 0, 0));
        // Non-empty frames still corrupt.
        assert!(matches!(
            inj.apply(frame()),
            FaultAction::DeliverCorrupted(_)
        ));
        assert_eq!(inj.counters().1, 1);
    }

    #[test]
    fn impairment_cleanliness_and_constructors() {
        assert!(Impairment::NONE.is_clean());
        assert!(Impairment::default().is_clean());
        let lossy = Impairment::loss(0.02);
        assert!(!lossy.is_clean());
        assert_eq!(lossy.up.drop_chance, 0.02);
        assert_eq!(lossy.down.drop_chance, 0.02);
        assert_eq!(lossy.up.corrupt_chance, 0.0);
        let jittered = Impairment::NONE.with_jitter(SimDuration::from_millis(2));
        assert!(!jittered.is_clean());
        assert!(jittered.up.is_clean() && jittered.down.is_clean());
    }

    #[test]
    fn drop_rate_is_statistically_plausible() {
        let spec = FaultSpec {
            drop_chance: 0.25,
            ..FaultSpec::CLEAN
        };
        let mut inj = FaultInjector::new(spec, rng::stream(4, "t"));
        let n = 10_000;
        let mut drops = 0;
        for _ in 0..n {
            if inj.apply(frame()) == FaultAction::Drop {
                drops += 1;
            }
        }
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.02, "rate {rate}");
    }
}
