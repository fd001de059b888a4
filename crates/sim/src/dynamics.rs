//! Pluggable per-direction link dynamics: time-varying service rates and
//! queue disciplines.
//!
//! Every link direction carries a [`LinkDynamics`]: a [`RateSchedule`]
//! describing how the line rate evolves over virtual time (the
//! Lübben–Fidler time-varying-service setting), and a [`QueueDiscipline`]
//! deciding which frames the queue admits (deep drop-tail "bufferbloat"
//! versus a CoDel-style AQM). The defaults reproduce the historical
//! static link bit-for-bit:
//!
//! * [`RateSchedule::Static`] evaluates to the spec's `rate_bps`
//!   unchanged, so the serialization expression is the exact one the
//!   fixed-rate engine computed.
//! * [`QueueDiscipline::DropTail`] adds no admission check beyond the
//!   byte bound that has always existed.
//!
//! Rates are evaluated **lazily at the instant serialization starts** —
//! there are no scheduled rate-change events, so the event queue's
//! population (and therefore `(time, seq)` order) is untouched by a
//! schedule until a frame actually observes it. The CoDel law is fully
//! deterministic (no RNG): it derives its drop decisions from the
//! would-be queueing delay of each arriving frame.

use crate::link::LinkSpec;
use crate::time::{SimDuration, SimTime};

/// How a direction's service rate evolves over virtual time.
///
/// The schedule maps `(instant, base rate)` to the rate in force at that
/// instant; the base rate is the direction's [`LinkSpec::rate_bps`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum RateSchedule {
    /// The spec rate at every instant — bit-identical to the fixed-rate
    /// path.
    #[default]
    Static,
    /// Periodic on-off cross-traffic: within every `period`, the first
    /// `on` of it serves at `on_bps` (the residual rate left over by a
    /// competing burst), the rest at the base rate.
    OnOff {
        /// Cycle length.
        period: SimDuration,
        /// Leading span of each cycle served at `on_bps`.
        on: SimDuration,
        /// Rate in force during the `on` span.
        on_bps: u64,
    },
}

impl RateSchedule {
    /// The rate in force at `t` given the direction's base rate.
    pub fn rate_at(&self, t: SimTime, base_bps: u64) -> u64 {
        match self {
            RateSchedule::Static => base_bps,
            RateSchedule::OnOff { period, on, on_bps } => {
                let phase = t.as_nanos() % period.as_nanos();
                if phase < on.as_nanos() {
                    *on_bps
                } else {
                    base_bps
                }
            }
        }
    }

    /// The largest rate the schedule can ever yield (used to bound byte
    /// conservation: no window can deliver more than `max_rate × span`
    /// plus one in-flight frame).
    pub fn max_rate(&self, base_bps: u64) -> u64 {
        match self {
            RateSchedule::Static => base_bps,
            RateSchedule::OnOff { on_bps, .. } => base_bps.max(*on_bps),
        }
    }

    /// `true` for the schedule that never deviates from the base rate.
    pub fn is_static(&self) -> bool {
        matches!(self, RateSchedule::Static)
    }

    /// Check the schedule's documented preconditions: a positive rate,
    /// and a positive period containing its `on` span.
    pub fn validate(&self) -> Result<(), &'static str> {
        match self {
            RateSchedule::Static => Ok(()),
            RateSchedule::OnOff { period, on, on_bps } => {
                if *period == SimDuration::ZERO {
                    return Err("on-off period must be positive");
                }
                if on > period {
                    return Err("on-off 'on' span must not exceed the period");
                }
                if *on_bps == 0 {
                    return Err("on-off rate must be positive");
                }
                Ok(())
            }
        }
    }
}

/// Which frames a direction's queue admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueueDiscipline {
    /// Admit until the byte bound, then drop — the historical behaviour.
    /// With a deep [`LinkSpec::queue_limit_bytes`] on a slow link this
    /// *is* bufferbloat: seconds of standing queue and no signal.
    #[default]
    DropTail,
    /// CoDel-style active queue management with the RFC 8289
    /// constants: once the queueing delay has stayed above the 5 ms
    /// target for a full 100 ms interval, drop, then keep dropping with
    /// `interval/√count` spacing until the delay recovers.
    /// Deterministic — no RNG stream is consumed.
    CoDel,
}

impl QueueDiscipline {
    /// `true` for plain drop-tail.
    pub fn is_drop_tail(&self) -> bool {
        matches!(self, QueueDiscipline::DropTail)
    }
}

/// CoDel's acceptable standing queueing delay (RFC 8289's 5 ms).
const CODEL_TARGET: SimDuration = SimDuration::from_millis(5);

/// The window over which the delay must exceed [`CODEL_TARGET`] before
/// CoDel's first drop (RFC 8289's 100 ms).
const CODEL_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// Deterministic CoDel controller state for one direction.
///
/// The classic algorithm measures sojourn at dequeue; this engine's
/// queue is virtual (a byte gauge plus `busy_until`), so the controller
/// runs at admission on the *would-be* queueing delay
/// `busy_until − now` — the exact time the frame would wait before its
/// serialization starts, known in advance because the link is
/// work-conserving.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CoDelState {
    /// When the delay first rose above target (None while below).
    first_above: Option<SimTime>,
    /// Whether the controller is in its dropping phase.
    dropping: bool,
    /// Next scheduled drop while dropping.
    drop_next: SimTime,
    /// Drops in the current dropping phase (controls the √-law spacing).
    count: u32,
}

impl CoDelState {
    /// Decide whether the frame arriving at `now` that would wait
    /// `delay` in queue should be dropped.
    pub(crate) fn should_drop(&mut self, now: SimTime, delay: SimDuration) -> bool {
        if delay < CODEL_TARGET {
            self.first_above = None;
            self.dropping = false;
            return false;
        }
        let first_above = match self.first_above {
            None => {
                self.first_above = Some(now + CODEL_INTERVAL);
                return false;
            }
            Some(t) => t,
        };
        if now < first_above {
            return false;
        }
        if !self.dropping {
            self.dropping = true;
            self.count = 1;
            self.drop_next = now + CODEL_INTERVAL;
            return true;
        }
        if now >= self.drop_next {
            self.count += 1;
            let spacing = CODEL_INTERVAL.as_nanos() as f64 / (self.count as f64).sqrt();
            self.drop_next = now + SimDuration::from_nanos(spacing as u64);
            return true;
        }
        false
    }
}

/// The pluggable behaviour of one link direction: rate over time plus
/// queue discipline. [`LinkDynamics::default`] is exactly the historical
/// static drop-tail link.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinkDynamics {
    /// Service-rate evolution.
    pub schedule: RateSchedule,
    /// Queue admission policy.
    pub discipline: QueueDiscipline,
}

impl LinkDynamics {
    /// The static drop-tail dynamics (the default).
    pub fn stat() -> LinkDynamics {
        LinkDynamics::default()
    }

    /// Dynamics with the given schedule over a drop-tail queue.
    pub fn scheduled(schedule: RateSchedule) -> LinkDynamics {
        LinkDynamics {
            schedule,
            discipline: QueueDiscipline::DropTail,
        }
    }

    /// Drop-tail dynamics replaced by an RFC 8289 CoDel.
    pub fn codel() -> LinkDynamics {
        LinkDynamics {
            schedule: RateSchedule::Static,
            discipline: QueueDiscipline::CoDel,
        }
    }

    /// `true` when the dynamics change nothing relative to the
    /// historical static link (the bit-parity gate).
    pub fn is_static(&self) -> bool {
        self.schedule.is_static() && self.discipline.is_drop_tail()
    }

    /// Check the schedule's preconditions (the disciplines have none).
    pub fn validate(&self) -> Result<(), &'static str> {
        self.schedule.validate()
    }
}

/// Per-link shape: optional per-direction spec overrides (asymmetric
/// rates) plus per-direction dynamics.
///
/// "Down" is the direction transmitted by the link's primary host (for
/// the testbed's server access link: server → switch → clients), "up"
/// the reverse. `LinkShape::default()` installs nothing and keeps every
/// run bit-identical to the unshaped engine.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LinkShape {
    /// Replace the downstream direction's spec (rate, queue bound, …).
    pub down_spec: Option<LinkSpec>,
    /// Replace the upstream direction's spec.
    pub up_spec: Option<LinkSpec>,
    /// Downstream dynamics.
    pub down: LinkDynamics,
    /// Upstream dynamics.
    pub up: LinkDynamics,
}

impl LinkShape {
    /// `true` when the shape overrides nothing.
    pub fn is_static(&self) -> bool {
        self.down_spec.is_none()
            && self.up_spec.is_none()
            && self.down.is_static()
            && self.up.is_static()
    }

    /// Apply the same dynamics to both directions.
    pub fn symmetric(dynamics: LinkDynamics) -> LinkShape {
        LinkShape {
            down: dynamics.clone(),
            up: dynamics,
            ..LinkShape::default()
        }
    }

    /// Validate the overridden specs and both directions' dynamics.
    pub fn validate(&self) -> Result<(), &'static str> {
        if let Some(spec) = &self.down_spec {
            spec.validate()?;
        }
        if let Some(spec) = &self.up_spec {
            spec.validate()?;
        }
        self.down.validate()?;
        self.up.validate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_schedule_is_identity() {
        let s = RateSchedule::Static;
        for t in [0, 1, 1_000_000_000] {
            assert_eq!(s.rate_at(SimTime::from_nanos(t), 42_000), 42_000);
        }
        assert!(s.is_static());
        assert_eq!(s.max_rate(42_000), 42_000);
    }

    #[test]
    fn on_off_cycles_by_phase() {
        let s = RateSchedule::OnOff {
            period: SimDuration::from_millis(100),
            on: SimDuration::from_millis(25),
            on_bps: 1_000,
        };
        assert_eq!(s.rate_at(SimTime::ZERO, 8_000), 1_000);
        assert_eq!(s.rate_at(SimTime::from_millis(24), 8_000), 1_000);
        assert_eq!(s.rate_at(SimTime::from_millis(25), 8_000), 8_000);
        assert_eq!(s.rate_at(SimTime::from_millis(99), 8_000), 8_000);
        // Next cycle wraps back into the on phase.
        assert_eq!(s.rate_at(SimTime::from_millis(100), 8_000), 1_000);
        assert_eq!(s.max_rate(8_000), 8_000);
    }

    #[test]
    fn schedules_validate_their_preconditions() {
        let zero_rate = RateSchedule::OnOff {
            period: SimDuration::from_millis(10),
            on: SimDuration::from_millis(5),
            on_bps: 0,
        };
        assert!(zero_rate.validate().is_err());
        let bad_period = RateSchedule::OnOff {
            period: SimDuration::ZERO,
            on: SimDuration::ZERO,
            on_bps: 1,
        };
        assert!(bad_period.validate().is_err());
        let on_exceeds = RateSchedule::OnOff {
            period: SimDuration::from_millis(10),
            on: SimDuration::from_millis(20),
            on_bps: 1,
        };
        assert!(on_exceeds.validate().is_err());
    }

    #[test]
    fn codel_waits_an_interval_before_dropping() {
        let mut st = CoDelState::default();
        let high = SimDuration::from_millis(50);
        // Below target: never drops, state resets.
        assert!(!st.should_drop(SimTime::from_millis(0), SimDuration::ZERO));
        // Above target but not yet for a full interval.
        assert!(!st.should_drop(SimTime::from_millis(10), high));
        assert!(!st.should_drop(SimTime::from_millis(60), high));
        // A full interval above target: first drop.
        assert!(st.should_drop(SimTime::from_millis(115), high));
        // Still dropping, but spaced by the control law.
        assert!(!st.should_drop(SimTime::from_millis(120), high));
        assert!(st.should_drop(SimTime::from_millis(216), high));
        // Delay recovers: dropping phase ends immediately.
        assert!(!st.should_drop(SimTime::from_millis(217), SimDuration::ZERO));
        assert!(!st.should_drop(SimTime::from_millis(218), high));
    }

    #[test]
    fn codel_drop_spacing_tightens_with_count() {
        let mut st = CoDelState::default();
        let high = SimDuration::from_millis(50);
        let mut drops = Vec::new();
        for ms in 0..2_000u64 {
            if st.should_drop(SimTime::from_millis(ms), high) {
                drops.push(ms);
            }
        }
        assert!(
            drops.len() >= 4,
            "sustained delay keeps dropping: {drops:?}"
        );
        let gaps: Vec<u64> = drops.windows(2).map(|w| w[1] - w[0]).collect();
        for pair in gaps.windows(2) {
            assert!(pair[1] <= pair[0], "spacing must tighten: {gaps:?}");
        }
    }

    #[test]
    fn default_dynamics_are_static() {
        assert!(LinkDynamics::default().is_static());
        assert!(LinkDynamics::stat().is_static());
        assert!(!LinkDynamics::codel().is_static());
        assert!(!LinkDynamics::scheduled(RateSchedule::OnOff {
            period: SimDuration::from_millis(10),
            on: SimDuration::from_millis(5),
            on_bps: 1,
        })
        .is_static());
        assert!(LinkDynamics::default().validate().is_ok());
    }

    #[test]
    fn shape_static_and_validation() {
        assert!(LinkShape::default().is_static());
        let shaped = LinkShape {
            down_spec: Some(LinkSpec::fast_ethernet()),
            ..LinkShape::default()
        };
        assert!(!shaped.is_static());
        assert!(shaped.validate().is_ok());
        let bad = LinkShape {
            up_spec: Some(LinkSpec {
                rate_bps: 0,
                ..LinkSpec::fast_ethernet()
            }),
            ..LinkShape::default()
        };
        assert!(bad.validate().is_err());
        assert!(!LinkShape::symmetric(LinkDynamics::codel()).is_static());
        assert!(LinkShape::symmetric(LinkDynamics::default()).is_static());
    }
}
