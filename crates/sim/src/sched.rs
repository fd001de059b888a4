//! Hierarchical timer wheel — the engine's production event scheduler.
//!
//! The original scheduler was a single `BinaryHeap` keyed by
//! `(time, seq)`; correct, but every push/pop pays `O(log n)` comparator
//! work and the heap's memory access pattern scatters across the whole
//! backing array. A discrete-event network simulation has structure a
//! heap ignores: almost every event is scheduled a *short* time ahead
//! (serialization delays of microseconds, propagation of tens of
//! microseconds, RTO timers of seconds), and events are consumed in
//! closely-spaced bursts.
//!
//! The wheel here is the classic hashed-and-hierarchical design
//! (Varghese–Lauck, and the shape used by kernel timers and tokio's
//! driver): `LEVELS` levels of 64 slots each, where a level-`L` slot
//! spans `2^(SHIFT + 6·L)` nanoseconds. Level 0 slots are ~4 µs wide;
//! the top level's slots are wide enough that the nine levels together
//! cover the full `u64` nanosecond range (584 years of simulated time).
//! An event is filed at the level whose granularity first distinguishes
//! its deadline from the current time — found with one XOR and a
//! leading-zeros count — so insertion is `O(1)`. Expiry drains the
//! current level-0 slot into a tiny `ready` heap (which restores exact
//! `(time, seq)` order within the ~4 µs slot) and cascades
//! coarser-level slots downward as time reaches them.
//!
//! Determinism is inherited rather than re-proven: the wheel never
//! compares events beyond `(at, seq)`, and `tests/properties.rs` checks
//! it pop for pop against a plain `BinaryHeap<Event>`, whose order
//! [`Event`]'s `Ord` defines.

use std::collections::BinaryHeap;
use std::mem;

use crate::event::Event;
use crate::time::SimTime;

/// log2 of the level-0 slot width in nanoseconds (4096 ns ≈ 4 µs).
const SHIFT: u32 = 12;
/// log2 of the slots per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Number of levels; `SHIFT + 6·LEVELS ≥ 64` so the top level spans the
/// entire `u64` nanosecond range.
const LEVELS: usize = 9;

/// Width of a level-0 slot in nanoseconds.
const WIDTH0: u64 = 1 << SHIFT;

#[derive(Debug)]
struct Level {
    /// Bitmap of non-empty slots (bit `s` set ⇔ `slots[s]` non-empty).
    occupied: u64,
    slots: [Vec<Event>; SLOTS],
}

impl Default for Level {
    fn default() -> Self {
        Level {
            occupied: 0,
            slots: std::array::from_fn(|_| Vec::new()),
        }
    }
}

/// Hierarchical timer wheel over [`Event`]s, popping in exact
/// `(time, seq)` order.
#[derive(Debug)]
pub struct TimerWheel {
    /// Start of the current level-0 slot, in nanoseconds. All events
    /// still filed in the wheel fire at `ready_until` or later.
    elapsed: u64,
    /// End of the current level-0 slot: events before this instant live
    /// in `ready`, not in the wheel.
    ready_until: u64,
    /// Events within the current level-0 slot, in exact order.
    ready: BinaryHeap<Event>,
    levels: Box<[Level; LEVELS]>,
    len: usize,
}

impl Default for TimerWheel {
    fn default() -> Self {
        Self::new()
    }
}

impl TimerWheel {
    /// An empty wheel positioned at time zero.
    pub fn new() -> Self {
        TimerWheel {
            elapsed: 0,
            ready_until: WIDTH0,
            ready: BinaryHeap::new(),
            levels: Box::new(std::array::from_fn(|_| Level::default())),
            len: 0,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// File `ev` for later retrieval. Events are expected at or after
    /// the last popped time (the engine asserts this), but any deadline
    /// inside the current slot is honoured exactly.
    pub fn push(&mut self, ev: Event) {
        self.len += 1;
        self.insert(ev);
    }

    /// Remove and return the earliest `(time, seq)` event.
    pub fn pop(&mut self) -> Option<Event> {
        if self.ready.is_empty() && !self.advance() {
            return None;
        }
        let ev = self.ready.pop();
        debug_assert!(ev.is_some());
        self.len -= 1;
        ev
    }

    /// When the next event would fire, if any. Cascades internally, so
    /// it needs `&mut self`; the observable queue content is unchanged.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        if self.ready.is_empty() && !self.advance() {
            return None;
        }
        self.ready.peek().map(|e| e.at)
    }

    fn insert(&mut self, ev: Event) {
        let at = ev.at.as_nanos();
        if at < self.ready_until {
            self.ready.push(ev);
            return;
        }
        // The level whose slot width first distinguishes `at` from the
        // current time: position of the highest differing bit, in
        // 6-bit groups above SHIFT. `at >= ready_until` guarantees the
        // XOR is non-zero at or above bit SHIFT.
        let diff = (at ^ self.elapsed) >> SHIFT;
        if diff == 0 {
            // Same level-0 slot as `elapsed` but at/after a saturated
            // `ready_until` — only reachable in the last ~4 µs of the
            // u64 nanosecond range.
            self.ready.push(ev);
            return;
        }
        let level = ((63 - diff.leading_zeros()) / SLOT_BITS) as usize;
        debug_assert!(level < LEVELS);
        let slot = ((at >> (SHIFT + SLOT_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        self.levels[level].slots[slot].push(ev);
        self.levels[level].occupied |= 1 << slot;
    }

    /// Move time forward to the next occupied slot and refill `ready`.
    /// Returns false when the wheel holds no events at all.
    fn advance(&mut self) -> bool {
        loop {
            let Some((level, slot)) = self.next_occupied() else {
                return false;
            };
            let shift = SHIFT + SLOT_BITS * level as u32;
            // Slot start time: the current time's bits above this
            // level's range, this slot's index within it, zeros below.
            let high = if shift + SLOT_BITS >= 64 {
                0
            } else {
                self.elapsed & (!0u64 << (shift + SLOT_BITS))
            };
            let slot_start = high | ((slot as u64) << shift);
            debug_assert!(slot_start >= self.elapsed);
            self.elapsed = slot_start & !(WIDTH0 - 1);
            // Saturates in the last slot of the u64 range; `insert`
            // routes anything past a saturated boundary to `ready`.
            self.ready_until = self.elapsed.saturating_add(WIDTH0);
            let evs = mem::take(&mut self.levels[level].slots[slot]);
            self.levels[level].occupied &= !(1 << slot);
            if level == 0 {
                // Level-0 slots land in `ready` wholesale.
                self.ready.extend(evs);
                return true;
            }
            // Coarser slots cascade: each event re-files at a strictly
            // lower level (its deadline now shares this level's bits
            // with `elapsed`), so this terminates.
            for ev in evs {
                self.insert(ev);
            }
            if !self.ready.is_empty() {
                return true;
            }
        }
    }

    /// The lowest-level, earliest occupied slot. Occupied slots are
    /// always strictly ahead of the current position at their level
    /// (events in or before the current slot were drained into `ready`
    /// on insert or cascade), so the earliest occupied slot at the
    /// lowest occupied level is the next to expire.
    fn next_occupied(&self) -> Option<(usize, usize)> {
        for (level, l) in self.levels.iter().enumerate() {
            if l.occupied != 0 {
                return Some((level, l.occupied.trailing_zeros() as usize));
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(at_ns: u64, seq: u64) -> Event {
        Event {
            at: SimTime::from_nanos(at_ns),
            seq,
            kind: EventKind::Timer {
                node: 0,
                token: seq,
            },
        }
    }

    fn drain(w: &mut TimerWheel) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| w.pop())
            .map(|e| (e.at.as_nanos(), e.seq))
            .collect()
    }

    #[test]
    fn orders_across_levels() {
        let mut w = TimerWheel::new();
        // Deadlines spanning every level: ns to minutes.
        let times = [
            0u64,
            1,
            4_095,
            4_096,
            1 << 18,
            (1 << 18) + 7,
            1_000_000,
            50_000_000,
            1 << 40,
            (1 << 40) + 123,
            90_000_000_000,
        ];
        for (seq, &t) in times.iter().enumerate() {
            w.push(ev(t, seq as u64));
        }
        let got = drain(&mut w);
        let mut want: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut w = TimerWheel::new();
        for seq in 0..100 {
            w.push(ev(1 << 30, seq));
        }
        let got = drain(&mut w);
        assert_eq!(got, (0..100).map(|s| (1 << 30, s)).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop() {
        let mut w = TimerWheel::new();
        w.push(ev(10_000, 0));
        w.push(ev(5_000_000, 1));
        assert_eq!(w.pop().unwrap().seq, 0);
        // Push something between the popped time and the far event.
        w.push(ev(20_000, 2));
        w.push(ev(15_000, 3));
        assert_eq!(w.pop().unwrap().seq, 3);
        assert_eq!(w.pop().unwrap().seq, 2);
        assert_eq!(w.pop().unwrap().seq, 1);
        assert!(w.pop().is_none());
    }

    #[test]
    fn push_at_popped_instant_still_orders_by_seq() {
        let mut w = TimerWheel::new();
        w.push(ev(7_000, 0));
        assert_eq!(w.pop().unwrap().seq, 0);
        // Same instant as the event just popped — the engine does this
        // constantly (a node reacts by sending immediately).
        w.push(ev(7_000, 1));
        w.push(ev(7_000, 2));
        assert_eq!(drain(&mut w), vec![(7_000, 1), (7_000, 2)]);
    }

    #[test]
    fn peek_matches_pop_and_cascades() {
        let mut w = TimerWheel::new();
        assert!(w.peek_time().is_none());
        w.push(ev(1 << 35, 0));
        assert_eq!(w.peek_time(), Some(SimTime::from_nanos(1 << 35)));
        assert_eq!(w.len(), 1);
        assert_eq!(w.pop().unwrap().at.as_nanos(), 1 << 35);
        assert!(w.is_empty());
    }

    #[test]
    fn far_future_near_u64_range() {
        let mut w = TimerWheel::new();
        w.push(ev(u64::MAX - 1, 0));
        w.push(ev(1, 1));
        assert_eq!(w.pop().unwrap().seq, 1);
        assert_eq!(w.pop().unwrap().at.as_nanos(), u64::MAX - 1);
    }
}
