//! The event queue.
//!
//! Keyed by `(time, sequence)`. The monotonically increasing sequence
//! number breaks ties in insertion order, which makes the whole
//! simulation deterministic: two events scheduled for the same instant
//! are always delivered in the order they were scheduled.
//!
//! [`EventQueue`] stamps the sequence numbers and keeps the events in a
//! `BinaryHeap`, so [`Event`]'s `Ord` is the pop order.
//! `tests/properties.rs` pins that contract, pop for pop, against a
//! model that takes the minimum `(time, push index)` from a plain `Vec`.
//!
//! Three kinds of event are queued: frame deliveries, node timers and
//! node starts. A link direction's transmit-done instants are not
//! events: the direction keeps them and settles its queue lazily (see
//! [`crate::link`]), stamping each with a number from
//! [`EventQueue::reserve_seq`] so that it sorts among the events exactly
//! where an event of its own would have.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use bytes::Bytes;

use crate::engine::{NodeId, PortNo};
use crate::time::SimTime;

/// What happens when an event fires.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A frame finishes propagating and arrives at `(node, port)`.
    FrameDelivery {
        /// Receiving node.
        node: NodeId,
        /// Receiving interface on that node.
        port: PortNo,
        /// Raw Ethernet frame bytes.
        frame: Bytes,
    },
    /// A node timer fires with an application-chosen token.
    Timer {
        /// Node that armed the timer.
        node: NodeId,
        /// Opaque token chosen by the node when arming.
        token: u64,
    },
    /// Deliver `Node::on_start` at simulation boot.
    Start {
        /// Node to start.
        node: NodeId,
    },
}

/// A scheduled event.
#[derive(Debug, Clone)]
pub struct Event {
    /// When the event fires.
    pub at: SimTime,
    /// FIFO tiebreaker among same-instant events.
    pub seq: u64,
    /// Payload.
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Deterministic priority queue of simulation events.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` to fire at `at`.
    pub fn push(&mut self, at: SimTime, kind: EventKind) {
        let seq = self.reserve_seq();
        self.heap.push(Event { at, seq, kind });
    }

    /// Take the next sequence number without queuing an event. Every
    /// later push keeps the number it would have had if an event had
    /// been pushed here.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Remove and return the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// When the next event would fire, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: NodeId, token: u64) -> EventKind {
        EventKind::Timer { node, token }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), timer(0, 3));
        q.push(SimTime::from_millis(10), timer(0, 1));
        q.push(SimTime::from_millis(20), timer(0, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for token in 0..100 {
            q.push(t, timer(0, token));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { token, .. } => token,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn a_reserved_number_orders_like_a_push() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        q.push(t, timer(0, 0));
        assert_eq!(q.reserve_seq(), 1);
        q.push(t, timer(0, 2));
        let seqs: Vec<u64> = std::iter::from_fn(|| q.pop()).map(|e| e.seq).collect();
        assert_eq!(seqs, vec![0, 2]);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.peek_time().is_none());
        q.push(SimTime::from_micros(7), timer(1, 0));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(7)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
