//! Send-side retransmission buffer and receive-side in-order buffer.

use std::collections::VecDeque;

use bytes::Bytes;

use crate::seq::SeqNum;

/// Send buffer: bytes the application has written that are not yet
/// acknowledged. Tracks the boundary between in-flight and unsent data via
/// sequence numbers owned by the socket.
#[derive(Debug, Default)]
pub struct SendBuffer {
    /// Sequence number of the first byte in `data`.
    base: SeqNum,
    data: VecDeque<u8>,
    /// Maximum bytes the buffer accepts (back-pressure to the app).
    capacity: usize,
}

impl SendBuffer {
    /// A buffer holding at most `capacity` unacknowledged bytes.
    pub fn new(base: SeqNum, capacity: usize) -> Self {
        SendBuffer {
            base,
            data: VecDeque::new(),
            capacity,
        }
    }

    /// Bytes currently buffered (in-flight + unsent).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Free space for new application writes.
    pub fn free(&self) -> usize {
        self.capacity - self.data.len()
    }

    /// Append application data; returns how many bytes were accepted.
    pub fn write(&mut self, bytes: &[u8]) -> usize {
        let take = bytes.len().min(self.free());
        self.data.extend(&bytes[..take]);
        take
    }

    /// Copy out up to `len` bytes starting at absolute sequence `seq`
    /// (used both for first transmission and retransmission).
    ///
    /// Returns an empty payload if `seq` is outside the buffered range.
    pub fn peek(&self, seq: SeqNum, len: usize) -> Bytes {
        let offset = seq.since(self.base) as usize;
        if offset >= self.data.len() || len == 0 {
            return Bytes::new();
        }
        let take = len.min(self.data.len() - offset);
        Bytes::from(copy_range(&self.data, offset, take))
    }

    /// Acknowledge everything below `ack`: drop it from the buffer.
    pub fn ack_to(&mut self, ack: SeqNum) {
        if ack.le(self.base) {
            return;
        }
        let n = (ack.since(self.base) as usize).min(self.data.len());
        self.data.drain(..n);
        self.base += n as u32;
    }

    /// First sequence number still buffered.
    pub fn base(&self) -> SeqNum {
        self.base
    }

    /// One-past-the-last buffered sequence number.
    pub fn end(&self) -> SeqNum {
        self.base + self.data.len() as u32
    }
}

/// Receive buffer: strictly in-order bytes the application has not read
/// yet. Out-of-order segments are rejected by the socket (duplicate-ACK),
/// so this buffer only ever appends at the tail.
#[derive(Debug, Default)]
pub struct RecvBuffer {
    data: VecDeque<u8>,
    capacity: usize,
}

impl RecvBuffer {
    /// A buffer advertising at most `capacity` bytes of window.
    pub fn new(capacity: usize) -> Self {
        RecvBuffer {
            data: VecDeque::new(),
            capacity,
        }
    }

    /// Unread bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether nothing is waiting to be read.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Window to advertise: remaining capacity, clamped to u16 (no window
    /// scaling).
    pub fn window(&self) -> u16 {
        (self.capacity - self.data.len()).min(u16::MAX as usize) as u16
    }

    /// Accept in-order payload; returns bytes accepted (may be short if
    /// the window was overrun).
    pub fn push(&mut self, payload: &[u8]) -> usize {
        let take = payload.len().min(self.capacity - self.data.len());
        self.data.extend(&payload[..take]);
        take
    }

    /// Drain up to `max` bytes for the application.
    pub fn read(&mut self, max: usize) -> Bytes {
        let take = max.min(self.data.len());
        let out = copy_range(&self.data, 0, take);
        self.data.drain(..take);
        Bytes::from(out)
    }

    /// Drain everything.
    pub fn read_all(&mut self) -> Bytes {
        self.read(usize::MAX)
    }
}

/// `len` bytes of `data` from `offset`, copied a slice at a time from
/// the deque's (at most two) contiguous runs.
fn copy_range(data: &VecDeque<u8>, offset: usize, len: usize) -> Vec<u8> {
    let (front, back) = data.as_slices();
    let mut out = Vec::with_capacity(len);
    let head = front.get(offset..).unwrap_or_default();
    let from_head = head.len().min(len);
    out.extend_from_slice(&head[..from_head]);
    let skip = offset.saturating_sub(front.len());
    out.extend_from_slice(&back[skip..skip + len - from_head]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_write_peek_ack_cycle() {
        let mut b = SendBuffer::new(SeqNum(100), 10);
        assert_eq!(b.write(b"hello"), 5);
        assert_eq!(b.write(b"world!!"), 5); // capacity caps at 10
        assert_eq!(b.len(), 10);
        assert_eq!(b.free(), 0);
        assert_eq!(&b.peek(SeqNum(100), 5)[..], b"hello");
        assert_eq!(&b.peek(SeqNum(105), 5)[..], b"world");
        // Partial ack releases space.
        b.ack_to(SeqNum(103));
        assert_eq!(b.base(), SeqNum(103));
        assert_eq!(b.free(), 3);
        assert_eq!(&b.peek(SeqNum(103), 3)[..], b"low");
        // Stale (old) ack is a no-op.
        b.ack_to(SeqNum(50));
        assert_eq!(b.base(), SeqNum(103));
        // Ack beyond end clamps.
        b.ack_to(SeqNum(900));
        assert!(b.is_empty());
    }

    #[test]
    fn send_peek_out_of_range_is_empty() {
        let mut b = SendBuffer::new(SeqNum(0), 100);
        b.write(b"abc");
        assert!(b.peek(SeqNum(3), 4).is_empty());
        assert!(b.peek(SeqNum(0), 0).is_empty());
        assert_eq!(b.end(), SeqNum(3));
    }

    #[test]
    fn send_retransmission_peek_is_stable() {
        let mut b = SendBuffer::new(SeqNum(0), 100);
        b.write(b"retransmit me");
        let first = b.peek(SeqNum(0), 13);
        let again = b.peek(SeqNum(0), 13);
        assert_eq!(first, again);
    }

    #[test]
    fn recv_push_read_window() {
        let mut r = RecvBuffer::new(8);
        assert_eq!(r.window(), 8);
        assert_eq!(r.push(b"abcdef"), 6);
        assert_eq!(r.window(), 2);
        assert_eq!(r.push(b"ghij"), 2); // overrun truncated
        assert_eq!(r.window(), 0);
        assert_eq!(&r.read(4)[..], b"abcd");
        assert_eq!(r.window(), 4);
        assert_eq!(&r.read_all()[..], b"efgh");
        assert!(r.is_empty());
    }

    #[test]
    fn copies_span_the_deque_wrap() {
        // Draining the front and refilling wraps the ring, so the bytes
        // sit in two runs.
        let mut b = SendBuffer::new(SeqNum(0), 8);
        b.write(b"abcdefgh");
        b.ack_to(SeqNum(6));
        b.write(b"ijklmn");
        let (front, back) = b.data.as_slices();
        assert!(!front.is_empty() && !back.is_empty(), "the ring wrapped");
        assert_eq!(&b.peek(SeqNum(6), 8)[..], b"ghijklmn");
        assert_eq!(&b.peek(SeqNum(7), 3)[..], b"hij");
        assert_eq!(&b.peek(SeqNum(9), 4)[..], b"jklm");
        let mut r = RecvBuffer::new(8);
        r.push(b"abcdefgh");
        r.read(6);
        r.push(b"ijklmn");
        assert_eq!(&r.read(5)[..], b"ghijk");
        assert_eq!(&r.read_all()[..], b"lmn");
    }

    #[test]
    fn recv_window_clamps_to_u16() {
        let r = RecvBuffer::new(1 << 20);
        assert_eq!(r.window(), u16::MAX);
    }

    #[test]
    fn send_wrapping_sequence_space() {
        let start = SeqNum(u32::MAX - 2);
        let mut b = SendBuffer::new(start, 16);
        b.write(b"abcdef");
        assert_eq!(&b.peek(start + 3, 3)[..], b"def");
        b.ack_to(start + 4);
        assert_eq!(b.base(), SeqNum(1));
        assert_eq!(&b.peek(SeqNum(1), 2)[..], b"ef");
    }
}
