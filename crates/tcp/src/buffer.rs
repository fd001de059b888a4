//! Send-side retransmission buffer and receive-side in-order buffer.
//!
//! Both buffers hold a queue of [`Bytes`] chunks plus a byte count, so a
//! connection keeps only the bytes it is carrying: once everything is
//! acknowledged (send) or read (receive), it holds no chunk and no byte
//! storage, through TIME-WAIT included.
//!
//! **The view rule.** [`SendBuffer::peek`], [`RecvBuffer::read`] and
//! [`RecvBuffer::read_all`] return a zero-copy [`Bytes::slice`] view when
//! the requested range lies inside one chunk, and copy only when it spans
//! chunks. A send chunk is the application's write, copied once into a
//! pooled buffer. A receive chunk is the segment's payload, which is a
//! view of the received frame: it pins that frame's buffer only until
//! the application reads it (and drops what it read). Every application
//! in the tree reads its data within the same `with_ctx` drain that
//! delivered it, so no frame outlives its event.

use std::collections::VecDeque;

use bytes::{Buf, Bytes, BytesMut};

use crate::seq::SeqNum;

/// `len` bytes from `offset` into `chunks`: a view when they lie in one
/// chunk, else one copy gathered across chunks. The caller keeps
/// `offset + len` within the chunks' total length.
fn gather(chunks: &VecDeque<Bytes>, mut offset: usize, len: usize) -> Bytes {
    let mut it = chunks.iter();
    for chunk in it.by_ref() {
        if offset < chunk.len() {
            if offset + len <= chunk.len() {
                return chunk.slice(offset..offset + len);
            }
            let mut out = BytesMut::with_capacity(len);
            out.extend_from_slice(&chunk[offset..]);
            for next in it {
                let want = len - out.len();
                if want == 0 {
                    break;
                }
                out.extend_from_slice(&next[..want.min(next.len())]);
            }
            return out.freeze();
        }
        offset -= chunk.len();
    }
    Bytes::new()
}

/// Drop the first `n` bytes of `chunks`: whole chunks are popped, and a
/// chunk the cut falls inside is trimmed in place.
fn drop_front(chunks: &mut VecDeque<Bytes>, mut n: usize) {
    while n > 0 {
        let Some(front) = chunks.front_mut() else {
            return;
        };
        if front.len() > n {
            front.advance(n);
            return;
        }
        n -= front.len();
        chunks.pop_front();
    }
}

/// Send buffer: bytes the application has written that are not yet
/// acknowledged. Tracks the boundary between in-flight and unsent data via
/// sequence numbers owned by the socket.
#[derive(Debug, Default)]
pub struct SendBuffer {
    /// Sequence number of the first byte of the first chunk.
    base: SeqNum,
    /// The application's writes, oldest first, trimmed by acks.
    chunks: VecDeque<Bytes>,
    /// Bytes across `chunks`.
    len: usize,
    /// Maximum bytes the buffer accepts (back-pressure to the app).
    capacity: usize,
}

impl SendBuffer {
    /// A buffer holding at most `capacity` unacknowledged bytes.
    pub fn new(base: SeqNum, capacity: usize) -> Self {
        SendBuffer {
            base,
            chunks: VecDeque::new(),
            len: 0,
            capacity,
        }
    }

    /// Bytes currently buffered (in-flight + unsent).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free space for new application writes.
    pub fn free(&self) -> usize {
        self.capacity - self.len
    }

    /// Append application data, copied once into one pooled chunk;
    /// returns how many bytes were accepted.
    pub fn write(&mut self, bytes: &[u8]) -> usize {
        let take = bytes.len().min(self.free());
        if take > 0 {
            self.chunks
                .push_back(Bytes::copy_from_slice(&bytes[..take]));
            self.len += take;
        }
        take
    }

    /// Up to `len` bytes starting at absolute sequence `seq` (used both
    /// for first transmission and retransmission): a view when they lie
    /// in one chunk.
    ///
    /// Returns an empty payload if `seq` is outside the buffered range.
    pub fn peek(&self, seq: SeqNum, len: usize) -> Bytes {
        let offset = seq.since(self.base) as usize;
        if offset >= self.len || len == 0 {
            return Bytes::new();
        }
        gather(&self.chunks, offset, len.min(self.len - offset))
    }

    /// Acknowledge everything below `ack`: drop it from the buffer.
    pub fn ack_to(&mut self, ack: SeqNum) {
        if ack.le(self.base) {
            return;
        }
        let n = (ack.since(self.base) as usize).min(self.len);
        drop_front(&mut self.chunks, n);
        self.len -= n;
        self.base += n as u32;
    }

    /// First sequence number still buffered.
    pub fn base(&self) -> SeqNum {
        self.base
    }

    /// One-past-the-last buffered sequence number.
    pub fn end(&self) -> SeqNum {
        self.base + self.len as u32
    }
}

/// Receive buffer: strictly in-order bytes the application has not read
/// yet. Out-of-order segments are rejected by the socket (duplicate-ACK),
/// so this buffer only ever appends at the tail.
#[derive(Debug, Default)]
pub struct RecvBuffer {
    /// Segment payloads (views of their frames), oldest first.
    chunks: VecDeque<Bytes>,
    /// Bytes across `chunks`.
    len: usize,
    capacity: usize,
}

impl RecvBuffer {
    /// A buffer advertising at most `capacity` bytes of window.
    pub fn new(capacity: usize) -> Self {
        RecvBuffer {
            chunks: VecDeque::new(),
            len: 0,
            capacity,
        }
    }

    /// Unread bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether nothing is waiting to be read.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Window to advertise: remaining capacity, clamped to u16 (no window
    /// scaling).
    pub fn window(&self) -> u16 {
        (self.capacity - self.len).min(u16::MAX as usize) as u16
    }

    /// Accept in-order payload, kept as a view without copying; returns
    /// bytes accepted (may be short if the window was overrun).
    pub fn push(&mut self, payload: Bytes) -> usize {
        let take = payload.len().min(self.capacity - self.len);
        if take > 0 {
            self.chunks.push_back(if take == payload.len() {
                payload
            } else {
                payload.slice(..take)
            });
            self.len += take;
        }
        take
    }

    /// Drain up to `max` bytes for the application: a view when they lie
    /// in the front chunk.
    pub fn read(&mut self, max: usize) -> Bytes {
        let take = max.min(self.len);
        if take == 0 {
            return Bytes::new();
        }
        let out = match self.chunks.front() {
            // The whole front chunk: hand it over as it is.
            Some(front) if front.len() == take => self.chunks.pop_front().unwrap_or_default(),
            _ => {
                let out = gather(&self.chunks, 0, take);
                drop_front(&mut self.chunks, take);
                out
            }
        };
        self.len -= take;
        out
    }

    /// Drain everything.
    pub fn read_all(&mut self) -> Bytes {
        self.read(usize::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

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
        assert_eq!(r.push(Bytes::from_static(b"abcdef")), 6);
        assert_eq!(r.window(), 2);
        assert_eq!(r.push(Bytes::from_static(b"ghij")), 2); // overrun truncated
        assert_eq!(r.window(), 0);
        assert_eq!(&r.read(4)[..], b"abcd");
        assert_eq!(r.window(), 4);
        assert_eq!(&r.read_all()[..], b"efgh");
        assert!(r.is_empty());
    }

    #[test]
    fn copies_span_chunks() {
        // A trimmed first write and a second write: the bytes sit in two
        // chunks, and ranges across the seam are gathered.
        let mut b = SendBuffer::new(SeqNum(0), 8);
        b.write(b"abcdefgh");
        b.ack_to(SeqNum(6));
        b.write(b"ijklmn");
        assert_eq!(b.chunks.len(), 2, "one chunk per write");
        assert_eq!(&b.peek(SeqNum(6), 8)[..], b"ghijklmn");
        assert_eq!(&b.peek(SeqNum(7), 3)[..], b"hij");
        assert_eq!(&b.peek(SeqNum(9), 4)[..], b"jklm");
        let mut r = RecvBuffer::new(8);
        r.push(Bytes::from_static(b"abcdefgh"));
        r.read(6);
        r.push(Bytes::from_static(b"ijklmn"));
        assert_eq!(r.chunks.len(), 2);
        assert_eq!(&r.read(5)[..], b"ghijk");
        assert_eq!(&r.read_all()[..], b"lmn");
    }

    /// Whether `view` lies inside `within`'s bytes.
    fn inside(view: &Bytes, within: &[u8]) -> bool {
        let outer = within.as_ptr_range();
        let inner = view.as_ptr_range();
        outer.start <= inner.start && inner.end <= outer.end
    }

    #[test]
    fn single_chunk_ranges_are_views_and_emptied_buffers_hold_nothing() {
        let mut b = SendBuffer::new(SeqNum(0), 100);
        b.write(b"first write");
        b.write(b"second");
        let first = b.peek(SeqNum(0), 5);
        let second = b.peek(SeqNum(13), 4);
        assert_eq!((&first[..], &second[..]), (&b"first"[..], &b"cond"[..]));
        assert!(inside(&first, &b.chunks[0]), "peek inside a chunk copies");
        assert!(inside(&second, &b.chunks[1]), "peek inside a chunk copies");
        b.ack_to(b.end());
        assert_eq!(
            (b.chunks.len(), b.len()),
            (0, 0),
            "acked bytes are released"
        );

        let frame = Bytes::from(b"..headers..payload".to_vec());
        let mut r = RecvBuffer::new(100);
        r.push(frame.slice(11..));
        let part = r.read(3);
        assert_eq!(&part[..], b"pay");
        assert!(inside(&part, &frame), "read inside a chunk copies");
        let rest = r.read_all();
        assert_eq!(&rest[..], b"load");
        assert!(inside(&rest, &frame), "read of a whole chunk copies");
        assert_eq!((r.chunks.len(), r.len()), (0, 0), "read bytes are released");
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

    proptest! {
        /// Both buffers against a flat byte model: arbitrary writes,
        /// peeks inside and across chunks, partial and stale acks, reads
        /// of any size, from bases next to the sequence wrap.
        #[test]
        fn chunked_buffers_match_a_flat_model(
            base_back in 0u32..64,
            capacity in 1usize..96,
            ops in prop::collection::vec(any::<u64>(), 1..48),
        ) {
            let base = SeqNum(u32::MAX - base_back);
            let mut send = SendBuffer::new(base, capacity);
            let mut recv = RecvBuffer::new(capacity);
            let (mut sent, mut unread) = (Vec::<u8>::new(), Vec::<u8>::new());
            let mut model_base = base;
            let mut fill = 0u8;
            for op in ops {
                let arg = (op >> 8) as usize;
                match op % 5 {
                    0 => {
                        let data: Vec<u8> = (0..arg % 40)
                            .map(|_| {
                                fill = fill.wrapping_add(1);
                                fill
                            })
                            .collect();
                        let took = send.write(&data);
                        prop_assert_eq!(took, data.len().min(capacity - sent.len()));
                        sent.extend_from_slice(&data[..took]);
                        let pushed = recv.push(Bytes::from(data.clone()));
                        prop_assert_eq!(pushed, data.len().min(capacity - unread.len()));
                        unread.extend_from_slice(&data[..pushed]);
                    }
                    1 => {
                        let off = arg % (sent.len() + 4);
                        let len = (arg >> 8) % (sent.len() + 4);
                        let got = send.peek(model_base + off as u32, len);
                        let want = if off >= sent.len() || len == 0 {
                            &[][..]
                        } else {
                            &sent[off..(off + len).min(sent.len())]
                        };
                        prop_assert_eq!(&got[..], want);
                    }
                    2 => {
                        // Stale acks go up to 8 below the base.
                        let step = (arg % (sent.len() + 12)) as u32;
                        let ack = model_base + step - 8;
                        send.ack_to(ack);
                        if !ack.le(model_base) {
                            let n = (step as usize - 8).min(sent.len());
                            sent.drain(..n);
                            model_base += n as u32;
                        }
                    }
                    3 => {
                        let max = arg % (unread.len() + 4);
                        let got = recv.read(max);
                        let n = max.min(unread.len());
                        prop_assert_eq!(&got[..], &unread[..n]);
                        unread.drain(..n);
                    }
                    _ => {
                        prop_assert_eq!(&recv.read_all()[..], &unread[..]);
                        unread.clear();
                    }
                }
                prop_assert_eq!(send.len(), sent.len());
                prop_assert_eq!(send.base(), model_base);
                prop_assert_eq!(send.end(), model_base + sent.len() as u32);
                prop_assert_eq!(recv.len(), unread.len());
                prop_assert_eq!(recv.window() as usize, capacity - unread.len());
                prop_assert_eq!(send.chunks.is_empty(), sent.is_empty());
                prop_assert_eq!(recv.chunks.is_empty(), unread.is_empty());
            }
        }
    }
}
