//! Offline stand-in for the [`bytes`](https://crates.io/crates/bytes)
//! crate, covering the subset this workspace uses: cheaply-cloneable
//! immutable [`Bytes`] (backed by an `Arc` with zero-copy `slice`),
//! growable [`BytesMut`] with `freeze`, and the [`BufMut`] put-methods the
//! wire codecs emit through.
//!
//! The buffer is an `Arc<Vec<u8>>`: conversion and `freeze` are moves,
//! `slice` is a refcount bump, and when the last reference drops the
//! backing `Vec` goes back to a thread-local [`pool`] for reuse. The
//! simulator's hot loop leans on all three: a host builds each frame
//! into one buffer, links and switch ports pass that buffer on by
//! refcount, capture sinks read it borrowed, and a receiving host keeps
//! one `slice` view of its payload, so a frame costs one buffer from
//! birth to its last reader.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, RangeBounds};
use std::sync::Arc;

/// Thread-local recycling pool for the `Vec<u8>` allocations behind
/// [`Bytes`] and [`BytesMut`].
///
/// The pool is best-effort and invisible to value semantics: buffers are
/// cleared before reuse, so whether an allocation is fresh or recycled
/// never changes observable bytes (and therefore never perturbs the
/// simulator's determinism). Each thread keeps its own free list; a
/// buffer reclaimed on one thread is reused by that thread only.
///
/// The free list is bounded by demand: a dropped buffer is parked only
/// while the list holds fewer buffers than the thread has ever had
/// alive at once. A thread therefore never parks more idle buffers
/// than it has shown it can use; beyond that, a drop frees. The bound
/// is kept apart from the [`PoolStats`](pool::PoolStats) gauges, so
/// [`reset_stats`](pool::reset_stats) moves no buffer.
pub mod pool {
    use std::cell::RefCell;

    /// Don't retain buffers larger than this (keeps a burst of jumbo
    /// allocations from pinning memory forever).
    const MAX_POOLED_CAPACITY: usize = 1 << 16;

    /// Counters describing pool behaviour since the last
    /// [`reset_stats`], for benchmarks and diagnostics.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
    pub struct PoolStats {
        /// Buffers handed back out from the free list.
        pub reused: u64,
        /// Buffers that had to be freshly allocated.
        pub allocated: u64,
        /// Buffers returned to the free list on drop.
        pub reclaimed: u64,
        /// `Bytes` backing buffers currently alive on this thread:
        /// births (every `Vec<u8> -> Bytes` conversion with nonzero
        /// capacity, which all allocating constructors funnel through)
        /// minus last-reference drops. A buffer that migrates to
        /// another thread before its final drop is debited there, so
        /// per-thread values are approximate under cross-thread
        /// hand-off; single-threaded flows (an engine run) are exact.
        pub live: i64,
        /// High-water mark of [`PoolStats::live`] since the last reset
        /// — the retention gauge the streaming capture pipeline bounds.
        pub live_peak: i64,
    }

    struct PoolInner {
        free: Vec<Vec<u8>>,
        stats: PoolStats,
        /// Backing buffers alive on this thread, never reset.
        live: i64,
        /// High-water mark of `live` over the thread's life: the free
        /// list's bound.
        demand: i64,
    }

    thread_local! {
        static POOL: RefCell<PoolInner> = const {
            RefCell::new(PoolInner {
                free: Vec::new(),
                stats: PoolStats {
                    reused: 0,
                    allocated: 0,
                    reclaimed: 0,
                    live: 0,
                    live_peak: 0,
                },
                live: 0,
                demand: 0,
            })
        };
    }

    impl PoolStats {
        /// Fold another thread's counters into this one: counts and
        /// `live` add; `live_peak` adds too, making the absorbed value
        /// an **upper bound** on the true cross-thread peak (the
        /// threads' peaks need not have coincided in time).
        pub fn absorb(&mut self, other: &PoolStats) {
            self.reused += other.reused;
            self.allocated += other.allocated;
            self.reclaimed += other.reclaimed;
            self.live += other.live;
            self.live_peak += other.live_peak;
        }
    }

    /// Pool counters for the current thread.
    pub fn stats() -> PoolStats {
        POOL.try_with(|p| p.borrow().stats).unwrap_or_default()
    }

    /// Zero the counters for the current thread. `live`/`live_peak`
    /// restart from zero, so they gauge buffers born after the reset;
    /// buffers already outstanding debit below zero when they drop. The
    /// free list and its bound are untouched: a reset changes what the
    /// gauges read, never which buffers are kept.
    pub fn reset_stats() {
        let _ = POOL.try_with(|p| p.borrow_mut().stats = PoolStats::default());
    }

    /// Number of buffers currently parked on this thread's free list.
    pub fn free_buffers() -> usize {
        POOL.try_with(|p| p.borrow().free.len()).unwrap_or(0)
    }

    pub(crate) fn acquire(cap: usize) -> Vec<u8> {
        POOL.try_with(|p| {
            let mut p = p.borrow_mut();
            if let Some(mut v) = p.free.pop() {
                // Exact: `reserve` would double the buffer to amortise
                // pushes that a frame buffer, sized once, never makes.
                v.reserve_exact(cap);
                p.stats.reused += 1;
                return v;
            }
            p.stats.allocated += 1;
            Vec::with_capacity(cap)
        })
        .unwrap_or_else(|_| Vec::with_capacity(cap))
    }

    /// A `Bytes` backing buffer came alive on this thread.
    pub(crate) fn note_birth() {
        let _ = POOL.try_with(|p| {
            let mut p = p.borrow_mut();
            p.live += 1;
            p.demand = p.demand.max(p.live);
            p.stats.live += 1;
            p.stats.live_peak = p.stats.live_peak.max(p.stats.live);
        });
    }

    /// The last reference to a `Bytes` backing buffer dropped.
    pub(crate) fn note_death() {
        let _ = POOL.try_with(|p| {
            let mut p = p.borrow_mut();
            p.live -= 1;
            p.stats.live -= 1;
        });
    }

    pub(crate) fn reclaim(mut v: Vec<u8>) {
        if v.capacity() == 0 || v.capacity() > MAX_POOLED_CAPACITY {
            return;
        }
        let _ = POOL.try_with(|p| {
            let mut p = p.borrow_mut();
            if (p.free.len() as i64) < p.demand {
                v.clear();
                p.free.push(v);
                p.stats.reclaimed += 1;
            }
        });
    }
}

/// A cheaply cloneable, sliceable, immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    // `None` is the empty buffer, which owns no allocation. `Drop` takes
    // the `Arc` out and, when this was the last reference, recycles the
    // backing `Vec` through the pool.
    data: Option<Arc<Vec<u8>>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// The empty buffer. Allocates nothing, as in the upstream crate.
    pub const fn new() -> Bytes {
        Bytes {
            data: None,
            start: 0,
            end: 0,
        }
    }

    /// Wrap a static slice (no allocation in the real crate; here one
    /// buffer allocation, amortized by clones being free).
    pub fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes::copy_from_slice(bytes)
    }

    /// Copy a slice into a new buffer (recycled from the pool when one
    /// is available). An empty slice gives the empty buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        if data.is_empty() {
            return Bytes::new();
        }
        let mut v = pool::acquire(data.len());
        v.extend_from_slice(data);
        Bytes::from(v)
    }

    /// Length of the view.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// Zero-copy sub-view. Panics if the range is out of bounds,
    /// matching the upstream crate. An empty range gives the empty
    /// buffer, which keeps nothing alive.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice {lo}..{hi} out of bounds of {}",
            self.len()
        );
        if lo == hi {
            return Bytes::new();
        }
        Bytes {
            data: self.data.clone(),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Copy the view out into a `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Drop for Bytes {
    fn drop(&mut self) {
        // `into_inner` is one atomic decrement; `try_unwrap` would pay a
        // compare-exchange and then a decrement on every drop that is
        // not the last.
        if let Some(v) = self.data.take().and_then(Arc::into_inner) {
            pool::note_death();
            pool::reclaim(v);
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        match &self.data {
            Some(v) => &v[self.start..self.end],
            None => &[],
        }
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        // A capacity-0 vector holds no allocation: it becomes the empty
        // buffer, which never counts toward the live gauge.
        if v.capacity() == 0 {
            return Bytes::new();
        }
        pool::note_birth();
        let end = v.len();
        Bytes {
            data: Some(Arc::new(v)),
            start: 0,
            end,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<&'static str> for Bytes {
    fn from(s: &'static str) -> Bytes {
        Bytes::from_static(s.as_bytes())
    }
}

impl From<String> for Bytes {
    fn from(s: String) -> Bytes {
        Bytes::from(s.into_bytes())
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.to_vec()
    }
}

impl FromIterator<u8> for Bytes {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Bytes {
        Bytes::from(iter.into_iter().collect::<Vec<u8>>())
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        &self[..] == *other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self[..] == other[..]
    }
}
impl PartialEq<Bytes> for [u8] {
    fn eq(&self, other: &Bytes) -> bool {
        self == &other[..]
    }
}
impl PartialEq<Bytes> for Vec<u8> {
    fn eq(&self, other: &Bytes) -> bool {
        self[..] == other[..]
    }
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self[..].hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self[..].cmp(&other[..])
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self[..].iter()
    }
}

/// A growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut {
            data: pool::acquire(0),
        }
    }

    /// An empty buffer with reserved capacity.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            data: pool::acquire(cap),
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Append a slice.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }

    /// Reserve additional capacity.
    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    /// Convert into an immutable [`Bytes`] without copying.
    pub fn freeze(mut self) -> Bytes {
        Bytes::from(std::mem::take(&mut self.data))
    }

    /// Drop all contents.
    pub fn clear(&mut self) {
        self.data.clear();
    }

    /// Split off and return the first `at` bytes, leaving the rest.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        let rest = self.data.split_off(at);
        BytesMut {
            data: std::mem::replace(&mut self.data, rest),
        }
    }
}

impl Drop for BytesMut {
    fn drop(&mut self) {
        pool::reclaim(std::mem::take(&mut self.data));
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.data
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&Bytes::copy_from_slice(&self.data), f)
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(data: Vec<u8>) -> BytesMut {
        BytesMut { data }
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

/// Big-endian (network order) append operations, as the wire codecs use.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }
    /// Append a big-endian `u16`.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian `u32`.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a big-endian `u64`.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

/// Sequential read access (the tiny subset of `bytes::Buf` in use).
pub trait Buf {
    /// Bytes left to consume.
    fn remaining(&self) -> usize;
    /// The unconsumed bytes.
    fn chunk(&self) -> &[u8];
    /// Consume `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// Whether any bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance past end");
        self.start += cnt;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slices_share_storage_and_compare() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(s.slice(..2), Bytes::from(vec![2u8, 3]));
        assert_eq!(b.slice(4..), Bytes::from(vec![5u8]));
        assert_eq!(b.slice(..), b);
        assert!(b.slice(2..2).is_empty());
    }

    #[test]
    fn bytes_mut_put_and_freeze() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(0xAB);
        m.put_u16(0x0102);
        m.put_u32(0x03040506);
        m.put_slice(b"xy");
        let b = m.freeze();
        assert_eq!(&b[..], &[0xAB, 1, 2, 3, 4, 5, 6, b'x', b'y']);
    }

    #[test]
    fn equality_across_forms() {
        let b = Bytes::from_static(b"hello");
        assert_eq!(b, Bytes::copy_from_slice(b"hello"));
        assert_eq!(b, b"hello"[..]);
        assert_eq!(b.to_vec(), b"hello".to_vec());
        assert!(format!("{b:?}").contains("hello"));
    }

    #[test]
    fn buf_reading() {
        let mut b = Bytes::from(vec![9u8, 8, 7]);
        assert_eq!(b.remaining(), 3);
        b.advance(2);
        assert_eq!(b.chunk(), &[7]);
    }

    #[test]
    fn from_vec_is_a_move() {
        let v = vec![1u8; 64];
        let ptr = v.as_ptr();
        let b = Bytes::from(v);
        assert_eq!(b.as_ref().as_ptr(), ptr, "From<Vec<u8>> must not copy");
    }

    #[test]
    fn freeze_is_a_move() {
        let mut m = BytesMut::with_capacity(64);
        m.put_slice(&[7u8; 48]);
        let ptr = m.as_ref().as_ptr();
        let b = m.freeze();
        assert_eq!(b.as_ref().as_ptr(), ptr, "freeze must not copy");
    }

    #[test]
    fn slices_keep_buffer_alive_after_parent_drop() {
        let b = Bytes::from(vec![9u8; 32]);
        let s = b.slice(8..16);
        drop(b);
        assert_eq!(&s[..], &[9u8; 8]);
    }

    /// Run `f` on a thread of its own, so its pool starts empty.
    fn on_fresh_thread(f: impl FnOnce() + Send + 'static) {
        std::thread::spawn(f)
            .join()
            .expect("the test thread panicked");
    }

    #[test]
    fn pool_recycles_dropped_buffers() {
        on_fresh_thread(|| {
            drop(Bytes::from(vec![1u8; 256]));
            assert_eq!(pool::free_buffers(), 1, "drop should reclaim");
            let c = Bytes::copy_from_slice(&[2u8; 128]);
            assert_eq!(&c[..], &[2u8; 128]);
            assert_eq!(pool::stats().reused, 1, "copy should reuse the buffer");
        });
    }

    #[test]
    fn free_list_is_bounded_by_the_live_peak() {
        on_fresh_thread(|| {
            let live: Vec<Bytes> = (0..5u8).map(|i| Bytes::from(vec![i; 64])).collect();
            assert_eq!(pool::stats().live_peak, 5);
            drop(live);
            assert_eq!(pool::free_buffers(), 5);
            // Twenty scratch buffers at once: five come off the free list,
            // fifteen are fresh, and only five go back.
            let scratch: Vec<BytesMut> = (0..20).map(|_| BytesMut::with_capacity(64)).collect();
            assert_eq!(pool::stats().allocated, 15);
            drop(scratch);
            assert_eq!(pool::free_buffers(), 5);
            assert!(pool::free_buffers() as i64 <= pool::stats().live_peak);
        });
    }

    #[test]
    fn a_stats_reset_keeps_the_free_list_bound() {
        on_fresh_thread(|| {
            drop(
                (0..5u8)
                    .map(|i| Bytes::from(vec![i; 64]))
                    .collect::<Vec<_>>(),
            );
            assert_eq!(pool::free_buffers(), 5);
            pool::reset_stats();
            // One buffer alive at a time: the gauges' peak reads 1, but
            // the thread has shown it uses five.
            for _ in 0..5 {
                drop(Bytes::copy_from_slice(&[1u8; 64]));
            }
            assert_eq!(pool::stats().live_peak, 1);
            assert_eq!(pool::free_buffers(), 5, "a reset must not shrink the bound");
            let again: Vec<Bytes> = (0..5).map(|_| Bytes::copy_from_slice(&[2u8; 64])).collect();
            assert_eq!(pool::stats().allocated, 0);
            drop(again);
        });
    }

    #[test]
    fn recycled_buffers_grow_exactly() {
        on_fresh_thread(|| {
            drop(Bytes::from(Vec::<u8>::with_capacity(64)));
            assert_eq!(pool::free_buffers(), 1);
            let v = pool::acquire(100);
            assert_eq!(pool::stats().reused, 1);
            assert_eq!(v.capacity(), 100, "grown to the request, not doubled");
        });
    }

    #[test]
    fn live_gauge_tracks_births_and_last_drops() {
        pool::reset_stats();
        let base = pool::stats().live;
        let a = Bytes::from(vec![1u8; 32]);
        let b = Bytes::copy_from_slice(&[2u8; 32]);
        let c = Bytes::from(String::from("frozen payload"));
        assert_eq!(pool::stats().live, base + 3);
        assert!(pool::stats().live_peak >= base + 3);
        let view = a.slice(4..8); // clone of the same buffer: no birth
        assert_eq!(pool::stats().live, base + 3);
        drop(a); // `view` still holds the buffer
        assert_eq!(pool::stats().live, base + 3);
        drop(view);
        assert_eq!(pool::stats().live, base + 2);
        drop((b, c));
        assert_eq!(pool::stats().live, base);
        // Default/empty Bytes hold no allocation and never count.
        drop(Bytes::new());
        assert_eq!(pool::stats().live, base);
    }

    #[test]
    fn shared_buffers_are_not_reclaimed_early() {
        let b = Bytes::from(vec![5u8; 64]);
        let clone = b.clone();
        let before = pool::free_buffers();
        drop(b); // still referenced by `clone`
        assert_eq!(pool::free_buffers(), before);
        assert_eq!(&clone[..], &[5u8; 64]);
    }
}
