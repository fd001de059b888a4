//! Packet capture taps — the simulator's WinDump/tcpdump.
//!
//! A tap attaches to one endpoint of a link and records every frame the
//! endpoint transmits or receives, together with a timestamp. The
//! experiment harness derives its ground-truth network timestamps
//! (`tN_s`, `tN_r` in Eq. 1 of the paper) exclusively from these records,
//! by parsing the raw frame bytes with [`crate::wire`].
//!
//! Software capturers are themselves imperfect — the paper cites an
//! accuracy worse than 0.3 ms for software capture — so a tap can model
//! timestamping noise with a uniform ± jitter bound. The default is exact
//! timestamps.
//!
//! A tap either retains its records (one handle to each frame) or
//! streams them to a [`CaptureSink`]. A streaming tap borrows each frame
//! for the sink's call and keeps nothing, and a sink that reads the
//! frame in place ([`crate::wire::FrameLayout::read`]) makes no view of
//! it either, so recording a frame costs no refcount operation at all.

use std::any::Any;

use bytes::Bytes;
use rand::rngs::SmallRng;
use rand::Rng;

use crate::time::SimTime;

/// Identifies a capture tap within an [`crate::engine::Engine`].
pub type TapId = usize;

/// Direction of a captured frame relative to the tapped node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureDir {
    /// The tapped node transmitted this frame.
    Tx,
    /// The tapped node received this frame.
    Rx,
}

/// One captured frame.
#[derive(Debug, Clone)]
pub struct CaptureRecord {
    /// Capture timestamp (possibly jittered; see [`CaptureBuffer`]).
    pub ts: SimTime,
    /// Direction relative to the tapped node.
    pub dir: CaptureDir,
    /// Raw Ethernet frame bytes.
    pub frame: Bytes,
}

/// Timestamping-noise model for a tap.
#[derive(Debug)]
pub enum TimestampNoise {
    /// Exact virtual-time stamps.
    Exact,
    /// Uniform noise in `[0, bound_ns]` added to each stamp (capture
    /// stamps lag the wire event; they never lead it). Stamps are
    /// additionally clamped to be monotone per tap — a real capturer's
    /// clock never runs backwards between records.
    UniformLag {
        /// Upper bound of the lag, nanoseconds.
        bound_ns: u64,
        /// Dedicated RNG stream.
        rng: SmallRng,
    },
}

/// Streaming consumer for a tap: sees every record as it is stamped, in
/// capture order, instead of the tap retaining it.
///
/// With a sink installed the tap holds no frame at all: `record`
/// borrows the link's frame for the `on_record` call and takes no
/// reference of its own, so pooled buffers recycle mid-run instead of
/// accumulating until the scenario ends. The sink observes exactly what
/// a retaining tap would have stored: the same noise-stamped timestamp
/// (the noise RNG stream and the monotonicity clamp are shared code),
/// the same direction, the same frame bytes. A run with a sink is
/// therefore bit-equivalent to a retained run followed by a replay of
/// `records()` — the parity the streaming pipeline relies on.
pub trait CaptureSink: std::fmt::Debug {
    /// Observe one stamped record. `frame` is borrowed for the call; a
    /// sink that scans it in place (`wire::FrameLayout::read`) makes no
    /// view of it.
    fn on_record(&mut self, ts: SimTime, dir: CaptureDir, frame: &Bytes);
    /// Downcast support for retrieving concrete sink state after a run.
    fn as_any(&self) -> &dyn Any;
    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// A buffer of captured frames for one tap.
#[derive(Debug)]
pub struct CaptureBuffer {
    /// Human-readable tap name (e.g. `"client-nic"`).
    pub name: String,
    records: Vec<CaptureRecord>,
    noise: TimestampNoise,
    /// Last stamped timestamp, for the monotonicity clamp under noise.
    last_ts: SimTime,
    /// Streaming consumer; when present, records are fed to it instead
    /// of being retained.
    sink: Option<Box<dyn CaptureSink>>,
    /// Total records stamped, retained or streamed.
    total: u64,
}

impl CaptureBuffer {
    /// A tap with exact timestamps that records whole frames.
    pub fn new(name: impl Into<String>) -> Self {
        CaptureBuffer {
            name: name.into(),
            records: Vec::new(),
            noise: TimestampNoise::Exact,
            last_ts: SimTime::ZERO,
            sink: None,
            total: 0,
        }
    }

    /// Replace the noise model.
    pub fn with_noise(mut self, noise: TimestampNoise) -> Self {
        self.noise = noise;
        self
    }

    /// Record one frame at wire-event time `ts`.
    ///
    /// Borrows the frame. A sink reads it for the call; only a
    /// retaining tap clones it, and `Bytes` is a refcounted view, so
    /// the record indexes into the same allocation the wire delivered:
    /// nothing is copied either way.
    pub fn record(&mut self, ts: SimTime, dir: CaptureDir, frame: &Bytes) {
        let stamped = match &mut self.noise {
            TimestampNoise::Exact => ts,
            TimestampNoise::UniformLag { bound_ns, rng } => {
                let lag = if *bound_ns == 0 {
                    0
                } else {
                    rng.gen_range(0..=*bound_ns)
                };
                // Clamp to the previous record's stamp: independent lag
                // draws could otherwise order two nearby records
                // backwards, which a real pcap never shows (the capture
                // clock is read monotonically per tap).
                (ts + crate::time::SimDuration::from_nanos(lag)).max(self.last_ts)
            }
        };
        self.last_ts = stamped;
        self.total += 1;
        if let Some(sink) = &mut self.sink {
            sink.on_record(stamped, dir, frame);
        } else {
            self.records.push(CaptureRecord {
                ts: stamped,
                dir,
                frame: frame.clone(),
            });
        }
    }

    /// Install a streaming sink: subsequent records are fed to it and
    /// not retained. Records captured before the switch stay in place.
    pub fn set_sink(&mut self, sink: Box<dyn CaptureSink>) {
        self.sink = Some(sink);
    }

    /// Remove and return the sink (e.g. to extract its accumulated
    /// state after a run); the tap reverts to retaining records.
    pub fn take_sink(&mut self) -> Option<Box<dyn CaptureSink>> {
        self.sink.take()
    }

    /// Move all retained records out of the tap, leaving it empty.
    ///
    /// This is the batch-mode half of the streaming pipeline: once a
    /// session's capture has been drained for matching, the consumer
    /// drops the records as it finishes with them and the pooled frame
    /// buffers recycle without waiting for the whole scenario's taps to
    /// be torn down. Noise state (the monotonicity clamp) is preserved,
    /// so a tap can keep recording after a drain.
    pub fn drain(&mut self) -> Vec<CaptureRecord> {
        std::mem::take(&mut self.records)
    }

    /// All records in capture order.
    pub fn records(&self) -> &[CaptureRecord] {
        &self.records
    }

    /// Total records stamped over the tap's lifetime, counting both
    /// retained and streamed (sink-consumed) records.
    pub fn total_recorded(&self) -> u64 {
        self.total
    }

    /// Number of retained frames (streamed records are not counted;
    /// see [`CaptureBuffer::total_recorded`]).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Drop all records (e.g. after the preparation phase, so the
    /// measurement phase starts from a clean trace).
    pub fn clear(&mut self) {
        self.records.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng;

    #[test]
    fn records_in_order() {
        let mut buf = CaptureBuffer::new("t");
        buf.record(
            SimTime::from_millis(1),
            CaptureDir::Tx,
            &Bytes::from_static(b"a"),
        );
        buf.record(
            SimTime::from_millis(2),
            CaptureDir::Rx,
            &Bytes::from_static(b"b"),
        );
        assert_eq!(buf.len(), 2);
        assert_eq!(buf.records()[0].dir, CaptureDir::Tx);
        assert_eq!(buf.records()[1].ts, SimTime::from_millis(2));
    }

    #[test]
    fn noise_only_lags() {
        let noise = TimestampNoise::UniformLag {
            bound_ns: 300_000, // 0.3 ms, the paper's software-capture bound
            rng: rng::stream(9, "cap"),
        };
        let mut buf = CaptureBuffer::new("t").with_noise(noise);
        let t = SimTime::from_millis(10);
        for _ in 0..100 {
            buf.record(t, CaptureDir::Rx, &Bytes::from_static(b"x"));
        }
        for r in buf.records() {
            assert!(r.ts >= t);
            assert!(r.ts.as_nanos() - t.as_nanos() <= 300_000);
        }
    }

    #[test]
    fn noisy_stamps_stay_monotone() {
        let noise = TimestampNoise::UniformLag {
            bound_ns: 300_000,
            rng: rng::stream(11, "cap"),
        };
        let mut buf = CaptureBuffer::new("t").with_noise(noise);
        // Records arriving a few ns apart: without clamping, a large lag
        // on an early record would order it after a later one.
        for i in 0..500u64 {
            buf.record(
                SimTime::from_nanos(i * 10),
                CaptureDir::Rx,
                &Bytes::from_static(b"x"),
            );
        }
        let mut prev = SimTime::ZERO;
        for r in buf.records() {
            assert!(r.ts >= prev, "stamp went backwards: {:?} < {prev:?}", r.ts);
            prev = r.ts;
        }
    }

    #[test]
    fn clear_empties() {
        let mut buf = CaptureBuffer::new("t");
        buf.record(SimTime::ZERO, CaptureDir::Tx, &Bytes::from_static(b"a"));
        buf.clear();
        assert!(buf.is_empty());
    }

    #[test]
    fn drain_moves_records_out_and_keeps_recording() {
        let mut buf = CaptureBuffer::new("t");
        buf.record(
            SimTime::from_millis(1),
            CaptureDir::Tx,
            &Bytes::from_static(b"a"),
        );
        buf.record(
            SimTime::from_millis(2),
            CaptureDir::Rx,
            &Bytes::from_static(b"b"),
        );
        let drained = buf.drain();
        assert_eq!(drained.len(), 2);
        assert!(buf.is_empty());
        buf.record(
            SimTime::from_millis(3),
            CaptureDir::Tx,
            &Bytes::from_static(b"c"),
        );
        assert_eq!(buf.len(), 1);
        assert_eq!(buf.total_recorded(), 3);
    }

    /// Mirror sink used to prove stream-vs-retain equivalence.
    #[derive(Debug, Default)]
    struct Mirror {
        seen: Vec<(SimTime, CaptureDir, Vec<u8>)>,
    }
    impl CaptureSink for Mirror {
        fn on_record(&mut self, ts: SimTime, dir: CaptureDir, frame: &Bytes) {
            self.seen.push((ts, dir, frame.to_vec()));
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn sink_observes_exactly_what_retention_would_store() {
        // Two taps with identical noise streams, one retaining and one
        // streaming: the sink must see the same stamps, directions and
        // bytes the retained tap stores.
        let mk_noise = || TimestampNoise::UniformLag {
            bound_ns: 250_000,
            rng: rng::stream(41, "cap"),
        };
        let mut retained = CaptureBuffer::new("a").with_noise(mk_noise());
        let mut streamed = CaptureBuffer::new("b").with_noise(mk_noise());
        streamed.set_sink(Box::new(Mirror::default()));
        for i in 0..200u64 {
            let dir = if i % 3 == 0 {
                CaptureDir::Tx
            } else {
                CaptureDir::Rx
            };
            let frame = Bytes::copy_from_slice(&[i as u8; 6]);
            retained.record(SimTime::from_nanos(i * 50), dir, &frame);
            streamed.record(SimTime::from_nanos(i * 50), dir, &frame);
        }
        assert!(streamed.is_empty(), "streaming tap must retain nothing");
        assert_eq!(streamed.total_recorded(), 200);
        let sink = streamed.take_sink().unwrap();
        let mirror = sink.as_any().downcast_ref::<Mirror>().unwrap();
        assert_eq!(mirror.seen.len(), retained.len());
        for (got, want) in mirror.seen.iter().zip(retained.records()) {
            assert_eq!(got.0, want.ts);
            assert_eq!(got.1, want.dir);
            assert_eq!(got.2, want.frame.to_vec());
        }
    }
}
