//! libpcap file writer.
//!
//! Serializes a [`CaptureBuffer`] into the
//! classic libpcap format (magic `0xa1b2c3d4`, version 2.4, LINKTYPE_ETHERNET)
//! so traces from the simulator open directly in Wireshark/tcpdump — the
//! same artifact the paper's authors worked from.

use std::io::{self, Write};
use std::path::Path;

use crate::capture::CaptureBuffer;

/// libpcap magic for microsecond timestamps.
const MAGIC: u32 = 0xa1b2_c3d4;
/// LINKTYPE_ETHERNET.
const LINKTYPE_EN10MB: u32 = 1;

/// Write the global libpcap header.
fn write_global_header<W: Write>(w: &mut W, snaplen: u32) -> io::Result<()> {
    w.write_all(&MAGIC.to_le_bytes())?;
    w.write_all(&2u16.to_le_bytes())?; // version major
    w.write_all(&4u16.to_le_bytes())?; // version minor
    w.write_all(&0i32.to_le_bytes())?; // thiszone
    w.write_all(&0u32.to_le_bytes())?; // sigfigs
    w.write_all(&snaplen.to_le_bytes())?;
    w.write_all(&LINKTYPE_EN10MB.to_le_bytes())?;
    Ok(())
}

/// Stream `buffer` as a pcap byte stream into any writer.
///
/// Records are written straight from the capture's shared frame
/// buffers — no intermediate full-trace copy is materialized, so
/// exporting a capture costs one pass over the records regardless of
/// trace size.
pub fn write_to<W: Write>(buffer: &CaptureBuffer, w: &mut W) -> io::Result<()> {
    write_global_header(w, 65535)?;
    for rec in buffer.records() {
        let ts_ns = rec.ts.as_nanos();
        let ts_sec = (ts_ns / 1_000_000_000) as u32;
        let ts_usec = ((ts_ns % 1_000_000_000) / 1_000) as u32;
        let len = rec.frame.len() as u32;
        w.write_all(&ts_sec.to_le_bytes())?;
        w.write_all(&ts_usec.to_le_bytes())?;
        w.write_all(&len.to_le_bytes())?; // incl_len
        w.write_all(&len.to_le_bytes())?; // orig_len
        w.write_all(&rec.frame)?;
    }
    Ok(())
}

/// Serialize `buffer` as a pcap byte stream in memory.
pub fn to_bytes(buffer: &CaptureBuffer) -> Vec<u8> {
    let mut out = Vec::new();
    write_to(buffer, &mut out).expect("writing to Vec cannot fail");
    out
}

/// Write `buffer` to a `.pcap` file at `path`, streaming records
/// through a buffered writer instead of building the trace in memory.
pub fn write_file(buffer: &CaptureBuffer, path: &Path) -> io::Result<()> {
    let file = std::fs::File::create(path)?;
    let mut w = io::BufWriter::new(file);
    write_to(buffer, &mut w)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::capture::{CaptureBuffer, CaptureDir};
    use crate::time::SimTime;
    use bytes::Bytes;

    fn sample_buffer() -> CaptureBuffer {
        let mut b = CaptureBuffer::new("test");
        b.record(
            SimTime::from_nanos(1_500_002_000),
            CaptureDir::Tx,
            &Bytes::from_static(&[0xAA; 60]),
        );
        b.record(
            SimTime::from_millis(1600),
            CaptureDir::Rx,
            &Bytes::from_static(&[0xBB; 100]),
        );
        b
    }

    #[test]
    fn global_header_layout() {
        let bytes = to_bytes(&CaptureBuffer::new("empty"));
        assert_eq!(bytes.len(), 24);
        assert_eq!(&bytes[0..4], &MAGIC.to_le_bytes());
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), 2);
        assert_eq!(u16::from_le_bytes([bytes[6], bytes[7]]), 4);
        assert_eq!(
            u32::from_le_bytes([bytes[20], bytes[21], bytes[22], bytes[23]]),
            LINKTYPE_EN10MB
        );
    }

    #[test]
    fn record_headers_and_payloads() {
        let bytes = to_bytes(&sample_buffer());
        // 24 global + (16 + 60) + (16 + 100)
        assert_eq!(bytes.len(), 24 + 76 + 116);
        // First record header at offset 24.
        let r = &bytes[24..];
        let ts_sec = u32::from_le_bytes([r[0], r[1], r[2], r[3]]);
        let ts_usec = u32::from_le_bytes([r[4], r[5], r[6], r[7]]);
        let incl = u32::from_le_bytes([r[8], r[9], r[10], r[11]]);
        let orig = u32::from_le_bytes([r[12], r[13], r[14], r[15]]);
        assert_eq!(ts_sec, 1);
        assert_eq!(ts_usec, 500_002);
        assert_eq!(incl, 60);
        assert_eq!(orig, 60);
        assert_eq!(&r[16..20], &[0xAA; 4]);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("bnm_pcap_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.pcap");
        write_file(&sample_buffer(), &path).unwrap();
        let on_disk = std::fs::read(&path).unwrap();
        assert_eq!(on_disk, to_bytes(&sample_buffer()));
        std::fs::remove_file(&path).ok();
    }
}
