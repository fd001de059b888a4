//! Data-channel chunk format for the WebRTC datagram method.
//!
//! Models the subset of SCTP-over-DTLS-over-UDP that matters for delay
//! appraisal: a tiny fixed header carrying a chunk kind, stream id and
//! transmission sequence number (TSN), followed by the application
//! payload. Runs directly over [`super::udp::UdpDatagram`] payloads — no
//! retransmission, no ordering, no fragmentation, exactly the semantics
//! of an unreliable/unordered data channel (`maxRetransmits: 0`).
//!
//! The header is deliberately binary-prefixed but keeps the ASCII probe
//! marker verbatim in `payload`, so the capture-analysis "grep" used by
//! `core::matching` still finds markers by substring search.

use bytes::{BufMut, Bytes, BytesMut};

use super::WireError;

/// Chunk header length: kind (1) + flags (1) + stream (2) + seq (4) +
/// ppid (4).
pub const CHUNK_HEADER_LEN: usize = 12;

/// Chunk kinds understood by the data-channel layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkKind {
    /// DCEP DATA_CHANNEL_OPEN: client asks the peer to open a channel.
    DcepOpen,
    /// DCEP DATA_CHANNEL_ACK: peer confirms the channel is open.
    DcepAck,
    /// An application datagram on an open channel.
    Data,
}

impl ChunkKind {
    fn to_byte(self) -> u8 {
        match self {
            // DCEP message types from RFC 8832 §5.
            ChunkKind::DcepOpen => 0x03,
            ChunkKind::DcepAck => 0x02,
            ChunkKind::Data => 0x00,
        }
    }

    fn from_byte(b: u8) -> Result<ChunkKind, WireError> {
        match b {
            0x03 => Ok(ChunkKind::DcepOpen),
            0x02 => Ok(ChunkKind::DcepAck),
            0x00 => Ok(ChunkKind::Data),
            _ => Err(WireError::Malformed),
        }
    }
}

/// One data-channel chunk: the unit that rides in a UDP payload.
///
/// `seq` is the TSN. The transport never retransmits, reorders-back or
/// deduplicates — whatever the network does to the datagram is exactly
/// what the receiver observes, which is the whole point of the method.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataChunk {
    /// Chunk kind.
    pub kind: ChunkKind,
    /// Stream (channel) identifier.
    pub stream: u16,
    /// Transmission sequence number, assigned by the sender per stream.
    pub seq: u32,
    /// Payload protocol identifier (opaque to the transport).
    pub ppid: u32,
    /// Application payload (probe marker text for measurement chunks).
    pub payload: Bytes,
}

impl DataChunk {
    /// A DCEP DATA_CHANNEL_OPEN chunk for `stream`.
    pub fn open(stream: u16) -> DataChunk {
        DataChunk {
            kind: ChunkKind::DcepOpen,
            stream,
            seq: 0,
            ppid: 50, // DCEP PPID (RFC 8832)
            payload: Bytes::from_static(b"dcep open"),
        }
    }

    /// A DCEP DATA_CHANNEL_ACK chunk answering an open on `stream`.
    pub fn ack(stream: u16) -> DataChunk {
        DataChunk {
            kind: ChunkKind::DcepAck,
            stream,
            seq: 0,
            ppid: 50,
            payload: Bytes::from_static(b"dcep ack"),
        }
    }

    /// An application datagram on `stream` with sequence number `seq`.
    pub fn data(stream: u16, seq: u32, payload: Bytes) -> DataChunk {
        DataChunk {
            kind: ChunkKind::Data,
            stream,
            seq,
            ppid: 53, // WebRTC String PPID
            payload,
        }
    }

    /// Serialize into the byte layout carried inside a UDP payload.
    pub fn emit(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(CHUNK_HEADER_LEN + self.payload.len());
        buf.put_u8(self.kind.to_byte());
        buf.put_u8(0); // flags (unordered/unreliable is the only mode)
        buf.put_u16(self.stream);
        buf.put_u32(self.seq);
        buf.put_u32(self.ppid);
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parse a chunk from a UDP payload. The chunk's payload is a view
    /// into `data`.
    pub fn parse(data: &Bytes) -> Result<DataChunk, WireError> {
        if data.len() < CHUNK_HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let kind = ChunkKind::from_byte(data[0])?;
        Ok(DataChunk {
            kind,
            stream: u16::from_be_bytes([data[2], data[3]]),
            seq: u32::from_be_bytes([data[4], data[5], data[6], data[7]]),
            ppid: u32::from_be_bytes([data[8], data[9], data[10], data[11]]),
            payload: data.slice(CHUNK_HEADER_LEN..),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_roundtrip() {
        let c = DataChunk::data(1, 42, Bytes::from_static(b"probe m=webrtc r=3 t=7 ..."));
        let bytes = c.emit();
        let e = DataChunk::parse(&bytes).unwrap();
        assert_eq!(e, c);
        assert_eq!(e.seq, 42);
        assert_eq!(e.kind, ChunkKind::Data);
    }

    #[test]
    fn marker_stays_greppable() {
        // The capture matcher greps the UDP payload for the ASCII
        // marker; the binary chunk header must not obscure it.
        let marker = b"probe m=webrtc r=3 t=7 ";
        let bytes = DataChunk::data(1, 3, Bytes::copy_from_slice(marker)).emit();
        assert!(bytes.windows(marker.len()).any(|w| w == marker));
    }

    #[test]
    fn dcep_roundtrip() {
        for c in [DataChunk::open(5), DataChunk::ack(5)] {
            let e = DataChunk::parse(&c.emit()).unwrap();
            assert_eq!(e, c);
        }
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            DataChunk::parse(&Bytes::from_static(&[0u8; CHUNK_HEADER_LEN - 1])).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut bytes = DataChunk::open(1).emit().to_vec();
        bytes[0] = 0x7F;
        assert_eq!(
            DataChunk::parse(&Bytes::from(bytes)).unwrap_err(),
            WireError::Malformed
        );
    }
}
