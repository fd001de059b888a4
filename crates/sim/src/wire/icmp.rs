//! ICMPv4 echo (ping) messages.
//!
//! The related work the paper discusses (Yeboah et al., §6) compares
//! browser-based delay measurements against ICMP ping; this module gives
//! the reproduction the same baseline. Only echo request/reply are
//! modelled — exactly what `ping` uses.

use bytes::{BufMut, Bytes, BytesMut};
use std::ops::Range;

use super::checksum;
use super::WireError;

/// ICMP header length (echo variant).
pub const HEADER_LEN: usize = 8;

/// The header fields of an ICMPv4 echo message, read in place by
/// [`IcmpHeader::read`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IcmpHeader {
    /// True for echo request (type 8), false for reply (type 0).
    pub is_request: bool,
    /// Identifier.
    pub ident: u16,
    /// Sequence number.
    pub seq: u16,
}

impl IcmpHeader {
    /// Verify `data` as an ICMP echo message (the checksum, type and
    /// code) and read its header. The payload is `data[range]`.
    pub fn read(data: &[u8]) -> Result<(IcmpHeader, Range<usize>), WireError> {
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        if !checksum::verify(checksum::sum(0, data)) {
            return Err(WireError::BadChecksum);
        }
        let is_request = match data[0] {
            8 => true,
            0 => false,
            _ => return Err(WireError::Malformed),
        };
        if data[1] != 0 {
            return Err(WireError::Malformed);
        }
        let header = IcmpHeader {
            is_request,
            ident: u16::from_be_bytes([data[4], data[5]]),
            seq: u16::from_be_bytes([data[6], data[7]]),
        };
        Ok((header, HEADER_LEN..data.len()))
    }

    /// The message these header fields and `payload` make.
    pub fn echo(self, payload: Bytes) -> IcmpEcho {
        IcmpEcho {
            is_request: self.is_request,
            ident: self.ident,
            seq: self.seq,
            payload,
        }
    }
}

/// An ICMPv4 echo message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IcmpEcho {
    /// True for echo request (type 8), false for reply (type 0).
    pub is_request: bool,
    /// Identifier (ping process id).
    pub ident: u16,
    /// Sequence number.
    pub seq: u16,
    /// Payload (ping pattern + timestamp bytes).
    pub payload: Bytes,
}

impl IcmpEcho {
    /// Length of the emitted message: header and payload.
    pub(crate) fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Append the message to `buf`, with a valid checksum.
    pub(super) fn put(&self, buf: &mut BytesMut) {
        let start = buf.len();
        buf.put_u8(if self.is_request { 8 } else { 0 });
        buf.put_u8(0); // code
        buf.put_u16(0); // checksum placeholder
        buf.put_u16(self.ident);
        buf.put_u16(self.seq);
        buf.put_slice(&self.payload);
        let c = checksum::checksum(&buf[start..]);
        buf[start + 2..start + 4].copy_from_slice(&c.to_be_bytes());
    }

    /// Serialize with a valid checksum.
    pub fn emit(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        self.put(&mut buf);
        buf.freeze()
    }

    /// Parse and verify the checksum ([`IcmpHeader::read`]). The
    /// payload is a view into `data`.
    pub fn parse(data: &Bytes) -> Result<IcmpEcho, WireError> {
        let (header, payload) = IcmpHeader::read(data)?;
        Ok(header.echo(data.slice(payload)))
    }

    /// The reply to this request (echoes the payload, per RFC 792).
    pub fn reply(&self) -> IcmpEcho {
        IcmpEcho {
            is_request: false,
            ident: self.ident,
            seq: self.seq,
            payload: self.payload.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request() -> IcmpEcho {
        IcmpEcho {
            is_request: true,
            ident: 0x1234,
            seq: 7,
            payload: Bytes::from_static(b"ping payload 0123456789"),
        }
    }

    #[test]
    fn roundtrip_request() {
        let r = request();
        let parsed = IcmpEcho::parse(&r.emit()).unwrap();
        assert_eq!(parsed, r);
    }

    #[test]
    fn reply_mirrors_request() {
        let req = request();
        let rep = req.reply();
        assert!(!rep.is_request);
        assert_eq!(rep.ident, req.ident);
        assert_eq!(rep.seq, req.seq);
        assert_eq!(rep.payload, req.payload);
        let parsed = IcmpEcho::parse(&rep.emit()).unwrap();
        assert_eq!(parsed, rep);
    }

    #[test]
    fn corruption_detected() {
        let mut bytes = request().emit().to_vec();
        bytes[6] ^= 0x40;
        assert_eq!(
            IcmpEcho::parse(&Bytes::from(bytes)).unwrap_err(),
            WireError::BadChecksum
        );
    }

    #[test]
    fn non_echo_types_rejected() {
        // Type 3 (destination unreachable) is not an echo message.
        let mut buf = vec![3u8, 0, 0, 0, 0, 0, 0, 0];
        let c = checksum::checksum(&buf);
        buf[2..4].copy_from_slice(&c.to_be_bytes());
        assert_eq!(
            IcmpEcho::parse(&Bytes::from(buf)).unwrap_err(),
            WireError::Malformed
        );
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(
            IcmpEcho::parse(&Bytes::from_static(&[8, 0, 0])).unwrap_err(),
            WireError::Truncated
        );
    }
}
