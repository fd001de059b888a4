//! UDP datagram emission and parsing.

use bytes::{BufMut, Bytes, BytesMut};
use std::net::Ipv4Addr;
use std::ops::Range;

use super::checksum;
use super::WireError;

/// UDP header length.
pub const HEADER_LEN: usize = 8;

/// The header fields of a UDP datagram, read in place by
/// [`UdpHeader::read`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UdpHeader {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
}

impl UdpHeader {
    /// Verify `data` as a UDP datagram between `src_ip` and `dst_ip`
    /// (the length field and, unless it is zero, the checksum) and read
    /// its header. The payload is `data[range]`.
    pub fn read(
        data: &[u8],
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
    ) -> Result<(UdpHeader, Range<usize>), WireError> {
        if data.len() < HEADER_LEN {
            return Err(WireError::Truncated);
        }
        let len = u16::from_be_bytes([data[4], data[5]]) as usize;
        if len < HEADER_LEN || len > data.len() {
            return Err(WireError::BadLength);
        }
        let cksum = u16::from_be_bytes([data[6], data[7]]);
        if cksum != 0 {
            let mut acc = checksum::pseudo_header(src_ip, dst_ip, 17, len);
            acc = checksum::sum(acc, &data[..len]);
            if !checksum::verify(acc) {
                return Err(WireError::BadChecksum);
            }
        }
        let header = UdpHeader {
            src_port: u16::from_be_bytes([data[0], data[1]]),
            dst_port: u16::from_be_bytes([data[2], data[3]]),
        };
        Ok((header, HEADER_LEN..len))
    }

    /// The datagram these header fields and `payload` make.
    pub fn datagram(self, payload: Bytes) -> UdpDatagram {
        UdpDatagram {
            src_port: self.src_port,
            dst_port: self.dst_port,
            payload,
        }
    }
}

/// A UDP datagram.
#[derive(Debug, Clone)]
pub struct UdpDatagram {
    /// Source port.
    pub src_port: u16,
    /// Destination port.
    pub dst_port: u16,
    /// Application payload.
    pub payload: Bytes,
}

impl UdpDatagram {
    /// Length of the emitted datagram: header and payload.
    pub(crate) fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }

    /// Append the datagram to `buf`, with a valid checksum.
    pub(super) fn put(&self, buf: &mut BytesMut, src_ip: Ipv4Addr, dst_ip: Ipv4Addr) {
        let start = buf.len();
        let total = self.wire_len();
        buf.put_u16(self.src_port);
        buf.put_u16(self.dst_port);
        buf.put_u16(total as u16);
        buf.put_u16(0); // checksum placeholder
        buf.put_slice(&self.payload);
        let mut acc = checksum::pseudo_header(src_ip, dst_ip, 17, total);
        acc = checksum::sum(acc, &buf[start..]);
        let mut c = checksum::finish(acc);
        // RFC 768: a computed zero checksum is transmitted as all ones.
        if c == 0 {
            c = 0xFFFF;
        }
        buf[start + 6..start + 8].copy_from_slice(&c.to_be_bytes());
    }

    /// Serialize with a valid checksum.
    pub fn emit(&self, src_ip: Ipv4Addr, dst_ip: Ipv4Addr) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        self.put(&mut buf, src_ip, dst_ip);
        buf.freeze()
    }

    /// Parse and verify length and checksum ([`UdpHeader::read`]). The
    /// payload is a view into `data`.
    pub fn parse(
        data: &Bytes,
        src_ip: Ipv4Addr,
        dst_ip: Ipv4Addr,
    ) -> Result<UdpDatagram, WireError> {
        let (header, payload) = UdpHeader::read(data, src_ip, dst_ip)?;
        Ok(header.datagram(data.slice(payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);
    const B: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);

    #[test]
    fn roundtrip() {
        let d = UdpDatagram {
            src_port: 5000,
            dst_port: 7,
            payload: Bytes::from_static(b"ping-round-1"),
        };
        let bytes = d.emit(A, B);
        let e = UdpDatagram::parse(&bytes, A, B).unwrap();
        assert_eq!(e.src_port, 5000);
        assert_eq!(e.dst_port, 7);
        assert_eq!(&e.payload[..], b"ping-round-1");
    }

    #[test]
    fn corruption_detected() {
        let d = UdpDatagram {
            src_port: 1,
            dst_port: 2,
            payload: Bytes::from_static(b"x"),
        };
        let mut bytes = d.emit(A, B).to_vec();
        bytes[8] ^= 0x01;
        assert_eq!(
            UdpDatagram::parse(&Bytes::from(bytes), A, B).unwrap_err(),
            WireError::BadChecksum
        );
    }

    #[test]
    fn empty_payload_ok() {
        let d = UdpDatagram {
            src_port: 9,
            dst_port: 9,
            payload: Bytes::new(),
        };
        let e = UdpDatagram::parse(&d.emit(A, B), A, B).unwrap();
        assert!(e.payload.is_empty());
    }

    #[test]
    fn bad_length_field() {
        let d = UdpDatagram {
            src_port: 9,
            dst_port: 9,
            payload: Bytes::from_static(b"abc"),
        };
        let mut bytes = d.emit(A, B).to_vec();
        bytes[4] = 0xFF;
        bytes[5] = 0xFF;
        assert_eq!(
            UdpDatagram::parse(&Bytes::from(bytes), A, B).unwrap_err(),
            WireError::BadLength
        );
    }
}
