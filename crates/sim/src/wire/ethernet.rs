//! Ethernet II framing.

use bytes::{BufMut, Bytes, BytesMut};
use std::fmt;

use super::WireError;

/// Length of the Ethernet II header.
pub const HEADER_LEN: usize = 14;

/// A 48-bit MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address `ff:ff:ff:ff:ff:ff`.
    pub const BROADCAST: MacAddr = MacAddr([0xFF; 6]);

    /// Locally-administered unicast address derived from a small host
    /// index, in the style of smoltcp's examples (`02-00-00-00-00-XX`).
    pub const fn local(index: u8) -> MacAddr {
        MacAddr([0x02, 0, 0, 0, 0, index])
    }

    /// Whether this is the broadcast address.
    pub fn is_broadcast(&self) -> bool {
        *self == Self::BROADCAST
    }

    /// Whether the group bit (multicast/broadcast) is set.
    pub fn is_multicast(&self) -> bool {
        self.0[0] & 0x01 != 0
    }
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

/// The 16-bit ethertype field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EtherType {
    /// 0x0800.
    Ipv4,
    /// Anything else (carried verbatim).
    Other(u16),
}

impl EtherType {
    /// Numeric value.
    pub fn value(self) -> u16 {
        match self {
            EtherType::Ipv4 => 0x0800,
            EtherType::Other(v) => v,
        }
    }

    /// From the numeric value.
    pub fn from_value(v: u16) -> Self {
        match v {
            0x0800 => EtherType::Ipv4,
            other => EtherType::Other(other),
        }
    }
}

/// An Ethernet II frame (no FCS; the simulator models corruption at the
/// payload level and the upper-layer checksums catch it).
#[derive(Debug, Clone)]
pub struct EthernetFrame {
    /// Destination MAC.
    pub dst: MacAddr,
    /// Source MAC.
    pub src: MacAddr,
    /// Ethertype of the payload.
    pub ethertype: EtherType,
    /// Layer-3 payload.
    pub payload: Bytes,
}

/// Append an Ethernet II header.
pub(super) fn put_header(buf: &mut BytesMut, dst: MacAddr, src: MacAddr, ethertype: EtherType) {
    buf.put_slice(&dst.0);
    buf.put_slice(&src.0);
    buf.put_u16(ethertype.value());
}

/// Destination MAC, source MAC and ethertype of a frame, read from its
/// 14-byte header alone (all a switch needs to forward it).
pub(crate) fn parse_header(data: &[u8]) -> Result<(MacAddr, MacAddr, EtherType), WireError> {
    if data.len() < HEADER_LEN {
        return Err(WireError::Truncated);
    }
    let mac = |at: usize| MacAddr(data[at..at + 6].try_into().expect("six header bytes"));
    let ethertype = EtherType::from_value(u16::from_be_bytes([data[12], data[13]]));
    Ok((mac(0), mac(6), ethertype))
}

impl EthernetFrame {
    /// Serialize to raw bytes.
    pub fn emit(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_len());
        put_header(&mut buf, self.dst, self.src, self.ethertype);
        buf.put_slice(&self.payload);
        buf.freeze()
    }

    /// Parse from raw bytes. The payload is a view into `data`.
    pub fn parse(data: &Bytes) -> Result<EthernetFrame, WireError> {
        let (dst, src, ethertype) = parse_header(data)?;
        Ok(EthernetFrame {
            dst,
            src,
            ethertype,
            payload: data.slice(HEADER_LEN..),
        })
    }

    /// Total frame length on the wire.
    pub fn wire_len(&self) -> usize {
        HEADER_LEN + self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        let f = EthernetFrame {
            dst: MacAddr::local(1),
            src: MacAddr::local(2),
            ethertype: EtherType::Ipv4,
            payload: Bytes::from_static(b"hello"),
        };
        let bytes = f.emit();
        assert_eq!(bytes.len(), 19);
        let g = EthernetFrame::parse(&bytes).unwrap();
        assert_eq!(g.dst, MacAddr::local(1));
        assert_eq!(g.src, MacAddr::local(2));
        assert_eq!(g.ethertype, EtherType::Ipv4);
        assert_eq!(&g.payload[..], b"hello");
    }

    #[test]
    fn too_short_is_truncated() {
        assert_eq!(
            EthernetFrame::parse(&Bytes::from_static(&[0u8; 13])).unwrap_err(),
            WireError::Truncated
        );
    }

    #[test]
    fn mac_properties() {
        assert!(MacAddr::BROADCAST.is_broadcast());
        assert!(MacAddr::BROADCAST.is_multicast());
        assert!(!MacAddr::local(3).is_multicast());
        assert_eq!(format!("{}", MacAddr::local(0x0a)), "02:00:00:00:00:0a");
    }

    #[test]
    fn unknown_ethertype_preserved() {
        assert_eq!(EtherType::from_value(0x86DD).value(), 0x86DD);
    }
}
