//! Byte-exact wire formats: Ethernet II, IPv4, TCP, UDP.
//!
//! Frames that travel over simulated links are real packet bytes. The
//! experiment harness recovers its ground-truth timestamps (`tN` in the
//! paper's Eq. 1) by parsing capture-tap records with these parsers — the
//! same workflow as running WinDump/tcpdump next to a browser.
//!
//! A frame is one buffer. [`Envelope`] writes the Ethernet, IPv4 and
//! transport headers, every checksum and the payload into it in one
//! pass; each layer's own `emit` is the layered reference it must equal
//! byte for byte. Every parser takes the frame's `&Bytes` and returns
//! payloads as views into it (`Bytes::slice`), so reading a frame copies
//! nothing, while every checksum is still verified.

pub mod checksum;
pub mod datagram;
pub mod ethernet;
pub mod icmp;
pub mod ipv4;
pub mod tcp;
pub mod udp;

pub use datagram::{ChunkKind, DataChunk};
pub use ethernet::{EtherType, EthernetFrame, MacAddr};
pub use icmp::IcmpEcho;
pub use ipv4::{IpProtocol, Ipv4Packet};
pub use tcp::{TcpFlags, TcpSegment};
pub use udp::UdpDatagram;

use bytes::{Bytes, BytesMut};
use std::fmt;
use std::net::Ipv4Addr;

/// Errors raised while parsing or emitting wire formats.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Buffer shorter than the fixed header.
    Truncated,
    /// A checksum failed to verify.
    BadChecksum,
    /// A length field disagrees with the buffer.
    BadLength,
    /// A version/format field has an unsupported value.
    Malformed,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::BadChecksum => write!(f, "checksum mismatch"),
            WireError::BadLength => write!(f, "length field mismatch"),
            WireError::Malformed => write!(f, "malformed header"),
        }
    }
}

impl std::error::Error for WireError {}

/// The link and network header fields of an Ethernet II + IPv4 frame,
/// for building a whole frame in one buffer.
///
/// `envelope.tcp(&seg)` equals the layered
/// `EthernetFrame { payload: Ipv4Packet { payload: seg.emit(src_ip, dst_ip), .. }.emit(), .. }.emit()`
/// byte for byte, and likewise [`Envelope::udp`] and [`Envelope::icmp`],
/// but it allocates one buffer instead of three and copies the payload
/// once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope {
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source MAC.
    pub src_mac: MacAddr,
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// IPv4 time to live.
    pub ttl: u8,
    /// IPv4 identification field.
    pub ident: u16,
}

impl Envelope {
    /// A TCP segment in a frame.
    pub fn tcp(&self, seg: &TcpSegment) -> Bytes {
        self.frame(IpProtocol::Tcp, seg.wire_len(), |buf| {
            seg.put(buf, self.src_ip, self.dst_ip)
        })
    }

    /// A UDP datagram in a frame.
    pub fn udp(&self, dgram: &UdpDatagram) -> Bytes {
        self.frame(IpProtocol::Udp, dgram.wire_len(), |buf| {
            dgram.put(buf, self.src_ip, self.dst_ip)
        })
    }

    /// An ICMP echo message in a frame.
    pub fn icmp(&self, echo: &IcmpEcho) -> Bytes {
        self.frame(IpProtocol::Icmp, echo.wire_len(), |buf| echo.put(buf))
    }

    /// The two headers, then the `transport_len` bytes `put` appends.
    fn frame(
        &self,
        protocol: IpProtocol,
        transport_len: usize,
        put: impl FnOnce(&mut BytesMut),
    ) -> Bytes {
        let len = ethernet::HEADER_LEN + ipv4::HEADER_LEN + transport_len;
        let mut buf = BytesMut::with_capacity(len);
        ethernet::put_header(&mut buf, self.dst_mac, self.src_mac, EtherType::Ipv4);
        ipv4::put_header(
            &mut buf,
            self.src_ip,
            self.dst_ip,
            protocol,
            self.ttl,
            self.ident,
            transport_len,
        );
        put(&mut buf);
        debug_assert_eq!(buf.len(), len);
        buf.freeze()
    }
}

/// A fully parsed client-visible packet: Ethernet → IPv4 → TCP/UDP.
///
/// Convenience for capture-analysis code that wants to go from raw frame
/// bytes to transport payload in one call.
#[derive(Debug, Clone)]
pub struct ParsedPacket {
    /// Link-layer header.
    pub eth: EthernetFrame,
    /// Network-layer header (present for IPv4 ethertype).
    pub ip: Ipv4Packet,
    /// Transport-layer content.
    pub transport: Transport,
}

/// Transport-layer content of a [`ParsedPacket`].
#[derive(Debug, Clone)]
pub enum Transport {
    /// A TCP segment.
    Tcp(TcpSegment),
    /// A UDP datagram.
    Udp(UdpDatagram),
    /// An ICMP echo message.
    Icmp(IcmpEcho),
    /// An IP protocol this crate does not parse further.
    Other(u8),
}

impl ParsedPacket {
    /// Parse a raw Ethernet frame all the way to the transport layer,
    /// verifying every checksum on the way. Every layer's payload is a
    /// view into `frame`.
    pub fn parse(frame: &Bytes) -> Result<ParsedPacket, WireError> {
        let eth = EthernetFrame::parse(frame)?;
        if eth.ethertype != EtherType::Ipv4 {
            return Err(WireError::Malformed);
        }
        let ip = Ipv4Packet::parse(&eth.payload)?;
        let transport = match ip.protocol {
            IpProtocol::Tcp => Transport::Tcp(TcpSegment::parse(&ip.payload, ip.src, ip.dst)?),
            IpProtocol::Udp => Transport::Udp(UdpDatagram::parse(&ip.payload, ip.src, ip.dst)?),
            IpProtocol::Icmp => Transport::Icmp(IcmpEcho::parse(&ip.payload)?),
            IpProtocol::Other(p) => Transport::Other(p),
        };
        Ok(ParsedPacket { eth, ip, transport })
    }

    /// The TCP segment, if this packet carries one.
    pub fn tcp(&self) -> Option<&TcpSegment> {
        match &self.transport {
            Transport::Tcp(seg) => Some(seg),
            _ => None,
        }
    }

    /// The UDP datagram, if this packet carries one.
    pub fn udp(&self) -> Option<&UdpDatagram> {
        match &self.transport {
            Transport::Udp(d) => Some(d),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_tcp_roundtrip() {
        let src_ip = Ipv4Addr::new(192, 168, 1, 2);
        let dst_ip = Ipv4Addr::new(192, 168, 1, 10);
        let seg = TcpSegment {
            src_port: 49152,
            dst_port: 80,
            seq: 1000,
            ack: 2000,
            flags: TcpFlags::PSH | TcpFlags::ACK,
            window: 65535,
            mss: None,
            payload: Bytes::from_static(b"GET /probe?r=1 HTTP/1.1\r\n\r\n"),
        };
        let ip = Ipv4Packet {
            src: src_ip,
            dst: dst_ip,
            protocol: IpProtocol::Tcp,
            ttl: 64,
            ident: 7,
            payload: seg.emit(src_ip, dst_ip),
        };
        let eth = EthernetFrame {
            dst: MacAddr([2, 0, 0, 0, 0, 1]),
            src: MacAddr([2, 0, 0, 0, 0, 2]),
            ethertype: EtherType::Ipv4,
            payload: ip.emit(),
        };
        let bytes = eth.emit();
        let parsed = ParsedPacket::parse(&bytes).expect("parse");
        let tcp = parsed.tcp().expect("tcp");
        assert_eq!(tcp.src_port, 49152);
        assert_eq!(tcp.dst_port, 80);
        assert_eq!(&tcp.payload[..], b"GET /probe?r=1 HTTP/1.1\r\n\r\n");
        assert!(tcp.flags.contains(TcpFlags::PSH));
        assert_eq!(parsed.ip.src, src_ip);
    }

    #[test]
    fn non_ip_frame_rejected() {
        let eth = EthernetFrame {
            dst: MacAddr::BROADCAST,
            src: MacAddr([2, 0, 0, 0, 0, 2]),
            ethertype: EtherType::Other(0x0806), // ARP
            payload: Bytes::from_static(&[0u8; 28]),
        };
        assert_eq!(
            ParsedPacket::parse(&eth.emit()).unwrap_err(),
            WireError::Malformed
        );
    }

    #[test]
    fn corrupted_byte_fails_checksum() {
        let src_ip = Ipv4Addr::new(10, 0, 0, 1);
        let dst_ip = Ipv4Addr::new(10, 0, 0, 2);
        let seg = TcpSegment {
            src_port: 1,
            dst_port: 2,
            seq: 0,
            ack: 0,
            flags: TcpFlags::SYN,
            window: 1000,
            mss: Some(1460),
            payload: Bytes::new(),
        };
        let ip = Ipv4Packet {
            src: src_ip,
            dst: dst_ip,
            protocol: IpProtocol::Tcp,
            ttl: 64,
            ident: 0,
            payload: seg.emit(src_ip, dst_ip),
        };
        let eth = EthernetFrame {
            dst: MacAddr([0; 6]),
            src: MacAddr([1; 6]),
            ethertype: EtherType::Ipv4,
            payload: ip.emit(),
        };
        let mut bytes = eth.emit().to_vec();
        // Corrupt a byte inside the TCP header (after 14 eth + 20 ip).
        let idx = 14 + 20 + 4;
        bytes[idx] ^= 0xFF;
        assert!(ParsedPacket::parse(&Bytes::from(bytes)).is_err());
    }
}
