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
//! byte for byte.
//!
//! Reading is done in place. Each layer has one borrowed validator
//! ([`Ipv4Header::read`], [`TcpHeader::read`], [`UdpHeader::read`],
//! [`IcmpHeader::read`]) that makes every check of its layer on a
//! `&[u8]` and returns the header fields and the payload's byte range,
//! and [`FrameLayout::read`] walks Ethernet → IPv4 → transport with
//! them once. A reader that only looks at the bytes (a capture sink)
//! makes no view at all, and one that keeps the payload (a receiving
//! host) makes exactly one. The `&Bytes` parsers (`TcpSegment::parse`
//! and the rest, and [`ParsedPacket::parse`]) are thin wrappers that
//! slice views out of the same ranges, so no layer's rules exist twice.

pub mod checksum;
pub mod datagram;
pub mod ethernet;
pub mod icmp;
pub mod ipv4;
pub mod tcp;
pub mod udp;

pub use datagram::{ChunkKind, DataChunk};
pub use ethernet::{EtherType, EthernetFrame, MacAddr};
pub use icmp::{IcmpEcho, IcmpHeader};
pub use ipv4::{IpProtocol, Ipv4Header, Ipv4Packet};
pub use tcp::{TcpFlags, TcpHeader, TcpSegment};
pub use udp::{UdpDatagram, UdpHeader};

use bytes::{Bytes, BytesMut};
use std::fmt;
use std::net::Ipv4Addr;
use std::ops::Range;

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

/// Where everything in an Ethernet II + IPv4 frame lies, read in place
/// by [`FrameLayout::read`]: the header fields of each layer and the
/// byte ranges of the IPv4 payload and the transport payload, both
/// relative to the frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameLayout {
    /// Destination MAC.
    pub dst_mac: MacAddr,
    /// Source MAC.
    pub src_mac: MacAddr,
    /// The IPv4 header fields.
    pub ip: Ipv4Header,
    /// The IPv4 payload: the transport header and its payload.
    pub segment: Range<usize>,
    /// The transport header fields.
    pub transport: TransportHeader,
    /// The transport payload; empty for [`TransportHeader::Other`].
    pub payload: Range<usize>,
}

/// Transport header fields of a [`FrameLayout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportHeader {
    /// A TCP segment's header.
    Tcp(TcpHeader),
    /// A UDP datagram's header.
    Udp(UdpHeader),
    /// An ICMP echo message's header.
    Icmp(IcmpHeader),
    /// An IP protocol this crate does not parse further.
    Other(u8),
}

impl FrameLayout {
    /// Walk a raw Ethernet frame to its transport payload once: the
    /// ethertype, then each layer's validator in turn, every checksum
    /// included. [`ParsedPacket::parse`] is this walk plus a view per
    /// layer, so the two accept and reject the same frames with the
    /// same error. Nothing is copied and no view is made.
    pub fn read(frame: &[u8]) -> Result<FrameLayout, WireError> {
        let (dst_mac, src_mac, ethertype) = ethernet::parse_header(frame)?;
        if ethertype != EtherType::Ipv4 {
            return Err(WireError::Malformed);
        }
        let at = ethernet::HEADER_LEN;
        let (ip, segment) = Ipv4Header::read(&frame[at..])?;
        let segment = at + segment.start..at + segment.end;
        let data = &frame[segment.clone()];
        let (transport, payload) = match ip.protocol {
            IpProtocol::Tcp => {
                let (h, r) = TcpHeader::read(data, ip.src, ip.dst)?;
                (TransportHeader::Tcp(h), r)
            }
            IpProtocol::Udp => {
                let (h, r) = UdpHeader::read(data, ip.src, ip.dst)?;
                (TransportHeader::Udp(h), r)
            }
            IpProtocol::Icmp => {
                let (h, r) = IcmpHeader::read(data)?;
                (TransportHeader::Icmp(h), r)
            }
            IpProtocol::Other(p) => (TransportHeader::Other(p), 0..0),
        };
        let payload = segment.start + payload.start..segment.start + payload.end;
        Ok(FrameLayout {
            dst_mac,
            src_mac,
            ip,
            segment,
            transport,
            payload,
        })
    }

    /// The transport content of `frame`, the frame this layout was
    /// read from, as a receiving host keeps it: the header fields and
    /// one view of `frame`, the payload's (none when the payload is
    /// empty).
    pub fn transport(&self, frame: &Bytes) -> Transport {
        let payload = frame.slice(self.payload.clone());
        match self.transport {
            TransportHeader::Tcp(h) => Transport::Tcp(h.segment(payload)),
            TransportHeader::Udp(h) => Transport::Udp(h.datagram(payload)),
            TransportHeader::Icmp(h) => Transport::Icmp(h.echo(payload)),
            TransportHeader::Other(p) => Transport::Other(p),
        }
    }
}

/// A fully parsed client-visible packet: Ethernet → IPv4 → TCP/UDP.
///
/// Convenience for capture-analysis code that wants every layer as an
/// owned value. Readers on the hot path use [`FrameLayout::read`],
/// which makes no views.
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
    /// verifying every checksum on the way ([`FrameLayout::read`]).
    /// Every layer's payload is a view into `frame`.
    pub fn parse(frame: &Bytes) -> Result<ParsedPacket, WireError> {
        let layout = FrameLayout::read(frame)?;
        Ok(ParsedPacket {
            eth: EthernetFrame {
                dst: layout.dst_mac,
                src: layout.src_mac,
                ethertype: EtherType::Ipv4,
                payload: frame.slice(ethernet::HEADER_LEN..),
            },
            ip: layout.ip.packet(frame.slice(layout.segment.clone())),
            transport: layout.transport(frame),
        })
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
