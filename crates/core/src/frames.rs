//! Shared frame-parsing helpers for capture analysis.
//!
//! Both the client-side matcher ([`crate::matching`]) and the
//! server-side overhead appraisal ([`crate::server_side`]) grep
//! transport payloads out of raw captured frames. The two modules used
//! to carry verbatim copies of these helpers; they live here once.

use bnm_sim::wire::{ParsedPacket, Transport};
use bytes::Bytes;

/// Transport payload of a captured frame, if it parses.
///
/// Returns the parser's own refcounted payload view — no extra copy is
/// made for the caller. Frames that fail to parse, and transports
/// without a greppable payload (ICMP, unknown), yield `None`, exactly
/// as a checksum-filtering analyst would drop them.
pub fn payload_of(frame: &[u8]) -> Option<Bytes> {
    let parsed = ParsedPacket::parse(frame).ok()?;
    match parsed.transport {
        Transport::Tcp(seg) => Some(seg.payload),
        Transport::Udp(d) => Some(d.payload),
        Transport::Icmp(_) | Transport::Other(_) => None,
    }
}

/// Whether `payload` carries `marker` (the capture analyst's `grep`).
///
/// A marker ends either in a space or in its token's digits. A marker
/// that ends in a digit must also end the payload's digit run there:
/// `t=1` is not carried by a payload reading `t=10`, so no session's
/// token matches another's whose decimal form it prefixes.
pub fn carries_marker(payload: &[u8], marker: &[u8]) -> bool {
    let Some(last) = marker.last() else {
        return false;
    };
    let ends_in_digit = last.is_ascii_digit();
    payload.windows(marker.len()).enumerate().any(|(i, w)| {
        let next = payload.get(i + marker.len());
        w == marker && !(ends_in_digit && next.is_some_and(u8::is_ascii_digit))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnm_sim::wire::{
        EtherType, EthernetFrame, IpProtocol, Ipv4Packet, MacAddr, TcpFlags, TcpSegment,
        UdpDatagram,
    };
    use std::net::Ipv4Addr;

    const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    fn wrap(protocol: IpProtocol, payload: Bytes) -> Bytes {
        let ip = Ipv4Packet {
            src: A,
            dst: B,
            protocol,
            ttl: 64,
            ident: 1,
            payload,
        };
        EthernetFrame {
            dst: MacAddr([2; 6]),
            src: MacAddr([1; 6]),
            ethertype: EtherType::Ipv4,
            payload: ip.emit(),
        }
        .emit()
    }

    #[test]
    fn tcp_payload_extracted() {
        let seg = TcpSegment {
            src_port: 5,
            dst_port: 80,
            seq: 1,
            ack: 1,
            flags: TcpFlags::ACK | TcpFlags::PSH,
            window: 1000,
            mss: None,
            payload: Bytes::from_static(b"m=xhr_get&r=1&t=7"),
        };
        let frame = wrap(IpProtocol::Tcp, seg.emit(A, B));
        let p = payload_of(&frame).expect("parses");
        assert_eq!(&p[..], b"m=xhr_get&r=1&t=7");
    }

    #[test]
    fn udp_payload_extracted() {
        let dgram = UdpDatagram {
            src_port: 5,
            dst_port: 53,
            payload: Bytes::from_static(b"probe"),
        };
        let frame = wrap(IpProtocol::Udp, dgram.emit(A, B));
        assert_eq!(&payload_of(&frame).unwrap()[..], b"probe");
    }

    #[test]
    fn garbage_yields_none() {
        assert!(payload_of(b"not a frame").is_none());
        assert!(payload_of(&[]).is_none());
    }

    #[test]
    fn markers_match_whole_tokens() {
        assert!(carries_marker(b"xx pong r=1 t=0 yy", b"pong r=1 t=0 "));
        assert!(!carries_marker(b"pong r=1", b"pong r=10"));
        assert!(
            !carries_marker(b"anything", b""),
            "empty marker never matches"
        );
        assert!(carries_marker(b"abc", b"abc"));
        // A digit-ended marker must end the digit run it lands on.
        assert!(carries_marker(
            b"GET /?m=xhr_get&r=1&t=7 HTTP",
            b"m=xhr_get&r=1&t=7"
        ));
        assert!(carries_marker(b"m=xhr_get&r=1&t=7", b"m=xhr_get&r=1&t=7"));
        assert!(carries_marker(b"m=xhr_get&r=1&t=7x", b"m=xhr_get&r=1&t=7"));
        assert!(!carries_marker(b"m=xhr_get&r=1&t=70", b"m=xhr_get&r=1&t=7"));
        // A later occurrence can still match after a longer token.
        assert!(carries_marker(
            b"m=xhr_get&r=1&t=70 m=xhr_get&r=1&t=7&",
            b"m=xhr_get&r=1&t=7"
        ));
    }
}
