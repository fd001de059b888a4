//! Incremental HTTP/1.1 parser.
//!
//! Feed it TCP bytes as they arrive; it yields complete messages once the
//! header block and the `Content-Length` body are in. Designed for the
//! simulated byte stream: no chunked transfer encoding (the testbed's
//! responses always carry `Content-Length`, as Apache does for static
//! and small dynamic content).

use bnm_obs::Trace;
use bytes::{Bytes, BytesMut};

use crate::message::{HttpRequest, HttpResponse, Method};

/// What `feed` produced.
#[derive(Debug)]
pub enum ParseOutcome {
    /// Need more bytes.
    Incomplete,
    /// A complete request.
    Request(HttpRequest),
    /// A complete response.
    Response(HttpResponse),
    /// Unrecoverable syntax error.
    Error(&'static str),
}

/// Incremental parser over a TCP byte stream carrying HTTP messages.
///
/// The parser keeps nothing between messages: it holds only the bytes of
/// a message that is not complete yet, and any pipelined bytes after the
/// message it last returned.
#[derive(Debug, Default)]
pub struct HttpParser {
    /// Fed bytes not yet consumed by a returned message.
    pending: Bytes,
    trace: Trace,
    /// Virtual time the first byte of the in-flight message arrived
    /// (tracing only).
    msg_start_ns: Option<u64>,
    /// Virtual time of the latest `feed_at` call (tracing only).
    last_feed_ns: u64,
}

impl HttpParser {
    /// An empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install a trace handle; each completed message gets an
    /// `http/message` span from its first byte (as stamped through
    /// [`HttpParser::feed_at`]) to its completion instant.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace = trace;
        self
    }

    /// Bytes currently buffered (diagnostics).
    pub fn buffered(&self) -> usize {
        self.pending.len()
    }

    /// Take stream bytes, as the socket returned them, and try to
    /// extract the next message. Call [`HttpParser::poll`] repeatedly to
    /// drain multiple pipelined messages.
    ///
    /// When nothing is pending, `data` is kept as it is, without a copy:
    /// a message that lies wholly inside it is parsed in place, and its
    /// body is a view of `data`. Bytes that continue an incomplete
    /// message are joined to it in one new buffer.
    pub fn feed(&mut self, data: Bytes) -> ParseOutcome {
        if self.trace.is_enabled() {
            if !data.is_empty() && self.pending.is_empty() && self.msg_start_ns.is_none() {
                self.msg_start_ns = Some(self.last_feed_ns);
            }
            self.trace.count("http.bytes_fed", data.len() as u64);
        }
        if self.pending.is_empty() {
            self.pending = data;
        } else if !data.is_empty() {
            let mut joined = BytesMut::with_capacity(self.pending.len() + data.len());
            joined.extend_from_slice(&self.pending);
            joined.extend_from_slice(&data);
            self.pending = joined.freeze();
        }
        self.poll()
    }

    /// [`HttpParser::feed`] with a virtual-time stamp, so traced parsers
    /// can span a message from first byte to completion.
    pub fn feed_at(&mut self, now_ns: u64, data: Bytes) -> ParseOutcome {
        self.last_feed_ns = now_ns;
        self.feed(data)
    }

    /// Try to extract the next complete message from buffered bytes.
    pub fn poll(&mut self) -> ParseOutcome {
        // A second handle on the pending bytes (a refcount), so the
        // header block can be read in place while `pending` moves on.
        let buf = self.pending.clone();
        let Some(header_end) = find_header_end(&buf) else {
            return ParseOutcome::Incomplete;
        };
        let Ok(head) = std::str::from_utf8(&buf[..header_end]) else {
            return ParseOutcome::Error("non-utf8 header block");
        };
        let mut lines = head.split("\r\n");
        let start_line = lines.next().unwrap_or("");
        let mut headers = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let Some((name, value)) = line.split_once(':') else {
                return ParseOutcome::Error("malformed header line");
            };
            headers.push((name.trim().to_string(), value.trim().to_string()));
        }
        let content_length = headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case("content-length"))
            .map(|(_, v)| v.parse::<usize>());
        let body_len = match content_length {
            Some(Ok(n)) => n,
            Some(Err(_)) => return ParseOutcome::Error("bad content-length"),
            None => 0,
        };
        let Some(total) = (header_end + 4).checked_add(body_len) else {
            return ParseOutcome::Error("bad content-length");
        };
        if buf.len() < total {
            return ParseOutcome::Incomplete;
        }
        let body = buf.slice(header_end + 4..total);
        self.pending = buf.slice(total..);
        if self.trace.is_enabled() {
            let start = self.msg_start_ns.take().unwrap_or(self.last_feed_ns);
            self.trace
                .span(start, self.last_feed_ns, "http", "message", None);
            self.trace.count("http.messages", 1);
            // Pipelined leftovers belong to the next message, whose first
            // byte arrived in the same feed.
            if !self.pending.is_empty() {
                self.msg_start_ns = Some(self.last_feed_ns);
            }
        }

        if let Some(rest) = start_line.strip_prefix("HTTP/1.1 ") {
            // Response: "HTTP/1.1 200 OK"
            let mut parts = rest.splitn(2, ' ');
            let status: u16 = match parts.next().unwrap_or("").parse() {
                Ok(s) => s,
                Err(_) => return ParseOutcome::Error("bad status code"),
            };
            let reason = parts.next().unwrap_or("").to_string();
            ParseOutcome::Response(HttpResponse {
                status,
                reason,
                headers,
                body,
            })
        } else {
            // Request: "GET /path HTTP/1.1"
            let mut parts = start_line.split(' ');
            let method = match parts.next().and_then(Method::parse) {
                Some(m) => m,
                None => return ParseOutcome::Error("unknown method"),
            };
            let target = match parts.next() {
                Some(t) => t.to_string(),
                None => return ParseOutcome::Error("missing target"),
            };
            if parts.next() != Some("HTTP/1.1") {
                return ParseOutcome::Error("unsupported version");
            }
            ParseOutcome::Request(HttpRequest {
                method,
                target,
                headers,
                body,
            })
        }
    }

    /// Hand back any bytes that were buffered but not consumed (used when
    /// a connection upgrades to WebSocket mid-stream).
    pub fn take_remainder(&mut self) -> Vec<u8> {
        std::mem::take(&mut self.pending).to_vec()
    }
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expect_request(o: ParseOutcome) -> HttpRequest {
        match o {
            ParseOutcome::Request(r) => r,
            other => panic!("expected request, got {other:?}"),
        }
    }

    fn expect_response(o: ParseOutcome) -> HttpResponse {
        match o {
            ParseOutcome::Response(r) => r,
            other => panic!("expected response, got {other:?}"),
        }
    }

    #[test]
    fn parses_simple_get() {
        let mut p = HttpParser::new();
        let req = expect_request(p.feed(Bytes::from_static(
            b"GET /probe?r=1 HTTP/1.1\r\nHost: x\r\n\r\n",
        )));
        assert_eq!(req.method, Method::Get);
        assert_eq!(req.target, "/probe?r=1");
        assert_eq!(req.get_header("host"), Some("x"));
        assert!(req.body.is_empty());
        assert_eq!(p.buffered(), 0);
    }

    #[test]
    fn byte_at_a_time_feeding() {
        let wire = b"POST /p HTTP/1.1\r\nContent-Length: 4\r\n\r\nr=1&";
        let mut p = HttpParser::new();
        for (i, b) in wire.iter().enumerate() {
            match p.feed(Bytes::copy_from_slice(&[*b])) {
                ParseOutcome::Incomplete => assert!(i + 1 < wire.len()),
                ParseOutcome::Request(req) => {
                    assert_eq!(i + 1, wire.len());
                    assert_eq!(&req.body[..], b"r=1&");
                    return;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        panic!("never completed");
    }

    #[test]
    fn pipelined_messages_drain_one_by_one() {
        let mut p = HttpParser::new();
        let two = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let first = expect_request(p.feed(Bytes::from_static(two)));
        assert_eq!(first.target, "/a");
        let second = expect_request(p.poll());
        assert_eq!(second.target, "/b");
        assert!(matches!(p.poll(), ParseOutcome::Incomplete));
    }

    #[test]
    fn parses_response_with_body() {
        let mut p = HttpParser::new();
        let r = expect_response(p.feed(Bytes::from_static(
            b"HTTP/1.1 200 OK\r\nServer: apache\r\nContent-Length: 4\r\n\r\npong",
        )));
        assert_eq!(r.status, 200);
        assert_eq!(r.reason, "OK");
        assert_eq!(&r.body[..], b"pong");
    }

    #[test]
    fn parses_101_upgrade() {
        let mut p = HttpParser::new();
        let r = expect_response(p.feed(Bytes::from_static(
            b"HTTP/1.1 101 Switching Protocols\r\nUpgrade: websocket\r\n\r\n",
        )));
        assert_eq!(r.status, 101);
        assert_eq!(r.get_header("upgrade"), Some("websocket"));
    }

    #[test]
    fn remainder_preserved_for_upgrade() {
        let mut p = HttpParser::new();
        let wire = b"HTTP/1.1 101 Switching Protocols\r\n\r\n\x81\x04ping";
        expect_response(p.feed(Bytes::from_static(wire)));
        assert_eq!(p.take_remainder(), b"\x81\x04ping");
    }

    #[test]
    fn rejects_bad_content_length() {
        let mut p = HttpParser::new();
        assert!(matches!(
            p.feed(Bytes::from_static(
                b"GET / HTTP/1.1\r\nContent-Length: banana\r\n\r\n"
            )),
            ParseOutcome::Error(_)
        ));
    }

    #[test]
    fn rejects_http10() {
        let mut p = HttpParser::new();
        assert!(matches!(
            p.feed(Bytes::from_static(b"GET / HTTP/1.0\r\n\r\n")),
            ParseOutcome::Error(_)
        ));
    }

    #[test]
    fn traced_parser_spans_first_byte_to_completion() {
        let trace = Trace::enabled();
        let mut p = HttpParser::new().with_trace(trace.clone());
        let wire = b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\npong";
        let (head, tail) = wire.split_at(10);
        assert!(matches!(
            p.feed_at(1_000, Bytes::from_static(head)),
            ParseOutcome::Incomplete
        ));
        expect_response(p.feed_at(5_000, Bytes::from_static(tail)));
        let d = trace.take().unwrap();
        let span = d
            .events
            .iter()
            .find(|e| e.scope == "http" && e.label == "message")
            .expect("message span");
        assert_eq!(span.start_ns, 1_000);
        assert_eq!(span.end_ns, 5_000);
        assert_eq!(d.counters["http.messages"], 1);
        assert_eq!(d.counters["http.bytes_fed"], wire.len() as u64);
    }

    #[test]
    fn a_whole_message_is_parsed_in_place() {
        let wire = Bytes::from(b"HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\npong".to_vec());
        let mut p = HttpParser::new();
        let r = expect_response(p.feed(wire.clone()));
        let (outer, inner) = (wire.as_ptr_range(), r.body.as_ptr_range());
        assert!(
            outer.start <= inner.start && inner.end <= outer.end,
            "the body was copied"
        );
        assert_eq!(p.buffered(), 0, "nothing is kept after the message");
    }

    #[test]
    fn roundtrip_with_message_emitters() {
        use crate::message::HttpRequest as Req;
        let req = Req::new(Method::Post, "/probe")
            .header("Host", "server")
            .with_body(Bytes::from_static(b"round=2"));
        let mut p = HttpParser::new();
        let parsed = expect_request(p.feed(req.emit()));
        assert_eq!(parsed.method, Method::Post);
        assert_eq!(&parsed.body[..], b"round=2");
        assert_eq!(parsed.get_header("content-length"), Some("7"));
    }
}
