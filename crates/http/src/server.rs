//! The testbed web server: an Apache-like [`HostApp`].
//!
//! Serves everything the ten measurement methods need (paper §3):
//!
//! * `GET /` and `GET /container/<anything>` — the **container page** with
//!   the embedded "measurement code" (preparation phase);
//! * `GET /probe?...` and `POST /probe` — the measurement endpoint; the
//!   response is deliberately small enough for one packet;
//! * `GET /ws` — WebSocket upgrade; afterwards every text/binary message
//!   is echoed back;
//! * a raw **TCP echo** port for the Flash/Java socket methods;
//! * a **UDP echo** port for the Java UDP method.
//!
//! An optional per-request `handler_delay` models server think time — the
//! knob behind the server-side-overhead extension experiment. (The
//! testbed's 50 ms "Internet" delay is *not* here: it is netem-style extra
//! delay on the server's link, exactly as in the paper.)

use std::collections::HashMap;

use bytes::Bytes;

use bnm_sim::time::SimDuration;
use bnm_sim::wire::{ChunkKind, DataChunk};
use bnm_tcp::stack::SockEvent;
use bnm_tcp::udp::UdpRx;
use bnm_tcp::{HostApp, HostCtx, SocketId};

use crate::message::{HttpRequest, HttpResponse, Method};
use crate::parser::{HttpParser, ParseOutcome};
use crate::websocket::{self, Frame, FrameDecoder, Opcode};

/// Web server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// HTTP (and WebSocket-upgrade) port.
    pub http_port: u16,
    /// Raw TCP echo port for socket-based methods.
    pub tcp_echo_port: u16,
    /// UDP echo port.
    pub udp_echo_port: u16,
    /// WebRTC data-channel port (DCEP handshake + datagram echo).
    pub webrtc_port: u16,
    /// Per-request server think time (0 in the baseline testbed).
    pub handler_delay: SimDuration,
    /// Size of the served container page.
    pub container_page_size: usize,
    /// Size of probe responses (kept single-packet, per §3).
    pub probe_response_size: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            http_port: 80,
            tcp_echo_port: 8081,
            udp_echo_port: 7,
            webrtc_port: 3478,
            handler_delay: SimDuration::ZERO,
            container_page_size: 2048,
            probe_response_size: 64,
        }
    }
}

/// Per-connection protocol state.
enum Conn {
    /// Parsing HTTP requests (possibly keep-alive pipelined).
    Http { parser: HttpParser },
    /// Upgraded to WebSocket.
    WebSocket { decoder: FrameDecoder },
    /// Raw TCP echo.
    Echo,
}

/// Parse a WebSocket bulk request: `bulk n=<n> r=<r> t=<t>`.
fn parse_ws_bulk(payload: &[u8]) -> Option<(usize, String, String)> {
    let text = std::str::from_utf8(payload).ok()?;
    let rest = text.strip_prefix("bulk ")?;
    let mut n = None;
    let mut r = None;
    let mut t = None;
    for kv in rest.split_whitespace() {
        match kv.split_once('=') {
            Some(("n", v)) => n = v.parse().ok(),
            Some(("r", v)) => r = Some(v.to_string()),
            Some(("t", v)) => t = Some(v.to_string()),
            _ => {}
        }
    }
    Some((n?, r?, t?))
}

/// The container page body: HTML with a script stub, padded to
/// `size` (its exact content is irrelevant to timing; its size is
/// what shows up on the wire).
fn container_page(size: usize) -> Bytes {
    let head = "<!DOCTYPE html><html><head><title>bnm probe</title></head><body>\
                <script src=\"/measure.js\"></script>";
    let tail = "</body></html>";
    let mut page = String::with_capacity(size);
    page.push_str(head);
    while page.len() + tail.len() < size {
        page.push_str("<!-- padding -->");
    }
    page.truncate(size.saturating_sub(tail.len()));
    page.push_str(tail);
    Bytes::from(page)
}

/// A reply scheduled after the handler delay.
struct PendingReply {
    sock: SocketId,
    bytes: Bytes,
    close_after: bool,
}

/// Counters exposed for tests and reports.
#[derive(Debug, Default, Clone)]
pub struct ServerStats {
    /// HTTP requests answered (by method).
    pub gets: u64,
    /// POST requests answered.
    pub posts: u64,
    /// Container pages served.
    pub pages: u64,
    /// WebSocket upgrades performed.
    pub ws_upgrades: u64,
    /// WebSocket messages echoed.
    pub ws_echoes: u64,
    /// Raw TCP echo payload bytes.
    pub tcp_echo_bytes: u64,
    /// UDP datagrams echoed.
    pub udp_echoes: u64,
    /// WebRTC data channels opened (DCEP OPEN answered with ACK).
    pub webrtc_opens: u64,
    /// WebRTC data chunks echoed.
    pub webrtc_echoes: u64,
    /// Requests answered 404.
    pub not_found: u64,
    /// Bulk (throughput-test) bytes served.
    pub bulk_bytes: u64,
    /// Most TCP connections open at once — the accept/parse backlog a
    /// multi-client scenario piles onto one server.
    pub peak_concurrent: u64,
}

/// The web server application.
///
/// Its constant bodies (the container page, `measure.js`, `plugin.swf`
/// and `applet.jar`) are built once, in [`WebServer::new`]; each request
/// serves a refcounted clone.
pub struct WebServer {
    cfg: ServerConfig,
    /// The container page, padded to the configured size.
    page: Bytes,
    /// The measurement script stub.
    script: Bytes,
    /// A stand-in SWF: magic bytes + padding (the size is what matters
    /// to the wire, not the content).
    swf: Bytes,
    /// A stand-in JAR: ZIP magic + padding.
    jar: Bytes,
    conns: HashMap<SocketId, Conn>,
    pending: Vec<PendingReply>,
    /// Bytes a full send buffer rejected, awaiting `Writable`.
    tx_backlog: HashMap<SocketId, (Bytes, bool)>,
    /// Service counters.
    pub stats: ServerStats,
}

impl WebServer {
    /// A server with the given configuration.
    pub fn new(cfg: ServerConfig) -> Self {
        let padded = |magic: &[u8], len: usize| {
            let mut body = magic.to_vec();
            body.resize(len, 0u8);
            Bytes::from(body)
        };
        WebServer {
            page: container_page(cfg.container_page_size),
            script: Bytes::from_static(b"/* measurement code stub */"),
            swf: padded(b"FWS\x09", 1200),
            jar: padded(b"PK\x03\x04", 1800),
            cfg,
            conns: HashMap::new(),
            pending: Vec::new(),
            tx_backlog: HashMap::new(),
            stats: ServerStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ServerConfig {
        &self.cfg
    }

    /// The container page body, a refcounted clone of the page built
    /// in [`WebServer::new`].
    fn container_page(&self) -> Bytes {
        self.page.clone()
    }

    fn probe_body(&self, round: &str, token: &str) -> Bytes {
        let mut body = format!("pong r={round} t={token} ");
        while body.len() < self.cfg.probe_response_size {
            body.push('.');
        }
        body.truncate(self.cfg.probe_response_size);
        Bytes::from(body)
    }

    /// A bulk (throughput-test) body: marker line + padding to `n` bytes.
    fn bulk_body(round: &str, token: &str, n: usize) -> Bytes {
        let marker = format!("bulk r={round} t={token} ");
        let mut body = Vec::with_capacity(n.max(marker.len()));
        body.extend_from_slice(marker.as_bytes());
        body.resize(n.max(marker.len()), b'#');
        Bytes::from(body)
    }

    fn route(&mut self, req: &HttpRequest) -> (HttpResponse, bool) {
        let close = req
            .get_header("connection")
            .is_some_and(|c| c.eq_ignore_ascii_case("close"));
        let resp = match (req.method, req.path()) {
            (Method::Get, "/") | (Method::Get, "/index.html") => {
                self.stats.pages += 1;
                HttpResponse::new(200)
                    .header("Server", "bnm-apache/2.2")
                    .header("Content-Type", "text/html")
                    .with_body(self.container_page())
            }
            (Method::Get, p) if p.starts_with("/container/") => {
                self.stats.pages += 1;
                HttpResponse::new(200)
                    .header("Server", "bnm-apache/2.2")
                    .header("Content-Type", "text/html")
                    .with_body(self.container_page())
            }
            (Method::Get, "/measure.js") => {
                self.stats.gets += 1;
                HttpResponse::new(200)
                    .header("Server", "bnm-apache/2.2")
                    .header("Content-Type", "application/javascript")
                    .with_body(self.script.clone())
            }
            (Method::Get, "/plugin.swf") => {
                self.stats.gets += 1;
                HttpResponse::new(200)
                    .header("Server", "bnm-apache/2.2")
                    .header("Content-Type", "application/x-shockwave-flash")
                    .with_body(self.swf.clone())
            }
            (Method::Get, "/applet.jar") => {
                self.stats.gets += 1;
                HttpResponse::new(200)
                    .header("Server", "bnm-apache/2.2")
                    .header("Content-Type", "application/java-archive")
                    .with_body(self.jar.clone())
            }
            (Method::Get, "/probe") => {
                self.stats.gets += 1;
                let r = req.query_param("r").unwrap_or("0").to_string();
                let t = req.query_param("t").unwrap_or("0").to_string();
                HttpResponse::new(200)
                    .header("Server", "bnm-apache/2.2")
                    .header("Content-Type", "text/plain")
                    .header("Cache-Control", "no-store")
                    .with_body(self.probe_body(&r, &t))
            }
            (Method::Get, "/bulk") => {
                self.stats.gets += 1;
                let r = req.query_param("r").unwrap_or("0").to_string();
                let t = req.query_param("t").unwrap_or("0").to_string();
                let n: usize = req
                    .query_param("n")
                    .and_then(|v| v.parse().ok())
                    .unwrap_or(65536);
                self.stats.bulk_bytes += n as u64;
                HttpResponse::new(200)
                    .header("Server", "bnm-apache/2.2")
                    .header("Content-Type", "application/octet-stream")
                    .header("Cache-Control", "no-store")
                    .with_body(Self::bulk_body(&r, &t, n))
            }
            (Method::Post, "/probe") => {
                self.stats.posts += 1;
                let body = String::from_utf8_lossy(&req.body).to_string();
                let param = |k: &str| {
                    body.split('&')
                        .find_map(|kv| kv.split_once('=').filter(|(n, _)| *n == k).map(|(_, v)| v))
                        .unwrap_or("0")
                        .to_string()
                };
                let r = param("r");
                let t = param("t");
                HttpResponse::new(200)
                    .header("Server", "bnm-apache/2.2")
                    .header("Content-Type", "text/plain")
                    .header("Cache-Control", "no-store")
                    .with_body(self.probe_body(&r, &t))
            }
            _ => {
                self.stats.not_found += 1;
                HttpResponse::new(404)
                    .header("Server", "bnm-apache/2.2")
                    .with_body(Bytes::from_static(b"not found"))
            }
        };
        (resp, close)
    }

    /// Write as much of `bytes` as the send buffer takes; stash the rest
    /// for the `Writable` event (backpressure-correct bulk replies).
    fn send_with_backlog(
        &mut self,
        ctx: &mut HostCtx,
        sock: SocketId,
        bytes: Bytes,
        close_after: bool,
    ) {
        let n = ctx.send(sock, &bytes);
        if n < bytes.len() {
            self.tx_backlog
                .insert(sock, (bytes.slice(n..), close_after));
        } else if close_after {
            ctx.close(sock);
        }
    }

    fn queue_reply(&mut self, ctx: &mut HostCtx, sock: SocketId, bytes: Bytes, close_after: bool) {
        if self.cfg.handler_delay == SimDuration::ZERO {
            self.send_with_backlog(ctx, sock, bytes, close_after);
        } else {
            self.pending.push(PendingReply {
                sock,
                bytes,
                close_after,
            });
            let token = (self.pending.len() - 1) as u64;
            ctx.set_app_timer(self.cfg.handler_delay, token);
        }
    }

    fn on_http_bytes(&mut self, ctx: &mut HostCtx, sock: SocketId, data: Bytes) {
        // Take the connection state out to sidestep the borrow of `self`.
        let Some(mut conn) = self.conns.remove(&sock) else {
            return;
        };
        match &mut conn {
            Conn::Http { parser } => {
                let mut outcome = parser.feed(data);
                loop {
                    match outcome {
                        ParseOutcome::Request(req) => {
                            // WebSocket upgrade?
                            if let Some(resp) = websocket::server_handshake(&req) {
                                self.stats.ws_upgrades += 1;
                                ctx.send(sock, &resp.emit());
                                let mut decoder = FrameDecoder::new();
                                let rem = parser.take_remainder();
                                decoder.feed(&rem);
                                self.conns.insert(sock, Conn::WebSocket { decoder });
                                // Frames may have arrived piggybacked on the
                                // upgrade segment: process them right away.
                                self.on_http_bytes(ctx, sock, Bytes::new());
                                return;
                            }
                            let (resp, close) = self.route(&req);
                            self.queue_reply(ctx, sock, resp.emit(), close);
                        }
                        ParseOutcome::Error(_) => {
                            ctx.send(
                                sock,
                                &HttpResponse::new(400)
                                    .with_body(Bytes::from_static(b"bad request"))
                                    .emit(),
                            );
                            ctx.close(sock);
                            break;
                        }
                        ParseOutcome::Incomplete | ParseOutcome::Response(_) => break,
                    }
                    outcome = parser.poll();
                }
            }
            Conn::WebSocket { decoder } => {
                decoder.feed(&data);
                loop {
                    match decoder.poll() {
                        Ok(Some(frame)) => match frame.opcode {
                            Opcode::Text | Opcode::Binary => {
                                self.stats.ws_echoes += 1;
                                // Throughput mode: "bulk n=<n> r=<r> t=<t>"
                                // requests a large binary reply.
                                let reply = match parse_ws_bulk(&frame.payload) {
                                    Some((n, r, t)) => {
                                        self.stats.bulk_bytes += n as u64;
                                        Frame {
                                            opcode: Opcode::Binary,
                                            payload: WebServer::bulk_body(&r, &t, n),
                                        }
                                    }
                                    None => Frame {
                                        opcode: frame.opcode,
                                        payload: frame.payload,
                                    },
                                };
                                // Server frames are unmasked.
                                let bytes = reply.emit(None);
                                self.queue_reply(ctx, sock, bytes, false);
                            }
                            Opcode::Ping => {
                                let pong = Frame {
                                    opcode: Opcode::Pong,
                                    payload: frame.payload,
                                };
                                ctx.send(sock, &pong.emit(None));
                            }
                            Opcode::Close => {
                                ctx.send(
                                    sock,
                                    &Frame {
                                        opcode: Opcode::Close,
                                        payload: Bytes::new(),
                                    }
                                    .emit(None),
                                );
                                ctx.close(sock);
                            }
                            Opcode::Pong | Opcode::Continuation => {}
                        },
                        Ok(None) => break,
                        Err(_) => {
                            ctx.abort(sock);
                            break;
                        }
                    }
                }
            }
            Conn::Echo => {
                self.stats.tcp_echo_bytes += data.len() as u64;
                self.queue_reply(ctx, sock, data, false);
            }
        }
        self.conns.insert(sock, conn);
    }
}

impl HostApp for WebServer {
    fn on_boot(&mut self, ctx: &mut HostCtx) {
        ctx.listen(self.cfg.http_port);
        ctx.listen(self.cfg.tcp_echo_port);
        ctx.udp_bind(self.cfg.udp_echo_port);
        ctx.udp_bind(self.cfg.webrtc_port);
    }

    fn on_event(&mut self, ctx: &mut HostCtx, ev: SockEvent) {
        match ev {
            SockEvent::Accepted {
                listener_port,
                sock,
                ..
            } => {
                let conn = if listener_port == self.cfg.tcp_echo_port {
                    Conn::Echo
                } else {
                    Conn::Http {
                        parser: HttpParser::new(),
                    }
                };
                self.conns.insert(sock, conn);
                self.stats.peak_concurrent =
                    self.stats.peak_concurrent.max(self.conns.len() as u64);
            }
            SockEvent::Data { sock } => {
                let data = ctx.recv(sock);
                self.on_http_bytes(ctx, sock, data);
            }
            SockEvent::PeerClosed { sock } => {
                ctx.close(sock);
            }
            SockEvent::Closed { sock } | SockEvent::Reset { sock } => {
                self.conns.remove(&sock);
                self.tx_backlog.remove(&sock);
            }
            SockEvent::Writable { sock } => {
                if let Some((bytes, close_after)) = self.tx_backlog.remove(&sock) {
                    self.send_with_backlog(ctx, sock, bytes, close_after);
                }
            }
            SockEvent::Connected { .. } => {}
        }
    }

    fn on_udp(&mut self, ctx: &mut HostCtx, rx: UdpRx) {
        if rx.local_port == self.cfg.udp_echo_port {
            self.stats.udp_echoes += 1;
            ctx.udp_send(rx.local_port, rx.from, rx.payload);
        } else if rx.local_port == self.cfg.webrtc_port {
            // WebRTC data-channel endpoint: answer DCEP opens, echo data
            // chunks verbatim (seq included, so the client sees exactly
            // what the network delivered — no retransmit, no reorder-fix).
            let Ok(chunk) = DataChunk::parse(&rx.payload) else {
                return;
            };
            match chunk.kind {
                ChunkKind::DcepOpen => {
                    self.stats.webrtc_opens += 1;
                    ctx.udp_send(rx.local_port, rx.from, DataChunk::ack(chunk.stream).emit());
                }
                ChunkKind::Data => {
                    self.stats.webrtc_echoes += 1;
                    ctx.udp_send(rx.local_port, rx.from, rx.payload);
                }
                ChunkKind::DcepAck => {}
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut HostCtx, token: u64) {
        let Some(reply) = self.pending.get(token as usize) else {
            return;
        };
        let bytes = reply.bytes.clone();
        let sock = reply.sock;
        let close_after = reply.close_after;
        self.send_with_backlog(ctx, sock, bytes, close_after);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bnm_sim::engine::Engine;
    use bnm_sim::link::LinkSpec;
    use bnm_sim::time::SimTime;
    use bnm_sim::wire::MacAddr;
    use bnm_tcp::{Host, HostConfig};
    use std::net::Ipv4Addr;

    const CLIENT_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 2);
    const SERVER_IP: Ipv4Addr = Ipv4Addr::new(192, 168, 1, 10);

    /// Scripted client: connects, writes raw bytes, collects raw bytes.
    struct RawClient {
        port: u16,
        to_send: Vec<u8>,
        received: Vec<u8>,
        recv_times: Vec<SimTime>,
        sock: Option<SocketId>,
    }

    impl HostApp for RawClient {
        fn on_boot(&mut self, ctx: &mut HostCtx) {
            self.sock = Some(ctx.connect((SERVER_IP, self.port)));
        }
        fn on_event(&mut self, ctx: &mut HostCtx, ev: SockEvent) {
            match ev {
                SockEvent::Connected { sock } => {
                    let data = self.to_send.clone();
                    ctx.send(sock, &data);
                }
                SockEvent::Data { sock } => {
                    self.recv_times.push(ctx.now());
                    self.received.extend_from_slice(&ctx.recv(sock));
                }
                _ => {}
            }
        }
    }

    fn run_with_client(cfg: ServerConfig, port: u16, to_send: Vec<u8>) -> (Engine, usize, usize) {
        let mut e = Engine::new();
        let c = e.add_node(Box::new(Host::new(
            HostConfig::new("client", MacAddr::local(2), CLIENT_IP)
                .with_neighbor(SERVER_IP, MacAddr::local(1)),
            RawClient {
                port,
                to_send,
                received: Vec::new(),
                recv_times: Vec::new(),
                sock: None,
            },
        )));
        let s = e.add_node(Box::new(Host::new(
            HostConfig::new("server", MacAddr::local(1), SERVER_IP)
                .with_neighbor(CLIENT_IP, MacAddr::local(2)),
            WebServer::new(cfg),
        )));
        e.connect(c, 0, s, 0, LinkSpec::fast_ethernet());
        e.run();
        (e, c, s)
    }

    #[test]
    fn serves_container_page() {
        let (e, c, s) = run_with_client(
            ServerConfig::default(),
            80,
            b"GET / HTTP/1.1\r\nHost: server\r\n\r\n".to_vec(),
        );
        let client = e.node_ref::<Host<RawClient>>(c).app();
        let text = String::from_utf8_lossy(&client.received);
        assert!(text.starts_with("HTTP/1.1 200 OK"));
        assert!(text.contains("text/html"));
        assert!(text.contains("<!DOCTYPE html>"));
        assert_eq!(e.node_ref::<Host<WebServer>>(s).app().stats.pages, 1);
    }

    #[test]
    fn container_page_is_requested_size() {
        let cfg = ServerConfig {
            container_page_size: 1000,
            ..ServerConfig::default()
        };
        let server = WebServer::new(cfg);
        assert_eq!(server.container_page().len(), 1000);
    }

    #[test]
    fn probe_get_and_keepalive_second_round() {
        let wire = b"GET /probe?r=1&t=7 HTTP/1.1\r\nHost: s\r\n\r\n\
                     GET /probe?r=2&t=7 HTTP/1.1\r\nHost: s\r\n\r\n"
            .to_vec();
        let (e, c, s) = run_with_client(ServerConfig::default(), 80, wire);
        let client = e.node_ref::<Host<RawClient>>(c).app();
        let text = String::from_utf8_lossy(&client.received);
        assert!(text.contains("pong r=1 t=7"));
        assert!(text.contains("pong r=2 t=7"));
        assert_eq!(e.node_ref::<Host<WebServer>>(s).app().stats.gets, 2);
    }

    #[test]
    fn probe_post_parses_form_body() {
        let wire = b"POST /probe HTTP/1.1\r\nHost: s\r\nContent-Length: 7\r\n\r\nr=2&t=9".to_vec();
        let (e, c, s) = run_with_client(ServerConfig::default(), 80, wire);
        let client = e.node_ref::<Host<RawClient>>(c).app();
        let text = String::from_utf8_lossy(&client.received);
        assert!(text.contains("pong r=2 t=9"));
        assert_eq!(e.node_ref::<Host<WebServer>>(s).app().stats.posts, 1);
    }

    #[test]
    fn unknown_path_is_404() {
        let (e, c, _) = run_with_client(
            ServerConfig::default(),
            80,
            b"GET /nope HTTP/1.1\r\nHost: s\r\n\r\n".to_vec(),
        );
        let client = e.node_ref::<Host<RawClient>>(c).app();
        assert!(String::from_utf8_lossy(&client.received).starts_with("HTTP/1.1 404"));
    }

    #[test]
    fn tcp_echo_port_echoes() {
        let (e, c, s) = run_with_client(
            ServerConfig::default(),
            8081,
            b"\x01\x02binary probe r=1".to_vec(),
        );
        let client = e.node_ref::<Host<RawClient>>(c).app();
        assert_eq!(client.received, b"\x01\x02binary probe r=1");
        assert_eq!(
            e.node_ref::<Host<WebServer>>(s).app().stats.tcp_echo_bytes,
            18
        );
    }

    #[test]
    fn websocket_upgrade_and_echo() {
        let nonce = [3u8; 16];
        let mut wire = websocket::client_handshake("/ws", "server", nonce)
            .emit()
            .to_vec();
        wire.extend_from_slice(&Frame::text("ws probe r=1").emit(Some([9, 9, 9, 9])));
        let (e, c, s) = run_with_client(ServerConfig::default(), 80, wire);
        let client = e.node_ref::<Host<RawClient>>(c).app();
        let text = String::from_utf8_lossy(&client.received);
        assert!(text.starts_with("HTTP/1.1 101"));
        // The echoed frame (unmasked) appears after the 101.
        let idx = client
            .received
            .windows(2)
            .position(|w| w == [0x81, 12])
            .expect("echo frame present");
        assert_eq!(&client.received[idx + 2..idx + 14], b"ws probe r=1");
        let stats = &e.node_ref::<Host<WebServer>>(s).app().stats;
        assert_eq!(stats.ws_upgrades, 1);
        assert_eq!(stats.ws_echoes, 1);
    }

    #[test]
    fn handler_delay_defers_response() {
        let cfg = ServerConfig {
            handler_delay: SimDuration::from_millis(50),
            ..ServerConfig::default()
        };
        let (e, c, _) = run_with_client(
            cfg,
            80,
            b"GET /probe?r=1&t=0 HTTP/1.1\r\nHost: s\r\n\r\n".to_vec(),
        );
        let client = e.node_ref::<Host<RawClient>>(c).app();
        assert!(!client.recv_times.is_empty());
        assert!(client.recv_times[0] >= SimTime::from_millis(50));
    }

    #[test]
    fn connection_close_honored() {
        let (e, c, _) = run_with_client(
            ServerConfig::default(),
            80,
            b"GET /probe?r=1&t=0 HTTP/1.1\r\nHost: s\r\nConnection: close\r\n\r\n".to_vec(),
        );
        // After the response the server closes; the client host sees
        // PeerClosed (we just check the socket count went to zero on the
        // server side eventually — engine ran to completion without hangs).
        let client = e.node_ref::<Host<RawClient>>(c).app();
        assert!(String::from_utf8_lossy(&client.received).contains("pong"));
    }

    #[test]
    fn udp_echo_works() {
        struct UdpProbe {
            got: Option<Bytes>,
        }
        impl HostApp for UdpProbe {
            fn on_boot(&mut self, ctx: &mut HostCtx) {
                let p = ctx.udp_bind_ephemeral();
                ctx.udp_send(p, (SERVER_IP, 7), Bytes::from_static(b"udp r=1"));
            }
            fn on_event(&mut self, _: &mut HostCtx, _: SockEvent) {}
            fn on_udp(&mut self, _ctx: &mut HostCtx, rx: UdpRx) {
                self.got = Some(rx.payload);
            }
        }
        let mut e = Engine::new();
        let c = e.add_node(Box::new(Host::new(
            HostConfig::new("client", MacAddr::local(2), CLIENT_IP)
                .with_neighbor(SERVER_IP, MacAddr::local(1)),
            UdpProbe { got: None },
        )));
        let s = e.add_node(Box::new(Host::new(
            HostConfig::new("server", MacAddr::local(1), SERVER_IP)
                .with_neighbor(CLIENT_IP, MacAddr::local(2)),
            WebServer::new(ServerConfig::default()),
        )));
        e.connect(c, 0, s, 0, LinkSpec::fast_ethernet());
        e.run();
        assert_eq!(
            e.node_ref::<Host<UdpProbe>>(c).app().got.as_deref(),
            Some(&b"udp r=1"[..])
        );
        assert_eq!(e.node_ref::<Host<WebServer>>(s).app().stats.udp_echoes, 1);
    }

    #[test]
    fn webrtc_open_then_data_echo() {
        struct RtcProbe {
            port: Option<u16>,
            acked: bool,
            echoed: Option<DataChunk>,
        }
        impl HostApp for RtcProbe {
            fn on_boot(&mut self, ctx: &mut HostCtx) {
                let p = ctx.udp_bind_ephemeral();
                self.port = Some(p);
                ctx.udp_send(p, (SERVER_IP, 3478), DataChunk::open(1).emit());
            }
            fn on_event(&mut self, _: &mut HostCtx, _: SockEvent) {}
            fn on_udp(&mut self, ctx: &mut HostCtx, rx: UdpRx) {
                let chunk = DataChunk::parse(&rx.payload).expect("chunk");
                match chunk.kind {
                    ChunkKind::DcepAck => {
                        self.acked = true;
                        ctx.udp_send(
                            self.port.unwrap(),
                            (SERVER_IP, 3478),
                            DataChunk::data(1, 7, Bytes::from_static(b"probe m=webrtc r=7 t=0 "))
                                .emit(),
                        );
                    }
                    ChunkKind::Data => self.echoed = Some(chunk),
                    ChunkKind::DcepOpen => {}
                }
            }
        }
        let mut e = Engine::new();
        let c = e.add_node(Box::new(Host::new(
            HostConfig::new("client", MacAddr::local(2), CLIENT_IP)
                .with_neighbor(SERVER_IP, MacAddr::local(1)),
            RtcProbe {
                port: None,
                acked: false,
                echoed: None,
            },
        )));
        let s = e.add_node(Box::new(Host::new(
            HostConfig::new("server", MacAddr::local(1), SERVER_IP)
                .with_neighbor(CLIENT_IP, MacAddr::local(2)),
            WebServer::new(ServerConfig::default()),
        )));
        e.connect(c, 0, s, 0, LinkSpec::fast_ethernet());
        e.run();
        let probe = e.node_ref::<Host<RtcProbe>>(c).app();
        assert!(probe.acked, "DCEP open answered");
        let echoed = probe.echoed.as_ref().expect("data chunk echoed");
        assert_eq!(echoed.seq, 7);
        assert_eq!(&echoed.payload[..], b"probe m=webrtc r=7 t=0 ");
        let stats = &e.node_ref::<Host<WebServer>>(s).app().stats;
        assert_eq!(stats.webrtc_opens, 1);
        assert_eq!(stats.webrtc_echoes, 1);
    }
}

#[cfg(test)]
mod bulk_tests {
    use super::*;

    #[test]
    fn bulk_body_has_marker_and_exact_size() {
        let b = WebServer::bulk_body("2", "17", 4096);
        assert_eq!(b.len(), 4096);
        assert!(b.starts_with(b"bulk r=2 t=17 "));
        assert!(b.ends_with(b"#"));
        // Tiny n still keeps the whole marker.
        let small = WebServer::bulk_body("1", "0", 4);
        assert!(small.starts_with(b"bulk r=1 t=0 "));
    }

    #[test]
    fn ws_bulk_request_parses() {
        assert_eq!(
            parse_ws_bulk(b"bulk n=65536 r=2 t=9"),
            Some((65536, "2".to_string(), "9".to_string()))
        );
        assert_eq!(parse_ws_bulk(b"probe m=ws r=1 t=0 "), None);
        assert_eq!(parse_ws_bulk(b"bulk n=x r=2 t=9"), None);
        assert_eq!(parse_ws_bulk(b"bulk r=2 t=9"), None);
        assert_eq!(parse_ws_bulk(&[0xFF, 0xFE]), None);
    }

    #[test]
    fn bulk_route_serves_requested_size() {
        let mut server = WebServer::new(ServerConfig::default());
        let req = crate::message::HttpRequest::new(Method::Get, "/bulk?n=10000&r=1&t=5");
        let (resp, close) = server.route(&req);
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body.len(), 10000);
        assert!(!close);
        assert_eq!(server.stats.bulk_bytes, 10000);
    }

    #[test]
    fn bulk_route_defaults_size_when_missing() {
        let mut server = WebServer::new(ServerConfig::default());
        let req = crate::message::HttpRequest::new(Method::Get, "/bulk?r=1&t=5");
        let (resp, _) = server.route(&req);
        assert_eq!(resp.body.len(), 65536);
    }
}
