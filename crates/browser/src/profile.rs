//! Per-(browser, OS) cost profiles and feature matrix.
//!
//! A profile is a set of code-path **primitives** ([`DelayModel`]s) plus
//! per-browser scaling factors. Methods compose these primitives into
//! send/receive paths ([`BrowserProfile::send_path`] /
//! [`BrowserProfile::recv_path`]); the session samples and schedules them.
//! Nothing here is a "target Δd": the measured overheads emerge from the
//! composition, the connection policy, timestamp quantization and the TCP
//! behaviour on the wire.
//!
//! Calibration note: the absolute magnitudes below are synthetic (we have
//! no 2013 hardware), chosen so that the *relative* structure matches the
//! paper — Flash URLLoader ≫ XHR > DOM ≫ sockets; Windows paths dearer
//! than Ubuntu; IE/Safari the slowest; Opera's Flash connection policy the
//! odd one out; Java paths independent of the host browser (they run in
//! the JVM).

use bnm_obs::Component;
use bnm_time::OsKind;

use crate::delay::DelayModel;
use crate::plan::{ProbeTransport, Technology};

/// One delay segment of a send/receive path: a primitive tagged with
/// the Δd component it is attributed to and a stable trace label.
#[derive(Debug, Clone, Copy)]
pub struct PathSeg {
    /// Primitive name, used as the trace event label.
    pub label: &'static str,
    /// Δd attribution component (Figure 3 decomposition).
    pub component: Component,
    /// The delay distribution to sample.
    pub model: DelayModel,
}

/// Shorthand constructor for a [`PathSeg`].
fn seg(label: &'static str, component: Component, model: DelayModel) -> PathSeg {
    PathSeg {
        label,
        component,
        model,
    }
}

/// The five browsers of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BrowserKind {
    /// Google Chrome 23.
    Chrome,
    /// Mozilla Firefox 17.
    Firefox,
    /// Internet Explorer 9 (Windows only).
    Ie9,
    /// Opera 12.11.
    Opera,
    /// Safari 5.1.7 (Windows only in the testbed).
    Safari,
}

impl BrowserKind {
    /// All five, in the paper's ordering.
    pub const ALL: [BrowserKind; 5] = [
        BrowserKind::Chrome,
        BrowserKind::Firefox,
        BrowserKind::Ie9,
        BrowserKind::Opera,
        BrowserKind::Safari,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            BrowserKind::Chrome => "Chrome",
            BrowserKind::Firefox => "Firefox",
            BrowserKind::Ie9 => "IE",
            BrowserKind::Opera => "Opera",
            BrowserKind::Safari => "Safari",
        }
    }

    /// The initial used in the paper's figure labels ("C (U) Δd1" …).
    pub fn initial(self) -> &'static str {
        match self {
            BrowserKind::Chrome => "C",
            BrowserKind::Firefox => "F",
            BrowserKind::Ie9 => "IE",
            BrowserKind::Opera => "O",
            BrowserKind::Safari => "S",
        }
    }

    /// Whether the browser exists on this OS in the testbed (Table 2).
    pub fn available_on(self, os: OsKind) -> bool {
        match os {
            OsKind::Windows7 => true,
            OsKind::Ubuntu1204 => matches!(
                self,
                BrowserKind::Chrome | BrowserKind::Firefox | BrowserKind::Opera
            ),
        }
    }

    /// Browser version string (Table 2).
    pub fn version(self) -> &'static str {
        match self {
            BrowserKind::Chrome => "23.0",
            BrowserKind::Firefox => "17.0",
            BrowserKind::Ie9 => "9.0.8",
            BrowserKind::Opera => "12.11",
            BrowserKind::Safari => "5.1.7",
        }
    }

    /// Flash plug-in version on the given OS (Table 2).
    pub fn flash_version(self, os: OsKind) -> &'static str {
        match (self, os) {
            (BrowserKind::Chrome, OsKind::Windows7) => "11.7.700",
            (_, OsKind::Windows7) => "11.5.502",
            (BrowserKind::Chrome, OsKind::Ubuntu1204) => "11.5.31",
            (_, OsKind::Ubuntu1204) => "11.2.202",
        }
    }

    /// Java plug-in version on the given OS (Table 2).
    pub fn java_version(self, os: OsKind) -> &'static str {
        match os {
            OsKind::Windows7 => "1.7.0",
            OsKind::Ubuntu1204 => "1.6.0",
        }
    }

    /// WebSocket support in the tested versions (Table 2: IE 9 and
    /// Safari 5 lack it).
    pub fn supports_websocket(self) -> bool {
        !matches!(self, BrowserKind::Ie9 | BrowserKind::Safari)
    }
}

/// What executes the measurement code: a browser, or the JDK's
/// `appletviewer` (the paper's Figure 4(b) control experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Runtime {
    /// A browser from Table 2.
    Browser(BrowserKind),
    /// `appletviewer` — Java applets without any browser or Java Plug-in.
    AppletViewer,
    /// A mobile WebKit browser — the paper's §7 "extended to the mobile
    /// environment": no Flash, no Java plug-in (§2.1), WebSocket present.
    MobileWebKit,
}

impl Runtime {
    /// Display label ("C", "F", …, "appletviewer").
    pub fn label(self) -> &'static str {
        match self {
            Runtime::Browser(b) => b.initial(),
            Runtime::AppletViewer => "appletviewer",
            Runtime::MobileWebKit => "M",
        }
    }
}

/// Connection-management behaviour of one technology in one browser.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConnPolicy {
    /// Open a *new* TCP connection for the first measurement request
    /// instead of reusing the container page's (Opera's Flash behaviour —
    /// the mechanism behind Table 3's inflated Δd1).
    pub fresh_conn_round1: bool,
    /// Open a new connection for *every* POST (Opera's Flash POST
    /// behaviour — Table 3's inflated Δd2 for POST).
    pub fresh_conn_per_post: bool,
}

impl ConnPolicy {
    /// Reuse connections wherever possible (every browser except Opera's
    /// Flash stack).
    pub const REUSE: ConnPolicy = ConnPolicy {
        fresh_conn_round1: false,
        fresh_conn_per_post: false,
    };

    /// Opera's Flash behaviour.
    pub const OPERA_FLASH: ConnPolicy = ConnPolicy {
        fresh_conn_round1: true,
        fresh_conn_per_post: true,
    };
}

/// Code-path primitive latencies (all [`DelayModel`]s, µs scale).
#[derive(Debug, Clone, PartialEq)]
pub struct PathPrimitives {
    /// send(2) syscall → frame visible at the capture point.
    pub os_send: DelayModel,
    /// Frame at the capture point → bytes readable by the app.
    pub os_recv: DelayModel,
    /// One trip through the browser event loop (task dispatch), including
    /// the occasional GC/render jank spike.
    pub event_dispatch: DelayModel,
    /// Executing a small JS callback.
    pub js_exec: DelayModel,
    /// XHR `send()` internals.
    pub xhr_send: DelayModel,
    /// XHR response internals (header parse, readyState bookkeeping).
    pub xhr_recv: DelayModel,
    /// Inserting a `<script>`/`<img>` element.
    pub dom_insert: DelayModel,
    /// Firing `onload` for a DOM element.
    pub dom_onload: DelayModel,
    /// One browser ↔ Flash player crossing (NPAPI marshalling).
    pub flash_bridge: DelayModel,
    /// `URLLoader` request internals (the expensive part of Flash HTTP).
    pub flash_url_send: DelayModel,
    /// `URLLoader` response internals.
    pub flash_url_recv: DelayModel,
    /// Flash `Socket` write path.
    pub flash_socket_send: DelayModel,
    /// Flash `Socket` data-event path.
    pub flash_socket_recv: DelayModel,
    /// Java `URL` request path (in the JVM).
    pub java_http_send: DelayModel,
    /// Java `URL` response path.
    pub java_http_recv: DelayModel,
    /// Extra cost of a round-2 Java GET (connection-cache revalidation;
    /// the paper's Table 4 shows Δd2 > Δd1 for Java GET).
    pub java_get_round2_extra: DelayModel,
    /// Round-2 Java POST path scale (< 1: Table 4 shows POST Δd2 < Δd1).
    pub java_post_round2_scale: f64,
    /// Java `Socket` write path.
    pub java_socket_send: DelayModel,
    /// Java `Socket` read path.
    pub java_socket_recv: DelayModel,
    /// Extra continuous noise on round-2 Java paths — Safari/Windows'
    /// broken default Java interface (`JavaPlugin.jar`; paper §5).
    pub java_round2_noise: Option<DelayModel>,
    /// WebSocket `send()` path.
    pub ws_send: DelayModel,
    /// WebSocket `onmessage` path (its own fast dispatch lane).
    pub ws_recv: DelayModel,
    /// Parsing + first render of the container page (preparation phase).
    pub page_render: DelayModel,
}

/// First-use costs added to round 1 only (object instantiation).
#[derive(Debug, Clone, PartialEq)]
pub struct FirstUse {
    /// Creating the XHR object.
    pub xhr: DelayModel,
    /// First DOM-element insertion machinery.
    pub dom: DelayModel,
    /// First `URLLoader` use inside a fresh Flash object.
    pub flash_http: DelayModel,
    /// First Flash `Socket` send.
    pub flash_socket: DelayModel,
    /// First Java `URL` use (class loading beyond applet warm-up).
    pub java_http: DelayModel,
    /// First Java `Socket` send.
    pub java_socket: DelayModel,
    /// First WebSocket `send()`.
    pub ws: DelayModel,
}

/// A complete per-(runtime, OS) cost profile.
#[derive(Debug, Clone, PartialEq)]
pub struct BrowserProfile {
    /// Which runtime this profiles.
    pub runtime: Runtime,
    /// Which OS it runs on.
    pub os: OsKind,
    /// Code-path primitives (already scaled for this browser).
    pub prims: PathPrimitives,
    /// Round-1 instantiation costs.
    pub first_use: FirstUse,
    /// Connection policy for HTTP via the browser stack (XHR, DOM).
    pub native_policy: ConnPolicy,
    /// Connection policy for Flash's `URLLoader`.
    pub flash_policy: ConnPolicy,
    /// Connection policy for the JVM's HTTP stack.
    pub java_policy: ConnPolicy,
    /// WebSocket availability.
    pub supports_websocket: bool,
}

/// Per-browser scaling factors applied to the baseline primitives.
struct Factors {
    /// Browser-stack paths (XHR, DOM, WS, dispatch).
    general: f64,
    /// Flash paths.
    flash: f64,
    /// Java paths (≈1: the JVM is the same everywhere; Safari's broken
    /// plug-in is handled separately).
    java: f64,
}

fn factors(kind: BrowserKind, os: OsKind) -> Factors {
    use BrowserKind::*;
    use OsKind::*;
    let (general, flash, java) = match (kind, os) {
        (Chrome, Ubuntu1204) => (1.0, 1.2, 1.0),
        (Firefox, Ubuntu1204) => (1.15, 1.5, 1.0),
        (Opera, Ubuntu1204) => (1.3, 0.95, 1.0),
        (Chrome, Windows7) => (1.6, 1.5, 1.0),
        (Firefox, Windows7) => (1.9, 1.7, 1.0),
        (Ie9, Windows7) => (2.8, 2.0, 1.0),
        (Opera, Windows7) => (2.1, 0.9, 1.0),
        (Safari, Windows7) => (3.2, 2.2, 0.65),
        // Not in the testbed, but keep the model total.
        (Ie9, Ubuntu1204) | (Safari, Ubuntu1204) => (2.0, 2.0, 1.0),
    };
    Factors {
        general,
        flash,
        java,
    }
}

/// Baseline primitives (Chrome on Ubuntu ≙ factor 1.0). Magnitudes in µs.
fn baseline() -> PathPrimitives {
    PathPrimitives {
        os_send: DelayModel::fixed(6.0),
        os_recv: DelayModel::fixed(10.0),
        event_dispatch: DelayModel::lognorm(100.0, 250.0, 0.8).with_spike(0.02, 3_000.0, 25_000.0),
        js_exec: DelayModel::lognorm(40.0, 120.0, 0.5),
        xhr_send: DelayModel::lognorm(150.0, 600.0, 0.6),
        xhr_recv: DelayModel::lognorm(400.0, 2_000.0, 0.7),
        dom_insert: DelayModel::lognorm(100.0, 350.0, 0.5),
        dom_onload: DelayModel::lognorm(200.0, 700.0, 0.6),
        flash_bridge: DelayModel::lognorm(250.0, 900.0, 0.6),
        flash_url_send: DelayModel::lognorm(2_500.0, 5_500.0, 0.45),
        flash_url_recv: DelayModel::lognorm(3_500.0, 8_000.0, 0.5),
        flash_socket_send: DelayModel::lognorm(80.0, 180.0, 0.5),
        flash_socket_recv: DelayModel::lognorm(150.0, 420.0, 0.7),
        java_http_send: DelayModel::lognorm(500.0, 700.0, 0.3),
        java_http_recv: DelayModel::lognorm(700.0, 900.0, 0.35),
        java_get_round2_extra: DelayModel::lognorm(800.0, 1_000.0, 0.3),
        java_post_round2_scale: 0.62,
        java_socket_send: DelayModel::fixed(8.0),
        java_socket_recv: DelayModel::lognorm(10.0, 15.0, 0.3),
        java_round2_noise: None,
        ws_send: DelayModel::lognorm(50.0, 90.0, 0.4),
        ws_recv: DelayModel::lognorm(120.0, 250.0, 0.5),
        page_render: DelayModel::lognorm(2_000.0, 5_000.0, 0.5),
    }
}

impl BrowserProfile {
    /// The profile for a browser on an OS; `None` if that browser is not
    /// in the testbed on that OS (Table 2).
    pub fn build(kind: BrowserKind, os: OsKind) -> Option<BrowserProfile> {
        if !kind.available_on(os) {
            return None;
        }
        let f = factors(kind, os);
        let b = baseline();
        let g = f.general;
        let fl = f.flash;
        let j = f.java;
        let mut prims = PathPrimitives {
            os_send: b.os_send,
            os_recv: b.os_recv,
            event_dispatch: b.event_dispatch.scaled(g),
            js_exec: b.js_exec.scaled(g),
            xhr_send: b.xhr_send.scaled(g),
            xhr_recv: b.xhr_recv.scaled(g),
            dom_insert: b.dom_insert.scaled(g),
            dom_onload: b.dom_onload.scaled(g),
            flash_bridge: b.flash_bridge.scaled(fl),
            flash_url_send: b.flash_url_send.scaled(fl),
            flash_url_recv: b.flash_url_recv.scaled(fl),
            flash_socket_send: b.flash_socket_send.scaled(fl),
            flash_socket_recv: b.flash_socket_recv.scaled(fl),
            java_http_send: b.java_http_send.scaled(j),
            java_http_recv: b.java_http_recv.scaled(j),
            java_get_round2_extra: b.java_get_round2_extra.scaled(j),
            java_post_round2_scale: b.java_post_round2_scale,
            java_socket_send: b.java_socket_send,
            java_socket_recv: b.java_socket_recv,
            java_round2_noise: None,
            ws_send: b.ws_send.scaled(g),
            ws_recv: b.ws_recv.scaled(g),
            page_render: b.page_render.scaled(g),
        };
        // Safari's default Java interface (JavaPlugin.jar /
        // npJavaPlugin.dll) "runs into problems easily" (§5): broad
        // continuous noise on repeated use. Safari has no round-2 GET
        // penalty either — its Δd2 is *lower* than Δd1 in Table 4.
        if kind == BrowserKind::Safari {
            prims.java_round2_noise =
                Some(DelayModel::lognorm(0.0, 4_000.0, 0.9).with_spike(0.3, 4_000.0, 10_000.0));
            prims.java_get_round2_extra = DelayModel::ZERO;
            prims.java_post_round2_scale = 0.85;
        }
        let first_use = FirstUse {
            xhr: DelayModel::lognorm(300.0, 900.0, 0.5).scaled(g),
            dom: DelayModel::lognorm(150.0, 350.0, 0.5).scaled(g),
            flash_http: DelayModel::lognorm(9_000.0, 14_000.0, 0.4).scaled(
                if kind == BrowserKind::Opera {
                    fl * 1.55
                } else {
                    fl
                },
            ),
            flash_socket: DelayModel::lognorm(100.0, 200.0, 0.4).scaled(fl),
            java_http: DelayModel::ZERO, // applet warm-up happens in prep
            java_socket: DelayModel::ZERO,
            ws: if kind == BrowserKind::Opera && os == OsKind::Windows7 {
                // Opera (W) Δd1 is the one unstable WebSocket box in
                // Figure 3(d).
                DelayModel::lognorm(200.0, 400.0, 0.5).with_spike(0.35, 8_000.0, 40_000.0)
            } else {
                DelayModel::lognorm(100.0, 250.0, 0.4).scaled(g)
            },
        };
        Some(BrowserProfile {
            runtime: Runtime::Browser(kind),
            os,
            prims,
            first_use,
            native_policy: ConnPolicy::REUSE,
            flash_policy: if kind == BrowserKind::Opera {
                ConnPolicy::OPERA_FLASH
            } else {
                ConnPolicy::REUSE
            },
            java_policy: ConnPolicy::REUSE,
            supports_websocket: kind.supports_websocket(),
        })
    }

    /// The `appletviewer` profile: Java applets with no browser and no
    /// Java Plug-in (Figure 4(b)). Only Java methods are meaningful.
    pub fn appletviewer(os: OsKind) -> BrowserProfile {
        let b = baseline();
        BrowserProfile {
            runtime: Runtime::AppletViewer,
            os,
            prims: b.clone(),
            first_use: FirstUse {
                xhr: DelayModel::ZERO,
                dom: DelayModel::ZERO,
                flash_http: DelayModel::ZERO,
                flash_socket: DelayModel::ZERO,
                java_http: DelayModel::ZERO,
                java_socket: DelayModel::ZERO,
                ws: DelayModel::ZERO,
            },
            native_policy: ConnPolicy::REUSE,
            flash_policy: ConnPolicy::REUSE,
            java_policy: ConnPolicy::REUSE,
            supports_websocket: false,
        }
    }

    /// A mobile WebKit profile (§7 extension): native code paths only,
    /// scaled up for 2013 mobile CPUs; plug-ins do not exist on the
    /// platform, making WebSocket "the remaining choice for performing
    /// socket-based measurement" (§2.1).
    pub fn mobile_webkit() -> BrowserProfile {
        let b = baseline();
        let g = 3.5; // mobile-CPU scaling of the browser paths
        let prims = PathPrimitives {
            os_send: b.os_send,
            os_recv: b.os_recv,
            event_dispatch: b.event_dispatch.scaled(g),
            js_exec: b.js_exec.scaled(g),
            xhr_send: b.xhr_send.scaled(g),
            xhr_recv: b.xhr_recv.scaled(g),
            dom_insert: b.dom_insert.scaled(g),
            dom_onload: b.dom_onload.scaled(g),
            ws_send: b.ws_send.scaled(g),
            ws_recv: b.ws_recv.scaled(g),
            page_render: b.page_render.scaled(g * 1.5),
            ..b
        };
        let first_use = FirstUse {
            xhr: DelayModel::lognorm(300.0, 900.0, 0.5).scaled(g),
            dom: DelayModel::lognorm(150.0, 350.0, 0.5).scaled(g),
            flash_http: DelayModel::ZERO,
            flash_socket: DelayModel::ZERO,
            java_http: DelayModel::ZERO,
            java_socket: DelayModel::ZERO,
            ws: DelayModel::lognorm(100.0, 250.0, 0.4).scaled(g),
        };
        BrowserProfile {
            runtime: Runtime::MobileWebKit,
            os: OsKind::Ubuntu1204, // a Linux-kernel mobile OS: 1 ms timer
            prims,
            first_use,
            native_policy: ConnPolicy::REUSE,
            flash_policy: ConnPolicy::REUSE,
            java_policy: ConnPolicy::REUSE,
            supports_websocket: true,
        }
    }

    /// §5's Safari fix: delete `JavaPlugin.jar`/`npJavaPlugin.dll` so the
    /// Oracle JRE is used directly — removes the round-2 Java noise.
    pub fn with_fixed_safari_java(mut self) -> BrowserProfile {
        self.prims.java_round2_noise = None;
        self
    }

    /// Connection policy for a technology.
    pub fn conn_policy(&self, tech: Technology) -> ConnPolicy {
        match tech {
            Technology::Native => self.native_policy,
            Technology::Flash => self.flash_policy,
            Technology::JavaApplet => self.java_policy,
        }
    }

    /// The delay segments between "measurement code decides to send" and
    /// "bytes handed to the network stack", for one probe.
    pub fn send_path(
        &self,
        tech: Technology,
        transport: ProbeTransport,
        round: u8,
    ) -> Vec<PathSeg> {
        use Component::{Bridge, Parse, Stack};
        let p = &self.prims;
        let mut path = match (tech, transport) {
            (Technology::Native, ProbeTransport::HttpGet | ProbeTransport::HttpPost) => {
                vec![
                    seg("js_exec", Component::Dispatch, p.js_exec),
                    seg("xhr_send", Parse, p.xhr_send),
                ]
            }
            (Technology::Native, ProbeTransport::WebSocketEcho) => vec![
                seg("js_exec", Component::Dispatch, p.js_exec),
                seg("ws_send", Parse, p.ws_send),
            ],
            // The data-channel `send()` costs what a WebSocket send does:
            // both serialize a small message and hand it to the stack.
            (Technology::Native, ProbeTransport::WebRtcData) => vec![
                seg("js_exec", Component::Dispatch, p.js_exec),
                seg("dc_send", Parse, p.ws_send),
            ],
            (Technology::Flash, ProbeTransport::HttpGet | ProbeTransport::HttpPost) => {
                vec![
                    seg("flash_url_send", Parse, p.flash_url_send),
                    seg("flash_bridge", Bridge, p.flash_bridge),
                ]
            }
            (Technology::Flash, ProbeTransport::TcpEcho) => {
                vec![seg("flash_socket_send", Stack, p.flash_socket_send)]
            }
            (Technology::JavaApplet, ProbeTransport::HttpGet | ProbeTransport::HttpPost) => {
                let mut m = p.java_http_send;
                if transport == ProbeTransport::HttpPost && round >= 2 {
                    m = m.scaled(p.java_post_round2_scale);
                }
                vec![seg("java_http_send", Parse, m)]
            }
            (Technology::JavaApplet, ProbeTransport::TcpEcho | ProbeTransport::UdpEcho) => {
                vec![seg("java_socket_send", Stack, p.java_socket_send)]
            }
            // DOM is Native+HttpGet in Table 1; the DOM-specific path is
            // selected by the method label through `dom_paths`.
            (t, tr) => unreachable!("no path for {t:?} over {tr:?}"),
        };
        path.push(seg("os_send", Stack, p.os_send));
        path
    }

    /// The DOM method's send path (element insertion instead of XHR).
    pub fn dom_send_path(&self) -> Vec<PathSeg> {
        vec![
            seg("js_exec", Component::Dispatch, self.prims.js_exec),
            seg("dom_insert", Component::Dispatch, self.prims.dom_insert),
            seg("os_send", Component::Stack, self.prims.os_send),
        ]
    }

    /// The delay segments between "response bytes readable" and "the
    /// measurement code reads `tB_r`".
    pub fn recv_path(
        &self,
        tech: Technology,
        transport: ProbeTransport,
        round: u8,
    ) -> Vec<PathSeg> {
        use Component::{Bridge, Dispatch, Parse, Stack};
        let p = &self.prims;
        let mut path = vec![seg("os_recv", Stack, p.os_recv)];
        match (tech, transport) {
            (Technology::Native, ProbeTransport::HttpGet | ProbeTransport::HttpPost) => {
                path.push(seg("event_dispatch", Dispatch, p.event_dispatch));
                path.push(seg("xhr_recv", Parse, p.xhr_recv));
            }
            (Technology::Native, ProbeTransport::WebSocketEcho) => {
                path.push(seg("ws_recv", Parse, p.ws_recv));
            }
            (Technology::Native, ProbeTransport::WebRtcData) => {
                path.push(seg("dc_recv", Parse, p.ws_recv));
            }
            (Technology::Flash, ProbeTransport::HttpGet | ProbeTransport::HttpPost) => {
                path.push(seg("flash_bridge", Bridge, p.flash_bridge));
                path.push(seg("flash_url_recv", Parse, p.flash_url_recv));
                path.push(seg("event_dispatch", Dispatch, p.event_dispatch));
            }
            (Technology::Flash, ProbeTransport::TcpEcho) => {
                path.push(seg("flash_socket_recv", Stack, p.flash_socket_recv));
            }
            (Technology::JavaApplet, ProbeTransport::HttpGet | ProbeTransport::HttpPost) => {
                let mut m = p.java_http_recv;
                if transport == ProbeTransport::HttpPost && round >= 2 {
                    m = m.scaled(p.java_post_round2_scale);
                }
                path.push(seg("java_http_recv", Parse, m));
                if transport == ProbeTransport::HttpGet && round >= 2 {
                    path.push(seg("java_get_round2_extra", Parse, p.java_get_round2_extra));
                }
                if round >= 2 {
                    if let Some(noise) = p.java_round2_noise {
                        path.push(seg("java_round2_noise", Parse, noise));
                    }
                }
            }
            (Technology::JavaApplet, ProbeTransport::TcpEcho | ProbeTransport::UdpEcho) => {
                path.push(seg("java_socket_recv", Stack, p.java_socket_recv));
                if round >= 2 {
                    // Small warm-cache asymmetry: Table 4 shows socket Δd2
                    // marginally above Δd1.
                    path.push(seg(
                        "java_socket_warm_cache",
                        Stack,
                        DelayModel::fixed(55.0),
                    ));
                    if let Some(noise) = p.java_round2_noise {
                        path.push(seg("java_round2_noise", Parse, noise));
                    }
                }
            }
            (t, tr) => unreachable!("no path for {t:?} over {tr:?}"),
        }
        path
    }

    /// The DOM method's receive path (`onload` instead of readyState).
    pub fn dom_recv_path(&self) -> Vec<PathSeg> {
        vec![
            seg("os_recv", Component::Stack, self.prims.os_recv),
            seg(
                "event_dispatch",
                Component::Dispatch,
                self.prims.event_dispatch,
            ),
            seg("dom_onload", Component::Dispatch, self.prims.dom_onload),
        ]
    }

    /// First-use (round 1) instantiation cost for a technology/transport.
    pub fn first_use_cost(&self, tech: Technology, transport: ProbeTransport) -> DelayModel {
        match (tech, transport) {
            (Technology::Native, ProbeTransport::WebSocketEcho | ProbeTransport::WebRtcData) => {
                self.first_use.ws
            }
            (Technology::Native, _) => self.first_use.xhr,
            (Technology::Flash, ProbeTransport::TcpEcho) => self.first_use.flash_socket,
            (Technology::Flash, _) => self.first_use.flash_http,
            (Technology::JavaApplet, ProbeTransport::TcpEcho | ProbeTransport::UdpEcho) => {
                self.first_use.java_socket
            }
            (Technology::JavaApplet, _) => self.first_use.java_http,
        }
    }

    /// First-use cost for the DOM method.
    pub fn dom_first_use_cost(&self) -> DelayModel {
        self.first_use.dom
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn availability_matches_table2() {
        use BrowserKind::*;
        use OsKind::*;
        let win: Vec<_> = BrowserKind::ALL
            .iter()
            .filter(|b| b.available_on(Windows7))
            .collect();
        assert_eq!(win.len(), 5);
        let ubu: Vec<_> = BrowserKind::ALL
            .iter()
            .filter(|b| b.available_on(Ubuntu1204))
            .collect();
        assert_eq!(ubu.len(), 3);
        assert!(!Ie9.available_on(Ubuntu1204));
        assert!(!Safari.available_on(Ubuntu1204));
        assert!(BrowserProfile::build(Ie9, Ubuntu1204).is_none());
    }

    #[test]
    fn websocket_support_matches_table2() {
        assert!(BrowserKind::Chrome.supports_websocket());
        assert!(BrowserKind::Firefox.supports_websocket());
        assert!(BrowserKind::Opera.supports_websocket());
        assert!(!BrowserKind::Ie9.supports_websocket());
        assert!(!BrowserKind::Safari.supports_websocket());
    }

    #[test]
    fn only_opera_flash_opens_fresh_connections() {
        for kind in BrowserKind::ALL {
            let Some(p) = BrowserProfile::build(kind, OsKind::Windows7) else {
                continue;
            };
            let policy = p.conn_policy(Technology::Flash);
            if kind == BrowserKind::Opera {
                assert!(policy.fresh_conn_round1);
                assert!(policy.fresh_conn_per_post);
            } else {
                assert_eq!(policy, ConnPolicy::REUSE);
            }
            assert_eq!(p.conn_policy(Technology::Native), ConnPolicy::REUSE);
        }
    }

    /// Sum of path-segment medians, ms.
    fn median_path_ms(path: &[PathSeg]) -> f64 {
        path.iter().map(|s| s.model.median_us()).sum::<f64>() / 1e3
    }

    #[test]
    fn path_cost_ordering_matches_the_paper() {
        let p = BrowserProfile::build(BrowserKind::Chrome, OsKind::Ubuntu1204).unwrap();
        let xhr = median_path_ms(&p.send_path(Technology::Native, ProbeTransport::HttpGet, 1))
            + median_path_ms(&p.recv_path(Technology::Native, ProbeTransport::HttpGet, 1));
        let dom = median_path_ms(&p.dom_send_path()) + median_path_ms(&p.dom_recv_path());
        let flash = median_path_ms(&p.send_path(Technology::Flash, ProbeTransport::HttpGet, 1))
            + median_path_ms(&p.recv_path(Technology::Flash, ProbeTransport::HttpGet, 1));
        let ws = median_path_ms(&p.send_path(Technology::Native, ProbeTransport::WebSocketEcho, 1))
            + median_path_ms(&p.recv_path(Technology::Native, ProbeTransport::WebSocketEcho, 1));
        let jsock =
            median_path_ms(&p.send_path(Technology::JavaApplet, ProbeTransport::TcpEcho, 1))
                + median_path_ms(&p.recv_path(Technology::JavaApplet, ProbeTransport::TcpEcho, 1));
        assert!(flash > xhr, "Flash {flash} > XHR {xhr}");
        assert!(xhr > dom, "XHR {xhr} > DOM {dom}");
        assert!(dom > ws, "DOM {dom} > WS {ws}");
        assert!(ws > jsock, "WS {ws} > Java socket {jsock}");
        // Socket methods are sub-millisecond; Flash HTTP is tens of ms.
        assert!(jsock < 0.1, "java socket path {jsock} ms");
        assert!(ws < 1.0, "ws path {ws} ms");
        assert!(flash > 15.0, "flash path {flash} ms");
    }

    #[test]
    fn windows_paths_cost_more_than_ubuntu() {
        for kind in [
            BrowserKind::Chrome,
            BrowserKind::Firefox,
            BrowserKind::Opera,
        ] {
            let u = BrowserProfile::build(kind, OsKind::Ubuntu1204).unwrap();
            let w = BrowserProfile::build(kind, OsKind::Windows7).unwrap();
            let cost = |p: &BrowserProfile| {
                median_path_ms(&p.send_path(Technology::Native, ProbeTransport::HttpGet, 1))
                    + median_path_ms(&p.recv_path(Technology::Native, ProbeTransport::HttpGet, 1))
            };
            assert!(cost(&w) > cost(&u), "{kind:?}");
        }
    }

    #[test]
    fn java_paths_are_browser_independent() {
        let c = BrowserProfile::build(BrowserKind::Chrome, OsKind::Windows7).unwrap();
        let f = BrowserProfile::build(BrowserKind::Firefox, OsKind::Windows7).unwrap();
        let cost = |p: &BrowserProfile| {
            median_path_ms(&p.send_path(Technology::JavaApplet, ProbeTransport::HttpGet, 1))
        };
        assert!((cost(&c) - cost(&f)).abs() < 1e-9);
    }

    #[test]
    fn java_round2_get_is_dearer_and_post_is_cheaper() {
        let p = BrowserProfile::build(BrowserKind::Chrome, OsKind::Windows7).unwrap();
        let get1 = median_path_ms(&p.recv_path(Technology::JavaApplet, ProbeTransport::HttpGet, 1));
        let get2 = median_path_ms(&p.recv_path(Technology::JavaApplet, ProbeTransport::HttpGet, 2));
        assert!(get2 > get1 + 1.0, "round-2 GET extra");
        let post1 =
            median_path_ms(&p.send_path(Technology::JavaApplet, ProbeTransport::HttpPost, 1))
                + median_path_ms(&p.recv_path(Technology::JavaApplet, ProbeTransport::HttpPost, 1));
        let post2 =
            median_path_ms(&p.send_path(Technology::JavaApplet, ProbeTransport::HttpPost, 2))
                + median_path_ms(&p.recv_path(Technology::JavaApplet, ProbeTransport::HttpPost, 2));
        assert!(post2 < post1, "round-2 POST cheaper");
    }

    #[test]
    fn safari_java_noise_and_its_fix() {
        let s = BrowserProfile::build(BrowserKind::Safari, OsKind::Windows7).unwrap();
        assert!(s.prims.java_round2_noise.is_some());
        let fixed = s.with_fixed_safari_java();
        assert!(fixed.prims.java_round2_noise.is_none());
    }

    #[test]
    fn appletviewer_has_no_browser_costs() {
        let av = BrowserProfile::appletviewer(OsKind::Windows7);
        assert_eq!(av.runtime, Runtime::AppletViewer);
        assert_eq!(av.first_use.java_http, DelayModel::ZERO);
        assert!(!av.supports_websocket);
        assert_eq!(av.runtime.label(), "appletviewer");
    }

    #[test]
    fn versions_match_table2() {
        assert_eq!(BrowserKind::Chrome.version(), "23.0");
        assert_eq!(
            BrowserKind::Chrome.flash_version(OsKind::Windows7),
            "11.7.700"
        );
        assert_eq!(
            BrowserKind::Firefox.flash_version(OsKind::Ubuntu1204),
            "11.2.202"
        );
        assert_eq!(BrowserKind::Opera.java_version(OsKind::Windows7), "1.7.0");
        assert_eq!(BrowserKind::Opera.java_version(OsKind::Ubuntu1204), "1.6.0");
    }
}
