//! The paper's §5 "Practical Considerations", codified.
//!
//! Given deployment constraints (mobile platform? plug-ins allowed?
//! cross-origin needed?), rank the measurement methods and emit the
//! paper's concrete advice: Java socket + `System.nanoTime()` where
//! plug-ins run; WebSocket as the universal native choice; never Flash
//! GET/POST; Firefox on Windows, Chrome on Ubuntu; avoid Safari's default
//! Java interface.

use bnm_browser::BrowserKind;
use bnm_methods::MethodId;
use bnm_time::{OsKind, TimingApiKind};

use crate::appraisal::Verdict;
use crate::report::ReportSnapshot;

/// Deployment constraints for method selection.
#[derive(Debug, Clone, Copy)]
pub struct Constraints {
    /// Target includes mobile platforms (no Flash/Java plug-ins — §2.1).
    pub mobile: bool,
    /// Measurement server is a different origin than the page, with no
    /// ability to install cross-domain policies or sign applets.
    pub strict_cross_origin: bool,
    /// Plug-ins acceptable on desktop.
    pub plugins_allowed: bool,
    /// Server can open extra service ports for sockets.
    pub can_open_ports: bool,
}

impl Default for Constraints {
    fn default() -> Self {
        Constraints {
            mobile: false,
            strict_cross_origin: false,
            plugins_allowed: true,
            can_open_ports: true,
        }
    }
}

/// A recommendation with its rationale.
#[derive(Debug, Clone)]
pub struct Recommendation {
    /// The method, best first.
    pub method: MethodId,
    /// The timing API to use with it.
    pub timing: TimingApiKind,
    /// Why (with the paper-section provenance).
    pub rationale: &'static str,
}

/// Rank methods under the constraints, best first.
pub fn recommend_methods(c: &Constraints) -> Vec<Recommendation> {
    let mut out = Vec::new();
    let plugins = c.plugins_allowed && !c.mobile;
    if plugins && c.can_open_ports {
        out.push(Recommendation {
            method: MethodId::JavaTcp,
            timing: TimingApiKind::JavaNanoTime,
            rationale: "§5: the Java applet socket method with System.nanoTime() is \
                        comparable to tcpdump/WinDump",
        });
    }
    if c.can_open_ports {
        out.push(Recommendation {
            method: MethodId::WebSocket,
            timing: TimingApiKind::JsDateGetTime,
            rationale: "§4: WebSocket gives the most accurate and consistent RTT among \
                        native methods, and works on mobile (§2.1)",
        });
    }
    if plugins && c.can_open_ports {
        out.push(Recommendation {
            method: MethodId::FlashTcp,
            timing: TimingApiKind::FlashGetTime,
            rationale: "§4: Flash TCP socket overhead is small, though the plug-in is \
                        unavailable on mobile",
        });
    }
    // HTTP fallbacks.
    out.push(Recommendation {
        method: MethodId::Dom,
        timing: TimingApiKind::JsDateGetTime,
        rationale: "§4: DOM is the most consistent HTTP-based method and evades the \
                    same-origin policy",
    });
    if !c.strict_cross_origin {
        out.push(Recommendation {
            method: MethodId::XhrGet,
            timing: TimingApiKind::JsDateGetTime,
            rationale: "§4: XHR overhead is a few to tens of ms — usable when sockets \
                        and DOM tricks are unavailable",
        });
    }
    out
}

/// Methods the paper explicitly advises against.
pub fn discouraged() -> Vec<(MethodId, &'static str)> {
    vec![
        (
            MethodId::FlashGet,
            "§4: the highest and most browser-dependent overheads; Opera opens a new \
             TCP connection whose handshake silently lands in the RTT (Table 3)",
        ),
        (
            MethodId::FlashPost,
            "§4/Table 3: every POST opens a fresh connection in Opera — the \
             handshake cannot be avoided even on round 2",
        ),
    ]
}

/// The preferred browser per OS (§5).
pub fn preferred_browser(os: OsKind) -> BrowserKind {
    match os {
        OsKind::Windows7 => BrowserKind::Firefox,
        OsKind::Ubuntu1204 => BrowserKind::Chrome,
    }
}

/// Timing-API advice for a method (§4.2/§5).
pub fn timing_advice(method: MethodId) -> (TimingApiKind, &'static str) {
    use bnm_browser::Technology;
    match method.technology() {
        Technology::JavaApplet => (
            TimingApiKind::JavaNanoTime,
            "Date.getTime()/System.currentTimeMillis() tick at the OS timer \
             granularity (1 or ~15.6 ms on Windows 7); switch to System.nanoTime()",
        ),
        Technology::Native => (
            TimingApiKind::JsDateGetTime,
            "browser Date.getTime() holds 1 ms granularity on both OSes",
        ),
        Technology::Flash => (
            TimingApiKind::FlashGetTime,
            "ActionScript getTime() holds 1 ms granularity; the method's problem is \
             its path cost, not its clock",
        ),
    }
}

/// A measurement-backed verdict for one cell, digested from the
/// [`ReportSnapshot`] summary shape — the *same* shape whether the
/// samples came from a batch run
/// ([`crate::runner::CellResult::summary`]) or a live `bnm serve`
/// monitor poll, so ranking logic never touches raw result fields.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasuredVerdict {
    /// The cell label, e.g. `"WebSocket / C (U)"`.
    pub label: String,
    /// The appraisal verdict of the pooled lifetime distribution.
    pub verdict: Verdict,
    /// Pooled median Δd, ms.
    pub median_ms: f64,
    /// Pooled inter-quartile range, ms.
    pub iqr_ms: f64,
    /// Samples behind the verdict.
    pub samples: u64,
    /// Repetitions that failed outright (incomplete session).
    pub failures: u64,
    /// Measured probe loss for datagram methods, 0..=1 (`0.0` for
    /// reliable transports — their losses surface as retransmissions,
    /// i.e. excluded rounds, not missing samples).
    pub loss_rate: f64,
}

impl MeasuredVerdict {
    /// A 0–100 deployment score for ranking methods within one network
    /// scenario. The verdict class sets the base (the paper's §4/§5
    /// taxonomy), then measured evidence subtracts: bias (|median Δd|)
    /// and spread (IQR) each cost up to 15 points at 2 ms per point,
    /// any outright failure costs 10, and datagram loss costs a point
    /// per percent up to 15. Deterministic in the snapshot, so serial
    /// and parallel runs score identically.
    pub fn score(&self) -> f64 {
        let base = match self.verdict {
            Verdict::Accurate => 100.0,
            Verdict::Calibratable => 75.0,
            Verdict::UnderEstimates => 50.0,
            Verdict::Unreliable => 25.0,
        };
        let bias = (self.median_ms.abs() / 2.0).min(15.0);
        let spread = (self.iqr_ms / 2.0).min(15.0);
        let fail = if self.failures > 0 { 10.0 } else { 0.0 };
        let loss = (self.loss_rate * 100.0).min(15.0);
        (base - bias - spread - fail - loss).max(0.0)
    }
}

/// Appraise one snapshot; `None` when it holds no samples yet.
pub fn appraise_snapshot(snap: &ReportSnapshot) -> Option<MeasuredVerdict> {
    let verdict = snap.verdict()?;
    let pooled = &snap.total().pooled;
    let loss_rate = snap
        .datagram
        .as_ref()
        .filter(|d| d.sent > 0)
        .map(|d| d.loss_rate())
        .unwrap_or(0.0);
    Some(MeasuredVerdict {
        label: snap.label.clone(),
        verdict,
        median_ms: pooled.p50,
        iqr_ms: pooled.iqr(),
        samples: pooled.count,
        failures: snap.failures,
        loss_rate,
    })
}

/// Browser-specific warnings (§5).
pub fn browser_warnings(browser: BrowserKind) -> Vec<&'static str> {
    let mut w = Vec::new();
    if browser == BrowserKind::Safari {
        w.push(
            "Safari's default Java interface (JavaPlugin.jar/npJavaPlugin.dll) is \
             unreliable; delete it so the Oracle JRE is used directly (§5)",
        );
    }
    if browser == BrowserKind::Opera {
        w.push(
            "Opera's Flash stack opens new TCP connections for measurement requests; \
             Flash HTTP RTTs include handshakes (Table 3)",
        );
    }
    if !browser.supports_websocket() {
        w.push("this browser version has no WebSocket support (Table 2)");
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn desktop_defaults_put_java_socket_first() {
        let recs = recommend_methods(&Constraints::default());
        assert_eq!(recs[0].method, MethodId::JavaTcp);
        assert_eq!(recs[0].timing, TimingApiKind::JavaNanoTime);
        assert_eq!(recs[1].method, MethodId::WebSocket);
    }

    #[test]
    fn mobile_excludes_plugins() {
        let recs = recommend_methods(&Constraints {
            mobile: true,
            ..Constraints::default()
        });
        assert!(recs.iter().all(|r| {
            !matches!(
                r.method,
                MethodId::JavaTcp | MethodId::FlashTcp | MethodId::FlashGet
            )
        }));
        assert_eq!(recs[0].method, MethodId::WebSocket);
    }

    #[test]
    fn no_ports_falls_back_to_http() {
        let recs = recommend_methods(&Constraints {
            can_open_ports: false,
            ..Constraints::default()
        });
        assert_eq!(recs[0].method, MethodId::Dom);
    }

    #[test]
    fn strict_cross_origin_drops_xhr() {
        let recs = recommend_methods(&Constraints {
            strict_cross_origin: true,
            ..Constraints::default()
        });
        assert!(recs.iter().all(|r| r.method != MethodId::XhrGet));
        assert!(recs.iter().any(|r| r.method == MethodId::Dom));
    }

    #[test]
    fn flash_http_is_discouraged() {
        let d = discouraged();
        assert!(d.iter().any(|(m, _)| *m == MethodId::FlashGet));
        assert!(d.iter().any(|(m, _)| *m == MethodId::FlashPost));
    }

    #[test]
    fn preferred_browsers_match_section5() {
        assert_eq!(preferred_browser(OsKind::Windows7), BrowserKind::Firefox);
        assert_eq!(preferred_browser(OsKind::Ubuntu1204), BrowserKind::Chrome);
    }

    #[test]
    fn java_timing_advice_is_nanotime() {
        let (api, why) = timing_advice(MethodId::JavaTcp);
        assert_eq!(api, TimingApiKind::JavaNanoTime);
        assert!(why.contains("nanoTime"));
    }

    #[test]
    fn snapshots_appraise_to_their_verdict_class() {
        use crate::config::RuntimeSel;
        use crate::runner::CellResult;
        let snap = |label: &str, d: f64, spread: f64| {
            let cell = crate::config::ExperimentCell::paper(
                MethodId::XhrGet,
                RuntimeSel::Browser(BrowserKind::Chrome),
                bnm_time::OsKind::Ubuntu1204,
            );
            let r = CellResult {
                d1: (0..20).map(|i| d + (i % 4) as f64 * spread).collect(),
                d2: (0..20).map(|i| d + (i % 4) as f64 * spread).collect(),
                ..CellResult::default()
            };
            let mut s = r.summary(&cell);
            s.label = label.to_string();
            s
        };
        for (label, d, spread, verdict) in [
            ("erratic", 20.0, 30.0, Verdict::Unreliable),
            ("biased", 8.0, 0.5, Verdict::Calibratable),
            ("good", 0.1, 0.1, Verdict::Accurate),
        ] {
            let v = appraise_snapshot(&snap(label, d, spread)).unwrap();
            assert_eq!(v.label, label);
            assert_eq!(v.verdict, verdict, "{label}");
            assert_eq!(v.samples, 40, "{label}");
        }
    }

    #[test]
    fn scores_order_by_class_and_penalties() {
        let v = |verdict, median_ms: f64, iqr_ms: f64, failures, loss_rate| MeasuredVerdict {
            label: "x".into(),
            verdict,
            median_ms,
            iqr_ms,
            samples: 100,
            failures,
            loss_rate,
        };
        let clean = v(Verdict::Accurate, 0.2, 0.1, 0, 0.0);
        assert!(clean.score() > 99.0, "{}", clean.score());
        // Bias and spread bite at 2 ms per point, capped at 15 each.
        let bloated = v(Verdict::Calibratable, 40.0, 60.0, 0, 0.0);
        assert_eq!(bloated.score(), 75.0 - 15.0 - 15.0);
        // Failures and loss subtract too, and the floor is zero.
        assert!(v(Verdict::Accurate, 0.0, 0.0, 1, 0.0).score() == 90.0);
        assert!(v(Verdict::Accurate, 0.0, 0.0, 0, 0.07).score() == 93.0);
        assert_eq!(v(Verdict::Unreliable, 99.0, 99.0, 9, 1.0).score(), 0.0);
        // Class dominates: a tight Unreliable never beats a clean
        // Accurate.
        assert!(clean.score() > v(Verdict::Unreliable, 0.0, 0.0, 0, 0.0).score());
    }

    #[test]
    fn empty_snapshot_yields_no_measured_verdict() {
        let cell = crate::config::ExperimentCell::paper(
            MethodId::XhrGet,
            crate::config::RuntimeSel::Browser(BrowserKind::Chrome),
            bnm_time::OsKind::Ubuntu1204,
        );
        let snap = crate::runner::CellResult::default().summary(&cell);
        assert_eq!(appraise_snapshot(&snap), None);
    }

    #[test]
    fn safari_and_opera_carry_warnings() {
        assert!(!browser_warnings(BrowserKind::Safari).is_empty());
        assert!(!browser_warnings(BrowserKind::Opera).is_empty());
        assert!(browser_warnings(BrowserKind::Chrome).is_empty());
        assert_eq!(browser_warnings(BrowserKind::Ie9).len(), 1); // no WS
    }
}
