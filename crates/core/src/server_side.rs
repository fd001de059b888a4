//! Server-side overhead appraisal — the paper's §7 future-work item
//! ("another extension is to investigate the delay overhead incurred on
//! the server side"), implemented.
//!
//! The same capture-based methodology, mirrored: at the **server's** NIC,
//! a probe request is an `Rx` record and its response a `Tx` record. The
//! time between them, minus the configured handler delay, is the server
//! stack's own processing overhead — the bias the client-side RTT
//! subtraction silently absorbs.

use bnm_methods::MethodId;
use bnm_sim::capture::{CaptureBuffer, CaptureDir};
use bnm_sim::time::SimTime;

use crate::frames::{contains, payload_of};
use crate::matching::{request_marker, response_marker, MatchError};

/// Server-side timestamps of one round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerTimes {
    /// Request arrival at the server NIC.
    pub request_rx: SimTime,
    /// Response departure from the server NIC.
    pub response_tx: SimTime,
}

impl ServerTimes {
    /// Total server turnaround, ms.
    pub fn turnaround_ms(&self) -> f64 {
        self.response_tx.signed_millis_since(self.request_rx)
    }

    /// Turnaround minus the configured application handler delay: the
    /// server stack's own overhead, ms.
    pub fn overhead_ms(&self, handler_delay_ms: f64) -> f64 {
        self.turnaround_ms() - handler_delay_ms
    }
}

/// Match one round in a **server-side** capture.
pub fn match_server_round(
    capture: &CaptureBuffer,
    method: MethodId,
    round: u8,
    token: u64,
) -> Result<ServerTimes, MatchError> {
    let req = request_marker(method, round, token);
    let resp = response_marker(method, round, token);
    let mut rx = None;
    let mut tx = None;
    for rec in capture.records() {
        let Some(payload) = payload_of(&rec.frame) else {
            continue;
        };
        match rec.dir {
            CaptureDir::Rx => {
                if rx.is_none() && contains(&payload, &req) {
                    rx = Some(rec.ts);
                }
            }
            CaptureDir::Tx => {
                // Only accept a response after the request was seen —
                // echo transports reuse the same bytes in both directions.
                if rx.is_some() && tx.is_none() && contains(&payload, &resp) {
                    tx = Some(rec.ts);
                }
            }
        }
        if rx.is_some() && tx.is_some() {
            break;
        }
    }
    match (rx, tx) {
        (None, _) => Err(MatchError::RequestNotFound),
        (_, None) => Err(MatchError::ResponseNotFound),
        (Some(r), Some(t)) => {
            if t < r {
                Err(MatchError::OutOfOrder)
            } else {
                Ok(ServerTimes {
                    request_rx: r,
                    response_tx: t,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, SessionSpec};
    use crate::testbed::TestbedConfig;
    use bnm_browser::{BrowserKind, BrowserProfile};
    use bnm_time::{MachineTimer, OsKind};

    /// One `method` session on `browser`/Ubuntu, `seed` for both its
    /// machine clock and its noise streams, repetition token `rep`, run
    /// to completion.
    fn run_one(
        cfg: &TestbedConfig,
        method: MethodId,
        browser: BrowserKind,
        rep: u64,
        seed: u64,
    ) -> Scenario {
        let session = SessionSpec {
            id: 0,
            plan: method.plan(None),
            profile: BrowserProfile::build(browser, OsKind::Ubuntu1204).unwrap(),
            machine: MachineTimer::new(OsKind::Ubuntu1204, seed),
            seed,
        };
        let mut sc = Scenario::build(cfg, vec![session], rep);
        sc.run();
        sc
    }

    #[test]
    fn server_turnaround_is_small_without_handler_delay() {
        let sc = run_one(
            &TestbedConfig::default(),
            MethodId::XhrGet,
            BrowserKind::Chrome,
            0,
            5,
        );
        let cap = sc.engine.tap(sc.server_tap);
        for round in [1u8, 2] {
            let st = match_server_round(cap, MethodId::XhrGet, round, 0).unwrap();
            let t = st.turnaround_ms();
            // No handler delay configured: the server's stack answers in
            // well under a millisecond of virtual time.
            assert!((0.0..1.0).contains(&t), "round {round} turnaround {t}");
            assert!(st.overhead_ms(0.0) < 1.0);
        }
    }

    #[test]
    fn handler_delay_is_visible_and_subtractable() {
        let mut cfg = TestbedConfig::default();
        cfg.server.handler_delay = bnm_sim::time::SimDuration::from_millis(8);
        let sc = run_one(&cfg, MethodId::XhrGet, BrowserKind::Chrome, 0, 5);
        let cap = sc.engine.tap(sc.server_tap);
        let st = match_server_round(cap, MethodId::XhrGet, 1, 0).unwrap();
        assert!(st.turnaround_ms() >= 8.0);
        let overhead = st.overhead_ms(8.0);
        assert!((0.0..1.0).contains(&overhead), "overhead {overhead}");
    }

    #[test]
    fn echo_rounds_match_on_server_side_too() {
        let sc = run_one(
            &TestbedConfig::default(),
            MethodId::JavaTcp,
            BrowserKind::Firefox,
            3,
            6,
        );
        let cap = sc.engine.tap(sc.server_tap);
        let st = match_server_round(cap, MethodId::JavaTcp, 2, 3).unwrap();
        assert!(st.turnaround_ms() < 1.0);
    }
}
