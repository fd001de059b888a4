//! Server-side overhead appraisal — the paper's §7 future-work item
//! ("another extension is to investigate the delay overhead incurred on
//! the server side"), implemented.
//!
//! The same capture-based methodology, mirrored: at the **server's** NIC,
//! a probe request is an `Rx` record and its response a `Tx` record. The
//! time between them, minus the configured handler delay, is the server
//! stack's own processing overhead — the bias the client-side RTT
//! subtraction silently absorbs.
//! [`ServerMarkerIndex::server_times`](crate::streaming::ServerMarkerIndex::server_times)
//! reads both stamps off the server tap's evidence as the capture streams
//! past.

use bnm_sim::time::SimTime;

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

#[cfg(test)]
mod tests {
    use crate::scenario::{Scenario, SessionSpec};
    use crate::streaming::ServerMarkerIndex;
    use crate::testbed::TestbedConfig;
    use bnm_browser::{BrowserKind, BrowserProfile};
    use bnm_methods::MethodId;
    use bnm_sim::capture::CaptureSink;
    use bnm_time::{MachineTimer, OsKind};

    /// One `method` session on `browser`/Ubuntu, `seed` for both its
    /// machine clock and its noise streams, repetition token `rep`, run
    /// to completion with a [`ServerMarkerIndex`] on the server tap.
    fn run_one(
        cfg: &TestbedConfig,
        method: MethodId,
        browser: BrowserKind,
        rep: u64,
        seed: u64,
    ) -> Box<dyn CaptureSink> {
        let plan = method.plan(None);
        let rounds = plan.rounds;
        let session = SessionSpec {
            id: 0,
            plan,
            profile: BrowserProfile::build(browser, OsKind::Ubuntu1204).unwrap(),
            machine: MachineTimer::new(OsKind::Ubuntu1204, seed),
            seed,
        };
        let mut sc = Scenario::build(cfg, vec![session], rep);
        let index = ServerMarkerIndex::new(method, rounds, &[rep]);
        sc.engine.tap_mut(sc.server_tap).set_sink(Box::new(index));
        sc.run();
        sc.engine.tap_mut(sc.server_tap).take_sink().unwrap()
    }

    #[test]
    fn server_turnaround_is_small_without_handler_delay() {
        let sink = run_one(
            &TestbedConfig::default(),
            MethodId::XhrGet,
            BrowserKind::Chrome,
            0,
            5,
        );
        let index = sink.as_any().downcast_ref::<ServerMarkerIndex>().unwrap();
        for round in [1u8, 2] {
            let st = index.server_times(round, 0).unwrap();
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
        let sink = run_one(&cfg, MethodId::XhrGet, BrowserKind::Chrome, 0, 5);
        let index = sink.as_any().downcast_ref::<ServerMarkerIndex>().unwrap();
        let st = index.server_times(1, 0).unwrap();
        assert!(st.turnaround_ms() >= 8.0);
        let overhead = st.overhead_ms(8.0);
        assert!((0.0..1.0).contains(&overhead), "overhead {overhead}");
    }

    #[test]
    fn echo_rounds_match_on_server_side_too() {
        let sink = run_one(
            &TestbedConfig::default(),
            MethodId::JavaTcp,
            BrowserKind::Firefox,
            3,
            6,
        );
        let index = sink.as_any().downcast_ref::<ServerMarkerIndex>().unwrap();
        let st = index.server_times(2, 3).unwrap();
        assert!(st.turnaround_ms() < 1.0);
    }
}
