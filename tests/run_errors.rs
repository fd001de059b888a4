//! End-to-end coverage of the `RunError` taxonomy through the public
//! (facade) API — every variant a caller can provoke, provoked.

#![deny(deprecated)]

use bnm::core::error::RunError;
use bnm::core::matching::{match_round, MatchError};
use bnm::core::sweep::slope;
use bnm::prelude::*;
use bnm::sim::capture::CaptureBuffer;
use bnm::sim::link::LinkSpec;

fn ie9_websocket() -> ExperimentCell {
    ExperimentCell::builder(
        MethodId::WebSocket,
        RuntimeSel::Browser(BrowserKind::Ie9),
        OsKind::Windows7,
    )
    .reps(2)
    .build_unchecked()
}

#[test]
fn unrunnable_surfaces_from_every_entry_point() {
    let cell = ie9_websocket();
    let want = RunError::unrunnable(&cell);
    assert_eq!(ExperimentRunner::try_run(&cell).unwrap_err(), want);
    assert_eq!(ExperimentRunner::run_rep(&cell, 0).unwrap_err(), want);
    assert_eq!(
        ExperimentRunner::run_rep_traced(&cell, 0).unwrap_err(),
        want
    );
    let batch = Executor::new().run(std::slice::from_ref(&cell));
    assert_eq!(batch[0].as_ref().unwrap_err(), &want);
    assert_eq!(want.to_string(), "IE (W) cannot run WebSocket");
}

#[test]
fn invalid_round_from_result_selection() {
    let cell = ExperimentCell::paper(
        MethodId::WebSocket,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .with_reps(1);
    let r = ExperimentRunner::try_run(&cell).unwrap();
    assert_eq!(r.round(0).unwrap_err(), RunError::InvalidRound(0));
    assert_eq!(r.round(3).unwrap_err(), RunError::InvalidRound(3));
    assert!(r.round(1).is_ok() && r.round(2).is_ok());
}

#[test]
fn insufficient_data_from_slope_fitting() {
    assert_eq!(
        slope(&[(50.0, 1.0)]).unwrap_err(),
        RunError::InsufficientData { needed: 2, got: 1 }
    );
    assert_eq!(
        slope(&[]).unwrap_err(),
        RunError::InsufficientData { needed: 2, got: 0 }
    );
    assert!(slope(&[(10.0, 1.0), (20.0, 2.0)]).is_ok());
}

#[test]
fn match_errors_wrap_into_run_errors() {
    // An empty capture can never contain the request marker.
    let empty = CaptureBuffer::new("empty");
    let e = match_round(&empty, MethodId::XhrGet, 1, 0).unwrap_err();
    assert_eq!(e, MatchError::RequestNotFound);
    let wrapped: RunError = e.into();
    assert_eq!(wrapped, RunError::Match(MatchError::RequestNotFound));
    assert!(std::error::Error::source(&wrapped).is_some());
}

#[test]
fn invalid_input_from_builders() {
    let zero = ExperimentCell::builder(
        MethodId::XhrGet,
        RuntimeSel::Browser(BrowserKind::Chrome),
        OsKind::Ubuntu1204,
    )
    .reps(0)
    .build();
    assert_eq!(
        zero.unwrap_err(),
        RunError::InvalidInput("reps must be >= 1")
    );
    let empty = match Scenario::builder().build() {
        Ok(_) => panic!("empty scenario builder must not validate"),
        Err(e) => e,
    };
    assert_eq!(
        empty,
        RunError::InvalidInput("a scenario needs at least one session")
    );
}

/// Cells the unchecked `with_*` modifiers let through but no scenario
/// can hold: every repetition fails and is counted, none panics.
#[test]
fn degenerate_cells_fail_every_repetition() {
    let base = || {
        ExperimentCell::paper(
            MethodId::XhrGet,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        )
        .with_reps(2)
    };
    let down = |spec: LinkSpec| {
        base().with_link_shape(LinkShape {
            down_spec: Some(spec),
            ..LinkShape::default()
        })
    };
    let cells = [
        base().with_contention(ContentionSpec::clients(0)),
        base()
            .with_contention(ContentionSpec::clients(5000))
            .with_reps(1),
        base().with_contention(ContentionSpec::clients(1).with_server_link_rate(0)),
        down(LinkSpec {
            rate_bps: 0,
            ..LinkSpec::fast_ethernet()
        }),
        down(LinkSpec {
            queue_limit_bytes: 0,
            ..LinkSpec::fast_ethernet()
        }),
    ];
    for cell in &cells {
        let r = ExperimentRunner::try_run(cell).unwrap();
        assert_eq!(r.failures, cell.reps, "{cell:?}");
        assert!(r.measurements.is_empty() && r.sessions.is_empty());
    }
}

#[test]
fn no_samples_from_empty_appraisal() {
    let empty = CellResult::default();
    assert_eq!(Appraisal::try_of(&empty).unwrap_err(), RunError::NoSamples);
}
