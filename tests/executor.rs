//! Executor integration tests through the `bnm` façade: every unit runs
//! once at any worker count, parallel runs must be bit-identical to
//! serial ones, and a bad cell in a batch must not take the rest down.

use std::sync::Mutex;

use bnm::browser::BrowserKind;
use bnm::methods::MethodId;
use bnm::timeapi::OsKind;
use bnm::{
    ContentionSpec, Executor, ExperimentCell, ExperimentRunner, Impairment, RunError, RuntimeSel,
};

fn grid() -> Vec<ExperimentCell> {
    [
        (MethodId::XhrGet, BrowserKind::Chrome, OsKind::Ubuntu1204),
        (
            MethodId::WebSocket,
            BrowserKind::Firefox,
            OsKind::Ubuntu1204,
        ),
        (MethodId::JavaTcp, BrowserKind::Firefox, OsKind::Windows7),
        (MethodId::FlashGet, BrowserKind::Opera, OsKind::Windows7),
    ]
    .into_iter()
    .map(|(m, b, os)| {
        ExperimentCell::builder(m, RuntimeSel::Browser(b), os)
            .reps(8)
            .build()
            .expect("grid cells are runnable per Table 2")
    })
    .collect()
}

#[test]
fn parallel_results_are_bit_identical_to_serial() {
    let cells = grid();
    let serial = Executor::serial().run(&cells);
    for workers in [2, 3, 8] {
        let parallel = Executor::with_workers(workers).run(&cells);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            let (s, p) = (s.as_ref().unwrap(), p.as_ref().unwrap());
            // Float samples compare exactly: the merge replays rep order.
            assert_eq!(s.d1, p.d1, "{workers} workers diverged on Δd1");
            assert_eq!(s.d2, p.d2, "{workers} workers diverged on Δd2");
            assert_eq!(s.failures, p.failures);
            assert_eq!(s.measurements.len(), p.measurements.len());
        }
    }
}

/// The scheduler's contract at every worker count from one to more
/// workers than units: each unit runs and ticks exactly once, the stats
/// count the workers the batch really used, and every runnable cell
/// equals the serial run field for field.
#[test]
fn every_unit_runs_once_and_every_worker_count_folds_like_serial() {
    let runnable = |m, b, clients| {
        ExperimentCell::builder(m, RuntimeSel::Browser(b), OsKind::Ubuntu1204)
            .reps(3)
            .contention(ContentionSpec::clients(clients))
            .impairment(Impairment::loss(0.02))
            .build()
            .expect("runnable per Table 2")
    };
    let cells = vec![
        ExperimentCell::paper(
            MethodId::XhrGet,
            RuntimeSel::Browser(BrowserKind::Chrome),
            OsKind::Ubuntu1204,
        )
        .with_reps(0),
        ExperimentCell::paper(
            MethodId::WebSocket,
            RuntimeSel::Browser(BrowserKind::Ie9),
            OsKind::Windows7,
        )
        .with_reps(3),
        runnable(MethodId::XhrGet, BrowserKind::Chrome, 4),
        runnable(MethodId::WebRtc, BrowserKind::Firefox, 2),
    ];
    let units = 6;
    let serial = Executor::serial().run(&cells);
    for (i, clients) in [(2, 4), (3, 2)] {
        let s = serial[i].as_ref().unwrap();
        assert!(!s.measurements.is_empty() && s.sessions.len() == clients);
    }
    for workers in [1, 2, 3, 4, 5, 8] {
        let ticks = Mutex::new(Vec::new());
        let (results, stats) = Executor::with_workers(workers)
            .run_with_stats(&cells, |p| ticks.lock().expect("no tick panics").push(p));

        let mut ticks = ticks.into_inner().expect("no tick panics");
        assert!(ticks.iter().all(|p| p.total == units), "{workers} workers");
        ticks.sort_by_key(|p| (p.cell, p.rep));
        let ran: Vec<(usize, u32)> = ticks.iter().map(|p| (p.cell, p.rep)).collect();
        let expected: Vec<(usize, u32)> = [2, 3]
            .into_iter()
            .flat_map(|cell| (0..3).map(move |rep| (cell, rep)))
            .collect();
        assert_eq!(ran, expected, "{workers} workers: each unit ticks once");
        let mut completed: Vec<usize> = ticks.iter().map(|p| p.completed).collect();
        completed.sort_unstable();
        assert_eq!(
            completed,
            (1..=units).collect::<Vec<_>>(),
            "{workers} workers"
        );

        assert_eq!(stats.units, units);
        assert_eq!(
            stats.workers,
            workers.min(units),
            "used workers, not configured"
        );
        assert_eq!(stats.worker_units.len(), stats.workers);
        assert_eq!(stats.worker_busy.len(), stats.workers);
        assert_eq!(stats.worker_units.iter().sum::<usize>(), units);

        assert!(results[0]
            .as_ref()
            .is_ok_and(|r| r.d1.is_empty() && r.measurements.is_empty()));
        assert!(matches!(results[1], Err(RunError::Unrunnable { .. })));
        for i in [2, 3] {
            let (s, p) = (serial[i].as_ref().unwrap(), results[i].as_ref().unwrap());
            let at = format!("{workers} workers, cell {i}");
            assert_eq!(s.d1, p.d1, "{at}");
            assert_eq!(s.d2, p.d2, "{at}");
            assert_eq!(s.measurements, p.measurements, "{at}");
            assert_eq!(s.sessions, p.sessions, "{at}");
            assert_eq!(s.excluded_rounds, p.excluded_rounds, "{at}");
            assert_eq!(s.failures, p.failures, "{at}");
            assert_eq!(s.link, p.link, "{at}");
        }
    }
}

#[test]
fn executor_matches_the_single_cell_runner() {
    let cells = grid();
    let batch = Executor::new().run(&cells);
    for (cell, got) in cells.iter().zip(batch) {
        let alone = ExperimentRunner::try_run(cell).unwrap();
        let got = got.unwrap();
        assert_eq!(alone.d1, got.d1);
        assert_eq!(alone.d2, got.d2);
    }
}

#[test]
fn one_unrunnable_cell_does_not_sink_the_batch() {
    let mut cells = grid();
    // WebSocket predates IE9 — unrunnable per the Table 2 feature matrix.
    cells.insert(
        1,
        ExperimentCell::paper(
            MethodId::WebSocket,
            RuntimeSel::Browser(BrowserKind::Ie9),
            OsKind::Windows7,
        ),
    );
    let results = Executor::new().run(&cells);
    assert_eq!(results.len(), cells.len());
    assert!(matches!(results[1], Err(RunError::Unrunnable { .. })));
    for (i, r) in results.iter().enumerate() {
        if i != 1 {
            assert!(r.is_ok(), "runnable cell {i} failed: {r:?}");
        }
    }
}

#[test]
fn builder_rejects_what_the_executor_would_reject() {
    let err = ExperimentCell::builder(
        MethodId::WebSocket,
        RuntimeSel::Browser(BrowserKind::Ie9),
        OsKind::Windows7,
    )
    .build()
    .unwrap_err();
    assert_eq!(format!("{err}"), "IE (W) cannot run WebSocket");
}
