//! The `bnm` binary's front door. Every flag goes through one typed
//! parser, so an unknown flag, a malformed or out-of-range value, a
//! valueless or repeated flag and a stray positional each exit 2 and
//! name themselves on stderr before anything runs: none of them
//! silently falls back to a default.

use std::io::{BufRead, BufReader};
use std::process::{Command, Output, Stdio};
use std::time::{Duration, Instant};

fn bnm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bnm"))
        .args(args)
        .output()
        .expect("launch bnm")
}

/// Run `bnm args`, failing the test if it is still running after
/// `deadline`: a refusal must not turn into a run that never ends.
fn bnm_within(args: &[&str], deadline: Duration) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bnm"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("launch bnm");
    let start = Instant::now();
    while child.try_wait().expect("poll bnm").is_none() {
        if start.elapsed() > deadline {
            let _ = child.kill();
            let _ = child.wait();
            panic!("{args:?} still running after {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    child.wait_with_output().expect("collect bnm output")
}

/// `args` must exit 2 without running, naming `what` on stderr.
fn refused(args: &[&str], what: &str) {
    let out = bnm_within(args, Duration::from_secs(20));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "{args:?} must exit 2:\n{stderr}"
    );
    assert!(
        stderr.contains(what),
        "{args:?} must name {what}:\n{stderr}"
    );
    assert!(out.stdout.is_empty(), "{args:?} must not run");
}

/// Every subcommand that takes flags, with the numeric flags it takes.
const COMMANDS: [(&str, &[&str]); 11] = [
    ("appraise", &["reps", "seed"]),
    ("trace", &["reps", "seed"]),
    (
        "impair",
        &["reps", "seed", "loss", "corrupt", "duplicate", "jitter"],
    ),
    ("contend", &["reps", "seed", "clients", "rate-mbps"]),
    (
        "serve",
        &[
            "seed",
            "clients",
            "rate-mbps",
            "loss",
            "duration",
            "every",
            "period",
        ],
    ),
    ("webrtc", &["reps", "seed", "loss", "jitter"]),
    ("probe", &[]),
    ("tput", &["size"]),
    ("recommend", &[]),
    ("battery", &["reps", "seed"]),
    ("reproduce", &["reps", "seed"]),
];

/// For each numeric flag, a value that does not parse and values that
/// parse but lie out of range: a duration that rounds to zero virtual
/// nanoseconds, or a bulk download over 16 MiB.
const BAD_VALUES: [(&str, &str); 28] = [
    ("reps", "abc"),
    ("reps", "0"),
    ("seed", "garbage"),
    ("loss", "0.05x"),
    ("loss", "1.5"),
    ("corrupt", "1%"),
    ("corrupt", "-0.1"),
    ("duplicate", "half"),
    ("duplicate", "2"),
    ("jitter", "5ms"),
    ("jitter", "-1"),
    ("clients", "many"),
    ("clients", "0"),
    ("clients", "4097"),
    ("rate-mbps", "fast"),
    ("rate-mbps", "-1"),
    ("duration", "1m"),
    ("duration", "0"),
    ("duration", "1e-12"),
    ("every", "often"),
    ("every", "-5"),
    ("every", "1e-12"),
    ("period", "1s"),
    ("period", "0"),
    ("period", "1e-7"),
    ("size", "128k"),
    ("size", "0"),
    ("size", "16777217"),
];

#[test]
fn unknown_flags_and_stray_positionals_exit_2() {
    for (cmd, _) in COMMANDS {
        refused(&[cmd, "--los", "0.05"], "--los");
        refused(&[cmd, "stray"], "stray");
    }
    for cmd in ["list", "ping"] {
        refused(&[cmd, "--verbose"], "--verbose");
        refused(&[cmd, "stray"], "stray");
    }
}

#[test]
fn malformed_and_out_of_range_values_exit_2() {
    for (cmd, flags) in COMMANDS {
        for &(flag, value) in BAD_VALUES.iter().filter(|(f, _)| flags.contains(f)) {
            let dashed = format!("--{flag}");
            refused(&[cmd, dashed.as_str(), value], &dashed);
        }
    }
    refused(&["appraise", "--method", "xhr"], "--method");
    refused(&["impair", "--browser", "netscape"], "--browser");
    refused(&["contend", "--os", "beos"], "--os");
    refused(&["trace", "--format", "xml"], "--format");
    refused(&["reproduce", "--only", "fig9"], "--only");
    refused(&["reproduce", "--only", "table1,,table2"], "--only");
}

#[test]
fn valueless_repeated_and_valued_switches_exit_2() {
    refused(&["impair", "--loss"], "--loss");
    refused(&["impair", "--reps", "--loss", "0.1"], "--reps");
    refused(
        &["contend", "--clients", "2", "--clients", "4"],
        "--clients",
    );
    refused(&["appraise", "--nanotime", "yes"], "yes");
}

fn stdout_of(args: &[&str]) -> String {
    let out = bnm(args);
    assert!(
        out.status.success(),
        "{args:?}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("UTF-8 stdout")
}

/// A seed runs the same however it is written, and the title line
/// prints the seed that ran, not the default.
#[test]
fn hex_and_decimal_seeds_run_identically() {
    for cmd in [["appraise", "--reps", "2"], ["trace", "--reps", "1"]] {
        let run = |seed| stdout_of(&[cmd[0], cmd[1], cmd[2], "--seed", seed]);
        let hex = run("0x10");
        assert_eq!(hex, run("16"), "{cmd:?}");
        let title = hex.lines().next().unwrap_or_default();
        assert!(title.contains("seed 0x10"), "{cmd:?} title: {title}");
    }
    let impair = |seed, format| {
        stdout_of(&[
            "impair", "--method", "xhr_get", "--reps", "2", "--seed", seed, "--format", format,
        ])
    };
    let title = impair("0x10", "text");
    assert!(
        title
            .lines()
            .next()
            .unwrap_or_default()
            .contains("seed 0x10"),
        "{title}"
    );
    assert_eq!(impair("0x10", "csv"), impair("16", "csv"));
}

/// A reader that stops early (`bnm serve | head`) ends the run quietly:
/// exit 0 and nothing on stderr. Ten minutes of one-second snapshots are
/// far more than a pipe buffer holds, so `bnm` is still writing when the
/// pipe closes.
#[test]
fn a_closed_stdout_ends_the_run_quietly() {
    let mut child = Command::new(env!("CARGO_BIN_EXE_bnm"))
        .args([
            "serve",
            "--duration",
            "600",
            "--every",
            "1",
            "--format",
            "json",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("launch bnm");
    let mut stdout = BufReader::new(child.stdout.take().expect("a piped stdout"));
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .expect("read the first snapshot");
    assert!(line.starts_with('{'), "{line}");
    drop(stdout);
    let out = child.wait_with_output().expect("collect bnm output");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}

/// An artifact that cannot be written fails the run (exit 1) and names
/// its path.
#[test]
fn unwritable_results_directory_exits_1() {
    let out = bnm(&["reproduce", "--only", "table1", "--results", "/dev/null/x"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("/dev/null/x"), "{stderr}");
}

/// `bnm reproduce` at one seed writes the same artifacts and prints the
/// same report every time, the executor-run sweeps included.
#[test]
fn reproduce_is_deterministic() {
    let dir = std::env::temp_dir().join(format!("bnm-reproduce-{}", std::process::id()));
    let results = dir.to_str().expect("a UTF-8 temp path");
    let names = ["table1", "table2", "table3", "impair", "contend", "webrtc"];
    let only = names.join(",");
    let run = || {
        let stdout = stdout_of(&[
            "reproduce",
            "--only",
            &only,
            "--reps",
            "2",
            "--results",
            results,
        ]);
        let files: Vec<Vec<u8>> = names
            .iter()
            .map(|f| std::fs::read(dir.join(format!("{f}.csv"))).expect("an artifact"))
            .collect();
        (stdout, files)
    };
    let (first, second) = (run(), run());
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(first, second);
    for (name, csv) in names.iter().zip(&first.1) {
        assert!(csv.split(|&b| b == b'\n').count() > 2, "{name} has no rows");
        assert!(
            first.0.contains(&format!("== {name} ==")),
            "{name} not printed"
        );
    }
}
