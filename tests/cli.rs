//! The `bnm` binary's front door. Every flag goes through one typed
//! parser, so an unknown flag, a malformed or out-of-range value, a
//! valueless or repeated flag and a stray positional each exit 2 and
//! name themselves on stderr before anything runs: none of them
//! silently falls back to a default.

use std::process::{Command, Output};

fn bnm(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bnm"))
        .args(args)
        .output()
        .expect("launch bnm")
}

/// `args` must exit 2 without running, naming `what` on stderr.
fn refused(args: &[&str], what: &str) {
    let out = bnm(args);
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
const COMMANDS: [(&str, &[&str]); 10] = [
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
];

/// For each numeric flag, a value that does not parse and values that
/// parse but lie out of range.
const BAD_VALUES: [(&str, &str); 24] = [
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
    ("every", "often"),
    ("every", "-5"),
    ("period", "1s"),
    ("period", "0"),
    ("size", "128k"),
    ("size", "0"),
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
    // A sweep row's last two columns are frame-pool gauges, which depend
    // on how the executor spread the reps over threads: compare the rest.
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
    let rows = |seed| -> Vec<String> {
        let csv = impair(seed, "csv");
        csv.lines()
            .map(|l| l.rsplitn(3, ',').last().unwrap_or_default().to_string())
            .collect()
    };
    assert_eq!(rows("0x10"), rows("16"));
}
