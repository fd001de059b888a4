//! The one command-line parser.
//!
//! Every `bnm` subcommand, `bnm reproduce` included, reads its flags
//! through [`Args`], so a flag means the same thing — and fails the same
//! way — wherever it is typed. A command declares the value flags and
//! switches it takes; [`Args::parse`] rejects anything else, and the
//! typed getters reject malformed and out-of-range values. Every failure
//! is an [`ArgError`] that names the flag: nothing is silently dropped or
//! replaced by a default. A getter returns `Ok(None)` for an absent flag,
//! so each command keeps its own defaults.
//!
//! ```
//! use bnm_core::cli::{ArgError, Args};
//!
//! let argv = ["--seed", "0x10", "--loss", "0.02"].map(String::from);
//! let args = Args::parse(argv, &["seed", "loss", "reps"], &[]).unwrap();
//! assert_eq!(args.seed(), Ok(Some(16)));
//! assert_eq!(args.probability("loss"), Ok(Some(0.02)));
//! assert_eq!(args.reps(), Ok(None));
//!
//! let typo = Args::parse(["--los".to_string()], &["loss"], &[]);
//! assert_eq!(typo, Err(ArgError::Unknown("los".into())));
//! ```

use std::fmt;
use std::str::FromStr;

use bnm_browser::BrowserKind;
use bnm_methods::MethodId;
use bnm_sim::time::SimDuration;
use bnm_time::OsKind;

use crate::report::ReportFormat;
use crate::scenario::Scenario;
use crate::throughput::MAX_BULK_BYTES;

/// A command line no front end accepts. Each variant names the flag
/// without its leading `--`, or the stray argument itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A flag the command does not take.
    Unknown(String),
    /// A flag given more than once.
    Repeated(String),
    /// A value flag with no value after it.
    MissingValue(String),
    /// A value that is malformed or out of range for its flag.
    Invalid {
        /// The flag.
        flag: String,
        /// The value as given.
        value: String,
        /// What the flag takes.
        expected: &'static str,
    },
    /// An argument that is not a flag.
    Positional(String),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::Unknown(flag) => write!(f, "unknown flag --{flag}"),
            ArgError::Repeated(flag) => write!(f, "--{flag} given more than once"),
            ArgError::MissingValue(flag) => write!(f, "--{flag} needs a value"),
            ArgError::Invalid {
                flag,
                value,
                expected,
            } => write!(f, "--{flag}: '{value}' is not {expected}"),
            ArgError::Positional(arg) => write!(f, "unexpected argument '{arg}'"),
        }
    }
}

impl std::error::Error for ArgError {}

/// A command line checked against the flags its command declares.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Args {
    /// `(flag, value)` in command-line order; switches carry `None`.
    given: Vec<(String, Option<String>)>,
}

impl Args {
    /// Read `--name value` for the declared `values` flags and a bare
    /// `--name` for the declared `switches`. A value never starts with
    /// `--`, so `--reps --seed 1` reports `--reps` as missing its value,
    /// while a negative number (`--rate-mbps -1`) reaches the getters,
    /// which range-check it.
    pub fn parse<I: IntoIterator<Item = String>>(
        argv: I,
        values: &[&str],
        switches: &[&str],
    ) -> Result<Args, ArgError> {
        let mut given: Vec<(String, Option<String>)> = Vec::new();
        let mut argv = argv.into_iter().peekable();
        while let Some(arg) = argv.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(ArgError::Positional(arg));
            };
            let value = if switches.contains(&name) {
                None
            } else if values.contains(&name) {
                let value = argv.next_if(|v| !v.starts_with("--"));
                Some(value.ok_or_else(|| ArgError::MissingValue(name.into()))?)
            } else {
                return Err(ArgError::Unknown(name.into()));
            };
            if given.iter().any(|(n, _)| n == name) {
                return Err(ArgError::Repeated(name.into()));
            }
            given.push((name.into(), value));
        }
        Ok(Args { given })
    }

    /// Whether a switch was given.
    pub fn switch(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| n == name)
    }

    /// A flag's raw value, if given: for free-form values such as a
    /// directory.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// A flag's value as `read` takes it; `read` returns `None` for
    /// anything the flag does not accept.
    fn get<T>(
        &self,
        name: &str,
        expected: &'static str,
        read: impl FnOnce(&str) -> Option<T>,
    ) -> Result<Option<T>, ArgError> {
        let Some(raw) = self.value(name) else {
            return Ok(None);
        };
        read(raw).map(Some).ok_or_else(|| ArgError::Invalid {
            flag: name.into(),
            value: raw.into(),
            expected,
        })
    }

    /// A number that `in_range` accepts.
    fn number<T: FromStr>(
        &self,
        name: &str,
        expected: &'static str,
        in_range: impl FnOnce(&T) -> bool,
    ) -> Result<Option<T>, ArgError> {
        self.get(name, expected, |s| s.parse().ok().filter(in_range))
    }

    /// `--method`: a method label, as `bnm list` prints them.
    pub fn method(&self) -> Result<Option<MethodId>, ArgError> {
        self.get("method", "a method label", |s| {
            MethodId::EXTENDED.into_iter().find(|m| m.label() == s)
        })
    }

    /// `--browser`: a Table 2 browser name, in any case.
    pub fn browser(&self) -> Result<Option<BrowserKind>, ArgError> {
        self.get("browser", "a browser name", |s| {
            BrowserKind::ALL
                .into_iter()
                .find(|b| b.name().eq_ignore_ascii_case(s))
        })
    }

    /// `--os`: `windows` (`win`, `w`) or `ubuntu` (`linux`, `u`).
    pub fn os(&self) -> Result<Option<OsKind>, ArgError> {
        self.get("os", "windows or ubuntu", |s| {
            match s.to_ascii_lowercase().as_str() {
                "windows" | "win" | "w" => Some(OsKind::Windows7),
                "ubuntu" | "linux" | "u" => Some(OsKind::Ubuntu1204),
                _ => None,
            }
        })
    }

    /// `--format`: `text`, `json` or `csv`.
    pub fn format(&self) -> Result<Option<ReportFormat>, ArgError> {
        self.get("format", "text, json or csv", |s| s.parse().ok())
    }

    /// `--seed`: decimal, or `0x` hex as every report prints it
    /// (underscores allowed in hex).
    pub fn seed(&self) -> Result<Option<u64>, ArgError> {
        self.get("seed", "a decimal or 0x-hex seed", |s| {
            match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
                None => s.parse().ok(),
            }
        })
    }

    /// `--reps`: repetitions per cell, at least 1.
    pub fn reps(&self) -> Result<Option<u32>, ArgError> {
        self.number("reps", "a whole number >= 1", |n| *n >= 1)
    }

    /// `--clients`: concurrent sessions, up to the scenario session
    /// limit.
    pub fn clients(&self) -> Result<Option<u32>, ArgError> {
        self.number("clients", "a client count in [1, 4096]", |n| {
            (1..=Scenario::SESSION_LIMIT as u32).contains(n)
        })
    }

    /// A probability in `[0, 1]` (`--loss`, `--corrupt`, `--duplicate`).
    pub fn probability(&self, name: &str) -> Result<Option<f64>, ArgError> {
        self.number(name, "a probability in [0, 1]", |p| (0.0..=1.0).contains(p))
    }

    /// `--size`: a bulk download in bytes, at most
    /// [`MAX_BULK_BYTES`].
    pub fn size(&self) -> Result<Option<usize>, ArgError> {
        self.number("size", "a byte count in [1, 16777216]", |n| {
            (1..=MAX_BULK_BYTES).contains(n)
        })
    }

    /// A positive finite rate (`--rate-mbps`).
    pub fn positive(&self, name: &str) -> Result<Option<f64>, ArgError> {
        self.number(name, "a positive number", |v: &f64| {
            v.is_finite() && *v > 0.0
        })
    }

    /// A finite number of at least 0 (`--jitter`, where 0 is none).
    pub fn non_negative(&self, name: &str) -> Result<Option<f64>, ArgError> {
        self.number(name, "a number >= 0", |v: &f64| v.is_finite() && *v >= 0.0)
    }

    /// A span of virtual time, given as a number that `unit` converts
    /// (`--duration` and `--every` in seconds, `--period` in ms). It must
    /// come to at least one nanosecond: a span that rounds to zero would
    /// never advance the clock.
    pub fn duration(
        &self,
        name: &str,
        unit: fn(f64) -> SimDuration,
    ) -> Result<Option<SimDuration>, ArgError> {
        self.get(name, "a duration of at least 1 ns", |s| {
            let v = s.parse::<f64>().ok().filter(|v| v.is_finite())?;
            Some(unit(v)).filter(|d| d.as_nanos() > 0)
        })
    }

    /// A comma-separated list, each item of which `read` accepts
    /// (`--only`).
    pub fn list<T>(
        &self,
        name: &str,
        expected: &'static str,
        read: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<Vec<T>>, ArgError> {
        self.get(name, expected, |s| s.split(',').map(read).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Args, ArgError> {
        let values = [
            "method",
            "browser",
            "os",
            "seed",
            "reps",
            "loss",
            "clients",
            "rate-mbps",
            "jitter",
            "format",
            "size",
            "every",
            "period",
            "only",
        ];
        Args::parse(argv.iter().map(|s| s.to_string()), &values, &["quick"])
    }

    #[test]
    fn getters_read_checked_values() {
        let a = parse(&[
            "--quick",
            "--reps",
            "7",
            "--method",
            "xhr_get",
            "--browser",
            "FIREFOX",
            "--os",
            "win",
            "--format",
            "json",
            "--seed",
            "0xAB_CD",
            "--loss",
            "1",
            "--clients",
            "4096",
            "--jitter",
            "0",
            "--every",
            "0.5",
            "--only",
            "a,b",
        ])
        .unwrap();
        assert!(a.switch("quick"));
        assert_eq!(a.reps(), Ok(Some(7)));
        assert_eq!(a.method(), Ok(Some(MethodId::XhrGet)));
        assert_eq!(a.browser(), Ok(Some(BrowserKind::Firefox)));
        assert_eq!(a.os(), Ok(Some(OsKind::Windows7)));
        assert_eq!(a.format(), Ok(Some(ReportFormat::Json)));
        assert_eq!(a.seed(), Ok(Some(0xABCD)));
        assert_eq!(a.probability("loss"), Ok(Some(1.0)));
        assert_eq!(a.clients(), Ok(Some(4096)));
        assert_eq!(a.non_negative("jitter"), Ok(Some(0.0)));
        assert_eq!(
            a.duration("every", SimDuration::from_secs_f64),
            Ok(Some(SimDuration::from_millis(500)))
        );
        assert_eq!(a.list("only", "", |s| Some(s.len())), Ok(Some(vec![1, 1])));
        assert_eq!(
            a.positive("rate-mbps"),
            Ok(None),
            "absent keeps the default"
        );
    }

    #[test]
    fn bad_values_name_their_flag() {
        for (flag, value) in [
            ("reps", "abc"),
            ("reps", "0"),
            ("seed", "garbage"),
            ("loss", "0.05x"),
            ("loss", "1.5"),
            ("loss", "NaN"),
            ("clients", "0"),
            ("clients", "4097"),
            ("rate-mbps", "-1"),
            ("rate-mbps", "inf"),
            ("jitter", "-0.5"),
            ("size", "0"),
            ("size", "16777217"),
            ("every", "1e-12"),
            ("every", "-1"),
            ("period", "1e-7"),
            ("only", "table1,fig9"),
            ("only", ""),
            ("method", "xhr"),
            ("format", "xml"),
        ] {
            let dashed = format!("--{flag}");
            let a = parse(&[dashed.as_str(), value]).unwrap();
            let got = match flag {
                "reps" => a.reps().map(drop),
                "seed" => a.seed().map(drop),
                "loss" => a.probability(flag).map(drop),
                "clients" => a.clients().map(drop),
                "rate-mbps" => a.positive(flag).map(drop),
                "jitter" => a.non_negative(flag).map(drop),
                "size" => a.size().map(drop),
                "every" => a.duration(flag, SimDuration::from_secs_f64).map(drop),
                "period" => a.duration(flag, SimDuration::from_millis_f64).map(drop),
                "only" => a
                    .list(flag, "names", |n| (n == "table1").then_some(()))
                    .map(drop),
                "method" => a.method().map(drop),
                _ => a.format().map(drop),
            };
            assert!(
                matches!(&got, Err(ArgError::Invalid { flag: f, value: v, .. }) if f == flag && v == value),
                "{dashed} {value}: {got:?}"
            );
        }
    }

    #[test]
    fn malformed_command_lines_are_refused() {
        let refused = |argv: &[&str]| parse(argv).unwrap_err();
        assert_eq!(refused(&["--los", "0.05"]), ArgError::Unknown("los".into()));
        assert_eq!(
            refused(&["--reps", "2", "--reps", "3"]),
            ArgError::Repeated("reps".into())
        );
        assert_eq!(refused(&["--reps"]), ArgError::MissingValue("reps".into()));
        assert_eq!(
            refused(&["--reps", "--quick"]),
            ArgError::MissingValue("reps".into())
        );
        assert_eq!(refused(&["stray"]), ArgError::Positional("stray".into()));
        assert_eq!(
            refused(&["--quick", "yes"]),
            ArgError::Positional("yes".into()),
            "a switch takes no value"
        );
    }
}
