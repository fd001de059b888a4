//! EXPERIMENTS.md quotes what the committed CSVs say.
//!
//! The measured columns of Tables 3 and 4 and every Figure 3 median in
//! EXPERIMENTS.md are recomputed here from `results/table3.csv`,
//! `results/table4.csv` and `results/fig3_deltas.csv`, and each quoted
//! number must equal its source rounded to the precision it is quoted
//! at. `scripts/check.sh` holds the CSVs equal to what `bnm reproduce`
//! writes, so a change that moves an artifact must also move the doc.

use std::collections::HashMap;
use std::fs;
use std::path::Path;

fn read(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(rel);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The rows of a CSV file, as maps from its header's names.
fn csv(rel: &str) -> Vec<HashMap<String, String>> {
    let text = read(rel);
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("a header row").split(',').collect();
    lines
        .map(|line| {
            header
                .iter()
                .map(|h| h.to_string())
                .zip(line.split(',').map(str::to_string))
                .collect()
        })
        .collect()
}

/// The body rows of the markdown table whose header row starts with
/// `header`, each split into trimmed cells.
fn table(doc: &str, header: &str) -> Vec<Vec<String>> {
    let mut lines = doc.lines().skip_while(|l| !l.starts_with(header));
    assert!(lines.next().is_some(), "no table headed {header:?}");
    lines
        .skip(1) // the |---| rule
        .take_while(|l| l.starts_with('|'))
        .map(|l| {
            l.trim_matches('|')
                .split('|')
                .map(|c| c.trim().to_string())
                .collect()
        })
        .collect()
}

/// Whether `quoted` is `value` rounded to the decimals it shows. The
/// doc writes a minus as `−`.
fn quotes(quoted: &str, value: f64) -> bool {
    let quoted = quoted.replace('−', "-");
    let decimals = quoted.split_once('.').map_or(0, |(_, f)| f.len());
    quoted == format!("{value:.decimals$}")
}

fn assert_quotes(quoted: &str, value: f64, what: &str) {
    assert!(
        quotes(quoted, value),
        "EXPERIMENTS.md quotes {quoted} for {what}; the CSV says {value}"
    );
}

/// `a / b` as its two halves.
fn pair(cell: &str) -> (&str, &str) {
    cell.split_once(" / ")
        .unwrap_or_else(|| panic!("{cell:?} is not `Δd1 / Δd2`"))
}

#[test]
fn table3_measured_columns_are_the_csv() {
    let rows = csv("results/table3.csv");
    let doc = read("EXPERIMENTS.md");
    let quoted = table(&doc, "| | paper O(W) |");
    assert_eq!(quoted.len(), rows.len());
    for q in &quoted {
        let (method, round) = q[0].split_once(" Δd").expect("`GET Δd1` and the like");
        let row = rows
            .iter()
            .find(|r| r["method"] == method && r["round"] == round)
            .unwrap_or_else(|| panic!("no CSV row for {}", q[0]));
        for (cell, col) in [(&q[3], "ow_ms"), (&q[4], "ou_ms")] {
            let value: f64 = row[col].parse().unwrap();
            assert_quotes(cell, value, &format!("Table 3 {} {col}", q[0]));
        }
    }
}

#[test]
fn table4_measured_columns_are_the_csv() {
    let rows = csv("results/table4.csv");
    let doc = read("EXPERIMENTS.md");
    let quoted = table(&doc, "| | paper GET Δd1/Δd2 |");
    assert_eq!(quoted.len() * 6, rows.len());
    for q in &quoted {
        for (cell, method) in q[4..7].iter().zip(["java_get", "java_post", "java_tcp"]) {
            let (d1, d2) = pair(cell);
            for (quote, round) in [(d1, "1"), (d2, "2")] {
                let row = rows
                    .iter()
                    .find(|r| r["browser"] == q[0] && r["method"] == method && r["round"] == round)
                    .unwrap_or_else(|| panic!("no CSV row for {} {method} {round}", q[0]));
                let mean: f64 = row["mean_ms"].parse().unwrap();
                assert_quotes(quote, mean, &format!("Table 4 {} {method} Δd{round}", q[0]));
            }
        }
    }
}

/// Figure 3's per-cell medians: `(method, runtime, round)` → the
/// median of its samples (the mean of the middle two of an even count).
fn fig3_medians() -> HashMap<(String, String, String), f64> {
    let mut samples: HashMap<(String, String, String), Vec<f64>> = HashMap::new();
    for r in csv("results/fig3_deltas.csv") {
        let key = (
            r["method"].clone(),
            r["runtime"].clone(),
            r["round"].clone(),
        );
        samples
            .entry(key)
            .or_default()
            .push(r["delta_ms"].parse().unwrap());
    }
    samples
        .into_iter()
        .map(|(key, mut v)| {
            v.sort_by(f64::total_cmp);
            let n = v.len();
            let median = if n % 2 == 1 {
                v[n / 2]
            } else {
                (v[n / 2 - 1] + v[n / 2]) / 2.0
            };
            (key, median)
        })
        .collect()
}

#[test]
fn figure3_medians_are_the_csv() {
    let medians = fig3_medians();
    let doc = read("EXPERIMENTS.md");
    let header = "| Panel | C (U) |";
    let runtimes: Vec<String> = doc
        .lines()
        .find(|l| l.starts_with(header))
        .expect("the Figure 3 medians table")
        .trim_matches('|')
        .split('|')
        .skip(1)
        .map(|c| c.trim().to_string())
        .collect();
    let quoted = table(&doc, header);
    let mut methods = HashMap::new();
    let mut cells = 0;
    for q in &quoted {
        // `(a) \`xhr_get\``: the panel and the CSV's method name.
        let (panel, method) = q[0].split_once(' ').expect("`(a) `method``");
        let method = method.trim_matches('`').to_string();
        for (cell, runtime) in q[1..].iter().zip(&runtimes) {
            let key = |round: &str| (method.clone(), runtime.clone(), round.to_string());
            if cell == "—" {
                assert!(
                    !medians.contains_key(&key("1")),
                    "{method} on {runtime} has samples but is quoted as —"
                );
                continue;
            }
            let (d1, d2) = pair(cell);
            for (quote, round) in [(d1, "1"), (d2, "2")] {
                let median = *medians
                    .get(&key(round))
                    .unwrap_or_else(|| panic!("no samples for {method} {runtime} Δd{round}"));
                assert_quotes(quote, median, &format!("{method} {runtime} Δd{round}"));
                cells += 1;
            }
        }
        methods.insert(panel.to_string(), method);
    }
    assert_eq!(cells, medians.len(), "every Figure 3 median is quoted");

    // The panel table's ranges: `U lo–hi · W lo–hi`, or one number
    // where every median of that system rounds alike.
    let panels = table(&doc, "| Panel | Paper (qualitative) |");
    assert_eq!(panels.len(), methods.len());
    for p in &panels {
        let panel = p[0].split_whitespace().next().unwrap();
        let method = &methods[panel];
        for part in p[2].split(" · ") {
            let (os, range) = part.split_once(' ').expect("`U lo–hi`");
            let of_os: Vec<f64> = medians
                .iter()
                .filter(|((m, rt, _), _)| m == method && rt.ends_with(&format!("({os})")))
                .map(|(_, &v)| v)
                .collect();
            assert!(!of_os.is_empty(), "{method} has no {os} medians");
            let lo = of_os.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = of_os.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let (qlo, qhi) = range.split_once('–').unwrap_or((range, range));
            assert_quotes(qlo, lo, &format!("{panel} {os} lowest median"));
            assert_quotes(qhi, hi, &format!("{panel} {os} highest median"));
        }
    }
}
