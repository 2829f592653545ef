//! The metric catalogue, the result line the driver reads, and the JSON
//! files a run leaves under `benchmark/out/`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// An end-to-end metric: something a user of the system would see.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the median by which the metric may worsen before that
    /// counts as a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

/// Every workload reports all of these. `BENCHMARK.json` repeats the list;
/// a test holds the two together.
pub const END_TO_END: [EndToEnd; 12] = [
    e2e("qps", "1/s", Better::Higher, 0.20),
    e2e("lat_p50_us", "us", Better::Lower, 0.20),
    e2e("lat_p95_us", "us", Better::Lower, 0.20),
    e2e("within_limit_frac", "frac", Better::Higher, 0.01),
    e2e("ok_frac", "frac", Better::Higher, 0.001),
    e2e("cpu_us_per_query", "us", Better::Lower, 0.20),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.15),
    e2e("store_bytes_per_row", "bytes", Better::Lower, 0.01),
    e2e("err_l1_pct", "%", Better::Lower, 0.20),
    e2e("ci_cover_frac", "frac", Better::Higher, 0.02),
    e2e("groups_found_frac", "frac", Better::Higher, 0.002),
];

/// One measured value.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Values in catalogue order, units taken from the catalogue.
pub fn end_to_end_metrics(values: [f64; END_TO_END.len()]) -> Vec<Metric> {
    END_TO_END
        .iter()
        .zip(values)
        .map(|(def, value)| Metric {
            name: def.name,
            value,
            unit: def.unit,
        })
        .collect()
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON number with every digit `f64` carries. JSON has no NaN or
/// infinity, and a metric that is either is a bug in the harness.
fn push_number(out: &mut String, v: f64) {
    assert!(v.is_finite(), "metric value {v} is not a finite number");
    let _ = write!(out, "{v}");
}

fn push_metrics(out: &mut String, metrics: &[Metric]) {
    out.push('{');
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        push_json_string(out, m.name);
        out.push_str(": {\"value\": ");
        push_number(out, m.value);
        out.push_str(", \"unit\": ");
        push_json_string(out, m.unit);
        out.push('}');
    }
    out.push('}');
}

/// The line the driver reads: last on standard output, exactly these keys.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": "
    );
    push_metrics(&mut out, metrics);
    out.push('}');
    out
}

/// Read back a [`result_line`]: `correct` and the metric values by name.
/// Understands this module's own output and nothing more general.
pub fn parse_result_line(line: &str) -> Option<(bool, Vec<(String, f64)>)> {
    let correct = line
        .split_once("\"correct\": ")?
        .1
        .split([',', '}'])
        .next()?
        .parse()
        .ok()?;
    let body = line.split_once("\"metrics\": {")?.1;
    let mut values = Vec::new();
    for entry in body.split("\"unit\"") {
        let Some((head, value)) = entry.rsplit_once(": {\"value\": ") else {
            continue;
        };
        let name = head.rsplit('"').nth(1)?;
        let value = value.trim_end_matches([',', ' ']).parse().ok()?;
        values.push((name.to_string(), value));
    }
    Some((correct, values))
}

/// Free-form facts recorded next to the metrics: numbers, strings, and
/// lists of numbers (per-block values).
pub enum Fact {
    Number(f64),
    Text(String),
    Numbers(Vec<f64>),
}

/// Where run and trace files go: `benchmark/out/` under the directory the
/// command is run from (the checkout root), created on first use.
pub fn out_dir() -> PathBuf {
    let dir = Path::new("benchmark").join("out");
    std::fs::create_dir_all(&dir).expect("create benchmark/out");
    dir
}

/// Write `run_<workload>.json` (or `trace_…`): the metrics plus whatever
/// lets two runs be compared without running again.
pub fn write_run_file(path: &Path, metrics: &[Metric], facts: &[(&str, Fact)]) {
    let mut out = String::from("{\n  \"metrics\": ");
    push_metrics(&mut out, metrics);
    for (name, fact) in facts {
        out.push_str(",\n  ");
        push_json_string(&mut out, name);
        out.push_str(": ");
        match fact {
            Fact::Number(v) => push_number(&mut out, *v),
            Fact::Text(s) => push_json_string(&mut out, s),
            Fact::Numbers(vs) => {
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    push_number(&mut out, *v);
                }
                out.push(']');
            }
        }
    }
    out.push_str("\n}\n");
    std::fs::write(path, out).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// Facts about the machine and the tree, for the run file.
pub fn environment_facts() -> Vec<(&'static str, Fact)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    vec![
        ("nproc", Fact::Number(nproc as f64)),
        ("rustc", Fact::Text(rustc)),
        ("git_head", Fact::Text(git_head())),
    ]
}

/// `git rev-parse HEAD` without the process: the checkout the driver runs
/// in is not a repository, and then this says so.
fn git_head() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "not a git checkout".to_string();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .map_or_else(|_| head.to_string(), |s| s.trim().to_string()),
        None => head.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_the_contract_shape_and_reads_back() {
        let metrics = vec![
            Metric {
                name: "qps",
                value: 12034.567891234,
                unit: "1/s",
            },
            Metric {
                name: "setup_s",
                value: 0.8127,
                unit: "s",
            },
        ];
        let line = result_line(true, 1000, 0, &metrics);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": \
             {\"qps\": {\"value\": 12034.567891234, \"unit\": \"1/s\"}, \
             \"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
        assert!(!line.contains('\n'));
        let (correct, values) = parse_result_line(&line).unwrap();
        assert!(correct);
        assert_eq!(
            values,
            vec![
                ("qps".to_string(), 12034.567891234),
                ("setup_s".to_string(), 0.8127)
            ]
        );
        let (correct, _) = parse_result_line(&result_line(false, 5, 5, &metrics)).unwrap();
        assert!(!correct);
    }

    #[test]
    #[should_panic(expected = "not a finite number")]
    fn a_nan_metric_is_refused() {
        result_line(
            true,
            1,
            0,
            &[Metric {
                name: "qps",
                value: f64::NAN,
                unit: "1/s",
            }],
        );
    }

    /// `BENCHMARK.json` is read by the driver, this catalogue by the
    /// program; they must say the same thing.
    #[test]
    fn benchmark_json_lists_this_catalogue() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for def in &END_TO_END {
            let better = match def.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                def.name, def.unit, def.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for def in crate::trace::PER_LAYER {
            let entry = format!("{{\"name\": \"{}\", \"unit\": \"{}\"", def.name, def.unit);
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for w in crate::drive::Workload::ALL {
            let entry = format!("{{\"name\": \"{}\"", w.name());
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let count = |needle: &str| json.matches(needle).count();
        assert_eq!(
            count("\"better\""),
            END_TO_END.len() + crate::trace::PER_LAYER.len()
        );
    }
}
