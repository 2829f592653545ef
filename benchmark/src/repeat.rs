//! `--all` and `repeat`: run workloads as child processes of this same
//! program (peak memory is per process) and compare whole sets of runs, to
//! show the benchmark agrees with itself within its own bounds.

use std::process::{Command, ExitCode, Stdio};

use crate::drive::Workload;
use crate::report::{parse_result_line, Better, END_TO_END};
use crate::stats::median;
use crate::Options;

/// Run one workload in a child process; returns its standard output.
fn child(workload: Workload, seed: u64, o: &Options) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut command = Command::new(exe);
    command
        .arg("run")
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &o.seconds.to_string()])
        .args(["--trace", if o.trace { "1" } else { "0" }])
        .stdout(Stdio::piped());
    if o.quick {
        command.arg("--quick");
    }
    // `output` waits for the child to end.
    let output = command.output().map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if output.status.success() {
        Ok(stdout)
    } else {
        Err(format!(
            "{} exited with {}:\n{stdout}",
            workload.name(),
            output.status
        ))
    }
}

/// `run --all` / `trace --all`: the four workloads, one process each.
pub fn run_all(o: &Options) -> ExitCode {
    let mut code = ExitCode::SUCCESS;
    for workload in Workload::ALL {
        match child(workload, o.seed, o) {
            Ok(stdout) => print!("{stdout}"),
            Err(e) => {
                eprintln!("{e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the exclusive method) — what the driver's acceptance check uses.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    [1, 2, 3].map(|i| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Largest difference between any two values, as a share of the median.
pub fn pairwise_deviation(values: &[f64]) -> f64 {
    let max = values.iter().copied().fold(f64::MIN, f64::max);
    let min = values.iter().copied().fold(f64::MAX, f64::min);
    (max - min) / median(values).abs()
}

/// `repeat --sets N`: all four workloads N times back to back; a markdown
/// table of every set's value per `workload/metric`, the median, and how
/// much of the metric's bound the disagreement between sets uses up.
/// Fails if any metric uses more than its whole bound.
pub fn repeat(o: &Options) -> ExitCode {
    if o.sets < 2 {
        eprintln!("repeat needs at least 2 sets");
        return ExitCode::FAILURE;
    }
    // All four, unless one is named (to work on that one's noise).
    let workloads: Vec<Workload> = match o.workload {
        Some(w) => vec![w],
        None => Workload::ALL.to_vec(),
    };
    // values[workload][metric][set]
    let mut values = vec![vec![Vec::with_capacity(o.sets); END_TO_END.len()]; workloads.len()];
    for set in 0..o.sets {
        let seed = o.seed + if o.vary_seed { set as u64 } else { 0 };
        for (w, &workload) in workloads.iter().enumerate() {
            eprintln!(
                "set {} of {}: {} (seed {seed})",
                set + 1,
                o.sets,
                workload.name()
            );
            let parsed = child(workload, seed, o).and_then(|stdout| {
                stdout
                    .lines()
                    .last()
                    .and_then(parse_result_line)
                    .ok_or_else(|| format!("{}: no result line", workload.name()))
            });
            let (_, metrics) = match parsed {
                Ok(p) => p,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            for (m, def) in END_TO_END.iter().enumerate() {
                match metrics.iter().find(|(name, _)| name == def.name) {
                    Some((_, v)) => values[w][m].push(*v),
                    None => {
                        eprintln!("{}: no {} in the result", workload.name(), def.name);
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
    }

    // With one seed the sets did identical work, so any two may be
    // compared; with a seed per set the inputs differ and the spread
    // between quartiles is the fair measure, as in the driver's check.
    let measure = if o.vary_seed {
        "quartile spread / median"
    } else {
        "largest pairwise deviation / median"
    };
    let sets: String = (1..=o.sets).map(|s| format!(" set {s} |")).collect();
    println!("| workload/metric | better |{sets} median | {measure} | bound | share of bound |");
    println!("|---|---|{}---|---|---|---|", "---|".repeat(o.sets));
    let mut worst: Option<(String, f64)> = None;
    for (w, workload) in workloads.iter().enumerate() {
        for (m, def) in END_TO_END.iter().enumerate() {
            let v = &values[w][m];
            let spread = if o.vary_seed {
                let [q1, q2, q3] = quartiles(v);
                (q3 - q1) / q2.abs()
            } else {
                pairwise_deviation(v)
            };
            let share = spread / def.bound;
            let name = format!("{}/{}", workload.name(), def.name);
            let cells: String = v.iter().map(|x| format!(" {x:.6} |")).collect();
            let better = match def.better {
                Better::Higher => "higher",
                Better::Lower => "lower",
            };
            println!(
                "| {name} | {better} |{cells} {:.6} | {spread:.4} | {} | {share:.2} |",
                median(v),
                def.bound
            );
            if worst.as_ref().is_none_or(|(_, s)| share > *s) {
                worst = Some((name, share));
            }
        }
    }
    let (name, share) = worst.expect("there are metrics");
    println!("\nLargest share of a bound: {share:.2} ({name}).");
    if share > 1.0 {
        eprintln!("{name} disagrees with itself by more than its bound");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn pairwise_deviation_is_range_over_median() {
        assert!((pairwise_deviation(&[95.0, 100.0, 105.0]) - 0.1).abs() < 1e-12);
        assert_eq!(pairwise_deviation(&[4.0, 4.0]), 0.0);
    }
}
