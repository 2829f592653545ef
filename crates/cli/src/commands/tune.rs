//! `tune`: replay a workload to build an observed-workload profile, then
//! run one closed-loop reallocation pass and report the drift decision.

use std::fmt::Write as _;

use aqua::{Aqua, AquaConfig, Request, TuneOptions};

use crate::args::Args;
use crate::data::{load, rewrite, strategy};
use crate::{err, Result};

/// Build a synopsis, answer the positional SQL queries (repeated
/// `--repeat` times) to accumulate the workload profile, then run
/// [`Aqua::tune`] — or [`Aqua::tune_force`] with `--force` — and print
/// what the drift detector saw and whether the synopsis was reallocated.
pub fn tune(args: &Args) -> Result<String> {
    let source = load(args)?;
    let space: usize = args.get_parsed("space", 0usize)?;
    if space == 0 {
        return Err("tune requires --space <tuples>".into());
    }
    let config = AquaConfig {
        space,
        strategy: strategy(args)?,
        rewrite: rewrite(args)?,
        confidence: args.get_parsed("confidence", 0.9f64)?,
        seed: args.get_parsed("seed", 0u64)?,
        parallelism: args.get_parsed("parallelism", 0usize)?,
    };
    let demo = args.has("demo");
    let table_rows = source.relation.row_count();
    let aqua = Aqua::build(source.relation, source.grouping, config).map_err(err)?;
    aqua.set_tune_options(TuneOptions {
        drift_threshold: args.get_parsed("threshold", 0.15f64)?,
        min_queries: args.get_parsed("min-queries", 1u64)?,
        ..TuneOptions::default()
    });

    let queries: Vec<String> = if args.positional().is_empty() {
        if !demo {
            return Err(
                "tune needs at least one SQL query as a positional argument \
                 (the built-in workload only exists for --demo)"
                    .into(),
            );
        }
        super::stats::demo_workload()
    } else {
        args.positional().to_vec()
    };
    let repeat: usize = args.get_parsed("repeat", 2usize)?;
    for _ in 0..repeat.max(1) {
        for sql in &queries {
            aqua.run(&Request::sql(sql)).map_err(err)?;
        }
    }

    let before = aqua.synopsis_rows();
    let report = if args.has("force") {
        aqua.tune_force()
    } else {
        aqua.tune()
    }
    .map_err(err)?;
    let profile = aqua.workload_profile();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "profile: {} queries over {} grouping(s)",
        profile.queries(),
        profile.grouping_count()
    );
    let _ = writeln!(
        out,
        "drift: {:.3} (threshold {:.3}, observed {} queries)",
        report.divergence, report.threshold, report.queries_observed
    );
    let _ = writeln!(
        out,
        "decision: {}",
        if report.reallocated {
            "reallocated under recomputed workload/variance weights"
        } else {
            "allocation kept (divergence under threshold)"
        }
    );
    let _ = writeln!(
        out,
        "synopsis: {} -> {} of {} rows",
        before,
        aqua.synopsis_rows(),
        table_rows
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::test_support::args;

    #[test]
    fn tune_reports_drift_decision() {
        let out = tune(&args(&[
            "tune", "--demo", "--rows", "4000", "--groups", "27", "--space", "400",
        ]))
        .unwrap();
        assert!(out.contains("profile: "), "{out}");
        assert!(out.contains("drift: "), "{out}");
        assert!(out.contains("decision: "), "{out}");
    }

    #[test]
    fn forced_tune_always_reallocates() {
        let out = tune(&args(&[
            "tune", "--demo", "--rows", "4000", "--groups", "27", "--space", "400", "--force",
        ]))
        .unwrap();
        assert!(out.contains("reallocated under recomputed"), "{out}");
    }

    #[test]
    fn tune_requires_space_and_workload() {
        let e = tune(&args(&[
            "tune", "--demo", "--rows", "1000", "--groups", "8",
        ]))
        .unwrap_err();
        assert!(e.contains("--space"), "{e}");
        let e = tune(&args(&[
            "tune",
            "--csv",
            "/nonexistent.csv",
            "--group-by",
            "g",
            "--space",
            "10",
        ]))
        .unwrap_err();
        assert!(e.contains("cannot open"), "{e}");
    }
}
