//! `query`: build a synopsis and answer SQL approximately, with the exact
//! answer and error report alongside.

use std::fmt::Write as _;

use aqua::{Aqua, AquaConfig, Request};
use congress::compare_results;

use crate::args::Args;
use crate::data::{load, rewrite, strategy};
use crate::{err, Result};

/// Run one SQL query through the full middleware pipeline.
pub fn query(args: &Args) -> Result<String> {
    let source = load(args)?;
    let sql = args.one_positional("SQL query")?.to_string();
    let space: usize = args.get_parsed("space", 0usize)?;
    if space == 0 {
        return Err("query requires --space <tuples>".into());
    }
    let config = AquaConfig {
        space,
        strategy: strategy(args)?,
        rewrite: rewrite(args)?,
        confidence: args.get_parsed("confidence", 0.9f64)?,
        seed: args.get_parsed("seed", 0u64)?,
        parallelism: args.get_parsed("parallelism", 0usize)?,
    };
    let table_rows = source.relation.row_count();
    let aqua = Aqua::build(source.relation, source.grouping, config).map_err(err)?;
    let served = aqua.run(&Request::sql(&sql)).map_err(err)?;
    let (answer, rewritten) = (&served.answer, &served.rewritten);

    let mut out = String::new();
    let _ = writeln!(
        out,
        "synopsis: {} of {} rows ({:.2}%), strategy {}, rewrite {}",
        aqua.synopsis_rows(),
        table_rows,
        aqua.synopsis_rows() as f64 / table_rows as f64 * 100.0,
        config.strategy.name(),
        config.rewrite.name()
    );
    let _ = writeln!(out, "\nrewritten for the synopsis:\n{rewritten}");
    let _ = writeln!(out, "\napproximate answer:\n{answer}");

    if !args.has("quiet") {
        let exact = aqua.exact_sql(&sql).map_err(err)?;
        let _ = writeln!(out, "exact answer:\n{exact}");
        let report = compare_results(&exact, &answer.result, 0, 100.0);
        let _ = writeln!(
            out,
            "mean error {:.3}%  worst group {:.3}%  missing groups {}",
            report.l1(),
            report.l_inf(),
            report.missing_groups
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::test_support::args;

    #[test]
    fn query_reports_bounds_and_errors() {
        let out = query(&args(&[
            "query",
            "--demo",
            "--rows",
            "6000",
            "--groups",
            "27",
            "--space",
            "600",
            "SELECT l_returnflag, SUM(l_quantity) AS s FROM lineitem GROUP BY l_returnflag",
        ]))
        .unwrap();
        assert!(out.contains("rewritten for the synopsis"), "{out}");
        assert!(out.contains('±'), "{out}");
        assert!(out.contains("mean error"), "{out}");
    }

    #[test]
    fn query_errors_are_clean() {
        let e = query(&args(&[
            "query", "--demo", "--rows", "1000", "--groups", "8",
        ]))
        .unwrap_err();
        assert!(e.contains("SQL query") || e.contains("--space"), "{e}");
        let e = query(&args(&[
            "query",
            "--demo",
            "--rows",
            "1000",
            "--groups",
            "8",
            "--space",
            "100",
            "SELEKT nope",
        ]))
        .unwrap_err();
        assert!(
            e.to_lowercase().contains("sql") || e.contains("SELECT"),
            "{e}"
        );
    }
}
