//! Data-source resolution: CSV file or the built-in demo generator.

use std::fs::File;
use std::io::BufReader;

use relation::{ColumnId, CsvOptions, Relation};
use tpcd::{GeneratorConfig, TpcdDataset};

use crate::args::Args;
use crate::{err, Result};

/// A resolved data source: the table, its display name (for SQL `FROM`),
/// and the dimensional columns.
pub struct Source {
    /// The loaded/generated table.
    pub relation: Relation,
    /// Table name shown in messages (CSV stem or "lineitem").
    pub name: String,
    /// The grouping columns `G`.
    pub grouping: Vec<ColumnId>,
}

/// Load the data source selected by `--csv` or `--demo`.
pub fn load(args: &Args) -> Result<Source> {
    match (args.get("csv"), args.has("demo")) {
        (Some(path), false) => {
            let file = File::open(path).map_err(|e| format!("cannot open {path}: {e}"))?;
            let relation =
                relation::read_csv(BufReader::new(file), &CsvOptions::default()).map_err(err)?;
            let name = std::path::Path::new(path)
                .file_stem()
                .and_then(|s| s.to_str())
                .unwrap_or("table")
                .to_string();
            let grouping = resolve_grouping(args, &relation, None)?;
            Ok(Source {
                relation,
                name,
                grouping,
            })
        }
        (None, true) => {
            let config = GeneratorConfig {
                table_size: args.get_parsed("rows", 100_000usize)?,
                num_groups: args.get_parsed("groups", 125usize)?,
                group_skew: args.get_parsed("skew", 0.86f64)?,
                agg_skew: 0.86,
                seed: args.get_parsed("seed", 0u64)?,
            };
            let ds = TpcdDataset::generate(config);
            let default = ds.grouping_columns();
            let grouping = resolve_grouping(args, &ds.relation, Some(default))?;
            Ok(Source {
                relation: ds.relation,
                name: "lineitem".to_string(),
                grouping,
            })
        }
        (Some(_), true) => Err("choose either --csv or --demo, not both".into()),
        (None, false) => Err("no data source: pass --csv <FILE> or --demo".into()),
    }
}

fn resolve_grouping(
    args: &Args,
    relation: &Relation,
    default: Option<Vec<ColumnId>>,
) -> Result<Vec<ColumnId>> {
    match args.get_list("group-by") {
        Some(names) => {
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            relation.schema().column_ids(&refs).map_err(err)
        }
        None => default.ok_or_else(|| "missing required flag --group-by".to_string()),
    }
}

/// Parse the `--strategy` flag ([`aqua::SamplingStrategy::from_token`]).
pub fn strategy(args: &Args) -> Result<aqua::SamplingStrategy> {
    aqua::SamplingStrategy::from_token(args.get("strategy").unwrap_or("congress"))
        .map_err(|e| format!("--strategy: {}", aqua::AquaError::InvalidConfig(e)))
}

/// Parse the `--rewrite` flag ([`aqua::RewriteChoice::from_token`]).
pub fn rewrite(args: &Args) -> Result<aqua::RewriteChoice> {
    aqua::RewriteChoice::from_token(args.get("rewrite").unwrap_or("nested"))
        .map_err(|e| format!("--rewrite: {}", aqua::AquaError::InvalidConfig(e)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Args;

    fn args(tokens: &[&str]) -> Args {
        Args::parse(tokens.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn demo_source_with_default_grouping() {
        let a = args(&["plan", "--demo", "--rows", "5000", "--groups", "27"]);
        let s = load(&a).unwrap();
        assert_eq!(s.relation.row_count(), 5000);
        assert_eq!(s.grouping.len(), 3);
        assert_eq!(s.name, "lineitem");
    }

    #[test]
    fn demo_grouping_override() {
        let a = args(&[
            "plan",
            "--demo",
            "--rows",
            "5000",
            "--groups",
            "27",
            "--group-by",
            "l_returnflag",
        ]);
        let s = load(&a).unwrap();
        assert_eq!(s.grouping.len(), 1);
    }

    #[test]
    fn csv_source_round_trip() {
        let dir = std::env::temp_dir().join("congress_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mini.csv");
        std::fs::write(&path, "g,v\na,1\nb,2\na,3\n").unwrap();
        let a = args(&[
            "inspect",
            "--csv",
            path.to_str().unwrap(),
            "--group-by",
            "g",
        ]);
        let s = load(&a).unwrap();
        assert_eq!(s.relation.row_count(), 3);
        assert_eq!(s.name, "mini");
        assert_eq!(s.grouping.len(), 1);
    }

    #[test]
    fn source_errors() {
        assert!(load(&args(&["plan"])).is_err());
        assert!(load(&args(&["plan", "--csv", "x.csv", "--demo"])).is_err());
        assert!(load(&args(&[
            "plan",
            "--csv",
            "/nonexistent/x.csv",
            "--group-by",
            "g"
        ]))
        .is_err());
        // CSV without --group-by
        let dir = std::env::temp_dir().join("congress_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mini2.csv");
        std::fs::write(&path, "g,v\na,1\n").unwrap();
        assert!(load(&args(&["plan", "--csv", path.to_str().unwrap()])).is_err());
    }

    #[test]
    fn strategy_and_rewrite_flags() {
        assert_eq!(
            strategy(&args(&["q"])).unwrap(),
            aqua::SamplingStrategy::Congress
        );
        assert_eq!(
            strategy(&args(&["q", "--strategy", "house"])).unwrap(),
            aqua::SamplingStrategy::House
        );
        assert!(strategy(&args(&["q", "--strategy", "zzz"])).is_err());
        assert_eq!(
            rewrite(&args(&["q", "--rewrite", "keynorm"])).unwrap(),
            aqua::RewriteChoice::KeyNormalized
        );
        assert!(rewrite(&args(&["q", "--rewrite", "zzz"])).is_err());
    }
}
