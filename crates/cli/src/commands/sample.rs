//! `sample`: draw a biased sample and persist its binary snapshot.

use std::fmt::Write as _;

use congress::{snapshot, CongressionalSample, GroupCensus, SeedSpec};

use crate::args::Args;
use crate::data::{load, strategy};
use crate::{err, Result};

/// Draw a sample per the chosen strategy and write the snapshot to
/// `--out` (the durable synopsis format).
///
/// Construction runs on `--parallelism` threads (`0` = all cores, the
/// default) with per-stratum RNG streams derived from `--seed`, so the
/// written snapshot is identical for any thread count.
pub fn sample(args: &Args) -> Result<String> {
    let source = load(args)?;
    let space: f64 = args.get_parsed("space", 0.0f64)?;
    if space <= 0.0 {
        return Err("sample requires --space <tuples>".into());
    }
    let out_path = args.require("out")?.to_string();
    let spec = SeedSpec::new(args.get_parsed("seed", 0u64)?);
    let parallelism: usize = args.get_parsed("parallelism", 0usize)?;

    let allocator = strategy(args)?.allocator();
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(parallelism)
        .build()
        .expect("thread pool");
    let sample = pool
        .install(|| -> congress::Result<CongressionalSample> {
            let census = GroupCensus::par_build(&source.relation, &source.grouping)?;
            CongressionalSample::draw_par(&source.relation, &census, allocator, space, &spec)
        })
        .map_err(err)?;
    let bytes = snapshot::encode(&sample);
    // Crash-safe write: temp file + fsync + rename via the snapshot store,
    // so a kill mid-write can never leave a torn snapshot at --out.
    let path = std::path::Path::new(&out_path);
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => std::path::Path::new("."),
    };
    let file = path
        .file_name()
        .and_then(|f| f.to_str())
        .ok_or_else(|| format!("--out `{out_path}` has no file name"))?;
    let fs_store = congress::FsStore::open(parent)
        .map_err(|e| format!("cannot open output directory: {e}"))?;
    congress::SnapshotStore::put(&fs_store, file, &bytes)
        .map_err(|e| format!("cannot write {out_path}: {e}"))?;

    let mut out = String::new();
    let _ = writeln!(
        out,
        "wrote {} ({} bytes): {} strategy, {} tuples over {} strata",
        out_path,
        bytes.len(),
        sample.strategy_name(),
        sample.total_sampled(),
        sample.stratum_count()
    );
    let _ = writeln!(
        out,
        "reload with congress::snapshot::decode or Aqua::build_from_snapshot \
         against the same base table."
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::test_support::args;

    #[test]
    fn sample_writes_decodable_snapshot() {
        let dir = std::env::temp_dir().join("congress_cli_sample");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.sample");
        let out = sample(&args(&[
            "sample",
            "--demo",
            "--rows",
            "4000",
            "--groups",
            "27",
            "--space",
            "400",
            "--out",
            path.to_str().unwrap(),
        ]))
        .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let bytes = std::fs::read(&path).unwrap();
        let decoded = congress::snapshot::decode(bytes::Bytes::from(bytes)).unwrap();
        assert_eq!(decoded.total_sampled(), 400);
        assert_eq!(decoded.stratum_count(), 27);
    }

    #[test]
    fn sample_snapshot_identical_across_parallelism() {
        let dir = std::env::temp_dir().join("congress_cli_sample_par");
        std::fs::create_dir_all(&dir).unwrap();
        let mut snapshots = Vec::new();
        for parallelism in ["1", "4"] {
            let path = dir.join(format!("p{parallelism}.sample"));
            sample(&args(&[
                "sample",
                "--demo",
                "--rows",
                "4000",
                "--groups",
                "27",
                "--space",
                "400",
                "--seed",
                "7",
                "--parallelism",
                parallelism,
                "--out",
                path.to_str().unwrap(),
            ]))
            .unwrap();
            snapshots.push(std::fs::read(&path).unwrap());
        }
        assert_eq!(
            snapshots[0], snapshots[1],
            "snapshot bytes must not depend on thread count"
        );
    }

    #[test]
    fn sample_requires_out_and_space() {
        let e = sample(&args(&[
            "sample", "--demo", "--rows", "100", "--groups", "8",
        ]))
        .unwrap_err();
        assert!(e.contains("--space"), "{e}");
        let e = sample(&args(&[
            "sample", "--demo", "--rows", "100", "--groups", "8", "--space", "10",
        ]))
        .unwrap_err();
        assert!(e.contains("--out"), "{e}");
    }
}
