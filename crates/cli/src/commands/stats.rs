//! `stats`: run a workload through the middleware and print the runtime
//! metrics snapshot — per-strategy query counts, latency quantiles,
//! cache hit rates, and warehouse durability counters.

use std::fmt::Write as _;

use aqua::{Aqua, AquaConfig, RecoveryPolicy, StatsSnapshot, Warehouse};
use congress::FsStore;

use crate::args::Args;
use crate::data::{load, rewrite, strategy};
use crate::{err, Result};

/// Answer the positional SQL queries (repeated `--repeat` times) against
/// a fresh synopsis, then print the [`Aqua::stats`] snapshot. With
/// `--dir` it instead opens a saved warehouse and reports its durability
/// counters. `--prometheus` and `--json` switch the output format.
pub fn stats(args: &Args) -> Result<String> {
    let snap = if let Some(dir) = args.get("dir") {
        let store = FsStore::open(dir).map_err(err)?;
        let policy = if args.has("degrade") {
            RecoveryPolicy::Degrade
        } else {
            RecoveryPolicy::Rebuild
        };
        let (w, _report) = Warehouse::open(&store, policy).map_err(err)?;
        w.stats()
    } else {
        let source = load(args)?;
        let space: usize = args.get_parsed("space", 0usize)?;
        if space == 0 {
            return Err("stats requires --space <tuples> (or --dir <DIR>)".into());
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
        let aqua = Aqua::build(source.relation, source.grouping, config).map_err(err)?;
        let queries: Vec<String> = if args.positional().is_empty() {
            if !demo {
                return Err(
                    "stats needs at least one SQL query as a positional argument \
                     (the built-in workload only exists for --demo)"
                        .into(),
                );
            }
            demo_workload()
        } else {
            args.positional().to_vec()
        };
        let repeat: usize = args.get_parsed("repeat", 2usize)?;
        for _ in 0..repeat.max(1) {
            for sql in &queries {
                aqua.answer_sql(sql).map_err(err)?;
            }
        }
        aqua.stats()
    };

    if args.has("prometheus") {
        Ok(snap.to_prometheus())
    } else if args.has("json") {
        Ok(snap.to_json())
    } else {
        Ok(render_human(&snap))
    }
}

/// The default workload for `--demo`: one additive and one non-additive
/// aggregate over the paper's lineitem table, so both the summary fast
/// path and the bound computation show up in the counters.
pub(crate) fn demo_workload() -> Vec<String> {
    vec![
        "SELECT l_returnflag, SUM(l_quantity) AS s FROM lineitem GROUP BY l_returnflag".into(),
        "SELECT l_returnflag, AVG(l_extendedprice) AS a FROM lineitem GROUP BY l_returnflag".into(),
        // A filtered query forces the scan path through its zone-map
        // pruning pass, so the chunk counters show up in the report.
        "SELECT l_returnflag, SUM(l_quantity) AS f FROM lineitem \
         WHERE l_quantity >= 10 GROUP BY l_returnflag"
            .into(),
    ]
}

/// Human-readable report over the snapshot's metric families.
fn render_human(s: &StatsSnapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "== queries ==");
    let total = s.counter_family("aqua_queries_total");
    let errors = s.counter("aqua_query_errors_total");
    let _ = writeln!(
        out,
        "answered {total}  errors {errors}  sql parsed {}  sql rejected {}",
        s.counter("aqua_sql_queries_total"),
        s.counter("aqua_sql_parse_errors_total"),
    );
    for (name, v) in counters_with_prefix(s, "aqua_queries_total{") {
        let _ = writeln!(out, "  {name} {v}");
    }
    let _ = writeln!(
        out,
        "rows scanned {} (0 = all summary-served)",
        s.counter("aqua_rows_scanned_total")
    );
    // Chunked-storage counters appear once a scan has run a zone-map
    // pruning pass (summary-served queries never touch a chunk).
    let chunks_scanned = s.counter("relation_chunks_scanned_total");
    let chunks_pruned = s.counter("relation_chunks_pruned_total");
    if chunks_scanned + chunks_pruned > 0 {
        let _ = writeln!(
            out,
            "chunks scanned {chunks_scanned}  pruned {chunks_pruned} ({} skipped)",
            rate(chunks_pruned, chunks_scanned)
        );
    }
    // Decode-free kernel counters: chunks answered straight from the
    // encoded representation, by kernel kind (absent until one fires).
    let decode_avoided = s.counter_family("relation_decode_avoided_total");
    if decode_avoided > 0 {
        let _ = writeln!(
            out,
            "decode avoided {decode_avoided} chunks ({} of scanned)  encoded folds {}",
            rate(
                decode_avoided,
                chunks_scanned.saturating_sub(decode_avoided)
            ),
            s.counter_family("relation_encoded_fold_total"),
        );
        for (name, v) in counters_with_prefix(s, "relation_decode_avoided_total{") {
            let _ = writeln!(out, "  {name} {v}");
        }
    }
    if let Some(h) = s.histogram("relation_decode_us") {
        if h.count > 0 {
            let _ = writeln!(
                out,
                "snapshot decodes n={} mean={:.0}us p99<={}us",
                h.count,
                h.mean(),
                h.p99()
            );
        }
    }
    for (name, h) in s
        .histograms
        .iter()
        .filter(|(k, _)| k.starts_with("aqua_query_latency_us"))
    {
        let _ = writeln!(
            out,
            "  {name}: n={} mean={:.0}us p50<={}us p95<={}us p99<={}us",
            h.count,
            h.mean(),
            h.p50(),
            h.p95(),
            h.p99()
        );
    }
    // The error-bounds share of those latencies (answer-cache hits skip it).
    if let Some(h) = s.histogram("aqua_bounds_latency_us") {
        if h.count > 0 {
            let _ = writeln!(
                out,
                "  bounds pass: n={} mean={:.0}us p50<={}us p95<={}us",
                h.count,
                h.mean(),
                h.p50(),
                h.p95()
            );
        }
    }

    // Exact scans of the base table (`exact`, `exact_sql`, a degraded
    // relation's fallback); their rows and chunks are in the lines above.
    let exact = s.counter("aqua_exact_queries_total");
    let _ = write!(out, "exact scans: {exact}");
    if let Some(h) = s.histogram("aqua_exact_latency_us").filter(|h| h.count > 0) {
        let (mean, p50, p95) = (h.mean(), h.p50(), h.p95());
        let _ = write!(out, "  mean={mean:.0}us p50<={p50}us p95<={p95}us");
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "\n== query cache ==");
    let hits = s.counter("aqua_cache_hits_total");
    let misses = s.counter("aqua_cache_misses_total");
    let _ = writeln!(
        out,
        "hits {hits}  misses {misses}  hit rate {}  invalidations {}",
        rate(hits, misses),
        s.counter("aqua_cache_invalidations_total")
    );
    for kind in ["index", "stratum_summary", "layout"] {
        let h = s.counter(&format!("aqua_cache_{kind}_hits_total"));
        let m = s.counter(&format!("aqua_cache_{kind}_misses_total"));
        if h + m > 0 {
            let _ = writeln!(out, "  {kind:<16} hits {h:<6} misses {m:<6} {}", rate(h, m));
        }
    }

    let _ = writeln!(out, "\n== synopsis maintenance ==");
    let _ = writeln!(
        out,
        "rebuilds {}  refreshes {}  ingests {} ({} rows)  sample rows {}  table rows {}",
        s.counter("synopsis_rebuilds_total"),
        s.counter("synopsis_refreshes_total"),
        s.counter("synopsis_ingests_total"),
        s.counter("synopsis_ingested_rows_total"),
        s.gauge("aqua_synopsis_rows"),
        s.gauge("aqua_table_rows"),
    );
    let _ = writeln!(
        out,
        "delta merges {}  evictions {}  adaptive rebuilds {}",
        s.counter("synopsis_delta_merges_total"),
        s.counter("synopsis_evictions_total"),
        s.counter("synopsis_adaptive_rebuilds_total"),
    );
    for phase in ["census", "alloc", "draw"] {
        if let Some(h) = s.histogram(&format!("synopsis_build_{phase}_us")) {
            if h.count > 0 {
                let _ = writeln!(
                    out,
                    "  build {phase:<7} n={} mean={:.0}us",
                    h.count,
                    h.mean()
                );
            }
        }
    }

    let _ = writeln!(out, "\n== adaptive tuner ==");
    let _ = writeln!(
        out,
        "profile queries {}  groupings {}  tune checks {}  reallocations {}  drift {:.3}",
        s.gauge("aqua_profile_queries"),
        s.gauge("aqua_profile_groupings"),
        s.counter("aqua_tune_checks_total"),
        s.counter("aqua_tune_reallocations_total"),
        s.gauge("aqua_drift_permille") as f64 / 1000.0,
    );

    if s.counters.keys().any(|k| k.starts_with("warehouse_")) {
        let _ = writeln!(out, "\n== warehouse durability ==");
        let _ = writeln!(
            out,
            "opens {}  saves {}  generation {}  relations {}",
            s.counter("warehouse_opens_total"),
            s.counter("warehouse_saves_total"),
            s.gauge("warehouse_generation"),
            s.gauge("warehouse_relations"),
        );
        let _ = writeln!(
            out,
            "wal appends {} ({} bytes)  replayed records {}  torn-tail truncations {} \
             ({} bytes dropped)",
            s.counter("warehouse_wal_appends_total"),
            s.counter("warehouse_wal_appended_bytes_total"),
            s.counter("warehouse_wal_replayed_records_total"),
            s.counter("warehouse_wal_truncations_total"),
            s.counter("warehouse_wal_dropped_bytes_total"),
        );
        let _ = writeln!(
            out,
            "degraded answers {}",
            s.counter("warehouse_degraded_answers_total")
        );
        for (name, v) in counters_with_prefix(s, "warehouse_recovered_relations_total{") {
            let _ = writeln!(out, "  {name} {v}");
        }
    }
    out
}

fn counters_with_prefix<'a>(
    s: &'a StatsSnapshot,
    prefix: &'a str,
) -> impl Iterator<Item = (&'a String, u64)> + 'a {
    s.counters
        .iter()
        .filter(move |(k, _)| k.starts_with(prefix))
        .map(|(k, v)| (k, *v))
}

fn rate(hits: u64, misses: u64) -> String {
    if hits + misses == 0 {
        "n/a".to_string()
    } else {
        format!("{:.1}%", hits as f64 / (hits + misses) as f64 * 100.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commands::test_support::args;

    const DEMO: &[&str] = &[
        "stats", "--demo", "--rows", "4000", "--groups", "27", "--space", "400",
    ];

    #[test]
    fn demo_workload_reports_counters_and_latency() {
        let out = stats(&args(DEMO)).unwrap();
        assert!(out.contains("== queries =="), "{out}");
        assert!(out.contains("== query cache =="), "{out}");
        assert!(out.contains("== synopsis maintenance =="), "{out}");
        // Cache counters are live regardless of the obs feature.
        assert!(out.contains("hit rate"), "{out}");
        // The workload answers approximately only.
        assert!(out.contains("exact scans: 0\n"), "{out}");
        if !cfg!(feature = "obs-off") {
            assert!(out.contains("answered 6"), "{out}");
            assert!(out.contains("served=\"summary\""), "{out}");
            assert!(out.contains("p95<="), "{out}");
            assert!(out.contains("bounds pass: n=3"), "{out}");
            // The filtered demo query ran a pruning pass, so the chunk
            // accounting line must be present.
            assert!(out.contains("chunks scanned"), "{out}");
            // Its float comparison went through the code-domain kernel,
            // so the decode-avoided family must be present too.
            assert!(out.contains("decode avoided"), "{out}");
            assert!(
                out.contains("relation_decode_avoided_total{kind=\"code-domain-predicate\"}"),
                "{out}"
            );
        }
    }

    #[test]
    fn exact_scans_show_count_and_latency() {
        let source = load(&args(DEMO)).unwrap();
        let config = AquaConfig {
            space: 400,
            strategy: aqua::SamplingStrategy::Congress,
            rewrite: aqua::RewriteChoice::Integrated,
            confidence: 0.9,
            seed: 0,
            parallelism: 1,
        };
        let aqua = Aqua::build(source.relation, source.grouping, config).unwrap();
        for sql in demo_workload() {
            aqua.exact_sql(&sql).unwrap();
        }
        let out = render_human(&aqua.stats());
        if cfg!(feature = "obs-off") {
            assert!(out.contains("exact scans: 0\n"), "{out}");
        } else {
            assert!(out.contains("exact scans: 3  mean="), "{out}");
            // Each scan covered the 4,000-row table; only the filtered
            // query ran a pruning pass over its one chunk.
            assert!(out.contains("rows scanned 12000"), "{out}");
            assert!(out.contains("chunks scanned 1  pruned 0"), "{out}");
        }
    }

    #[test]
    fn prometheus_and_json_formats() {
        let mut with_prom: Vec<&str> = DEMO.to_vec();
        with_prom.push("--prometheus");
        let out = stats(&args(&with_prom)).unwrap();
        assert!(
            out.contains("# TYPE aqua_cache_hits_total counter"),
            "{out}"
        );

        let mut with_json: Vec<&str> = DEMO.to_vec();
        with_json.push("--json");
        let out = stats(&args(&with_json)).unwrap();
        assert!(out.contains("\"counters\""), "{out}");
        assert!(out.contains("\"aqua_cache_hits_total\""), "{out}");
    }

    #[test]
    fn warehouse_stats_report_durability_counters() {
        let dir = std::env::temp_dir().join("congress_cli_stats_wh");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let dir = dir.to_str().unwrap().to_string();
        crate::commands::warehouse(&args(&[
            "warehouse",
            "save",
            "--demo",
            "--rows",
            "3000",
            "--groups",
            "27",
            "--space",
            "300",
            "--dir",
            &dir,
        ]))
        .unwrap();
        let out = stats(&args(&["stats", "--dir", &dir])).unwrap();
        assert!(out.contains("== warehouse durability =="), "{out}");
        assert!(out.contains("relations 1"), "{out}");
        if !cfg!(feature = "obs-off") {
            assert!(out.contains("opens 1"), "{out}");
            // Opening the warehouse decoded one snapshot, timed.
            assert!(out.contains("snapshot decodes n=1"), "{out}");
        }
    }

    #[test]
    fn stats_invocation_errors() {
        let e = stats(&args(&[
            "stats", "--demo", "--rows", "1000", "--groups", "8",
        ]))
        .unwrap_err();
        assert!(e.contains("--space"), "{e}");
        let e = stats(&args(&[
            "stats",
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
