//! The instrumentation contract: which event moves which metric.
//!
//! Mirrors the `summary_equivalence` invalidation matrix, but instead of
//! checking answer *values* it pins the *counter movement* every serving
//! and maintenance event must produce:
//!
//! 1. Per rewrite strategy, an unfiltered group-by is labelled
//!    `served="summary"` and a non-grouping predicate `served="cached_scan"`,
//!    with latency histograms and rows-scanned accounting to match.
//! 2. Cache hit/miss counters move by exact, repeatable deltas: a warm
//!    repeat of a query adds hits only, and after every invalidation
//!    trigger (ingest, refresh, rebuild, WAL insert, warehouse reopen)
//!    the cold miss pattern recurs before the cache re-warms.
//! 3. Warehouse durability counters track saves, recoveries, and WAL
//!    replays.
//!
//! Registry-backed metrics compile out under `--features obs-off`; those
//! assertions are gated on [`obs::ENABLED`]. The query-cache counters
//! predate the observability layer and stay live on both legs.

use aqua::{Aqua, AquaConfig, Request, RewriteChoice, SamplingStrategy, StatsSnapshot, Warehouse};
use congress::MemStore;
use engine::{AggregateSpec, GroupByQuery};
use relation::{ColumnId, DataType, Expr, Predicate, Relation, RelationBuilder, Value};

fn sales(n: i64) -> Relation {
    let mut b = RelationBuilder::new()
        .column("region", DataType::Str)
        .column("amount", DataType::Float);
    for i in 0..n {
        let region = match i % 10 {
            0 => "east",
            1 | 2 => "south",
            _ => "west",
        };
        b.push_row(&[Value::str(region), Value::from((i % 50) as f64)])
            .unwrap();
    }
    b.finish()
}

fn config(rewrite: RewriteChoice) -> AquaConfig {
    AquaConfig {
        space: 150,
        strategy: SamplingStrategy::Congress,
        rewrite,
        confidence: 0.9,
        seed: 7,
        parallelism: 1,
    }
}

/// Unfiltered → summary-served; predicate over the *aggregation* column
/// (not a grouping column) → must fall back to the sample scan.
fn summary_query() -> GroupByQuery {
    GroupByQuery::new(
        vec![ColumnId(0)],
        vec![
            AggregateSpec::sum(Expr::col(ColumnId(1)), "s"),
            AggregateSpec::count("c"),
        ],
    )
}

fn scan_query() -> GroupByQuery {
    GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")])
        .with_predicate(Predicate::ge(ColumnId(1), 10.0))
}

/// (hits, misses, invalidations) pulled from a stats snapshot.
fn cache_counters(s: &StatsSnapshot) -> (u64, u64, u64) {
    (
        s.counter("aqua_cache_hits_total"),
        s.counter("aqua_cache_misses_total"),
        s.counter("aqua_cache_invalidations_total"),
    )
}

#[test]
fn served_from_labels_and_latency_per_strategy() {
    for rewrite in RewriteChoice::all() {
        let aqua = Aqua::build(sales(2_000), vec![ColumnId(0)], config(rewrite)).unwrap();
        let name = rewrite.name();

        aqua.answer(&summary_query()).unwrap();
        aqua.answer(&summary_query()).unwrap();
        aqua.answer(&scan_query()).unwrap();
        let s = aqua.stats();

        if !obs::ENABLED {
            // Compiled out: metric names may register, but nothing records.
            assert_eq!(s.counter_family("aqua_queries_total"), 0);
            assert_eq!(s.counter_family("synopsis_"), 0);
            assert!(
                s.histograms.values().all(|h| h.count == 0),
                "obs-off must record nothing"
            );
            continue;
        }

        let summary_label = obs::label(
            "aqua_queries_total",
            &[("rewrite", name), ("served", "summary")],
        );
        let scan_label = obs::label(
            "aqua_queries_total",
            &[("rewrite", name), ("served", "cached_scan")],
        );
        assert_eq!(s.counter(&summary_label), 2, "{name}: {summary_label}");
        assert_eq!(s.counter(&scan_label), 1, "{name}: {scan_label}");
        assert_eq!(
            s.counter_family("aqua_queries_total"),
            3,
            "{name}: no other served-from label may appear: {:?}",
            s.counters
        );
        assert_eq!(s.counter("aqua_query_errors_total"), 0);

        // Summary-served queries touch no sample rows; the predicate scan
        // reads the whole synopsis once per answer.
        assert_eq!(
            s.counter("aqua_rows_scanned_total"),
            aqua.synopsis_rows() as u64,
            "{name}: rows scanned must count only the predicate scan"
        );

        // Zone-map chunk accounting: only the scan-served query runs a
        // pruning pass, so its chunk walk is the only movement, and both
        // counters of the family register together (a registered-but-zero
        // pruned counter says "pruning ran, nothing was skippable").
        let chunks = relation::chunk_count(aqua.synopsis_rows()) as u64;
        assert_eq!(
            s.counter("relation_chunks_scanned_total"),
            chunks,
            "{name}: one pruning pass over the synopsis"
        );
        assert!(
            s.counters.contains_key("relation_chunks_pruned_total"),
            "{name}: pruned counter must register alongside scanned"
        );

        let hist = s
            .histogram(&obs::label("aqua_query_latency_us", &[("rewrite", name)]))
            .unwrap_or_else(|| panic!("{name}: latency histogram missing"));
        assert_eq!(hist.count, 3, "{name}: one latency sample per query");
        assert!(hist.p50() <= hist.p95() && hist.p95() <= hist.p99());
        assert!(hist.sum >= hist.min.saturating_mul(3));

        // The bounds pass is timed on its own: once per answer computed
        // from the synopsis, summary-served or scanned.
        let bounds = s
            .histogram("aqua_bounds_latency_us")
            .unwrap_or_else(|| panic!("{name}: bounds histogram missing"));
        assert_eq!(bounds.count, 3, "{name}: one bounds sample per answer");
        assert!(
            bounds.sum <= hist.sum,
            "{name}: bounds are part of the answer"
        );
    }
}

#[test]
fn sql_and_error_counters() {
    let aqua = Aqua::build(
        sales(1_000),
        vec![ColumnId(0)],
        config(RewriteChoice::Integrated),
    )
    .unwrap();
    aqua.answer_sql_shared("SELECT region, COUNT(*) AS c FROM sales GROUP BY region")
        .unwrap();
    aqua.answer_sql_shared("SELEKT nope").unwrap_err();
    let s = aqua.stats();
    if obs::ENABLED {
        assert_eq!(s.counter("aqua_sql_queries_total"), 2);
        assert_eq!(s.counter("aqua_sql_parse_errors_total"), 1);
        // Parse failures never reach the answer pipeline.
        assert_eq!(s.counter_family("aqua_queries_total"), 1);
        assert_eq!(s.counter("aqua_query_errors_total"), 0);
    }
}

/// The cold→warm→invalidate→cold cache-counter cycle, pinned exactly,
/// for every invalidation trigger `Aqua` itself exposes.
#[test]
fn cache_counters_move_exactly_across_invalidation_triggers() {
    let aqua = Aqua::build(
        sales(2_000),
        vec![ColumnId(0)],
        config(RewriteChoice::Integrated),
    )
    .unwrap();
    let q = summary_query();

    // Cold: first-touch lookups miss. (A cold answer can still *hit* —
    // the group index is probed once by the executor and again by the
    // bound computation — so the pinned contract is the full
    // (hits, misses) pattern, not hits == 0.)
    let s0 = cache_counters(&aqua.stats());
    aqua.answer(&q).unwrap();
    let s1 = cache_counters(&aqua.stats());
    let cold_misses = s1.1 - s0.1;
    let cold_hits = s1.0 - s0.0;
    assert!(cold_misses > 0, "cold answer must populate the cache");

    // Warm: the same query is all hits, zero misses, and the lookup count
    // matches the cold pass (same plan → same cache probes).
    aqua.answer(&q).unwrap();
    let s2 = cache_counters(&aqua.stats());
    assert_eq!(s2.1, s1.1, "warm repeat must not miss");
    let warm_hits = s2.0 - s1.0;
    assert!(warm_hits > 0, "warm repeat must hit");

    // Each trigger: invalidations counter moves, the cold miss pattern
    // recurs, and a subsequent repeat is warm again.
    type Trigger = (&'static str, Box<dyn Fn(&Aqua)>);
    let mut prev = s2;
    let triggers: Vec<Trigger> = vec![
        (
            "insert_batch",
            Box::new(|a: &Aqua| {
                let rows: Vec<Vec<Value>> = (0..120)
                    .map(|i| vec![Value::str("north"), Value::from(i as f64)])
                    .collect();
                a.insert_batch(&rows).unwrap();
            }),
        ),
        ("refresh", Box::new(|a: &Aqua| a.refresh().unwrap())),
        ("rebuild", Box::new(|a: &Aqua| a.rebuild().unwrap())),
    ];
    for (name, fire) in triggers {
        fire(&aqua);
        let after_fire = cache_counters(&aqua.stats());
        assert!(
            after_fire.2 > prev.2,
            "{name}: invalidations counter must move ({} -> {})",
            prev.2,
            after_fire.2
        );

        aqua.answer(&q).unwrap();
        let after_cold = cache_counters(&aqua.stats());
        assert_eq!(
            after_cold.1 - after_fire.1,
            cold_misses,
            "{name}: post-invalidation answer must repeat the cold miss pattern"
        );
        assert_eq!(
            after_cold.0 - after_fire.0,
            cold_hits,
            "{name}: post-invalidation answer must repeat the cold hit pattern"
        );

        aqua.answer(&q).unwrap();
        let after_warm = cache_counters(&aqua.stats());
        assert_eq!(
            after_warm.1, after_cold.1,
            "{name}: re-warmed repeat must not miss"
        );
        assert_eq!(
            after_warm.0 - after_cold.0,
            warm_hits,
            "{name}: warm hit pattern must match the original"
        );
        prev = after_warm;
    }

    // Per-kind and per-shard breakdowns must sum to the aggregate.
    let s = aqua.stats();
    let kind_hits: u64 = ["index", "stratum_summary", "layout"]
        .iter()
        .map(|k| s.counter(&format!("aqua_cache_{k}_hits_total")))
        .sum();
    assert_eq!(kind_hits, s.counter("aqua_cache_hits_total"));
    let shard_hits = s.counter_family("aqua_cache_shard_hits_total{");
    assert!(
        shard_hits <= s.counter("aqua_cache_hits_total"),
        "sharded lookups cannot exceed total hits"
    );
}

#[test]
fn warehouse_triggers_and_durability_counters() {
    let store = MemStore::new();
    let w = Warehouse::new();
    let t = sales(1_800);
    let grouping = t.schema().column_ids(&["region"]).unwrap();
    w.register("sales", t, grouping, config(RewriteChoice::Integrated))
        .unwrap();
    w.save_all(&store).unwrap();
    let q = summary_query();
    let sales = w.system("sales").unwrap();

    // Cold then warm through the warehouse; record both patterns.
    let s0 = cache_counters(&w.stats());
    sales.answer(&q).unwrap();
    let s1 = cache_counters(&w.stats());
    let cold_hits = s1.0 - s0.0;
    let cold_misses = s1.1 - s0.1;
    sales.answer(&q).unwrap();
    let s2 = cache_counters(&w.stats());
    assert_eq!(s2.1, s1.1, "warehouse warm repeat must not miss");
    let warm_hits = s2.0 - s1.0;

    // WAL insert invalidates like a direct ingest.
    let rows: Vec<Vec<Value>> = (0..120)
        .map(|i| vec![Value::str("north"), Value::from(i as f64)])
        .collect();
    w.insert_logged(&store, "sales", &rows).unwrap();
    let after_fire = cache_counters(&w.stats());
    assert!(
        after_fire.2 > s2.2,
        "insert_logged must invalidate the query cache"
    );
    sales.answer(&q).unwrap();
    let after_cold = cache_counters(&w.stats());
    assert!(after_cold.1 > after_fire.1, "post-WAL answer must re-miss");
    sales.answer(&q).unwrap();
    let after_warm = cache_counters(&w.stats());
    assert_eq!(after_warm.1, after_cold.1);
    assert_eq!(after_warm.0 - after_cold.0, warm_hits);

    if obs::ENABLED {
        let s = w.stats();
        assert_eq!(s.counter("warehouse_saves_total"), 1);
        assert_eq!(s.counter("warehouse_wal_appends_total"), 1);
        assert!(s.counter("warehouse_wal_appended_bytes_total") > 0);
        assert_eq!(s.counter("warehouse_degraded_answers_total"), 0);
        assert!(s.histogram("warehouse_save_us").is_some());
    }

    // Reopen: a recovered warehouse starts from a scratch cache, so the
    // cold pattern must match a fresh system's exactly — and the recovery
    // counters must say what happened.
    w.save_all(&store).unwrap();
    let (w2, report) = Warehouse::open(&store, aqua::RecoveryPolicy::Rebuild).unwrap();
    assert!(report.fully_healthy(), "{report:?}");
    let sales = w2.system("sales").unwrap();
    let r0 = cache_counters(&w2.stats());
    assert_eq!(r0.0, 0, "reopened warehouse must start with zero hits");
    assert_eq!(r0.1, 0, "reopened warehouse must start with zero misses");
    sales.answer(&q).unwrap();
    let r1 = cache_counters(&w2.stats());
    assert_eq!(
        (r1.0, r1.1),
        (cold_hits, cold_misses),
        "reopened cold pattern must match a fresh system's"
    );
    sales.answer(&q).unwrap();
    let r2 = cache_counters(&w2.stats());
    assert_eq!(r2.1, r1.1, "reopened warm repeat must not miss");
    assert_eq!(r2.0 - r1.0, warm_hits, "reopened warm pattern must match");

    if obs::ENABLED {
        let s = w2.stats();
        assert_eq!(s.counter("warehouse_opens_total"), 1);
        assert_eq!(
            s.counter(&obs::label(
                "warehouse_recovered_relations_total",
                &[("status", "healthy")],
            )),
            1
        );
        // Clean shutdown: nothing to replay or truncate.
        assert_eq!(s.counter("warehouse_wal_replayed_records_total"), 0);
        assert_eq!(s.counter("warehouse_wal_truncations_total"), 0);
        assert_eq!(s.gauge("warehouse_relations"), 1);
        // One snapshot decode per recovered relation, timed.
        let decode = s
            .histogram("relation_decode_us")
            .expect("reopen must time the snapshot decode");
        assert_eq!(decode.count, 1, "one relation decoded on open");
    }
}

#[test]
fn synopsis_maintenance_counters() {
    let aqua = Aqua::build(
        sales(2_000),
        vec![ColumnId(0)],
        config(RewriteChoice::Integrated),
    )
    .unwrap();
    if !obs::ENABLED {
        assert!(aqua.stats().counters.is_empty() || aqua.stats().counter_family("synopsis_") == 0);
        return;
    }
    let s = aqua.stats();
    // Aqua::build streams the table through the maintainer once, then
    // bulk-rebuilds; each build phase is timed exactly once.
    assert_eq!(s.counter("synopsis_ingests_total"), 1);
    assert_eq!(s.counter("synopsis_ingested_rows_total"), 2_000);
    assert_eq!(s.counter("synopsis_rebuilds_total"), 1);
    for phase in ["census", "alloc", "draw"] {
        let h = s
            .histogram(&format!("synopsis_build_{phase}_us"))
            .unwrap_or_else(|| panic!("missing build phase timer: {phase}"));
        assert_eq!(h.count, 1, "{phase} timed once per rebuild");
    }
    assert_eq!(s.gauge("aqua_synopsis_rows"), aqua.synopsis_rows() as i64);
    assert_eq!(s.gauge("aqua_table_rows"), 2_000);

    aqua.refresh().unwrap();
    aqua.rebuild().unwrap();
    let s = aqua.stats();
    assert_eq!(s.counter("synopsis_refreshes_total"), 1);
    assert_eq!(s.counter("synopsis_rebuilds_total"), 2);
}

/// Exact scans are spans too: exact requests (`exact_sql` among them) and
/// a degraded relation's fallback count themselves, their latency, and the rows and
/// chunks they walked — and, on the degraded path, honor cancellation.
#[test]
fn exact_scans_count_on_sampled_and_degraded_relations() {
    use aqua::{AquaError, RecoveryPolicy};
    use congress::SnapshotStore;
    use engine::{CancelToken, EngineError};

    let rows = 40_000; // 3 chunks; the predicate is on an unclustered column
    let chunks = relation::chunk_count(rows) as u64;
    let sql = "SELECT region, COUNT(*) AS c FROM sales WHERE amount >= 10 GROUP BY region";
    let exact_counters = |s: &StatsSnapshot| {
        (
            s.counter("aqua_exact_queries_total"),
            s.histogram("aqua_exact_latency_us").map_or(0, |h| h.count),
            s.counter("aqua_rows_scanned_total"),
            s.counter("relation_chunks_scanned_total"),
        )
    };

    let aqua = Aqua::build(
        sales(rows as i64),
        vec![ColumnId(0)],
        config(RewriteChoice::Integrated),
    )
    .unwrap();
    let scan = scan_query();
    let exact = Request {
        exact: true,
        ..Request::query(&scan)
    };
    let by_query = aqua.run(&exact).unwrap().answer.result.clone();
    assert_eq!(aqua.exact_sql(sql).unwrap(), by_query);
    let s = aqua.stats();
    if obs::ENABLED {
        assert_eq!(exact_counters(&s), (2, 2, 2 * rows as u64, 2 * chunks));
        assert!(s.counters.contains_key("relation_chunks_pruned_total"));
        // Not an approximate answer: the query families stay empty.
        assert_eq!(s.counter_family("aqua_queries_total"), 0);
    } else {
        assert_eq!(exact_counters(&s), (0, 0, 0, 0));
    }

    // A relation whose synopsis blob is gone reopens degraded; every way
    // of asking it is an exact scan recorded in the relation's registry,
    // which the warehouse's stats merge.
    let store = MemStore::new();
    let w = Warehouse::new();
    let t = sales(rows as i64);
    let grouping = t.schema().column_ids(&["region"]).unwrap();
    w.register("sales", t, grouping, config(RewriteChoice::Integrated))
        .unwrap();
    w.save_all(&store).unwrap();
    let blobs = store.list().unwrap();
    let blob = blobs.iter().find(|k| k.contains("synopsis")).unwrap();
    store.delete(blob).unwrap();
    let (w, _) = Warehouse::open(&store, RecoveryPolicy::Degrade).unwrap();
    assert_eq!(w.degraded_relations().len(), 1);

    let sales = w.system("sales").unwrap();
    assert_eq!(sales.answer(&scan).unwrap().result, by_query);
    assert_eq!(sales.run(&exact).unwrap().answer.result, by_query);
    let served = sales.answer_sql_shared(sql).unwrap();
    assert!(served.answer.is_degraded());
    assert_eq!(served.answer.result, by_query);

    // A token that never fires changes nothing; one that already has
    // stops the scan before its first chunk.
    let idle = CancelToken::new();
    let same = sales
        .run(&Request {
            cancel: Some(&idle),
            ..Request::sql(sql)
        })
        .unwrap();
    assert_eq!(same.answer.result, by_query);
    let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(true));
    let overdue = std::time::Instant::now() - std::time::Duration::from_millis(1);
    for fired in [
        CancelToken::with_flag(flag),
        CancelToken::with_deadline(overdue),
    ] {
        let stopped = sales.run(&Request {
            cancel: Some(&fired),
            ..Request::sql(sql)
        });
        assert!(matches!(
            stopped,
            Err(AquaError::Engine(EngineError::Cancelled))
        ));
    }

    let s = w.stats();
    if obs::ENABLED {
        assert_eq!(exact_counters(&s), (4, 4, 4 * rows as u64, 4 * chunks));
        assert_eq!(s.counter("aqua_scan_cancelled_total"), 2);
        assert_eq!(s.counter("warehouse_degraded_answers_total"), 5);
    } else {
        assert_eq!(exact_counters(&s), (0, 0, 0, 0));
    }
}
