//! End-to-end pins for the closed tuning loop and §6 maintenance:
//!
//! * **Accuracy regression** — replaying a skewed, selective workload and
//!   running one tune pass must strictly reduce the hot-group relative
//!   error versus an identically-built static congress, while never
//!   exceeding the sample-space budget.
//! * **Maintenance-vs-rebuild equivalence** — after a run of batched
//!   ingests, answers served from the incrementally-maintained synopsis
//!   must be as trustworthy as answers from a from-scratch rebuild at the
//!   same budget: same group coverage, confidence intervals that cover
//!   the exact values no worse, across all four rewrites, serial and
//!   parallel.
//!
//! Everything is seeded, so every assertion is deterministic.

use aqua::{ApproximateAnswer, Aqua, AquaConfig, Request, RewriteChoice, SamplingStrategy};
use engine::{AggregateSpec, GroupByQuery};
use relation::{ColumnId, DataType, Expr, Predicate, Relation, RelationBuilder, Value};

const G0: ColumnId = ColumnId(0);
const G1: ColumnId = ColumnId(1);
const ID: ColumnId = ColumnId(2);
const AMOUNT: ColumnId = ColumnId(3);

/// One synthetic fact row: a skewed coarse dimension (60/25/10/5 splits),
/// a finer even dimension, a monotone id for band predicates, and a
/// measure whose spread grows with the coarse group.
fn fact_row(i: i64) -> Vec<Value> {
    let g0 = match i % 100 {
        0..=59 => 0,
        60..=84 => 1,
        85..=94 => 2,
        _ => 3,
    };
    let g1 = i % 6;
    let amount = ((i * 37) % 1000) as f64 * (g0 + 1) as f64;
    vec![
        Value::Int(g0),
        Value::Int(g1),
        Value::Int(i),
        Value::from(amount),
    ]
}

fn skewed_table(rows: i64) -> Relation {
    let mut b = RelationBuilder::new()
        .column("g0", DataType::Int)
        .column("g1", DataType::Int)
        .column("id", DataType::Int)
        .column("amount", DataType::Float);
    for i in 0..rows {
        b.push_row(&fact_row(i)).unwrap();
    }
    b.finish()
}

fn config(rewrite: RewriteChoice, parallelism: usize, space: usize) -> AquaConfig {
    AquaConfig {
        space,
        strategy: SamplingStrategy::Congress,
        rewrite,
        confidence: 0.9,
        seed: 7,
        parallelism,
    }
}

/// The hot query shape: coarse grouping, SUM of the measure, restricted to
/// a 10%-wide id band starting at `lo`.
fn hot_query(lo: i64, band: i64) -> GroupByQuery {
    GroupByQuery::new(vec![G0], vec![AggregateSpec::sum(Expr::col(AMOUNT), "s")]).with_predicate(
        Predicate::between(ID, Value::Int(lo), Value::Int(lo + band)),
    )
}

/// `q` answered exactly from `aqua`'s stored table.
fn exact(aqua: &Aqua, q: &GroupByQuery) -> engine::QueryResult {
    let request = Request {
        exact: true,
        ..Request::query(q)
    };
    aqua.run(&request).unwrap().answer.result.clone()
}

/// Mean relative error (percent, missing groups charged 100) of the hot
/// workload answered by `aqua`.
fn hot_error(aqua: &Aqua, queries: &[GroupByQuery]) -> f64 {
    let mut total = 0.0;
    for q in queries {
        let exact = exact(aqua, q);
        let approx = aqua.answer(q).unwrap();
        total += congress::compare_results(&exact, &approx.result, 0, 100.0).l1();
    }
    total / queries.len() as f64
}

/// Replaying a skewed selective workload and tuning must strictly reduce
/// hot-group error versus the untouched static build, and the reallocated
/// synopsis must respect the space budget (plus the ≥1-per-group floor).
#[test]
fn adaptive_tuning_beats_static_congress_on_hot_groups() {
    const ROWS: i64 = 8000;
    const SPACE: usize = 400;
    let table = skewed_table(ROWS);
    let grouping = vec![G0, G1];
    let finest_groups = 24; // 4 × 6

    let build = || {
        Aqua::build(
            table.clone(),
            grouping.clone(),
            config(RewriteChoice::Integrated, 1, SPACE),
        )
        .unwrap()
    };

    let band = ROWS / 10;
    let hot: Vec<GroupByQuery> = (0..10)
        .map(|i| hot_query(i * (ROWS - band) / 9, band))
        .collect();

    let static_aqua = build();
    let static_err = hot_error(&static_aqua, &hot);

    let adaptive = build();
    // Replay the workload a few times so the profile sees stable hit
    // shares and observed selectivities (~0.1 per band query).
    for _ in 0..3 {
        for q in &hot {
            adaptive.answer(q).unwrap();
        }
    }
    let profile = adaptive.workload_profile();
    assert_eq!(profile.queries(), 30);
    assert_eq!(profile.grouping_count(), 1);

    adaptive.set_tune_options(aqua::TuneOptions {
        drift_threshold: 0.05,
        min_queries: 1,
        ..Default::default()
    });
    let report = adaptive.tune().unwrap();
    let report = if report.reallocated {
        report
    } else {
        adaptive.tune_force().unwrap()
    };
    assert!(report.reallocated, "tune pass did not reallocate");
    assert!(report.divergence.is_finite() && report.divergence >= 0.0);

    // Budget invariant: reallocation never exceeds the space budget plus
    // the one-tuple-per-group representation floor.
    assert!(
        adaptive.synopsis_rows() <= SPACE + finest_groups,
        "reallocated synopsis {} rows exceeds budget {SPACE} (+{finest_groups} floor)",
        adaptive.synopsis_rows()
    );

    let adaptive_err = hot_error(&adaptive, &hot);
    eprintln!(
        "hot-group error: adaptive {adaptive_err:.3}% vs static {static_err:.3}% \
         (drift {:.3})",
        report.divergence
    );
    assert!(
        adaptive_err < static_err,
        "adaptive reallocation must strictly reduce hot-group error: \
         adaptive {adaptive_err:.3}% vs static {static_err:.3}%"
    );
}

/// Confidence-interval coverage: the fraction of (group, aggregate) cells
/// whose interval contains the exact value (cells without a bound are
/// skipped — COUNT over an unfiltered group is exact by construction).
fn ci_coverage(answer: &ApproximateAnswer, exact: &engine::QueryResult) -> f64 {
    let mut covered = 0usize;
    let mut cells = 0usize;
    for gb in &answer.bounds {
        let (Some(est), Some(ex)) = (answer.result.get(&gb.key), exact.get(&gb.key)) else {
            continue;
        };
        for (a, bound) in gb.bounds.iter().enumerate() {
            let Some(b) = bound else { continue };
            cells += 1;
            if (est[a] - ex[a]).abs() <= b.half_width + 1e-9 {
                covered += 1;
            }
        }
    }
    if cells == 0 {
        1.0
    } else {
        covered as f64 / cells as f64
    }
}

/// After a run of batched ingests, the incrementally-maintained synopsis
/// must answer within the same confidence bounds as a from-scratch
/// rebuild at equal budget — for every rewrite strategy, serial and
/// parallel, and for both maintenance paths (Basic Congress delta-merge
/// and full Congress Eq-8 eviction).
#[test]
fn maintained_answers_match_rebuild_confidence_bounds() {
    const INITIAL: i64 = 3000;
    const BATCHES: i64 = 5;
    const BATCH_ROWS: i64 = 300;
    const SPACE: usize = 300;
    let finest_groups = 24;

    let query = GroupByQuery::new(
        vec![G0],
        vec![
            AggregateSpec::sum(Expr::col(AMOUNT), "s"),
            AggregateSpec::count("c"),
            AggregateSpec::avg(Expr::col(AMOUNT), "a"),
        ],
    );
    let fine = GroupByQuery::new(
        vec![G0, G1],
        vec![AggregateSpec::sum(Expr::col(AMOUNT), "s")],
    );

    let rewrites = [
        RewriteChoice::Integrated,
        RewriteChoice::NestedIntegrated,
        RewriteChoice::Normalized,
        RewriteChoice::KeyNormalized,
    ];
    for strategy in [SamplingStrategy::BasicCongress, SamplingStrategy::Congress] {
        for rewrite in rewrites {
            for parallelism in [1usize, 0] {
                let ctx = format!("{strategy:?}/{rewrite:?}/par{parallelism}");
                let mut cfg = config(rewrite, parallelism, SPACE);
                cfg.strategy = strategy;
                let aqua = Aqua::build(skewed_table(INITIAL), vec![G0, G1], cfg).unwrap();

                for batch in 0..BATCHES {
                    let start = INITIAL + batch * BATCH_ROWS;
                    let rows: Vec<Vec<Value>> = (start..start + BATCH_ROWS).map(fact_row).collect();
                    aqua.insert_batch(&rows).unwrap();
                }
                assert_eq!(
                    aqua.table_rows() as i64,
                    INITIAL + BATCHES * BATCH_ROWS,
                    "{ctx}: ingest lost rows"
                );
                assert!(
                    aqua.synopsis_rows() <= SPACE + finest_groups,
                    "{ctx}: maintained synopsis {} rows exceeds budget",
                    aqua.synopsis_rows()
                );

                for q in [&query, &fine] {
                    let exact = exact(&aqua, q);
                    let maintained = aqua.answer(q).unwrap();
                    assert_eq!(
                        maintained.result.group_count(),
                        exact.group_count(),
                        "{ctx}: maintained answer dropped groups"
                    );
                    let maintained_cov = ci_coverage(&maintained, &exact);

                    aqua.rebuild().unwrap();
                    let rebuilt = aqua.answer(q).unwrap();
                    assert_eq!(
                        rebuilt.result.group_count(),
                        exact.group_count(),
                        "{ctx}: rebuilt answer dropped groups"
                    );
                    let rebuilt_cov = ci_coverage(&rebuilt, &exact);

                    // The maintained synopsis must be as trustworthy as a
                    // fresh build: interval coverage within one cell's
                    // slack of the rebuild, and never collapsing.
                    assert!(
                        maintained_cov >= rebuilt_cov - 0.25,
                        "{ctx}: maintained CI coverage {maintained_cov:.2} far below \
                         rebuilt {rebuilt_cov:.2}"
                    );
                    assert!(
                        maintained_cov >= 0.5,
                        "{ctx}: maintained CI coverage collapsed to {maintained_cov:.2}"
                    );
                }
            }
        }
    }
}
