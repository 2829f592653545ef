//! Observability must be a pure observer: answers and error bounds from
//! the instrumented [`Aqua::answer`] path are bit-identical to a manual,
//! uninstrumented execution of the same pipeline (`Synopsis` +
//! `plan.execute_opts` with no trace + `compute_bounds_cached`).
//!
//! The manual path below contains zero metric calls on *either* feature
//! leg, so running this test under both the default build and
//! `--features obs-off` proves the instrumented path's output is
//! identical in all three configurations: metrics recorded, metrics
//! compiled out, and no metrics at all. CI runs both legs.

use aqua::answer::compute_bounds_cached;
use aqua::{Aqua, AquaConfig, RewriteChoice, SamplingStrategy, Synopsis};
use engine::{AggregateSpec, ExecOptions, GroupByQuery};
use relation::{ColumnId, DataType, Expr, GroupKey, Predicate, Relation, RelationBuilder, Value};

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

fn workload() -> Vec<GroupByQuery> {
    let amount = Expr::col(ColumnId(1));
    vec![
        // Summary-served.
        GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::sum(amount.clone(), "s"),
                AggregateSpec::count("c"),
                AggregateSpec::avg(amount.clone(), "a"),
            ],
        ),
        // Group-only predicate: summary-served.
        GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")])
            .with_predicate(Predicate::eq(ColumnId(0), Value::str("west"))),
        // Non-grouping predicate: sample scan.
        GroupByQuery::new(
            vec![ColumnId(0)],
            vec![AggregateSpec::sum(amount, "s"), AggregateSpec::count("c")],
        )
        .with_predicate(Predicate::ge(ColumnId(1), 10.0)),
    ]
}

/// Result values as exact bit patterns, per group.
type ResultBits = Vec<(GroupKey, Vec<u64>)>;
/// (half_width, confidence) bit patterns per aggregate, per group.
type BoundBits = Vec<(GroupKey, Vec<Option<(u64, u64)>>)>;

fn result_bits(r: &engine::QueryResult) -> ResultBits {
    r.iter()
        .map(|(k, vals)| (k.clone(), vals.iter().map(|v| v.to_bits()).collect()))
        .collect()
}

fn bound_bits(bounds: &[aqua::GroupBounds]) -> BoundBits {
    bounds
        .iter()
        .map(|gb| {
            (
                gb.key.clone(),
                gb.bounds
                    .iter()
                    .map(|b| {
                        b.as_ref()
                            .map(|e| (e.half_width.to_bits(), e.confidence.to_bits()))
                    })
                    .collect(),
            )
        })
        .collect()
}

/// The uninstrumented reference: a `Synopsis` built exactly the way
/// `Aqua::build` builds one (ingest + bulk rebuild), queried directly
/// through `plan.execute_opts` with `trace: None` and bounds computed via
/// `compute_bounds_cached` — the answer pipeline with no observer.
fn manual_answers(
    table: &Relation,
    config: AquaConfig,
    queries: &[GroupByQuery],
) -> Vec<(ResultBits, BoundBits)> {
    let mut synopsis = Synopsis::new(config, vec![ColumnId(0)]).unwrap();
    synopsis.ingest(table, 0).unwrap();
    synopsis.rebuild_bulk(table).unwrap();
    let plan = synopsis.plan().unwrap();
    let cache = synopsis.query_cache();
    let input = synopsis.input().unwrap();
    queries
        .iter()
        .map(|q| {
            let opts = ExecOptions {
                cache: Some(cache),
                trace: None,
                cancel: None,
                ..ExecOptions::default()
            };
            let result = plan.execute_opts(q, &opts).unwrap();
            let bounds =
                compute_bounds_cached(input, q, &result, config.confidence, Some(cache)).unwrap();
            (result_bits(&result), bound_bits(&bounds))
        })
        .collect()
}

#[test]
fn instrumented_answers_bit_identical_to_uninstrumented_path() {
    for rewrite in RewriteChoice::all() {
        let table = sales(2_000);
        let cfg = config(rewrite);
        let reference = manual_answers(&table, cfg, &workload());

        let aqua = Aqua::build(table, vec![ColumnId(0)], cfg).unwrap();
        // Two passes: cold (populating the cache under tracing) and warm
        // (cache hits under tracing) must both match.
        for pass in ["cold", "warm"] {
            for (q, (want_result, want_bounds)) in workload().iter().zip(&reference) {
                let got = aqua.answer(q).unwrap();
                assert_eq!(
                    &result_bits(&got.result),
                    want_result,
                    "{} {pass}: values drifted",
                    rewrite.name()
                );
                assert_eq!(
                    &bound_bits(&got.bounds),
                    want_bounds,
                    "{} {pass}: bounds drifted",
                    rewrite.name()
                );
            }
        }
    }
}
