//! Equivalence and concurrency checks for the cached-summary answer path.
//!
//! The O(groups) fast path serves unfiltered and group-only-predicate
//! queries from per-(group, stratum) aggregate summaries instead of
//! scanning sample rows. These tests pin the contract from ISSUE 4:
//!
//! 1. Summary-served error bounds are *bit-identical* to the scan path
//!    (`compute_bounds_cached` with no cache), cold and warm.
//! 2. Every invalidation trigger — `insert_batch`, `refresh`, `rebuild`,
//!    warehouse logged inserts, warehouse save/open — drops the summaries
//!    so answers never serve stale state, and answers after a round-trip
//!    through persistence are bit-identical to pre-save warm answers.
//! 3. Concurrent readers hammering `Aqua::answer` while a writer ingests
//!    never panic, and post-ingest answers reflect the new rows.
//! 4. The dense cell-layout bounds (cached cells, scanned cells, and the
//!    cells `execute_cells` returned) are *bit-identical* to the per-row
//!    `HashMap` walk they replaced, kept below as the reference.
//! 5. A group-only predicate served from cached cells answers — estimates
//!    and bounds — bit for bit like the same query forced through the fold.

use std::collections::HashMap;

use aqua::answer::{compute_bounds_cached, compute_bounds_from_cells};
use aqua::{ApproximateAnswer, Aqua, AquaConfig, RewriteChoice, SamplingStrategy, Warehouse};
use congress::bounds::{
    avg_bound_hoeffding, stratified_avg_bound, stratified_sum_bound, BoundKind,
};
use congress::MemStore;
use engine::rewrite::execute_cells;
use engine::{
    AggregateFn, AggregateSpec, ExecOptions, ExecTrace, GroupByQuery, GroupIndex, Having,
    Integrated, KeyNormalized, Moments, NestedIntegrated, Normalized, QueryCache, QueryResult,
    SamplePlan, ServedFrom, StratifiedInput,
};
use relation::predicate::CmpOp;
use relation::{ColumnId, DataType, Expr, GroupKey, Predicate, Relation, RelationBuilder, Value};

/// Deterministic stratified fixture: `rows` tuples over `strata` strata
/// (stratified on column `g`), mixed scale factors, like the engine's
/// fast-path fixture but sized for bound computations.
fn stratified(rows: usize, strata: usize) -> StratifiedInput {
    let mut b = RelationBuilder::new()
        .column("g", DataType::Int)
        .column("h", DataType::Int)
        .column("v", DataType::Float);
    let mut stratum_of_row = Vec::with_capacity(rows);
    let mut state = 0xDEAD_BEEF_CAFE_F00Du64;
    for _ in 0..rows {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let g = ((state >> 33) as usize) % strata;
        let h = ((state >> 17) as usize) % 5;
        let v = ((state >> 11) % 10_000) as f64 / 100.0;
        b.push_row(&[Value::Int(g as i64), Value::Int(h as i64), Value::from(v)])
            .unwrap();
        stratum_of_row.push(g as u32);
    }
    StratifiedInput {
        rows: b.finish(),
        stratum_of_row,
        scale_factors: (0..strata).map(|s| 1.0 + (s % 7) as f64 * 0.75).collect(),
        strata_keys: (0..strata)
            .map(|s| GroupKey::new(vec![Value::Int(s as i64)]))
            .collect(),
        grouping_columns: vec![ColumnId(0)],
    }
}

fn bound_queries() -> Vec<GroupByQuery> {
    let v = Expr::col(ColumnId(2));
    vec![
        // Unfiltered group-by: served entirely from summaries.
        GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::sum(v.clone(), "s"),
                AggregateSpec::count("c"),
                AggregateSpec::avg(v.clone(), "a"),
            ],
        ),
        // Group-only predicate: also summary-served.
        GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::sum(v.clone(), "s"),
                AggregateSpec::count("c"),
            ],
        )
        .with_predicate(Predicate::le(ColumnId(0), 6i64)),
        // Secondary grouping with a group-only predicate over it.
        GroupByQuery::new(
            vec![ColumnId(1)],
            vec![
                AggregateSpec::avg(v.clone(), "a"),
                AggregateSpec::count("c"),
            ],
        )
        .with_predicate(Predicate::ge(ColumnId(1), 1i64)),
        // Min/Max carry no bounds; the fast path must emit the same `None`s.
        GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::min(v.clone(), "mn"),
                AggregateSpec::max(v, "mx"),
            ],
        ),
    ]
}

fn half_widths(bounds: &[aqua::GroupBounds]) -> Vec<(GroupKey, Vec<Option<u64>>)> {
    bounds
        .iter()
        .map(|gb| {
            (
                gb.key.clone(),
                gb.bounds
                    .iter()
                    .map(|b| b.as_ref().map(|e| e.half_width.to_bits()))
                    .collect(),
            )
        })
        .collect()
}

#[test]
fn summary_bounds_bit_identical_to_scan_bounds() {
    let input = stratified(12_000, 12);
    let plan = Integrated::build(&input).unwrap();
    let cache = QueryCache::new();
    for q in bound_queries() {
        let result = plan.execute_opts(&q, &ExecOptions::default()).unwrap();
        // Scan path: no cache, masked row scan.
        let scan = compute_bounds_cached(&input, &q, &result, 0.9, None).unwrap();
        // Summary path, cold (builds the cells) then warm (hits them).
        let cold = compute_bounds_cached(&input, &q, &result, 0.9, Some(&cache)).unwrap();
        let warm = compute_bounds_cached(&input, &q, &result, 0.9, Some(&cache)).unwrap();
        assert!(!scan.is_empty(), "fixture query produced no groups");
        assert_eq!(
            half_widths(&scan),
            half_widths(&cold),
            "scan vs cold summary"
        );
        assert_eq!(
            half_widths(&scan),
            half_widths(&warm),
            "scan vs warm summary"
        );
    }
}

// ---------------------------------------------------------------------------
// Dense cell layout vs the per-row HashMap walk
// ---------------------------------------------------------------------------

/// The bounds pass as it was before the dense cell layout, kept as the
/// reference: evaluate the predicate and every measure over the sample,
/// walk all rows through a `HashMap<(gid, stratum), _>` pushing `v·sel`
/// into the "all rows" moments and `v` into the "selected rows" moments,
/// sort each group's strata by id, assemble.
fn reference_bounds(
    input: &StratifiedInput,
    query: &GroupByQuery,
    result: &QueryResult,
    confidence: f64,
) -> Vec<aqua::GroupBounds> {
    let rel = &input.rows;
    let mask = query.predicate.eval(rel);
    let index = GroupIndex::build(rel, &query.grouping);
    let exprs: Vec<Option<Vec<f64>>> = query
        .aggregates
        .iter()
        .map(|a| a.expr.as_ref().map(|e| e.eval(rel).unwrap()))
        .collect();

    type Cell = (Vec<Moments>, Vec<Moments>, u64, u64); // (all, sel, n_all, n_sel)
    let aggs = query.aggregates.len();
    let mut cells: HashMap<(u32, u32), Cell> = HashMap::new();
    for row in 0..rel.row_count() {
        let g = index.group_of(row);
        if g == u32::MAX {
            continue;
        }
        let cell = cells
            .entry((g, input.stratum_of_row[row]))
            .or_insert_with(|| (vec![Moments::new(); aggs], vec![Moments::new(); aggs], 0, 0));
        cell.2 += 1;
        let sel = mask.get(row);
        cell.3 += u64::from(sel);
        for (ai, e) in exprs.iter().enumerate() {
            let v = e.as_ref().map_or(1.0, |vals| vals[row]);
            cell.0[ai].push(if sel { v } else { 0.0 });
            if sel {
                cell.1[ai].push(v);
            }
        }
    }
    let mut per_group: HashMap<u32, Vec<(u32, Cell)>> = HashMap::new();
    for ((g, s), cell) in cells {
        per_group.entry(g).or_default().push((s, cell));
    }
    for strata in per_group.values_mut() {
        strata.sort_unstable_by_key(|&(s, _)| s);
    }

    result
        .iter()
        .map(|(key, _)| {
            let gid = index.gid_of_key(key).expect("result key is a sample group");
            let strata = per_group.get(&gid).map_or(&[][..], |v| &v[..]);
            let bounds = query
                .aggregates
                .iter()
                .enumerate()
                .map(|(ai, spec)| match spec.func {
                    AggregateFn::Sum | AggregateFn::Count => {
                        let parts: Vec<(Moments, u64)> = strata
                            .iter()
                            .map(|(s, cell)| {
                                let sf = input.scale_factors[*s as usize];
                                let pop = (sf * cell.2 as f64).round() as u64;
                                (cell.0[ai], pop.max(cell.2))
                            })
                            .collect();
                        Some(stratified_sum_bound(&parts, confidence))
                    }
                    AggregateFn::Avg => {
                        let parts: Vec<(Moments, u64)> = strata
                            .iter()
                            .filter(|(_, cell)| cell.3 > 0)
                            .map(|(s, cell)| {
                                let sf = input.scale_factors[*s as usize];
                                let pop = (sf * cell.3 as f64).round() as u64;
                                (cell.1[ai], pop.max(cell.3))
                            })
                            .collect();
                        Some(if parts.len() == 1 {
                            avg_bound_hoeffding(&parts[0].0, confidence)
                        } else {
                            stratified_avg_bound(&parts, confidence)
                        })
                    }
                    AggregateFn::Min | AggregateFn::Max => None,
                })
                .collect();
            aqua::GroupBounds {
                key: key.clone(),
                bounds,
            }
        })
        .collect()
}

/// Sample stratified on `(g, h)` — `strata_g × 5` strata — with a third,
/// non-stratification dimension `k`, spanning three storage chunks.
fn stratified_two_columns(rows: usize, strata_g: usize) -> StratifiedInput {
    let mut b = RelationBuilder::new()
        .column("g", DataType::Int)
        .column("h", DataType::Int)
        .column("k", DataType::Int)
        .column("v", DataType::Float);
    let mut stratum_of_row = Vec::with_capacity(rows);
    let mut state = 0x0BAD_5EED_1234_5678u64;
    for _ in 0..rows {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let g = ((state >> 33) as usize) % strata_g;
        let h = ((state >> 17) as usize) % 5;
        let k = ((state >> 45) as usize) % 3;
        let v = ((state >> 11) % 10_000) as f64 / 100.0;
        b.push_row(&[
            Value::Int(g as i64),
            Value::Int(h as i64),
            Value::Int(k as i64),
            Value::from(v),
        ])
        .unwrap();
        stratum_of_row.push((g * 5 + h) as u32);
    }
    let strata = strata_g * 5;
    StratifiedInput {
        rows: b.finish(),
        stratum_of_row,
        scale_factors: (0..strata).map(|s| 1.0 + (s % 7) as f64 * 0.75).collect(),
        strata_keys: (0..strata)
            .map(|s| GroupKey::new(vec![Value::Int((s / 5) as i64), Value::Int((s % 5) as i64)]))
            .collect(),
        grouping_columns: vec![ColumnId(0), ColumnId(1)],
    }
}

/// `(description, query, served from cached cells?)`.
fn layout_queries() -> Vec<(&'static str, GroupByQuery, bool)> {
    let v = Expr::col(ColumnId(3));
    let all_three = || {
        vec![
            AggregateSpec::sum(v.clone(), "s"),
            AggregateSpec::count("c"),
            AggregateSpec::avg(v.clone(), "a"),
        ]
    };
    vec![
        (
            "grouping ⊂ stratification columns, measure predicate",
            GroupByQuery::new(vec![ColumnId(0)], all_three())
                .with_predicate(Predicate::ge(ColumnId(3), 40.0)),
            false,
        ),
        (
            "grouping with a non-stratification column (cells > strata)",
            GroupByQuery::new(vec![ColumnId(0), ColumnId(2)], all_three())
                .with_predicate(Predicate::le(ColumnId(3), 70.0)),
            false,
        ),
        (
            "same grouping, group-only predicate",
            GroupByQuery::new(vec![ColumnId(0), ColumnId(2)], all_three())
                .with_predicate(Predicate::ge(ColumnId(2), 1i64)),
            true,
        ),
        (
            "no predicate",
            GroupByQuery::new(vec![ColumnId(1)], all_three()),
            true,
        ),
        (
            "empty selection",
            GroupByQuery::new(vec![ColumnId(0)], all_three())
                .with_predicate(Predicate::ge(ColumnId(3), 1e9)),
            false,
        ),
        (
            "one contributing stratum per group (Hoeffding)",
            GroupByQuery::new(vec![ColumnId(0)], all_three())
                .with_predicate(Predicate::eq(ColumnId(1), 2i64)),
            false,
        ),
        (
            "HAVING drops groups",
            GroupByQuery::new(vec![ColumnId(0), ColumnId(1)], all_three())
                .with_predicate(Predicate::ge(ColumnId(3), 25.0))
                .with_having(Having::new("a", CmpOp::Gt, 62.6)),
            false,
        ),
        (
            "MIN/MAX beside a bounded aggregate",
            GroupByQuery::new(
                vec![ColumnId(2)],
                vec![
                    AggregateSpec::min(v.clone(), "mn"),
                    AggregateSpec::sum(v.clone(), "s"),
                    AggregateSpec::max(v.clone(), "mx"),
                ],
            )
            .with_predicate(Predicate::le(ColumnId(3), 50.0)),
            false,
        ),
    ]
}

/// `(half_width bits, kind)` per aggregate, per group.
type BoundBits = Vec<(GroupKey, Vec<Option<(u64, BoundKind)>>)>;

fn bound_bits(bounds: &[aqua::GroupBounds]) -> BoundBits {
    bounds
        .iter()
        .map(|gb| {
            (
                gb.key.clone(),
                gb.bounds
                    .iter()
                    .map(|b| b.as_ref().map(|e| (e.half_width.to_bits(), e.kind)))
                    .collect(),
            )
        })
        .collect()
}

fn plans(input: &StratifiedInput) -> Vec<Box<dyn SamplePlan>> {
    vec![
        Box::new(Integrated::build(input).unwrap()),
        Box::new(NestedIntegrated::build(input).unwrap()),
        Box::new(Normalized::build(input).unwrap()),
        Box::new(KeyNormalized::build(input).unwrap()),
    ]
}

/// `plan`'s cached answer to `q`: the result, the bounds from the cells
/// [`execute_cells`] returned with it, and the path it was served from. The
/// result is the one `plan.execute_opts` returns over the same cache.
fn cached_answer(
    plan: &dyn SamplePlan,
    input: &StratifiedInput,
    q: &GroupByQuery,
    cache: &QueryCache,
) -> (QueryResult, Vec<aqua::GroupBounds>, Option<ServedFrom>) {
    let trace = ExecTrace::new();
    let opts = ExecOptions {
        cache: Some(cache),
        trace: Some(&trace),
        ..ExecOptions::default()
    };
    let (strata, sfs) = plan.strata();
    let rel = plan.sample_relation();
    let (result, cells) = execute_cells(rel, strata, sfs, q, &opts, cache).unwrap();
    let served = trace.served();
    let planned = plan.execute_opts(q, &opts).unwrap();
    assert_eq!(value_bits(&result), value_bits(&planned));
    let bounds = compute_bounds_from_cells(input, q, 0.9, &cells);
    (result, bounds, served)
}

#[test]
fn dense_bounds_bit_identical_to_hashmap_reference() {
    let input = stratified_two_columns(40_000, 6);
    assert!(relation::chunk_count(input.rows.row_count()) >= 3);
    for plan in &plans(&input) {
        let cache = QueryCache::new();
        for (what, q, from_cached_cells) in layout_queries() {
            let ctx = format!("{}: {what}", plan.name());
            let (result, captured, served) = cached_answer(plan.as_ref(), &input, &q, &cache);
            let summary = served == Some(ServedFrom::Summary);
            assert_eq!(summary, from_cached_cells, "{ctx}");

            let reference = bound_bits(&reference_bounds(&input, &q, &result, 0.9));
            let own = compute_bounds_cached(&input, &q, &result, 0.9, Some(&cache)).unwrap();
            let cold = compute_bounds_cached(&input, &q, &result, 0.9, None).unwrap();
            assert_eq!(reference, bound_bits(&captured), "{ctx}: captured cells");
            assert_eq!(reference, bound_bits(&own), "{ctx}: self-evaluated");
            assert_eq!(reference, bound_bits(&cold), "{ctx}: no cache");
            assert_eq!(reference.len(), result.group_count(), "{ctx}");
        }
    }
}

/// Result values as bit patterns.
fn value_bits(result: &QueryResult) -> Vec<(GroupKey, Vec<u64>)> {
    let bits = |vals: &[f64]| vals.iter().map(|v| v.to_bits()).collect();
    result.iter().map(|(k, v)| (k.clone(), bits(v))).collect()
}

#[test]
fn cached_cells_answer_bit_identical_to_forced_scan() {
    let input = stratified_two_columns(40_000, 6);
    let cases: Vec<_> = layout_queries()
        .into_iter()
        .filter(|(_, _, from_cached_cells)| *from_cached_cells)
        .collect();
    assert!(!cases.is_empty());
    for plan in &plans(&input) {
        let cache = QueryCache::new();
        for (what, q, _) in &cases {
            let ctx = format!("{}: {what}", plan.name());
            // `v >= 0` holds on every row but names a measure column, so
            // the same query has to fold the rows.
            let all_rows = Predicate::ge(ColumnId(3), 0.0);
            let forced = q.clone().with_predicate(q.predicate.clone().and(all_rows));
            let (r1, b1, s1) = cached_answer(plan.as_ref(), &input, q, &cache);
            let (r2, b2, s2) = cached_answer(plan.as_ref(), &input, &forced, &cache);
            assert_eq!(s1, Some(ServedFrom::Summary), "{ctx}");
            assert_eq!(s2, Some(ServedFrom::CachedScan), "{ctx}");
            assert!(r1.group_count() > 0, "{ctx}");
            assert_eq!(value_bits(&r1), value_bits(&r2), "{ctx}: estimates");
            assert_eq!(bound_bits(&b1), bound_bits(&b2), "{ctx}: bounds");
        }
    }
}

#[test]
fn layout_cases_exercise_the_branches_they_name() {
    let input = stratified_two_columns(40_000, 6);
    let plan = Integrated::build(&input).unwrap();
    let bounds_of = |what: &str| {
        let (_, q, _) = layout_queries()
            .into_iter()
            .find(|(w, _, _)| w.starts_with(what))
            .unwrap();
        let result = plan.execute(&q).unwrap();
        let bounds = compute_bounds_cached(&input, &q, &result, 0.9, None).unwrap();
        (bounds, result)
    };
    let kinds = |b: &[aqua::GroupBounds], ai: usize| -> Vec<Option<BoundKind>> {
        b.iter().map(|gb| gb.bounds[ai].map(|e| e.kind)).collect()
    };

    let (b, r) = bounds_of("empty selection");
    assert!(b.is_empty() && r.group_count() == 0);

    let (b, _) = bounds_of("one contributing stratum");
    assert_eq!(kinds(&b, 2), vec![Some(BoundKind::Hoeffding); 6]);
    assert_eq!(kinds(&b, 0), vec![Some(BoundKind::Chebyshev); 6]);
    let (b, _) = bounds_of("grouping ⊂ stratification");
    assert_eq!(kinds(&b, 2), vec![Some(BoundKind::Chebyshev); 6]);

    let (b, r) = bounds_of("HAVING drops groups");
    assert!(
        0 < r.group_count() && r.group_count() < 30,
        "{}",
        r.group_count()
    );
    assert_eq!(b.len(), r.group_count());

    let (b, _) = bounds_of("MIN/MAX");
    for gb in &b {
        assert!(gb.bounds[0].is_none() && gb.bounds[1].is_some() && gb.bounds[2].is_none());
    }
}

// ---------------------------------------------------------------------------
// Invalidation matrix
// ---------------------------------------------------------------------------

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
        parallelism: 0,
    }
}

/// An unfiltered query plus a group-only-predicate query — both served by
/// the summary fast path, so both must observe every invalidation.
fn probe_queries() -> Vec<GroupByQuery> {
    let amount = Expr::col(ColumnId(1));
    vec![
        GroupByQuery::new(
            vec![ColumnId(0)],
            vec![
                AggregateSpec::sum(amount.clone(), "s"),
                AggregateSpec::count("c"),
            ],
        ),
        GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")])
            .with_predicate(Predicate::eq(ColumnId(0), Value::str("north"))),
    ]
}

fn answers(aqua: &Aqua) -> Vec<ApproximateAnswer> {
    probe_queries()
        .iter()
        .map(|q| aqua.answer(q).unwrap())
        .collect()
}

#[test]
fn summaries_invalidated_by_every_trigger() {
    let north = GroupKey::new(vec![Value::str("north")]);
    for rewrite in RewriteChoice::all() {
        let aqua = Aqua::build(sales(2_000), vec![ColumnId(0)], config(rewrite)).unwrap();
        // Warm all summary tables.
        let warm = answers(&aqua);
        for (a, b) in warm.iter().zip(answers(&aqua).iter()) {
            assert_eq!(
                a.result,
                b.result,
                "{}: warm repeat drifted",
                rewrite.name()
            );
            assert_eq!(
                half_widths(&a.bounds),
                half_widths(&b.bounds),
                "{}: warm bounds drifted",
                rewrite.name()
            );
        }
        assert!(warm[0].result.get(&north).is_none());
        assert!(warm[1].result.get(&north).is_none());

        // insert_batch: new group must surface in both probe queries.
        let rows: Vec<Vec<Value>> = (0..160)
            .map(|i| vec![Value::str("north"), Value::from(i as f64)])
            .collect();
        aqua.insert_batch(&rows).unwrap();
        let after_insert = answers(&aqua);
        assert!(
            after_insert[0].result.get(&north).is_some(),
            "{}: insert_batch did not invalidate summaries",
            rewrite.name()
        );
        assert!(
            after_insert[1].result.get(&north).is_some(),
            "{}: group-only predicate served stale summary after insert",
            rewrite.name()
        );

        // refresh: answers stay warm-stable afterwards (fresh summaries).
        aqua.refresh().unwrap();
        let after_refresh = answers(&aqua);
        for (a, b) in after_refresh.iter().zip(answers(&aqua).iter()) {
            assert_eq!(a.result, b.result, "{}: post-refresh drift", rewrite.name());
        }
        assert!(after_refresh[0].result.get(&north).is_some());

        // rebuild: full resample; north must still be present and repeats
        // must stay bit-identical.
        aqua.rebuild().unwrap();
        let after_rebuild = answers(&aqua);
        for (a, b) in after_rebuild.iter().zip(answers(&aqua).iter()) {
            assert_eq!(a.result, b.result, "{}: post-rebuild drift", rewrite.name());
            assert_eq!(
                half_widths(&a.bounds),
                half_widths(&b.bounds),
                "{}: post-rebuild bounds drift",
                rewrite.name()
            );
        }
        assert!(after_rebuild[0].result.get(&north).is_some());
    }
}

#[test]
fn warehouse_roundtrip_preserves_summary_served_answers() {
    let store = MemStore::new();
    let w = Warehouse::new();
    let t = sales(1_800);
    let grouping = t.schema().column_ids(&["region"]).unwrap();
    w.register("sales", t, grouping, config(RewriteChoice::Integrated))
        .unwrap();
    w.save_all(&store).unwrap();
    let sales = w.system("sales").unwrap();

    // Warm the summaries, then push a logged insert through the WAL.
    let warm: Vec<ApproximateAnswer> = probe_queries()
        .iter()
        .map(|q| sales.answer(q).unwrap())
        .collect();
    let north = GroupKey::new(vec![Value::str("north")]);
    assert!(warm[0].result.get(&north).is_none());
    let rows: Vec<Vec<Value>> = (0..140)
        .map(|i| vec![Value::str("north"), Value::from(i as f64)])
        .collect();
    w.insert_logged(&store, "sales", &rows).unwrap();
    let after: Vec<ApproximateAnswer> = probe_queries()
        .iter()
        .map(|q| sales.answer(q).unwrap())
        .collect();
    assert!(
        after[0].result.get(&north).is_some() && after[1].result.get(&north).is_some(),
        "logged insert must invalidate summary tables"
    );
    // Warm again post-insert, then save and reopen: the recovered warehouse
    // starts from a fresh cache and must reproduce the warm answers
    // (values and bounds) bit-for-bit.
    let warm2: Vec<ApproximateAnswer> = probe_queries()
        .iter()
        .map(|q| sales.answer(q).unwrap())
        .collect();
    w.save_all(&store).unwrap();

    let (w2, report) = Warehouse::open(&store, aqua::RecoveryPolicy::Rebuild).unwrap();
    assert!(report.fully_healthy(), "{report:?}");
    let sales = w2.system("sales").unwrap();
    for (q, expect) in probe_queries().iter().zip(&warm2) {
        let got = sales.answer(q).unwrap();
        assert_eq!(expect.result, got.result, "reopened answers drifted");
        assert_eq!(
            half_widths(&expect.bounds),
            half_widths(&got.bounds),
            "reopened bounds drifted"
        );
    }
}

// ---------------------------------------------------------------------------
// Concurrency smoke test (loom-free)
// ---------------------------------------------------------------------------

#[test]
fn concurrent_readers_and_ingest_smoke() {
    let aqua = Aqua::build(
        sales(3_000),
        vec![ColumnId(0)],
        config(RewriteChoice::Integrated),
    )
    .unwrap();
    let north = GroupKey::new(vec![Value::str("north")]);
    let queries = probe_queries();

    std::thread::scope(|scope| {
        // 8 readers hammer the summary-served path while one writer ingests.
        for _ in 0..8 {
            scope.spawn(|| {
                for i in 0..60 {
                    let q = &queries[i % queries.len()];
                    let a = aqua.answer(q).unwrap();
                    assert!(a.result.group_count() <= 4, "unexpected groups");
                }
            });
        }
        scope.spawn(|| {
            for batch in 0..6 {
                let rows: Vec<Vec<Value>> = (0..40)
                    .map(|i| vec![Value::str("north"), Value::from((batch * 40 + i) as f64)])
                    .collect();
                aqua.insert_batch(&rows).unwrap();
            }
        });
    });

    // After all ingests, the new group must be visible to both probes.
    for a in answers(&aqua) {
        assert!(
            a.result.get(&north).is_some(),
            "post-ingest answers must reflect the new rows"
        );
    }
}
