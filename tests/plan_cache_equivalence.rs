//! The serving caches never change an answer.
//!
//! Three equivalence claims, each checked bit-for-bit (f64 `to_bits`, not
//! tolerance):
//!
//! 1. **Answer-cache hit ≡ cold parse**: a query spelled differently
//!    (case / whitespace / literal formatting) hits the cache entry of its
//!    first spelling and returns exactly what a cold system parsing that
//!    spelling would have computed — across all four rewrite strategies.
//! 2. **Plan-cache hit ≡ fresh plan**: after an ingest clears the answer
//!    cache (plans survive — they depend only on schema + rewrite), the
//!    re-executed answer equals what the uncached [`Aqua::answer`] path
//!    computes from a freshly parsed query.
//! 3. **Normalization is sound** (proptest): every spelling variant of a
//!    query normalizes to the same key and produces the same answer.

use aqua::{ApproximateAnswer, Aqua, AquaConfig, RewriteChoice, SamplingStrategy};
use proptest::prelude::*;
use relation::{DataType, RelationBuilder, Value};

fn build_system(rewrite: RewriteChoice) -> Aqua {
    let mut b = RelationBuilder::new()
        .column("state", DataType::Str)
        .column("age", DataType::Int)
        .column("income", DataType::Float);
    for i in 0..600i64 {
        let st = match i % 20 {
            0 => "WY",
            1..=5 => "NY",
            6..=9 => "TX",
            _ => "CA",
        };
        b.push_row(&[
            Value::str(st),
            Value::from(18 + (i * 7) % 60),
            Value::from(900.0 + ((i * 37) % 991) as f64),
        ])
        .unwrap();
    }
    let config = AquaConfig {
        space: 160,
        strategy: SamplingStrategy::Congress,
        rewrite,
        ..AquaConfig::default()
    };
    Aqua::build(b.finish(), vec![relation::ColumnId(0)], config).unwrap()
}

/// The answer and rewritten SQL `aqua` serves for `sql`.
fn answer_sql(aqua: &Aqua, sql: &str) -> (ApproximateAnswer, String) {
    let served = aqua.answer_sql_shared(sql).unwrap();
    (served.answer.clone(), served.rewritten.clone())
}

/// Bitwise equality: estimates, bounds, confidence, provenance.
fn assert_bit_identical(a: &ApproximateAnswer, b: &ApproximateAnswer, tag: &str) {
    assert_eq!(
        a.result.aggregate_names, b.result.aggregate_names,
        "{tag}: aggregate names"
    );
    assert_eq!(
        a.result.group_count(),
        b.result.group_count(),
        "{tag}: group counts"
    );
    for ((k1, v1), (k2, v2)) in a.result.iter().zip(b.result.iter()) {
        assert_eq!(k1, k2, "{tag}: keys");
        for (x, y) in v1.iter().zip(v2) {
            assert_eq!(x.to_bits(), y.to_bits(), "{tag}: {x} vs {y} at {k1}");
        }
    }
    assert_eq!(a.confidence.to_bits(), b.confidence.to_bits(), "{tag}");
    assert_eq!(a.bounds.len(), b.bounds.len(), "{tag}: bounds len");
    for (ga, gb) in a.bounds.iter().zip(&b.bounds) {
        assert_eq!(ga.key, gb.key, "{tag}: bound keys");
        assert_eq!(ga.bounds.len(), gb.bounds.len());
        for (ba, bb) in ga.bounds.iter().zip(&gb.bounds) {
            match (ba, bb) {
                (None, None) => {}
                (Some(x), Some(y)) => {
                    assert_eq!(
                        x.half_width.to_bits(),
                        y.half_width.to_bits(),
                        "{tag}: half widths at {}",
                        ga.key
                    );
                    assert_eq!(x.confidence.to_bits(), y.confidence.to_bits(), "{tag}");
                    assert_eq!(format!("{:?}", x.kind), format!("{:?}", y.kind), "{tag}");
                }
                _ => panic!("{tag}: bound present on one side only at {}", ga.key),
            }
        }
    }
}

const BASE: &str = "SELECT state, SUM(income) AS rev, AVG(income) AS mean \
                    FROM census WHERE age >= 25 AND state <> 'WY' \
                    GROUP BY state HAVING rev > 10";

/// Respellings of [`BASE`] that must all normalize to the same key: case
/// shuffles, whitespace shuffles, equivalent literal formats, `!=` for
/// `<>`, trailing semicolon.
const VARIANTS: &[&str] = &[
    "select STATE, sum(Income) as REV, avg(income) as MEAN \
     from CENSUS where AGE >= 25 and state != 'WY' \
     group by state having rev > 10;",
    "SELECT  state ,\tSUM( income )\nAS rev,  AVG(income) AS mean \
     FROM census WHERE age >= 25.0 AND state <> 'WY' \
     GROUP BY state HAVING rev > 1e1",
    "Select state, Sum(income) As rev, Avg(income) As mean \
     From census Where age >= 2.5e1 And state != 'WY' \
     Group By state Having rev > 10.00",
];

#[test]
fn cache_hit_equals_cold_parse_across_rewrites() {
    for rewrite in [
        RewriteChoice::Integrated,
        RewriteChoice::NestedIntegrated,
        RewriteChoice::Normalized,
        RewriteChoice::KeyNormalized,
    ] {
        // Two deterministic builds of the same system: bit-identical
        // synopses (pinned by the determinism suite).
        let warm = build_system(rewrite);
        let cold = build_system(rewrite);

        let (base_answer, base_rewritten) = answer_sql(&warm, BASE);
        for (vi, variant) in VARIANTS.iter().enumerate() {
            // Warm system: this variant hits the answer cache entry the
            // base spelling created.
            let (hit, hit_rewritten) = answer_sql(&warm, variant);
            // Cold system: the variant is parsed from scratch.
            let (parsed, cold_rewritten) = answer_sql(&cold, variant);
            let tag = format!("{rewrite:?} variant {vi}");
            assert_bit_identical(&hit, &base_answer, &tag);
            assert_bit_identical(&hit, &parsed, &tag);
            assert_eq!(hit_rewritten, base_rewritten, "{tag}: rewritten SQL");
            assert_eq!(hit_rewritten, cold_rewritten, "{tag}: rewritten SQL");
        }

        let snap = warm.stats();
        // 1 miss (base) + VARIANTS.len() hits on the warm system.
        assert_eq!(
            snap.counter("aqua_answer_cache_hits_total"),
            VARIANTS.len() as u64,
            "{rewrite:?}: all variants must share one answer-cache entry"
        );
        assert_eq!(snap.counter("aqua_answer_cache_misses_total"), 1);
        assert_eq!(snap.gauge("aqua_answer_cache_entries"), 1);
        assert_eq!(snap.counter("aqua_plan_cache_misses_total"), 1);
    }
}

#[test]
fn plan_cache_hit_after_ingest_equals_fresh_plan() {
    let aqua = build_system(RewriteChoice::NestedIntegrated);
    let (_warmup, rewritten_before) = answer_sql(&aqua, BASE);
    let plans_before = aqua.stats().gauge("aqua_plan_cache_entries");

    // Ingest clears the answer cache (data changed) but not the plan
    // cache (schema didn't).
    let batch: Vec<Vec<Value>> = (0..50i64)
        .map(|i| {
            vec![
                Value::str(if i % 2 == 0 { "TX" } else { "NY" }),
                Value::from(30 + i % 40),
                Value::from(1200.0 + i as f64),
            ]
        })
        .collect();
    aqua.insert_batch(&batch).unwrap();
    assert_eq!(
        aqua.stats().gauge("aqua_plan_cache_entries"),
        plans_before,
        "ingest must keep every cached plan"
    );

    // Served through the cached plan…
    let (via_plan_cache, rewritten_after) = answer_sql(&aqua, BASE);
    // …must equal the uncached path over a freshly parsed query.
    let query = engine::sql::parse(
        aqua.table_snapshot().schema(),
        &engine::sql::normalize(BASE).unwrap(),
    )
    .unwrap();
    let fresh = aqua.answer(&query).unwrap();
    assert_bit_identical(&via_plan_cache, &fresh, "plan-cache hit vs fresh plan");
    assert_eq!(rewritten_before, rewritten_after);

    let snap = aqua.stats();
    assert_eq!(
        snap.counter("aqua_plan_cache_hits_total"),
        1,
        "post-ingest repeat must hit the plan cache"
    );
    assert_eq!(snap.counter("aqua_plan_cache_misses_total"), 1);
    assert!(
        snap.counter("aqua_answer_cache_invalidations_total") >= 1,
        "ingest must clear the answer cache"
    );
    assert_eq!(snap.gauge("aqua_plan_cache_hit_rate_permille"), 500);
}

// ---------------------------------------------------------------------
// Proptest: random respellings normalize to the same key + same answer
// ---------------------------------------------------------------------

/// The base query as a token template. Each entry is (canonical,
/// case-mutable): identifiers and keywords may be case-shuffled, literals
/// get format variants, symbols pass through.
const TOKENS: &[&str] = &[
    "SELECT", "state", ",", "SUM", "(", "income", ")", "AS", "rev", "FROM", "census", "WHERE",
    "age", ">=", "25", "AND", "state", "<>", "'WY'", "GROUP", "BY", "state", "HAVING", "rev", ">",
    "10",
];

fn respell(token: &str, case_pick: u8, lit_pick: u8, ws: &str) -> String {
    let spelled = match token {
        "25" => ["25", "25.0", "2.5e1", "25.00"][lit_pick as usize % 4].to_string(),
        "10" => ["10", "10.0", "1e1", "0.1e2"][lit_pick as usize % 4].to_string(),
        "<>" => ["<>", "!="][lit_pick as usize % 2].to_string(),
        t if t.starts_with('\'') => t.to_string(), // string literal: case is meaning
        t => match case_pick % 3 {
            0 => t.to_ascii_lowercase(),
            1 => t.to_ascii_uppercase(),
            _ => t
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if i % 2 == 0 {
                        c.to_ascii_uppercase()
                    } else {
                        c.to_ascii_lowercase()
                    }
                })
                .collect(),
        },
    };
    format!("{spelled}{ws}")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_respellings_normalize_and_answer_identically(
        case_picks in proptest::collection::vec(0u8..3, TOKENS.len()),
        lit_picks in proptest::collection::vec(0u8..4, TOKENS.len()),
        ws_picks in proptest::collection::vec(0usize..4, TOKENS.len()),
        trailing_semi in 0u8..2,
    ) {
        let ws = [" ", "  ", "\t", " \n "];
        let mut variant = String::new();
        for (i, tok) in TOKENS.iter().enumerate() {
            variant.push_str(&respell(tok, case_picks[i], lit_picks[i], ws[ws_picks[i]]));
        }
        if trailing_semi == 1 {
            variant.push(';');
        }

        let base_key = engine::sql::normalize(BASE_PROPTEST).unwrap();
        let variant_key = engine::sql::normalize(&variant).unwrap();
        prop_assert_eq!(&base_key, &variant_key, "variant: {}", variant);
    }
}

/// The same query [`TOKENS`] spells, in one canonical string.
const BASE_PROPTEST: &str = "SELECT state, SUM(income) AS rev FROM census \
                             WHERE age >= 25 AND state <> 'WY' \
                             GROUP BY state HAVING rev > 10";

/// And the end-to-end half of the property, run against one shared system
/// on a handful of deterministic respellings (building an Aqua per
/// proptest case would dominate the suite's runtime).
#[test]
fn respelled_queries_share_one_cache_entry_end_to_end() {
    let aqua = build_system(RewriteChoice::Integrated);
    let (base, _) = answer_sql(&aqua, BASE_PROPTEST);
    for seed in 0u8..12 {
        let ws = [" ", "  ", "\t", " \n "];
        let mut variant = String::new();
        for (i, tok) in TOKENS.iter().enumerate() {
            let r = seed.wrapping_mul(31).wrapping_add(i as u8);
            variant.push_str(&respell(tok, r % 3, r % 4, ws[(r as usize / 3) % 4]));
        }
        let (answer, _) = answer_sql(&aqua, &variant);
        assert_bit_identical(&answer, &base, &format!("respelling seed {seed}"));
    }
    let snap = aqua.stats();
    assert_eq!(snap.gauge("aqua_answer_cache_entries"), 1);
    assert_eq!(snap.counter("aqua_answer_cache_hits_total"), 12);
}
