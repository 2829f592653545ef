//! How wrong the approximate answers are (the paper's ε_L1, realised
//! confidence-interval coverage, groups found), and the row-at-a-time
//! reference evaluator the exact path is checked against.

use std::collections::{BTreeMap, HashMap};

use aqua::{ApproximateAnswer, Aqua};
use engine::QueryResult;
use relation::{GroupKey, Relation, Value};
use tpcd::LineitemSchema;

use crate::inputs::{Rng, ScanQuery};

/// Queries the accuracy pass draws from a workload's texts.
pub const ACCURACY_QUERIES: usize = 200;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Mean over (query, aggregate) of ε_L1 (Def 3.1), in percent; a group
    /// missing from the approximate answer is charged 100%.
    pub err_l1_pct: f64,
    /// (query, group, aggregate) cells whose exact value lies inside the
    /// stated bound / cells with a bound.
    pub ci_cover_frac: f64,
    /// Exact-answer groups present in the approximate answer.
    pub groups_found_frac: f64,
    pub queries: usize,
    pub cells_with_bound: u64,
}

#[derive(Debug, Default)]
pub struct Tally {
    err_sum: f64,
    err_terms: usize,
    covered: u64,
    bounded: u64,
    found: u64,
    exact_groups: u64,
    queries: usize,
}

impl Tally {
    pub fn add(&mut self, exact: &QueryResult, approx: &ApproximateAnswer) {
        self.queries += 1;
        for agg in 0..exact.aggregate_names.len() {
            self.err_sum += congress::compare_results(exact, &approx.result, agg, 100.0).l1();
            self.err_terms += 1;
        }
        // `bounds` rows share the result's key order.
        let position: HashMap<&GroupKey, usize> = approx
            .result
            .rows()
            .iter()
            .enumerate()
            .map(|(i, (key, _))| (key, i))
            .collect();
        for (key, exact_values) in exact.iter() {
            self.exact_groups += 1;
            let Some(&i) = position.get(key) else {
                continue;
            };
            self.found += 1;
            let estimates = &approx.result.rows()[i].1;
            let Some(bounds) = approx.bounds.get(i) else {
                continue;
            };
            for (agg, bound) in bounds.bounds.iter().enumerate() {
                if let Some(bound) = bound {
                    self.bounded += 1;
                    if (exact_values[agg] - estimates[agg]).abs() <= bound.half_width {
                        self.covered += 1;
                    }
                }
            }
        }
    }

    pub fn finish(&self) -> Accuracy {
        Accuracy {
            err_l1_pct: self.err_sum / self.err_terms.max(1) as f64,
            ci_cover_frac: self.covered as f64 / self.bounded.max(1) as f64,
            groups_found_frac: self.found as f64 / self.exact_groups.max(1) as f64,
            queries: self.queries,
            cells_with_bound: self.bounded,
        }
    }
}

/// `k` distinct indices below `n`, seeded, ascending (all of them when
/// `n <= k`).
pub fn subset(seed: u64, n: usize, k: usize) -> Vec<usize> {
    let mut all: Vec<usize> = (0..n).collect();
    if n <= k {
        return all;
    }
    let mut rng = Rng::new(seed, 4);
    for i in 0..k {
        let j = rng.range(i as u64, n as u64 - 1) as usize;
        all.swap(i, j);
    }
    all.truncate(k);
    all.sort_unstable();
    all
}

/// Approximate answer against `exact_sql`, on the table as it stands now.
pub fn accuracy_pass<'a>(aqua: &Aqua, sqls: impl Iterator<Item = &'a str>) -> Accuracy {
    let mut tally = Tally::default();
    for sql in sqls {
        let exact = aqua.exact_sql(sql).expect("exact answer");
        let served = aqua.answer_sql_shared(sql).expect("approximate answer");
        tally.add(&exact, &served.answer);
    }
    tally.finish()
}

/// The exact-scan query evaluated one row at a time, with no pruning, no
/// encoding and no group index: `(l_returnflag, l_shipdate)` →
/// `[SUM(l_extendedprice), AVG(l_quantity), COUNT(*)]`.
pub fn naive_scan(
    table: &Relation,
    ids: &LineitemSchema,
    q: &ScanQuery,
) -> BTreeMap<(i64, i32), [f64; 3]> {
    let id = table.column(ids.l_id).as_int().expect("l_id is int");
    let flag = table
        .column(ids.l_returnflag)
        .as_int()
        .expect("l_returnflag is int");
    let date = table
        .column(ids.l_shipdate)
        .as_date()
        .expect("l_shipdate is date");
    let quantity = table
        .column(ids.l_quantity)
        .as_float()
        .expect("l_quantity is float");
    let price = table
        .column(ids.l_extendedprice)
        .as_float()
        .expect("l_extendedprice is float");
    // (sum of price, sum of quantity, count)
    let mut groups: BTreeMap<(i64, i32), [f64; 3]> = BTreeMap::new();
    for row in 0..table.row_count() {
        if id[row] >= q.lo && id[row] <= q.hi && quantity[row] >= q.min_quantity {
            let g = groups.entry((flag[row], date[row])).or_insert([0.0; 3]);
            g[0] += price[row];
            g[1] += quantity[row];
            g[2] += 1.0;
        }
    }
    for g in groups.values_mut() {
        g[1] /= g[2];
    }
    groups
}

/// Whether `result` equals the reference to `1e-9` relative, group for group.
pub fn matches_naive(result: &QueryResult, naive: &BTreeMap<(i64, i32), [f64; 3]>) -> bool {
    if result.group_count() != naive.len() {
        return false;
    }
    result.iter().all(|(key, values)| {
        let (Value::Int(flag), Value::Date(date)) = (&key.values()[0], &key.values()[1]) else {
            return false;
        };
        naive.get(&(*flag, *date)).is_some_and(|reference| {
            values
                .iter()
                .zip(reference)
                .all(|(got, want)| (got - want).abs() <= 1e-9 * want.abs())
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua::{AnswerProvenance, GroupBounds};
    use congress::bounds::{BoundKind, ErrorBound};

    fn key(v: i64) -> GroupKey {
        GroupKey::new(vec![Value::Int(v)])
    }

    fn bound(half_width: f64) -> Option<ErrorBound> {
        Some(ErrorBound {
            half_width,
            confidence: 0.9,
            kind: BoundKind::Chebyshev,
        })
    }

    #[test]
    fn tally_on_a_hand_built_answer() {
        // Exact: three groups, two aggregates.
        let exact = QueryResult::new(
            vec!["s".into(), "m".into()],
            vec![
                (key(1), vec![100.0, 10.0]),
                (key(2), vec![200.0, 20.0]),
                (key(3), vec![50.0, 5.0]),
            ],
        );
        // Approximate: group 3 missing; group 1 off by 10% and 0%; group 2
        // off by 5% and 50%.
        let result = QueryResult::new(
            vec!["s".into(), "m".into()],
            vec![(key(1), vec![110.0, 10.0]), (key(2), vec![190.0, 30.0])],
        );
        let approx = ApproximateAnswer {
            result,
            bounds: vec![
                GroupBounds {
                    key: key(1),
                    // 110 ± 15 holds 100; the second aggregate has no bound.
                    bounds: vec![bound(15.0), None],
                },
                GroupBounds {
                    key: key(2),
                    // 190 ± 5 misses 200; 30 ± 10 holds 20 (on the edge).
                    bounds: vec![bound(5.0), bound(10.0)],
                },
            ],
            confidence: 0.9,
            provenance: AnswerProvenance::Sampled,
        };
        let mut tally = Tally::default();
        tally.add(&exact, &approx);
        let a = tally.finish();
        // ε_L1 per aggregate: (10 + 5 + 100)/3 and (0 + 50 + 100)/3.
        let want = ((10.0 + 5.0 + 100.0) / 3.0 + (0.0 + 50.0 + 100.0) / 3.0) / 2.0;
        assert!((a.err_l1_pct - want).abs() < 1e-9, "{}", a.err_l1_pct);
        assert_eq!(a.cells_with_bound, 3);
        assert!((a.ci_cover_frac - 2.0 / 3.0).abs() < 1e-12);
        assert!((a.groups_found_frac - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(a.queries, 1);
    }

    #[test]
    fn subset_is_seeded_distinct_and_ascending() {
        let s = subset(9, 1000, 200);
        assert_eq!(s.len(), 200);
        assert!(s.windows(2).all(|w| w[0] < w[1]));
        assert!(s.iter().all(|&i| i < 1000));
        assert_eq!(s, subset(9, 1000, 200));
        assert_ne!(s, subset(10, 1000, 200));
        assert_eq!(subset(9, 16, 200), (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn naive_evaluator_agrees_with_the_engine_and_notices_a_difference() {
        let data = crate::inputs::generate(3, crate::inputs::Scale::QUICK);
        let q = &crate::inputs::scan_queries(3, data.relation.row_count(), 1)[0];
        let query = engine::sql::parse(data.relation.schema(), &q.sql).unwrap();
        let result = engine::execute_exact(&data.relation, &query).unwrap();
        let mut naive = naive_scan(&data.relation, &data.ids, q);
        assert!(result.group_count() > 10);
        assert!(matches_naive(&result, &naive));
        naive.values_mut().next().unwrap()[0] *= 1.0 + 1e-6;
        assert!(!matches_naive(&result, &naive));
    }
}
