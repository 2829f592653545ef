//! The plan cache: normalized SQL text → parsed + rewritten plan.
//!
//! The serving path pays three text-shaped costs per SQL query
//! before any data is touched: tokenize + parse the query, then render
//! the rewritten SQL for the active strategy (the paper's Figures 8–11).
//! Dashboard workloads repeat a small set of query strings, so both costs
//! are cacheable. Keys are [`sql::normalize`](crate::sql::normalize)d
//! text — case, whitespace, and literal formatting folded — so `SELECT
//! Sum(x)…` and `select sum(x)…` share one entry.
//!
//! A plan depends on the schema, the rewrite strategy and the text alone,
//! never on the sample's contents, so one cache serves every synopsis
//! generation of a relation: ingest, refresh and rebuild leave it alone.

use crate::memo::Memo;
use crate::query::GroupByQuery;

/// A fully planned query: the parse result plus the rewritten SQL text
/// the strategy would hand a back-end DBMS. Immutable and shared —
/// a cache hit clones the `Arc`, never the plan.
#[derive(Debug)]
pub struct CachedPlan {
    /// The parsed query (resolved against the base schema).
    pub query: GroupByQuery,
    /// Rewritten SQL for the strategy the plan was cached under.
    pub rewritten: String,
}

/// Normalized SQL → [`CachedPlan`]. First insert wins, so every caller
/// holding a plan for one text holds *the same* plan (equivalence tests
/// compare plans by pointer).
pub type PlanCache = Memo<String, CachedPlan>;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::aggregate::AggregateSpec;

    fn plan(tag: &str) -> Arc<CachedPlan> {
        Arc::new(CachedPlan {
            query: GroupByQuery::new(vec![], vec![AggregateSpec::count("count_star")]),
            rewritten: tag.to_string(),
        })
    }

    #[test]
    fn miss_insert_hit_and_invalidate() {
        let counts = Arc::new(crate::memo::MemoCounts::default());
        let c = PlanCache::new(Arc::clone(&counts));
        assert!(c.get("k").is_none());
        c.insert("k".into(), plan("p1"));
        let got = c.get("k").expect("inserted plan");
        assert_eq!(got.rewritten, "p1");
        assert_eq!(c.len(), 1);

        // Invalidation is replacement: a new cache over the same counts
        // starts empty and counts on.
        drop(c);
        let c = PlanCache::new(Arc::clone(&counts));
        assert!(c.get("k").is_none());
        assert!(c.is_empty());
        assert_eq!((counts.hits(), counts.misses()), (1, 2));
        assert!((counts.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn first_insert_wins() {
        let c = PlanCache::default();
        let a = c.insert("k".into(), plan("first"));
        let b = c.insert("k".into(), plan("second"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(b.rewritten, "first");
    }

    #[test]
    fn keys_spread_over_shards_independently() {
        let c = PlanCache::default();
        for i in 0..64 {
            c.insert(format!("key-{i}"), plan("x"));
        }
        assert_eq!(c.len(), 64);
        for i in 0..64 {
            assert!(c.get(&format!("key-{i}")).is_some());
        }
        assert_eq!(c.counts().hits(), 64);
    }
}
