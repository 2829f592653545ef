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
//! Like [`QueryCache`](crate::QueryCache), the cache is sharded by key
//! hash and interior-mutable: lookups take one shard read lock, inserts
//! one shard write lock, and the owner (Aqua's synopsis) calls
//! [`PlanCache::invalidate`] on ingest/refresh/rebuild. Plans do not
//! actually depend on the sample's *contents* — only on the schema and
//! rewrite strategy, which are fixed per synopsis — but invalidating on
//! the same schedule as the data caches keeps the invalidation matrix
//! uniform and costs one cleared map per mutation.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use serde::{Deserialize, Serialize};

use crate::query::GroupByQuery;

const SHARDS: usize = 8;

fn shard_of(key: &str) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

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

/// Sharded map from normalized SQL to [`CachedPlan`], with hit/miss/
/// invalidation counters (relaxed atomics, same discipline as the data
/// caches: counters survive invalidation, entries do not).
#[derive(Debug)]
pub struct PlanCache {
    shards: Vec<RwLock<HashMap<String, Arc<CachedPlan>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new()
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Look up a plan by normalized key, counting a hit or miss.
    pub fn get(&self, key: &str) -> Option<Arc<CachedPlan>> {
        let found = self.shards[shard_of(key)].read().get(key).cloned();
        match found {
            Some(p) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(p)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert a plan under `key`. First insert wins: under a race the
    /// earlier entry is kept and returned, so every caller holding a plan
    /// for `key` holds *the same* plan (equivalence tests compare plans
    /// by pointer).
    pub fn insert(&self, key: String, plan: CachedPlan) -> Arc<CachedPlan> {
        let mut shard = self.shards[shard_of(&key)].write();
        Arc::clone(shard.entry(key).or_insert_with(|| Arc::new(plan)))
    }

    /// Drop every entry (counters survive). Called on ingest / refresh /
    /// rebuild, mirroring [`QueryCache::invalidate`](crate::QueryCache::invalidate).
    pub fn invalidate(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// `true` when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

/// Point-in-time [`PlanCache`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanCacheStats {
    /// Lookups that found a plan.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Times the cache was cleared.
    pub invalidations: u64,
    /// Plans currently cached.
    pub entries: u64,
}

impl PlanCacheStats {
    /// Hits over lookups, 0.0 when no lookups happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::AggregateSpec;

    fn plan(tag: &str) -> CachedPlan {
        CachedPlan {
            query: GroupByQuery::new(vec![], vec![AggregateSpec::count("count_star")]),
            rewritten: tag.to_string(),
        }
    }

    #[test]
    fn miss_insert_hit_and_invalidate() {
        let c = PlanCache::new();
        assert!(c.get("k").is_none());
        c.insert("k".into(), plan("p1"));
        let got = c.get("k").expect("inserted plan");
        assert_eq!(got.rewritten, "p1");
        assert_eq!(c.len(), 1);

        c.invalidate();
        assert!(c.get("k").is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidations, s.entries), (1, 2, 1, 0));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn first_insert_wins() {
        let c = PlanCache::new();
        let a = c.insert("k".into(), plan("first"));
        let b = c.insert("k".into(), plan("second"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(b.rewritten, "first");
    }

    #[test]
    fn keys_spread_over_shards_independently() {
        let c = PlanCache::new();
        for i in 0..64 {
            c.insert(format!("key-{i}"), plan("x"));
        }
        assert_eq!(c.len(), 64);
        for i in 0..64 {
            assert!(c.get(&format!("key-{i}")).is_some());
        }
        assert_eq!(c.stats().hits, 64);
    }
}
