//! The answer cache: normalized SQL text → complete served answer.
//!
//! The serving bottleneck is not answer *cost* but per-query overhead:
//! even with the plan cache skipping parse + rewrite-render, every SQL
//! request to [`Aqua::run`](crate::Aqua::run) still pays the plan execution and the per-group
//! bounds assembly. Dashboard workloads replay a small set of query
//! strings against a synopsis that only changes on ingest, so the whole
//! [`ApproximateAnswer`] is memoizable. Entries are shared `Arc`s — a
//! hit is one shard read-lock, one hash probe, and one refcount bump.
//!
//! Consistency: inserts happen while the owning [`Aqua`](crate::Aqua)
//! holds its synopsis *read* lock, and every mutation (ingest / refresh /
//! rebuild) clears the cache while holding the *write* lock — so an
//! entry computed against generation G can never survive into generation
//! G+1, and a hit always equals what recomputing against the current
//! synopsis would return.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::answer::ApproximateAnswer;

const SHARDS: usize = 8;

fn shard_of(key: &str) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

/// A complete serving result: the approximate answer plus the rewritten
/// SQL the configured strategy would send a back-end DBMS.
#[derive(Debug, Clone)]
pub struct ServedAnswer {
    /// The approximate answer with per-group bounds.
    pub answer: ApproximateAnswer,
    /// Rewritten SQL (Figures 8–11) for the active rewrite strategy, on
    /// answers to approximate SQL requests; empty for parsed queries and
    /// exact answers (asked for or degraded-mode).
    pub rewritten: String,
}

/// Sharded map from normalized SQL to [`ServedAnswer`], with hit / miss /
/// invalidation counters (relaxed atomics; counters survive invalidation,
/// entries do not).
#[derive(Debug)]
pub struct AnswerCache {
    shards: Vec<RwLock<HashMap<String, Arc<ServedAnswer>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

impl Default for AnswerCache {
    fn default() -> Self {
        Self::new()
    }
}

impl AnswerCache {
    /// An empty cache.
    pub fn new() -> AnswerCache {
        AnswerCache {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
        }
    }

    /// Look up an answer by normalized key, counting a hit or miss.
    pub fn get(&self, key: &str) -> Option<Arc<ServedAnswer>> {
        let found = self.shards[shard_of(key)].read().get(key).cloned();
        match found {
            Some(a) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(a)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert an answer under `key`. First insert wins (under a race both
    /// answers are bit-identical anyway — same plan, same synopsis
    /// generation — so keeping the earlier `Arc` is free).
    pub fn insert(&self, key: String, answer: Arc<ServedAnswer>) -> Arc<ServedAnswer> {
        let mut shard = self.shards[shard_of(&key)].write();
        Arc::clone(shard.entry(key).or_insert(answer))
    }

    /// Drop every entry (counters survive). Called on ingest / refresh /
    /// rebuild, in the same breath as the query-cache invalidation.
    pub fn invalidate(&self) {
        for shard in &self.shards {
            shard.write().clear();
        }
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of cached answers.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// `true` when no answers are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> AnswerCacheStats {
        AnswerCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }
}

/// Point-in-time [`AnswerCache`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnswerCacheStats {
    /// Lookups that found an answer.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Times the cache was cleared.
    pub invalidations: u64,
    /// Answers currently cached.
    pub entries: u64,
}

impl AnswerCacheStats {
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
    use crate::answer::AnswerProvenance;
    use engine::QueryResult;

    fn served(tag: &str) -> Arc<ServedAnswer> {
        Arc::new(ServedAnswer {
            answer: ApproximateAnswer {
                result: QueryResult::new(vec![tag.to_string()], Vec::new()),
                bounds: Vec::new(),
                confidence: 0.9,
                provenance: AnswerProvenance::Sampled,
            },
            rewritten: tag.to_string(),
        })
    }

    #[test]
    fn miss_insert_hit_and_invalidate() {
        let c = AnswerCache::new();
        assert!(c.get("k").is_none());
        c.insert("k".into(), served("a"));
        assert_eq!(c.get("k").unwrap().rewritten, "a");
        assert_eq!(c.len(), 1);
        c.invalidate();
        assert!(c.is_empty());
        assert!(c.get("k").is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalidations), (1, 2, 1));
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn first_insert_wins_and_shares() {
        let c = AnswerCache::new();
        let first = c.insert("k".into(), served("first"));
        let second = c.insert("k".into(), served("second"));
        assert!(Arc::ptr_eq(&first, &second));
        let hit = c.get("k").unwrap();
        assert!(Arc::ptr_eq(&first, &hit));
    }
}
