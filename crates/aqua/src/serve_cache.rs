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
//! Consistency: each [`Generation`](crate::Generation) owns its answer
//! cache, and a reader computes an answer against the generation it pinned
//! and inserts it there. An answer can therefore only ever be served from
//! the generation it was computed from; one inserted after its generation
//! retired is dropped with it.

use engine::Memo;

use crate::answer::ApproximateAnswer;

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

/// Normalized SQL → [`ServedAnswer`] for one synopsis generation. First
/// insert wins (under a race both answers are bit-identical anyway — same
/// plan, same generation — so keeping the earlier `Arc` is free).
pub type AnswerCache = Memo<String, ServedAnswer>;

#[cfg(test)]
mod tests {
    use std::sync::Arc;

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
        let counts = Arc::new(engine::MemoCounts::default());
        let c = AnswerCache::new(Arc::clone(&counts));
        assert!(c.get("k").is_none());
        c.insert("k".into(), served("a"));
        assert_eq!(c.get("k").unwrap().rewritten, "a");
        assert_eq!(c.len(), 1);
        // A retired generation drops its cache; the next generation's
        // cache starts empty and counts on.
        drop(c);
        let c = AnswerCache::new(Arc::clone(&counts));
        assert!(c.is_empty());
        assert!(c.get("k").is_none());
        assert_eq!((counts.hits(), counts.misses()), (1, 2));
        assert!((counts.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn first_insert_wins_and_shares() {
        let c = AnswerCache::default();
        let first = c.insert("k".into(), served("first"));
        let second = c.insert("k".into(), served("second"));
        assert!(Arc::ptr_eq(&first, &second));
        let hit = c.get("k").unwrap();
        assert!(Arc::ptr_eq(&first, &hit));
    }
}
