//! The one memo map every serving cache is built from.
//!
//! A [`Memo`] is a sharded get-or-insert map from keys to shared `Arc`
//! values. Its rules are the caches' rules:
//!
//! * **First insert wins.** Values are built outside any lock; when two
//!   callers race on a cold key both build, and the one that inserts first
//!   is what every caller gets back — the same `Arc`.
//! * **A failed build caches nothing.** The lookup counts one miss and the
//!   error goes back to the caller; the next lookup builds again.
//! * **Counts outlive the map.** Hits and misses go to a shared
//!   [`MemoCounts`], so the map of the next synopsis generation keeps
//!   counting where the retired one stopped.
//!
//! A map is never cleared: its owner drops it with the generation it was
//! built for. Lookups take one shard read lock, inserts one shard write
//! lock, so the warm steady state is read locks only.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

/// Lock shards per map: enough that concurrent lookups of a realistic
/// working set rarely share a lock.
const SHARDS: usize = 16;

fn shard_of<K: Hash + ?Sized>(key: &K) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() as usize) % SHARDS
}

/// Lifetime hit/miss counts of one or more [`Memo`]s (relaxed atomics).
#[derive(Debug, Default)]
pub struct MemoCounts {
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MemoCounts {
    /// Lookups that found a value.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Hits over lookups; 0.0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        let (hits, total) = (self.hits(), self.hits() + self.misses());
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }

    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// Sharded get-or-insert map from `K` to shared `V`s; see the module docs.
pub struct Memo<K, V> {
    shards: Vec<RwLock<HashMap<K, Arc<V>>>>,
    counts: Arc<MemoCounts>,
}

impl<K, V> std::fmt::Debug for Memo<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memo")
            .field("entries", &self.len())
            .field("hits", &self.counts.hits())
            .field("misses", &self.counts.misses())
            .finish()
    }
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo::new(Arc::default())
    }
}

impl<K, V> Memo<K, V> {
    /// An empty map counting into `counts`.
    pub fn new(counts: Arc<MemoCounts>) -> Memo<K, V> {
        Memo {
            shards: (0..SHARDS).map(|_| RwLock::default()).collect(),
            counts,
        }
    }

    /// The counts this map adds to.
    pub fn counts(&self) -> &MemoCounts {
        &self.counts
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// `true` when nothing is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<K: Hash + Eq, V> Memo<K, V> {
    /// The value under `key`, without counting the lookup.
    pub fn peek<Q>(&self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.shards[shard_of(key)].read().get(key).cloned()
    }

    /// The value under `key`, counting a hit or a miss.
    pub fn get<Q>(&self, key: &Q) -> Option<Arc<V>>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        let found = self.peek(key);
        self.counts.count(found.is_some());
        found
    }

    /// Insert `value` under `key` unless a value is already there, and
    /// return whichever is held: the first insert wins.
    pub fn insert(&self, key: K, value: Arc<V>) -> Arc<V> {
        let mut shard = self.shards[shard_of(&key)].write();
        Arc::clone(shard.entry(key).or_insert(value))
    }

    /// The value under `key`, built by `build` outside any lock on a miss.
    /// A failed build inserts nothing.
    pub fn get_or_try_insert_with<Q, E>(
        &self,
        key: &Q,
        build: impl FnOnce() -> Result<V, E>,
    ) -> Result<Arc<V>, E>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        if let Some(found) = self.get(key) {
            return Ok(found);
        }
        let built = Arc::new(build()?);
        Ok(self.insert(key.to_owned(), built))
    }

    /// [`Self::get_or_try_insert_with`] for a build that cannot fail.
    pub fn get_or_insert_with<Q>(&self, key: &Q, build: impl FnOnce() -> V) -> Arc<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ToOwned<Owned = K> + ?Sized,
    {
        let Ok(value) = self.get_or_try_insert_with(key, || Ok::<_, Infallible>(build()));
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_insert_wins_and_returns_the_same_arc() {
        let memo: Memo<String, &str> = Memo::default();
        let first = memo.insert("k".into(), Arc::new("first"));
        let second = memo.insert("k".into(), Arc::new("second"));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(*second, "first");
        let built = memo.get_or_insert_with("k", || panic!("must hit"));
        assert!(Arc::ptr_eq(&first, &built));
        assert!(Arc::ptr_eq(&first, &memo.get("k").unwrap()));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn failed_build_caches_nothing_and_counts_one_miss() {
        let memo: Memo<String, u32> = Memo::default();
        assert_eq!(memo.get_or_try_insert_with("k", || Err("bad")), Err("bad"));
        assert!(memo.is_empty());
        assert_eq!((memo.counts().hits(), memo.counts().misses()), (0, 1));
        assert_eq!(
            *memo.get_or_try_insert_with("k", || Ok::<_, ()>(7)).unwrap(),
            7
        );
        assert_eq!((memo.counts().hits(), memo.counts().misses()), (0, 2));
        // An uncounted peek sees the value and moves nothing.
        assert_eq!(memo.peek("k").as_deref(), Some(&7));
        assert_eq!(memo.counts().hits(), 0);
    }

    #[test]
    fn counts_outlive_the_map() {
        let counts = Arc::new(MemoCounts::default());
        let retired: Memo<String, u32> = Memo::new(Arc::clone(&counts));
        assert!(retired.get("k").is_none());
        retired.insert("k".into(), Arc::new(1));
        assert!(retired.get("k").is_some());
        drop(retired);
        // The next generation's map starts empty and counts on.
        let next: Memo<String, u32> = Memo::new(Arc::clone(&counts));
        assert!(next.get("k").is_none());
        assert_eq!((counts.hits(), counts.misses()), (1, 2));
        assert!((counts.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(MemoCounts::default().hit_rate(), 0.0);
    }
}
