//! §6 sample construction: reservoirs, the one-pass maintainers, and the
//! shared-lattice-walk census route.
//!
//! The paper gives two ways to materialize a congressional sample:
//!
//! 1. **Census-based** (§4.6 / §6): compute the census (the count cube at
//!    the finest grouping), run an allocation strategy, then draw the
//!    per-group sample sizes exactly from seeded per-stratum streams —
//!    [`CongressionalSample::draw_par`] — or in one shared Bernoulli pass
//!    over the tuples using the Eq-8 per-tuple probabilities —
//!    [`construct_congress_shared`].
//! 2. **One-pass incremental** (§6): stream the tuples once, maintaining
//!    per-group samples plus the exact group counts, and snapshot a valid
//!    sample at any prefix of the stream. [`Maintainer`] holds the one
//!    maintainer of each strategy ([`HouseMaintainer`],
//!    [`SenateMaintainer`], [`BasicCongressMaintainer`] per Theorem 6.1,
//!    and [`CongressEvictionMaintainer`] per the Eq-8 scheme); all share
//!    the [`IncrementalMaintainer`] trait, and [`construct_one_pass`]
//!    drives one over a whole relation.
//!
//! Every maintainer snapshot reports **exact** group sizes (counts are
//! maintained outside the reservoirs), so scale factors computed from a
//! snapshot are unbiased even when the reservoirs subsample heavily, and
//! carries its strategy's [`SamplingStrategy::name`], as census draws do.

use std::collections::HashMap;

use rand::Rng;

use crate::alloc::{per_tuple_probabilities, AllocationStrategy, BasicCongress, Congress};
use crate::census::GroupCensus;
use crate::error::{CongressError, Result};
use crate::sample::CongressionalSample;
use crate::strategy::SamplingStrategy;
use relation::{ColumnId, GroupKey, Relation};

// ---------------------------------------------------------------------------
// Reservoir
// ---------------------------------------------------------------------------

/// A fixed-capacity uniform reservoir (Vitter's algorithm R): after `n`
/// offers it holds a uniformly random `min(n, capacity)`-subset of the
/// offered items.
#[derive(Debug, Clone)]
pub struct Reservoir<T> {
    capacity: usize,
    seen: u64,
    items: Vec<T>,
}

impl<T> Reservoir<T> {
    /// A new, empty reservoir holding at most `capacity` items.
    pub fn new(capacity: usize) -> Reservoir<T> {
        Reservoir {
            capacity,
            seen: 0,
            items: Vec::with_capacity(capacity.min(1024)),
        }
    }

    /// Offer one item from the stream.
    pub fn offer<R: Rng + ?Sized>(&mut self, item: T, rng: &mut R) {
        self.seen += 1;
        if self.items.len() < self.capacity {
            self.items.push(item);
        } else if self.capacity > 0 {
            // Replace with probability capacity / seen.
            let j = rng.gen_range(0..self.seen);
            if (j as usize) < self.capacity {
                self.items[j as usize] = item;
            }
        }
    }

    /// Number of items currently held (`min(seen, capacity)`).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the reservoir holds nothing.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// How many items have been offered in total.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Maximum number of items retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The retained items (unordered).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Lower the capacity, discarding uniformly at random down to the new
    /// bound. A uniform subset of a uniform subset is uniform, so the
    /// reservoir invariant is preserved and offers may continue.
    pub fn shrink<R: Rng + ?Sized>(&mut self, new_capacity: usize, rng: &mut R) {
        while self.items.len() > new_capacity {
            let i = rng.gen_range(0..self.items.len());
            self.items.swap_remove(i);
        }
        self.capacity = new_capacity;
    }
}

impl<T: Clone> Reservoir<T> {
    /// Merge two reservoirs drawn over *disjoint* streams into one uniform
    /// reservoir over the union (the Theorem 6.1 delta-sample merge step).
    /// Each slot draws its source with probability proportional to the
    /// source's remaining (unconsumed) population count, then takes a
    /// uniformly random held item from it — the standard distributed
    /// reservoir merge, which yields a uniform subset of the union. If a
    /// source's pool runs dry before its population count (possible only
    /// when it subsampled heavily), remaining draws fall through to the
    /// other source; the residual bias is O(1/len) and vanishes as
    /// capacities grow.
    pub fn merge_uniform<R: Rng + ?Sized>(
        a: &Reservoir<T>,
        b: &Reservoir<T>,
        capacity: usize,
        rng: &mut R,
    ) -> Reservoir<T> {
        let mut pool_a = a.items.clone();
        let mut pool_b = b.items.clone();
        let mut na = a.seen;
        let mut nb = b.seen;
        let mut items = Vec::with_capacity(capacity.min(pool_a.len() + pool_b.len()));
        while items.len() < capacity && (!pool_a.is_empty() || !pool_b.is_empty()) {
            let pick_a = if pool_b.is_empty() {
                true
            } else if pool_a.is_empty() {
                false
            } else {
                rng.gen_range(0..na + nb) < na
            };
            let pool = if pick_a {
                na = na.saturating_sub(1);
                &mut pool_a
            } else {
                nb = nb.saturating_sub(1);
                &mut pool_b
            };
            let i = rng.gen_range(0..pool.len());
            items.push(pool.swap_remove(i));
        }
        Reservoir {
            capacity,
            seen: a.seen + b.seen,
            items,
        }
    }
}

// ---------------------------------------------------------------------------
// Group directory (first-seen ordering, exact counts)
// ---------------------------------------------------------------------------

/// Exact per-group counts with stable first-seen ordering — the `n_g`
/// counters every maintainer keeps alongside its reservoirs.
#[derive(Debug, Clone, Default)]
struct GroupDirectory {
    index: HashMap<GroupKey, usize>,
    keys: Vec<GroupKey>,
    counts: Vec<u64>,
}

impl GroupDirectory {
    /// Record one tuple of `key`; returns its group index and whether the
    /// group is new.
    fn observe(&mut self, key: &GroupKey) -> (usize, bool) {
        if let Some(&g) = self.index.get(key) {
            self.counts[g] += 1;
            (g, false)
        } else {
            let g = self.keys.len();
            self.index.insert(key.clone(), g);
            self.keys.push(key.clone());
            self.counts.push(1);
            (g, true)
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// A snapshot holding `rows` (one list per group, in first-seen order)
    /// with the exact counts, named for `strategy`. With no group yet it is
    /// the empty (zero-strata) sample: a zero-length stream prefix is still
    /// a valid snapshot point for a resumable maintainer.
    fn snapshot(
        &self,
        rows: Vec<Vec<usize>>,
        strategy: SamplingStrategy,
    ) -> Result<CongressionalSample> {
        CongressionalSample::from_parts(
            Vec::new(),
            self.keys.clone(),
            self.counts.clone(),
            rows,
            strategy.name(),
        )
    }
}

// ---------------------------------------------------------------------------
// The maintainer trait
// ---------------------------------------------------------------------------

/// A one-pass sample maintainer (§6): consumes an insert stream and can
/// produce a valid [`CongressionalSample`] snapshot at any prefix, without
/// disturbing its own state (snapshots are resumable).
pub trait IncrementalMaintainer {
    /// Consume one tuple: its row id and finest-grouping key.
    fn insert<R: Rng + ?Sized>(&mut self, row: usize, key: &GroupKey, rng: &mut R);

    /// Total tuples inserted so far.
    fn seen(&self) -> u64;

    /// Number of row slots currently held across the reservoirs.
    fn sample_len(&self) -> usize;

    /// Materialize the current sample. Group sizes in the snapshot are the
    /// exact stream counts; the grouping columns are left empty (callers
    /// that know them use [`CongressionalSample::set_grouping_columns`]).
    fn snapshot<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<CongressionalSample>;
}

// ---------------------------------------------------------------------------
// House
// ---------------------------------------------------------------------------

/// One-pass House (uniform) maintainer: a single global reservoir of the
/// whole stream, plus exact group counts so snapshots expose every
/// observed group (possibly with zero sampled tuples).
#[derive(Debug, Clone)]
pub struct HouseMaintainer {
    dir: GroupDirectory,
    reservoir: Reservoir<(usize, usize)>,
    seen: u64,
}

impl HouseMaintainer {
    /// A maintainer targeting `space` sampled tuples.
    pub fn new(space: usize) -> HouseMaintainer {
        HouseMaintainer {
            dir: GroupDirectory::default(),
            reservoir: Reservoir::new(space),
            seen: 0,
        }
    }
}

impl IncrementalMaintainer for HouseMaintainer {
    fn insert<R: Rng + ?Sized>(&mut self, row: usize, key: &GroupKey, rng: &mut R) {
        let (g, _) = self.dir.observe(key);
        self.reservoir.offer((row, g), rng);
        self.seen += 1;
    }

    fn seen(&self) -> u64 {
        self.seen
    }

    fn sample_len(&self) -> usize {
        self.reservoir.len()
    }

    fn snapshot<R: Rng + ?Sized>(&self, _rng: &mut R) -> Result<CongressionalSample> {
        let mut rows: Vec<Vec<usize>> = vec![Vec::new(); self.dir.len()];
        for &(row, g) in self.reservoir.items() {
            rows[g].push(row);
        }
        self.dir.snapshot(rows, SamplingStrategy::House)
    }
}

// ---------------------------------------------------------------------------
// Senate
// ---------------------------------------------------------------------------

/// One-pass Senate maintainer: one reservoir per group, each capped at the
/// current per-group quota `max(1, ⌊X/m⌋)`. When a new group appears the
/// quota drops and existing reservoirs shrink by uniform discard, so every
/// group's sample stays a uniform subset of its tuples.
#[derive(Debug, Clone)]
pub struct SenateMaintainer {
    space: usize,
    dir: GroupDirectory,
    reservoirs: Vec<Reservoir<usize>>,
    seen: u64,
}

impl SenateMaintainer {
    /// A maintainer targeting `space` sampled tuples across all groups.
    pub fn new(space: usize) -> SenateMaintainer {
        SenateMaintainer {
            space,
            dir: GroupDirectory::default(),
            reservoirs: Vec::new(),
            seen: 0,
        }
    }

    fn quota(&self) -> usize {
        (self.space / self.dir.len().max(1)).max(1)
    }
}

impl IncrementalMaintainer for SenateMaintainer {
    fn insert<R: Rng + ?Sized>(&mut self, row: usize, key: &GroupKey, rng: &mut R) {
        let (g, new) = self.dir.observe(key);
        if new {
            let quota = self.quota();
            for r in &mut self.reservoirs {
                r.shrink(quota, rng);
            }
            self.reservoirs.push(Reservoir::new(quota));
        }
        self.reservoirs[g].offer(row, rng);
        self.seen += 1;
    }

    fn seen(&self) -> u64 {
        self.seen
    }

    fn sample_len(&self) -> usize {
        self.reservoirs.iter().map(Reservoir::len).sum()
    }

    fn snapshot<R: Rng + ?Sized>(&self, _rng: &mut R) -> Result<CongressionalSample> {
        let rows: Vec<Vec<usize>> = self.reservoirs.iter().map(|r| r.items().to_vec()).collect();
        self.dir.snapshot(rows, SamplingStrategy::Senate)
    }
}

// ---------------------------------------------------------------------------
// Basic Congress
// ---------------------------------------------------------------------------

/// One-pass Basic Congress maintainer (Theorem 6.1): the union of a global
/// `y`-reservoir (the House part) and per-group reservoirs of quota
/// `⌈y/m⌉` (the Senate part). Snapshots rerun the Basic Congress
/// allocation over the exact maintained counts and subsample the union
/// pool down to the integer targets, so the published sample respects the
/// budget while every observed group keeps at least one tuple.
#[derive(Debug, Clone)]
pub struct BasicCongressMaintainer {
    y: usize,
    dir: GroupDirectory,
    global: Reservoir<(usize, usize)>,
    per_group: Vec<Reservoir<usize>>,
    seen: u64,
}

impl BasicCongressMaintainer {
    /// A maintainer with House/Senate halves of size `y` each.
    pub fn new(y: usize) -> BasicCongressMaintainer {
        BasicCongressMaintainer {
            y,
            dir: GroupDirectory::default(),
            global: Reservoir::new(y),
            per_group: Vec::new(),
            seen: 0,
        }
    }

    fn quota(&self) -> usize {
        self.y.div_ceil(self.dir.len().max(1)).max(1)
    }

    /// Theorem 6.1 delta-sample merge: absorb a maintainer that ran over a
    /// *disjoint* batch of tuples (e.g. one WAL group-commit). Counts add,
    /// the global House reservoirs merge uniformly over the union stream,
    /// and per-group Senate reservoirs merge at the recomputed quota — so
    /// `self` afterwards is distributed as if it had streamed the batch
    /// row by row, at O(sample) cost independent of the batch's size
    /// relative to the history.
    pub fn absorb<R: Rng + ?Sized>(&mut self, delta: BasicCongressMaintainer, rng: &mut R) {
        if delta.seen == 0 {
            return;
        }
        // Merge directories; remap delta group ids into self's id space.
        let mut remap = vec![0usize; delta.dir.len()];
        for (dg, key) in delta.dir.keys.iter().enumerate() {
            let g = match self.dir.index.get(key) {
                Some(&g) => {
                    self.dir.counts[g] += delta.dir.counts[dg];
                    g
                }
                None => {
                    let g = self.dir.keys.len();
                    self.dir.index.insert(key.clone(), g);
                    self.dir.keys.push(key.clone());
                    self.dir.counts.push(delta.dir.counts[dg]);
                    // Capacity fixed to the merged quota below.
                    self.per_group.push(Reservoir::new(0));
                    g
                }
            };
            remap[dg] = g;
        }
        // One quota over the merged group set, then merge per-group pools.
        let quota = self.quota();
        let mut merged_from_delta = vec![false; self.per_group.len()];
        for (dg, dres) in delta.per_group.iter().enumerate() {
            let g = remap[dg];
            let merged = Reservoir::merge_uniform(&self.per_group[g], dres, quota, rng);
            self.per_group[g] = merged;
            merged_from_delta[g] = true;
        }
        for (g, r) in self.per_group.iter_mut().enumerate() {
            if !merged_from_delta[g] {
                r.shrink(quota, rng);
            }
        }
        // Merge the House halves over the union stream, remapping the
        // delta's group ids carried inside its items.
        let delta_global = Reservoir {
            capacity: delta.global.capacity,
            seen: delta.global.seen,
            items: delta
                .global
                .items
                .iter()
                .map(|&(row, dg)| (row, remap[dg]))
                .collect(),
        };
        self.global = Reservoir::merge_uniform(&self.global, &delta_global, self.y, rng);
        self.seen += delta.seen;
    }
}

impl IncrementalMaintainer for BasicCongressMaintainer {
    fn insert<R: Rng + ?Sized>(&mut self, row: usize, key: &GroupKey, rng: &mut R) {
        let (g, new) = self.dir.observe(key);
        if new {
            let quota = self.quota();
            for r in &mut self.per_group {
                r.shrink(quota, rng);
            }
            self.per_group.push(Reservoir::new(quota));
        }
        self.global.offer((row, g), rng);
        self.per_group[g].offer(row, rng);
        self.seen += 1;
    }

    fn seen(&self) -> u64 {
        self.seen
    }

    fn sample_len(&self) -> usize {
        self.global.len() + self.per_group.iter().map(Reservoir::len).sum::<usize>()
    }

    fn snapshot<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<CongressionalSample> {
        if self.dir.len() == 0 {
            return self
                .dir
                .snapshot(Vec::new(), SamplingStrategy::BasicCongress);
        }
        let mut pools: Vec<Vec<usize>> =
            self.per_group.iter().map(|r| r.items().to_vec()).collect();
        for &(row, g) in self.global.items() {
            pools[g].push(row);
        }
        for group in &mut pools {
            group.sort_unstable();
            group.dedup();
        }
        // The union pool holds up to 2y tuples; the published sample must
        // respect the budget. Rerun the Basic Congress allocation over the
        // exact maintained counts and subsample each group's pool to its
        // integer target (a uniform subset of a uniform pool stays uniform
        // within the group). Every observed group keeps at least one tuple.
        let cols: Vec<ColumnId> = (0..self.dir.keys[0].len()).map(ColumnId).collect();
        let census =
            GroupCensus::from_counts(cols, self.dir.keys.clone(), self.dir.counts.clone())?;
        let alloc = BasicCongress.allocate(&census, self.y as f64)?;
        let targets = alloc.integer_counts(census.sizes());
        let rows: Vec<Vec<usize>> = pools
            .iter()
            .zip(&targets)
            .map(|(pool, &t)| crate::sample::sample_without_replacement(pool, t.max(1), rng))
            .collect();
        self.dir.snapshot(rows, SamplingStrategy::BasicCongress)
    }
}

// ---------------------------------------------------------------------------
// Congress with Eq-8 probabilistic eviction (§6 streaming maintenance)
// ---------------------------------------------------------------------------

/// The §6 streaming maintainer of full Congress: instead of one
/// budget-sized reservoir per group (`O(m·X)` memory), hold exactly the
/// sample itself and run the Eq-8 probability scheme *in place*.
///
/// Every held tuple is tagged with the retention probability `q` it
/// currently enjoys. New tuples are admitted by a Bernoulli draw at their
/// group's current Eq-8 probability. As ingest grows the groups, the Eq-8
/// targets decay; a periodic **rebalance** recomputes them from the exact
/// counts and evicts each held tuple with probability `1 − p′/q` whenever
/// its target dropped to `p′ < q` — afterwards the tuple's inclusion
/// probability is exactly `p′`. (Targets can also *rise* for a group when
/// others grow; already-rejected tuples cannot be resurrected, so a
/// tuple's effective probability is the minimum target since its arrival —
/// the standard one-pass concession, bounded and measured in tests.)
///
/// Memory stays `O(X)` plus the churn between rebalances, so sustained
/// streaming ingest maintains the synopsis in place instead of forcing
/// full rebuilds.
#[derive(Debug, Clone)]
pub struct CongressEvictionMaintainer {
    attrs: usize,
    budget: f64,
    dir: GroupDirectory,
    /// Per group: held `(row, retention probability)` pairs.
    members: Vec<Vec<(usize, f64)>>,
    /// Admission probability per group: the Eq-8 target from the last
    /// rebalance, `1.0` for groups first seen after it.
    probs: Vec<f64>,
    seen: u64,
    evictions: u64,
    rebalances: u64,
    inserts_since_rebalance: u64,
    min_rebalance_interval: u64,
}

impl CongressEvictionMaintainer {
    /// A maintainer over `attrs` grouping attributes with tuple budget `y`.
    pub fn new(attrs: usize, y: f64) -> CongressEvictionMaintainer {
        CongressEvictionMaintainer {
            attrs,
            budget: y.max(1.0),
            dir: GroupDirectory::default(),
            members: Vec::new(),
            probs: Vec::new(),
            seen: 0,
            evictions: 0,
            rebalances: 0,
            inserts_since_rebalance: 0,
            min_rebalance_interval: 1024,
        }
    }

    /// Total tuples evicted by rebalances so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// How many Eq-8 rebalances have run.
    pub fn rebalances(&self) -> u64 {
        self.rebalances
    }

    fn census(&self) -> Result<GroupCensus> {
        // Placeholder column ids: the maintainer never saw the schema, only
        // the keys. Callers attach real columns via set_grouping_columns.
        let cols: Vec<ColumnId> = (0..self.attrs).map(ColumnId).collect();
        GroupCensus::from_counts(cols, self.dir.keys.clone(), self.dir.counts.clone())
    }

    /// Recompute the Eq-8 targets from the exact counts and down-sample
    /// every group whose target dropped, so each survivor's retention
    /// probability tracks its current target exactly.
    pub fn rebalance<R: Rng + ?Sized>(&mut self, rng: &mut R) -> Result<()> {
        if self.dir.len() == 0 {
            return Ok(());
        }
        let census = self.census()?;
        let targets = per_tuple_probabilities(&census, self.budget)?;
        for (g, members) in self.members.iter_mut().enumerate() {
            let p_new = targets[g].min(1.0);
            self.probs[g] = p_new;
            let before = members.len();
            members.retain_mut(|(_, q)| {
                if *q > p_new {
                    if rng.gen_bool((p_new / *q).clamp(0.0, 1.0)) {
                        *q = p_new;
                        true
                    } else {
                        false
                    }
                } else {
                    true
                }
            });
            self.evictions += (before - members.len()) as u64;
        }
        self.rebalances += 1;
        self.inserts_since_rebalance = 0;
        Ok(())
    }

    /// Amortized rebalance policy: geometric backoff (total rebalance work
    /// stays `O(sample · log n)` over any stream) with a hard memory guard
    /// when admissions at stale probabilities overshoot the budget.
    fn should_rebalance(&self) -> bool {
        let interval = self.min_rebalance_interval.max(self.seen / 4);
        self.inserts_since_rebalance >= interval
            || self.sample_len() as f64 > 2.0 * self.budget + self.min_rebalance_interval as f64
    }
}

impl IncrementalMaintainer for CongressEvictionMaintainer {
    fn insert<R: Rng + ?Sized>(&mut self, row: usize, key: &GroupKey, rng: &mut R) {
        let (g, new) = self.dir.observe(key);
        if new {
            self.members.push(Vec::new());
            self.probs.push(1.0);
        }
        let p = self.probs[g].min(1.0);
        if p >= 1.0 || rng.gen_bool(p) {
            self.members[g].push((row, p));
        }
        self.seen += 1;
        self.inserts_since_rebalance += 1;
        if self.should_rebalance() {
            // Counts are exact, budget positive: the census/targets cannot
            // fail here. Skipping a rebalance on error is still safe — the
            // next insert retries.
            let _ = self.rebalance(rng);
        }
    }

    fn seen(&self) -> u64 {
        self.seen
    }

    fn sample_len(&self) -> usize {
        self.members.iter().map(Vec::len).sum()
    }

    fn snapshot<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<CongressionalSample> {
        if self.dir.len() == 0 {
            return self.dir.snapshot(Vec::new(), SamplingStrategy::Congress);
        }
        // Publish against the Eq-5 allocation over the exact counts:
        // subsample each group's held pool down to its integer target (held
        // pools are uniform within the group at known probability, so a
        // uniform subset stays uniform).
        let census = self.census()?;
        let alloc = Congress.allocate(&census, self.budget)?;
        let targets = alloc.integer_counts(census.sizes());
        let rows: Vec<Vec<usize>> = self
            .members
            .iter()
            .zip(&targets)
            .map(|(pool, &t)| {
                let rows_only: Vec<usize> = pool.iter().map(|&(row, _)| row).collect();
                crate::sample::sample_without_replacement(&rows_only, t.min(rows_only.len()), rng)
            })
            .collect();
        self.dir.snapshot(rows, SamplingStrategy::Congress)
    }
}

// ---------------------------------------------------------------------------
// One maintainer per strategy
// ---------------------------------------------------------------------------

/// The one-pass maintainer of each strategy. Full Congress runs the
/// bounded-memory Eq-8 probabilistic-eviction maintainer, so sustained
/// streaming ingest stays O(sample); Basic Congress also merges delta
/// samples ([`BasicCongressMaintainer::absorb`]).
#[derive(Debug, Clone)]
pub enum Maintainer {
    /// Uniform sampling.
    House(HouseMaintainer),
    /// Equal per-group allocation.
    Senate(SenateMaintainer),
    /// House ∪ Senate union (Theorem 6.1).
    BasicCongress(BasicCongressMaintainer),
    /// Full Eq-5/Eq-8 Congress.
    Congress(CongressEvictionMaintainer),
}

impl Maintainer {
    /// `strategy`'s maintainer for a budget of `space` tuples over `attrs`
    /// grouping attributes.
    pub fn new(strategy: SamplingStrategy, space: usize, attrs: usize) -> Maintainer {
        match strategy {
            SamplingStrategy::House => Maintainer::House(HouseMaintainer::new(space)),
            SamplingStrategy::Senate => Maintainer::Senate(SenateMaintainer::new(space)),
            SamplingStrategy::BasicCongress => {
                Maintainer::BasicCongress(BasicCongressMaintainer::new(space))
            }
            SamplingStrategy::Congress => {
                Maintainer::Congress(CongressEvictionMaintainer::new(attrs, space as f64))
            }
        }
    }

    /// Tuples evicted by Eq-8 rebalances (full Congress only).
    pub fn evictions(&self) -> u64 {
        match self {
            Maintainer::Congress(m) => m.evictions(),
            _ => 0,
        }
    }
}

/// `$body` with `$m` bound to whichever maintainer `$maintainer` holds.
macro_rules! each {
    ($maintainer:expr, $m:ident => $body:expr) => {
        match $maintainer {
            Maintainer::House($m) => $body,
            Maintainer::Senate($m) => $body,
            Maintainer::BasicCongress($m) => $body,
            Maintainer::Congress($m) => $body,
        }
    };
}

impl IncrementalMaintainer for Maintainer {
    fn insert<R: Rng + ?Sized>(&mut self, row: usize, key: &GroupKey, rng: &mut R) {
        each!(self, m => m.insert(row, key, rng))
    }

    fn seen(&self) -> u64 {
        each!(self, m => m.seen())
    }

    fn sample_len(&self) -> usize {
        each!(self, m => m.sample_len())
    }

    fn snapshot<R: Rng + ?Sized>(&self, rng: &mut R) -> Result<CongressionalSample> {
        each!(self, m => m.snapshot(rng))
    }
}

/// Build a sample in a single pass over `rel` without a precomputed
/// census, streaming every row through `strategy`'s [`Maintainer`].
pub fn construct_one_pass<R: Rng + ?Sized>(
    rel: &Relation,
    cols: &[ColumnId],
    strategy: SamplingStrategy,
    space: usize,
    rng: &mut R,
) -> Result<CongressionalSample> {
    if rel.row_count() == 0 {
        return Err(CongressError::EmptyRelation);
    }
    let mut m = Maintainer::new(strategy, space, cols.len());
    for row in 0..rel.row_count() {
        m.insert(row, &GroupKey::from_row(rel, row, cols), rng);
    }
    let mut sample = m.snapshot(rng)?;
    sample.set_grouping_columns(cols.to_vec());
    Ok(sample)
}

/// The §4.6 "shared lattice walk" Congress variant: compute every tuple's
/// Eq-8 inclusion probability (one walk over the grouping lattice, shared
/// by all tuples of a finest group) and take a single Bernoulli pass over
/// the relation.
pub fn construct_congress_shared<R: Rng + ?Sized>(
    rel: &Relation,
    census: &GroupCensus,
    space: f64,
    rng: &mut R,
) -> Result<CongressionalSample> {
    let probs = per_tuple_probabilities(census, space)?;
    let group_of_row = census.group_of_row().ok_or_else(|| {
        CongressError::CensusMismatch("census was built from counts, not rows".into())
    })?;
    if group_of_row.len() != rel.row_count() {
        return Err(CongressError::CensusMismatch(format!(
            "census covers {} rows, relation has {}",
            group_of_row.len(),
            rel.row_count()
        )));
    }
    let mut rows: Vec<Vec<usize>> = vec![Vec::new(); census.group_count()];
    for (r, &g) in group_of_row.iter().enumerate() {
        if rng.gen_bool(probs[g as usize].min(1.0)) {
            rows[g as usize].push(r);
        }
    }
    CongressionalSample::from_parts(
        census.grouping_columns().to_vec(),
        census.keys().to_vec(),
        census.sizes().to_vec(),
        rows,
        "Congress",
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use relation::Value;

    fn key(g: i64) -> GroupKey {
        GroupKey::new(vec![Value::Int(g)])
    }

    #[test]
    fn reservoir_holds_min_seen_capacity() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut r = Reservoir::new(10);
        for i in 0..5usize {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.len(), 5);
        for i in 5..100usize {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.len(), 10);
        assert_eq!(r.seen(), 100);
        let mut items = r.items().to_vec();
        items.sort_unstable();
        items.dedup();
        assert_eq!(items.len(), 10);
    }

    #[test]
    fn reservoir_is_roughly_uniform() {
        // Each of 100 items should land in a 10-slot reservoir ~10% of the
        // time across trials.
        let mut hits = vec![0u32; 100];
        for seed in 0..400 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut r = Reservoir::new(10);
            for i in 0..100usize {
                r.offer(i, &mut rng);
            }
            for &i in r.items() {
                hits[i] += 1;
            }
        }
        for (i, &h) in hits.iter().enumerate() {
            assert!((10..=90).contains(&h), "item {i} selected {h}/400 times");
        }
    }

    #[test]
    fn reservoir_shrink_preserves_subset() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut r = Reservoir::new(20);
        for i in 0..50usize {
            r.offer(i, &mut rng);
        }
        r.shrink(5, &mut rng);
        assert_eq!(r.len(), 5);
        assert_eq!(r.capacity(), 5);
        for i in 50..200usize {
            r.offer(i, &mut rng);
        }
        assert_eq!(r.len(), 5);
    }

    #[test]
    fn house_snapshot_covers_all_groups_with_exact_sizes() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut m = HouseMaintainer::new(3);
        for row in 0..30usize {
            m.insert(row, &key((row % 5) as i64), &mut rng);
        }
        let s = m.snapshot(&mut rng).unwrap();
        assert_eq!(s.stratum_count(), 5);
        assert_eq!(s.group_sizes(), &[6, 6, 6, 6, 6]);
        assert_eq!(s.total_sampled(), 3);
    }

    #[test]
    fn senate_quota_shrinks_as_groups_arrive() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut m = SenateMaintainer::new(12);
        // 6 groups → quota 2 each.
        for row in 0..600usize {
            m.insert(row, &key((row % 6) as i64), &mut rng);
        }
        let s = m.snapshot(&mut rng).unwrap();
        for rows in s.sampled_rows() {
            assert_eq!(rows.len(), 2);
        }
    }

    #[test]
    fn merge_uniform_is_roughly_uniform_over_union() {
        // 60 items via A (uniform 10-reservoir over 0..30) and 30 more via
        // B (full pool 30..60): every item should survive the merge with
        // roughly equal frequency.
        let mut hits = vec![0u32; 60];
        for seed in 0..600 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut a = Reservoir::new(10);
            for i in 0..30usize {
                a.offer(i, &mut rng);
            }
            let mut b = Reservoir::new(30);
            for i in 30..60usize {
                b.offer(i, &mut rng);
            }
            let m = Reservoir::merge_uniform(&a, &b, 12, &mut rng);
            assert_eq!(m.len(), 12);
            assert_eq!(m.seen(), 60);
            for &i in m.items() {
                hits[i] += 1;
            }
        }
        // Expected 600·12/60 = 120 hits each; allow a generous band.
        for (i, &h) in hits.iter().enumerate() {
            assert!((50..=220).contains(&h), "item {i} hit {h}/600");
        }
    }

    #[test]
    fn basic_congress_absorb_matches_streaming_shape() {
        // Stream 0..900 directly vs 0..600 + absorb(600..900): same group
        // counts, same per-group pool sizes, budget respected.
        let mut rng = StdRng::seed_from_u64(11);
        let mut direct = BasicCongressMaintainer::new(24);
        for row in 0..900usize {
            direct.insert(row, &key((row % 6) as i64), &mut rng);
        }
        let mut main = BasicCongressMaintainer::new(24);
        for row in 0..600usize {
            main.insert(row, &key((row % 6) as i64), &mut rng);
        }
        let mut delta = BasicCongressMaintainer::new(24);
        for row in 600..900usize {
            // Two familiar groups plus one brand-new group 7.
            let g = if row % 3 == 0 { 7 } else { (row % 2) as i64 };
            delta.insert(row, &key(g), &mut rng);
        }
        main.absorb(delta, &mut rng);
        assert_eq!(main.seen(), direct.seen());
        let s = main.snapshot(&mut rng).unwrap();
        assert_eq!(s.stratum_count(), 7); // 6 original + the new group
        assert!(s.total_sampled() <= 24 + 7, "total {}", s.total_sampled());
        // Exact counts survive the merge.
        let total: u64 = s.group_sizes().iter().sum();
        assert_eq!(total, 900);
    }

    #[test]
    fn absorb_into_empty_adopts_delta() {
        let mut rng = StdRng::seed_from_u64(13);
        let mut main = BasicCongressMaintainer::new(10);
        let mut delta = BasicCongressMaintainer::new(10);
        for row in 0..50usize {
            delta.insert(row, &key((row % 2) as i64), &mut rng);
        }
        main.absorb(delta, &mut rng);
        assert_eq!(main.seen(), 50);
        let s = main.snapshot(&mut rng).unwrap();
        assert_eq!(s.stratum_count(), 2);
        assert_eq!(s.group_sizes(), &[25, 25]);
    }

    #[test]
    fn eviction_maintainer_bounds_memory_and_budget() {
        let mut rng = StdRng::seed_from_u64(17);
        let mut m = CongressEvictionMaintainer::new(1, 50.0);
        for row in 0..20_000usize {
            m.insert(row, &key((row % 4) as i64), &mut rng);
        }
        // Memory guard: the held pool stays O(budget), never O(stream).
        assert!(
            m.sample_len() as f64 <= 2.0 * 50.0 + 1024.0 + 4.0,
            "pool {}",
            m.sample_len()
        );
        m.rebalance(&mut rng).unwrap();
        assert!(m.rebalances() >= 1);
        assert!(m.evictions() > 0, "long stream must evict");
        let s = m.snapshot(&mut rng).unwrap();
        assert_eq!(s.stratum_count(), 4);
        assert_eq!(s.group_sizes().iter().sum::<u64>(), 20_000);
        let total = s.total_sampled();
        assert!((40..=55).contains(&total), "total {total}");
    }

    #[test]
    fn eviction_maintainer_tracks_retention_probabilities() {
        // After a forced rebalance every held tuple's tag must equal its
        // group's current Eq-8 target (no tuple may retain a stale higher
        // probability).
        let mut rng = StdRng::seed_from_u64(19);
        let mut m = CongressEvictionMaintainer::new(1, 40.0);
        for row in 0..5_000usize {
            m.insert(row, &key((row % 3) as i64), &mut rng);
        }
        m.rebalance(&mut rng).unwrap();
        let census = m.census().unwrap();
        let targets = per_tuple_probabilities(&census, 40.0).unwrap();
        for (g, members) in m.members.iter().enumerate() {
            let p = targets[g].min(1.0);
            for &(_, q) in members {
                assert!(q <= p + 1e-12, "group {g}: tag {q} above target {p}");
            }
        }
    }

    #[test]
    fn one_pass_and_census_samples_share_strategy_names() {
        let rel = crate::census::test_support::figure5_relation(10);
        let cols = rel.schema().column_ids(&["A", "B"]).unwrap();
        let census = GroupCensus::build(&rel, &cols).unwrap();
        for strategy in SamplingStrategy::all() {
            let mut rng = StdRng::seed_from_u64(1);
            let one_pass = construct_one_pass(&rel, &cols, strategy, 100, &mut rng).unwrap();
            let spec = crate::seed::SeedSpec::new(1);
            let drawn =
                CongressionalSample::draw_par(&rel, &census, strategy.allocator(), 100.0, &spec)
                    .unwrap();
            assert_eq!(one_pass.strategy_name(), drawn.strategy_name());
            assert_eq!(one_pass.strategy_name(), strategy.name());
        }
    }

    #[test]
    fn congress_snapshot_total_respects_budget() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut m = Maintainer::new(SamplingStrategy::Congress, 50, 1);
        for row in 0..2_000usize {
            m.insert(row, &key((row % 4) as i64), &mut rng);
        }
        let s = m.snapshot(&mut rng).unwrap();
        assert_eq!(s.stratum_count(), 4);
        let total = s.total_sampled();
        assert!((45..=55).contains(&total), "total {total}");
    }
}
