//! The synopsis: a maintained biased sample plus its physical query plan.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use congress::build::{
    BasicCongressMaintainer, CongressEvictionMaintainer, HouseMaintainer, IncrementalMaintainer,
    SenateMaintainer,
};
use congress::{AllocationStrategy, CongressionalSample, GroupCensus, SeedSpec};
use engine::rewrite::{Integrated, KeyNormalized, NestedIntegrated, Normalized, SamplePlan};
use engine::{PlanCache, QueryCache, StratifiedInput};
use relation::{ColumnId, GroupKey, Relation};

use crate::config::{AquaConfig, RewriteChoice, SamplingStrategy};
use crate::error::Result;
use crate::serve_cache::AnswerCache;

/// Maintainer dispatch over the four strategies. Basic Congress streams
/// each ingest batch into a private delta maintainer and merges it
/// (Theorem 6.1); full Congress runs the bounded-memory Eq-8
/// probabilistic-eviction maintainer — both keep sustained streaming
/// ingest O(sample) instead of forcing full rebuilds.
#[derive(Debug, Clone)]
enum Maintainer {
    House(HouseMaintainer),
    Senate(SenateMaintainer),
    Basic(BasicCongressMaintainer),
    Congress(CongressEvictionMaintainer),
}

impl Maintainer {
    fn new(strategy: SamplingStrategy, space: usize, attrs: usize) -> Maintainer {
        match strategy {
            SamplingStrategy::House => Maintainer::House(HouseMaintainer::new(space)),
            SamplingStrategy::Senate => Maintainer::Senate(SenateMaintainer::new(space)),
            SamplingStrategy::BasicCongress => {
                Maintainer::Basic(BasicCongressMaintainer::new(space))
            }
            SamplingStrategy::Congress => {
                Maintainer::Congress(CongressEvictionMaintainer::new(attrs, space as f64))
            }
        }
    }

    fn insert(&mut self, row: usize, key: &GroupKey, rng: &mut StdRng) {
        match self {
            Maintainer::House(m) => m.insert(row, key, rng),
            Maintainer::Senate(m) => m.insert(row, key, rng),
            Maintainer::Basic(m) => m.insert(row, key, rng),
            Maintainer::Congress(m) => m.insert(row, key, rng),
        }
    }

    fn snapshot(&self, rng: &mut StdRng) -> Result<CongressionalSample> {
        Ok(match self {
            Maintainer::House(m) => m.snapshot(rng)?,
            Maintainer::Senate(m) => m.snapshot(rng)?,
            Maintainer::Basic(m) => m.snapshot(rng)?,
            Maintainer::Congress(m) => m.snapshot(rng)?,
        })
    }

    /// Tuples evicted by Eq-8 rebalances (full Congress only).
    fn evictions(&self) -> u64 {
        match self {
            Maintainer::Congress(m) => m.evictions(),
            _ => 0,
        }
    }
}

/// A maintained synopsis of one relation: the incremental sampler, the
/// latest materialized sample, and the physical plan answering queries.
pub struct Synopsis {
    config: AquaConfig,
    grouping: Vec<ColumnId>,
    maintainer: Maintainer,
    rng: StdRng,
    /// Plan rebuilt lazily after insertions.
    plan: Option<Box<dyn SamplePlan + Send + Sync>>,
    /// The stratified input backing `plan` (needed for error bounds).
    input: Option<StratifiedInput>,
    /// The materialized sample backing `plan` — whichever path built it
    /// (incremental refresh or bulk parallel rebuild), so export always
    /// ships exactly what the plan answers from.
    sample: Option<CongressionalSample>,
    sample_rows: usize,
    stale: bool,
    /// Memoized query-serving state (group indexes, stratum layout, per-row
    /// weights) for the *current* plan generation. Invalidated whenever the
    /// backing sample changes.
    cache: QueryCache,
    /// Normalized SQL → parsed + rewritten plan, so repeated dashboard
    /// queries skip tokenize/parse/render entirely. Schema-scoped, not
    /// generation-scoped: plans survive ingest/refresh (see
    /// [`Self::invalidate_caches`] for why that is sound).
    plan_cache: PlanCache,
    /// Normalized SQL → complete served answer for the current synopsis
    /// generation. Invalidated on the same schedule as `cache`.
    answer_cache: AnswerCache,
    /// Maintenance counters and build-phase timings: the owning
    /// [`Aqua`](crate::Aqua)'s registry, or one of its own.
    registry: Arc<obs::Registry>,
}

impl std::fmt::Debug for Synopsis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Synopsis")
            .field("strategy", &self.config.strategy.name())
            .field("rewrite", &self.config.rewrite.name())
            .field("sample_rows", &self.sample_rows)
            .field("stale", &self.stale)
            .finish()
    }
}

impl Synopsis {
    /// Create an empty synopsis; feed it the relation via [`Self::ingest`].
    pub fn new(config: AquaConfig, grouping: Vec<ColumnId>) -> Result<Synopsis> {
        Synopsis::new_in(config, grouping, Arc::new(obs::Registry::new()))
    }

    /// [`Self::new`], recording into `registry` (its owning system's).
    pub(crate) fn new_in(
        config: AquaConfig,
        grouping: Vec<ColumnId>,
        registry: Arc<obs::Registry>,
    ) -> Result<Synopsis> {
        config.validate()?;
        Ok(Synopsis {
            maintainer: Maintainer::new(config.strategy, config.space, grouping.len()),
            rng: StdRng::seed_from_u64(config.seed),
            config,
            grouping,
            plan: None,
            input: None,
            sample: None,
            sample_rows: 0,
            stale: true,
            cache: QueryCache::new(),
            plan_cache: PlanCache::new(),
            answer_cache: AnswerCache::new(),
            registry,
        })
    }

    /// Build the configured physical rewrite plan over `input`.
    fn build_plan(
        rewrite: RewriteChoice,
        input: &StratifiedInput,
    ) -> Result<Box<dyn SamplePlan + Send + Sync>> {
        Ok(match rewrite {
            RewriteChoice::Integrated => Box::new(Integrated::build(input)?),
            RewriteChoice::NestedIntegrated => Box::new(NestedIntegrated::build(input)?),
            RewriteChoice::Normalized => Box::new(Normalized::build(input)?),
            RewriteChoice::KeyNormalized => Box::new(KeyNormalized::build(input)?),
        })
    }

    /// Stream rows `[first_row, first_row + rel rows)` of the warehouse
    /// table through the maintainer. Row ids must be global (offsets into
    /// the full stored table), so insertions keep extending the id space.
    pub fn ingest(&mut self, rel: &Relation, first_row: usize) -> Result<()> {
        let evictions_before = self.maintainer.evictions();
        self.stream(rel, first_row);
        if matches!(self.maintainer, Maintainer::Basic(_)) {
            self.registry.counter("synopsis_delta_merges_total").inc();
        }
        let evicted = self.maintainer.evictions() - evictions_before;
        if evicted > 0 {
            self.registry
                .counter("synopsis_evictions_total")
                .add(evicted);
        }
        self.stale = true;
        self.invalidate_caches();
        self.registry.counter("synopsis_ingests_total").inc();
        self.registry
            .counter("synopsis_ingested_rows_total")
            .add(rel.row_count() as u64);
        Ok(())
    }

    /// The maintainer half of [`Self::ingest`]: every row of `rel`, as row
    /// `first_row + r` of the stored table, into the sampler state.
    fn stream(&mut self, rel: &Relation, first_row: usize) {
        let key = |r| GroupKey::from_row(rel, r, &self.grouping);
        match &mut self.maintainer {
            // Theorem 6.1 delta samples: stream the batch into a private
            // delta maintainer, then merge it into the history in one
            // O(sample) step — the batch never re-touches old reservoirs
            // row by row.
            Maintainer::Basic(m) => {
                let mut delta = BasicCongressMaintainer::new(self.config.space);
                for r in 0..rel.row_count() {
                    delta.insert(first_row + r, &key(r), &mut self.rng);
                }
                m.absorb(delta, &mut self.rng);
            }
            m => {
                for r in 0..rel.row_count() {
                    m.insert(first_row + r, &key(r), &mut self.rng);
                }
            }
        }
    }

    /// `sample` over `table` as the plan's stratified input: House is
    /// scaled as a plain uniform sample (Figure 2's 100×), the others
    /// post-stratified.
    fn input_of(&self, sample: &CongressionalSample, table: &Relation) -> Result<StratifiedInput> {
        Ok(match self.config.strategy {
            SamplingStrategy::House => sample.to_stratified_input_uniform(table)?,
            _ => sample.to_stratified_input(table)?,
        })
    }

    /// Answer from `sample` (backed by `input`) from now on.
    fn install(&mut self, sample: CongressionalSample, input: StratifiedInput) -> Result<()> {
        self.plan = Some(Self::build_plan(self.config.rewrite, &input)?);
        self.sample_rows = input.rows.row_count();
        self.input = Some(input);
        self.sample = Some(sample);
        self.stale = false;
        self.registry
            .gauge("synopsis_sample_rows")
            .set(self.sample_rows as i64);
        Ok(())
    }

    /// Rebuild the physical plan from the maintainer's current sample.
    /// `table` must be the full stored relation (all ingested segments).
    pub fn refresh(&mut self, table: &Relation) -> Result<()> {
        let timer = obs::Timer::start();
        let mut sample = self.maintainer.snapshot(&mut self.rng)?;
        sample.set_grouping_columns(self.grouping.clone());
        let input = self.input_of(&sample, table)?;
        self.install(sample, input)?;
        self.invalidate_caches();
        self.registry.counter("synopsis_refreshes_total").inc();
        self.registry
            .histogram("synopsis_refresh_us")
            .record(timer.elapsed_us());
        Ok(())
    }

    /// Rebuild the synopsis *in bulk* from the full stored table: parallel
    /// census ([`GroupCensus::par_build`]), allocation, and per-stratum
    /// draws ([`CongressionalSample::draw_par`]), all seeded from
    /// `config.seed` via [`SeedSpec`]. Runs on `config.parallelism`
    /// threads and produces the identical synopsis for *any* thread count
    /// — per-group RNG streams depend only on (seed, group key).
    ///
    /// Unlike [`Self::refresh`], which materializes the incremental
    /// maintainer's reservoir state, this recomputes the sample from
    /// scratch; the maintainer keeps tracking the stream for future
    /// incremental refreshes.
    pub fn rebuild_bulk(&mut self, table: &Relation) -> Result<()> {
        self.rebuild_bulk_with(table, None)
    }

    /// [`Self::rebuild_bulk`] with an optional allocation-strategy
    /// override — the reallocation path of the adaptive tuner: census and
    /// draws run exactly as in a static rebuild (same parallel pipeline,
    /// same deterministic seeding), only the per-group targets come from
    /// the supplied strategy (e.g. the profile-recomputed multi-criteria
    /// weights) instead of the configured one.
    pub fn rebuild_bulk_with(
        &mut self,
        table: &Relation,
        strategy_override: Option<&dyn AllocationStrategy>,
    ) -> Result<()> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(self.config.effective_parallelism())
            .build()
            .expect("thread pool construction is infallible in this facade");
        let total = obs::Timer::start();
        let registry = Arc::clone(&self.registry);
        let (sample, input) = pool.install(|| -> Result<_> {
            // The three build phases are timed separately; the sequence
            // `allocate` → `draw_with_allocation_par` is exactly what
            // `CongressionalSample::draw_par` runs, so the sample is
            // unchanged by the instrumentation split.
            let timer = obs::Timer::start();
            let census = GroupCensus::par_build(table, &self.grouping)?;
            registry
                .histogram("synopsis_build_census_us")
                .record(timer.elapsed_us());
            let spec = SeedSpec::new(self.config.seed);
            let configured: &dyn AllocationStrategy = match self.config.strategy {
                SamplingStrategy::House => &congress::alloc::House,
                SamplingStrategy::Senate => &congress::alloc::Senate,
                SamplingStrategy::BasicCongress => &congress::alloc::BasicCongress,
                SamplingStrategy::Congress => &congress::alloc::Congress,
            };
            let strategy = strategy_override.unwrap_or(configured);
            let timer = obs::Timer::start();
            let allocation = strategy.allocate(&census, self.config.space as f64)?;
            registry
                .histogram("synopsis_build_alloc_us")
                .record(timer.elapsed_us());
            let timer = obs::Timer::start();
            let sample = CongressionalSample::draw_with_allocation_par(
                table,
                &census,
                &allocation,
                strategy.name(),
                &spec,
            )?;
            let input = self.input_of(&sample, table)?;
            registry
                .histogram("synopsis_build_draw_us")
                .record(timer.elapsed_us());
            Ok((sample, input))
        })?;
        self.install(sample, input)?;
        self.invalidate_caches();
        self.registry.counter("synopsis_rebuilds_total").inc();
        if strategy_override.is_some() {
            self.registry
                .counter("synopsis_adaptive_rebuilds_total")
                .inc();
        }
        self.registry
            .histogram("synopsis_rebuild_us")
            .record(total.elapsed_us());
        Ok(())
    }

    /// Invalidate the generation-scoped serving caches in one breath —
    /// query cache and answer cache. Runs on each mutation of the backing
    /// sample (`ingest`, `refresh`, `rebuild_bulk`), always under the
    /// owning system's write lock, so readers holding the read lock never
    /// observe a half-invalidated state.
    ///
    /// The **plan cache deliberately survives**: a cached plan is a pure
    /// function of the table schema, the rewrite choice, and the
    /// normalized SQL — all fixed for the lifetime of a built system —
    /// while the data a generation change affects is only consulted at
    /// execution time. Keeping plans across ingest is exactly where the
    /// cache earns its keep: in a write-heavy workload every repeat query
    /// after every batch still skips tokenize/parse/render and pays only
    /// the execution it genuinely owes.
    fn invalidate_caches(&self) {
        self.cache.invalidate();
        self.answer_cache.invalidate();
    }

    /// Whether [`Self::refresh`] must run before answering.
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// The active physical plan (after a refresh).
    pub fn plan(&self) -> Option<&(dyn SamplePlan + Send + Sync)> {
        self.plan.as_deref()
    }

    /// The stratified input backing the plan (after a refresh).
    pub fn input(&self) -> Option<&StratifiedInput> {
        self.input.as_ref()
    }

    /// The memoized query-serving cache for the current plan generation:
    /// group indexes, the stratum sort, cell layouts and moment cells.
    /// Every mutation of the backing sample invalidates the whole cache, so
    /// no answer outlives the sample generation it was folded from.
    pub fn query_cache(&self) -> &QueryCache {
        &self.cache
    }

    /// The plan cache (normalized SQL → parsed + rewritten plan) for the
    /// current synopsis generation; invalidated with [`Self::query_cache`].
    pub fn plan_cache(&self) -> &PlanCache {
        &self.plan_cache
    }

    /// The answer cache (normalized SQL → complete served answer) for the
    /// current synopsis generation; invalidated with [`Self::query_cache`].
    pub fn answer_cache(&self) -> &AnswerCache {
        &self.answer_cache
    }

    /// The metric registry the maintenance counters (`synopsis_*`)
    /// accumulate in — the owning [`Aqua`](crate::Aqua)'s, if any.
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
    }

    /// Sampled tuples in the materialized synopsis.
    pub fn sample_rows(&self) -> usize {
        self.sample_rows
    }

    /// The configuration in force.
    pub fn config(&self) -> &AquaConfig {
        &self.config
    }

    /// The grouping columns this synopsis stratifies on.
    pub fn grouping(&self) -> &[ColumnId] {
        &self.grouping
    }

    /// The materialized sample backing the plan (after a refresh or bulk
    /// rebuild).
    pub fn sample(&self) -> Option<&CongressionalSample> {
        self.sample.as_ref()
    }

    /// The *applied* per-group allocation: sampled tuples per finest group
    /// in the materialized sample, keyed by group key. This is the
    /// "allocated" side the drift detector compares the observed workload
    /// against. Empty before the first refresh/rebuild.
    pub fn applied_allocation(&self) -> std::collections::HashMap<GroupKey, f64> {
        match &self.sample {
            Some(s) => s
                .strata_keys()
                .iter()
                .cloned()
                .zip(s.sampled_rows().iter().map(|rows| rows.len() as f64))
                .collect(),
            None => std::collections::HashMap::new(),
        }
    }

    /// Export the current materialized sample in the compact binary
    /// snapshot format (synopses are durable in Aqua — "stored as regular
    /// relations in the DBMS"). Encodes exactly the sample the active plan
    /// answers from, refreshing first if stale.
    pub fn export(&mut self, table: &Relation) -> Result<bytes::Bytes> {
        if self.stale || self.sample.is_none() {
            self.refresh(table)?;
        }
        let sample = self.sample.as_ref().expect("refresh stored the sample");
        Ok(congress::snapshot::encode(sample))
    }

    /// Rebuild a synopsis from a snapshot exported over `table`. It answers
    /// from the snapshot's sample, and `table` is streamed through a fresh
    /// maintainer without marking it stale, so the first later insert
    /// refreshes to a sample of the whole table, not of the new rows alone.
    pub(crate) fn import(
        config: AquaConfig,
        table: &Relation,
        snapshot: bytes::Bytes,
        registry: Arc<obs::Registry>,
    ) -> Result<Synopsis> {
        let sample = congress::snapshot::decode(snapshot)?;
        let grouping = sample.grouping_columns().to_vec();
        let mut syn = Synopsis::new_in(config, grouping, registry)?;
        let input = syn.input_of(&sample, table)?;
        syn.install(sample, input)?;
        syn.stream(table, 0);
        syn.registry.counter("synopsis_imports_total").inc();
        Ok(syn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{DataType, RelationBuilder, Value};

    fn table(n: i64) -> Relation {
        let mut b = RelationBuilder::new()
            .column("g", DataType::Str)
            .column("v", DataType::Float);
        for i in 0..n {
            let g = if i % 5 == 0 { "rare" } else { "common" };
            b.push_row(&[Value::str(g), Value::from(i as f64)]).unwrap();
        }
        b.finish()
    }

    fn registry() -> Arc<obs::Registry> {
        Arc::new(obs::Registry::new())
    }

    fn config(strategy: SamplingStrategy) -> AquaConfig {
        AquaConfig {
            space: 50,
            strategy,
            rewrite: RewriteChoice::Integrated,
            confidence: 0.9,
            seed: 99,
            parallelism: 0,
        }
    }

    #[test]
    fn ingest_refresh_cycle() {
        let t = table(1000);
        let grouping = vec![ColumnId(0)];
        for strategy in SamplingStrategy::all() {
            let mut s = Synopsis::new(config(strategy), grouping.clone()).unwrap();
            assert!(s.is_stale());
            s.ingest(&t, 0).unwrap();
            s.refresh(&t).unwrap();
            assert!(!s.is_stale());
            assert!(s.plan().is_some());
            assert!(s.input().is_some());
            assert!(
                s.sample_rows() > 0 && s.sample_rows() <= 80,
                "{}: {}",
                strategy.name(),
                s.sample_rows()
            );
        }
    }

    #[test]
    fn incremental_ingest_extends_row_space() {
        let t = table(1000);
        let head = t.gather(&(0..600).collect::<Vec<_>>());
        let tail = t.gather(&(600..1000).collect::<Vec<_>>());
        let mut s = Synopsis::new(config(SamplingStrategy::Congress), vec![ColumnId(0)]).unwrap();
        s.ingest(&head, 0).unwrap();
        s.ingest(&tail, 600).unwrap();
        s.refresh(&t).unwrap();
        // All sampled row ids must be addressable in the full table.
        assert!(s.sample_rows() > 0);
        assert!(!s.is_stale());
    }

    #[test]
    fn rewrite_choices_all_build() {
        let t = table(500);
        for rewrite in RewriteChoice::all() {
            let mut c = config(SamplingStrategy::Senate);
            c.rewrite = rewrite;
            let mut s = Synopsis::new(c, vec![ColumnId(0)]).unwrap();
            s.ingest(&t, 0).unwrap();
            s.refresh(&t).unwrap();
            assert_eq!(s.plan().unwrap().name(), rewrite.name());
        }
    }

    #[test]
    fn export_import_round_trip_answers_identically() {
        use engine::{AggregateSpec, GroupByQuery};
        let t = table(800);
        let mut s = Synopsis::new(config(SamplingStrategy::Congress), vec![ColumnId(0)]).unwrap();
        s.ingest(&t, 0).unwrap();
        s.refresh(&t).unwrap();
        let snapshot = s.export(&t).unwrap();
        assert!(!snapshot.is_empty());

        let restored =
            Synopsis::import(config(SamplingStrategy::Congress), &t, snapshot, registry()).unwrap();
        assert!(!restored.is_stale());
        let q = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")]);
        let a = s.plan().unwrap().execute(&q).unwrap();
        let b = restored.plan().unwrap().execute(&q).unwrap();
        // Export encodes exactly the sample backing the active plan, so
        // the restored synopsis answers from the same strata.
        assert_eq!(a.group_count(), b.group_count());
        assert_eq!(a, b);
    }

    #[test]
    fn bulk_rebuild_is_parallelism_invariant() {
        let t = table(5000);
        let grouping = vec![ColumnId(0)];
        let mut samples = Vec::new();
        for parallelism in [1usize, 2, 8] {
            let cfg = AquaConfig {
                parallelism,
                ..config(SamplingStrategy::Congress)
            };
            let mut s = Synopsis::new(cfg, grouping.clone()).unwrap();
            s.rebuild_bulk(&t).unwrap();
            assert!(!s.is_stale());
            assert!(s.plan().is_some());
            samples.push(s.sample().unwrap().clone());
        }
        for s in &samples[1..] {
            assert_eq!(samples[0].sampled_rows(), s.sampled_rows());
            assert_eq!(samples[0].strata_keys(), s.strata_keys());
            assert_eq!(samples[0].group_sizes(), s.group_sizes());
        }
    }

    #[test]
    fn bulk_rebuild_export_round_trips() {
        let t = table(2000);
        let mut s = Synopsis::new(config(SamplingStrategy::Senate), vec![ColumnId(0)]).unwrap();
        s.ingest(&t, 0).unwrap();
        s.rebuild_bulk(&t).unwrap();
        let snapshot = s.export(&t).unwrap();
        let restored =
            Synopsis::import(config(SamplingStrategy::Senate), &t, snapshot, registry()).unwrap();
        assert_eq!(restored.sample_rows(), s.sample_rows());
    }

    #[test]
    fn import_rejects_garbage() {
        let t = table(100);
        let r = Synopsis::import(
            config(SamplingStrategy::Congress),
            &t,
            bytes::Bytes::from_static(b"not a snapshot"),
            registry(),
        );
        assert!(r.is_err());
    }

    #[test]
    fn debug_format_mentions_strategy() {
        let s = Synopsis::new(config(SamplingStrategy::House), vec![ColumnId(0)]).unwrap();
        let d = format!("{s:?}");
        assert!(d.contains("House"));
    }
}
