//! The synopsis: a maintained biased sample and the generation queries
//! are answered from.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use congress::build::{BasicCongressMaintainer, IncrementalMaintainer, Maintainer};
use congress::{AllocationStrategy, CongressionalSample, GroupCensus, SeedSpec};
use engine::{CacheCounts, MemoCounts, QueryCache, StratifiedInput};
use relation::{ColumnId, GroupKey, Relation};

use crate::config::AquaConfig;
use crate::error::Result;
use crate::serve_cache::AnswerCache;

/// One immutable state of a synopsis: the materialized sample and every
/// structure built from it. A refresh, rebuild or import makes a new one;
/// readers pin the one they answer from as an `Arc`, so nothing in it is
/// ever cleared or changed, and it is dropped with its last reader.
#[derive(Debug)]
pub struct Generation {
    /// The materialized sample — whichever path built it (incremental
    /// refresh, bulk rebuild or import), so export ships exactly what
    /// queries are answered from.
    pub sample: CongressionalSample,
    /// The sample over the stored table, with each row's stratum and each
    /// stratum's ScaleFactor.
    pub input: StratifiedInput,
    /// Group indexes, the stratum sort, cell layouts and moment cells.
    pub cells: QueryCache,
    /// Normalized SQL → complete served answer.
    pub answers: AnswerCache,
}

/// A maintained synopsis of one relation: the incremental sampler and the
/// latest [`Generation`].
pub struct Synopsis {
    config: AquaConfig,
    grouping: Vec<ColumnId>,
    maintainer: Maintainer,
    rng: StdRng,
    /// The generation queries are answered from; `None` before the first
    /// refresh or rebuild.
    generation: Option<Arc<Generation>>,
    /// The maintainer holds rows `generation` lacks: refresh before
    /// answering.
    stale: bool,
    /// Hit/miss counts of every generation's query and answer caches.
    cell_counts: CacheCounts,
    answer_counts: Arc<MemoCounts>,
    /// Generations retired so far (see [`Self::retire`]).
    retired: u64,
    /// Maintenance counters and build-phase timings: the owning
    /// [`Aqua`](crate::Aqua)'s registry, or one of its own.
    registry: Arc<obs::Registry>,
}

impl std::fmt::Debug for Synopsis {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Synopsis")
            .field("strategy", &self.config.strategy.name())
            .field("rewrite", &self.config.rewrite.name())
            .field("sample_rows", &self.sample_rows())
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
            generation: None,
            stale: true,
            cell_counts: CacheCounts::default(),
            answer_counts: Arc::default(),
            retired: 0,
            registry,
        })
    }

    /// Stream rows `[first_row, first_row + rel rows)` of the warehouse
    /// table through the maintainer. Row ids must be global (offsets into
    /// the full stored table), so insertions keep extending the id space.
    pub fn ingest(&mut self, rel: &Relation, first_row: usize) -> Result<()> {
        let evictions_before = self.maintainer.evictions();
        self.stream(rel, first_row);
        if matches!(self.maintainer, Maintainer::BasicCongress(_)) {
            self.registry.counter("synopsis_delta_merges_total").inc();
        }
        let evicted = self.maintainer.evictions() - evictions_before;
        if evicted > 0 {
            self.registry
                .counter("synopsis_evictions_total")
                .add(evicted);
        }
        self.retire();
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
            Maintainer::BasicCongress(m) => {
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

    /// Retire the generation, if it is still fresh: it counts in
    /// `aqua_{,answer_}cache_invalidations_total`, and the next answer
    /// needs a new one. Runs when an ingest makes the generation stale and
    /// when a refresh or rebuild replaces it.
    fn retire(&mut self) {
        if !self.stale && self.generation.is_some() {
            self.retired += 1;
        }
        self.stale = true;
    }

    /// Answer from `sample` (backed by `input`) from now on, with empty
    /// caches.
    fn install(&mut self, sample: CongressionalSample, input: StratifiedInput) {
        self.retire();
        self.generation = Some(Arc::new(Generation {
            sample,
            input,
            cells: QueryCache::counting(&self.cell_counts),
            answers: AnswerCache::new(Arc::clone(&self.answer_counts)),
        }));
        self.stale = false;
        self.registry
            .gauge("synopsis_sample_rows")
            .set(self.sample_rows() as i64);
    }

    /// Install a generation of the maintainer's current sample.
    /// `table` must be the full stored relation (all ingested segments).
    pub fn refresh(&mut self, table: &Relation) -> Result<()> {
        let timer = obs::Timer::start();
        let mut sample = self.maintainer.snapshot(&mut self.rng)?;
        sample.set_grouping_columns(self.grouping.clone());
        let input = self.config.strategy.stratified_input(&sample, table)?;
        self.install(sample, input);
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
            let strategy = strategy_override.unwrap_or(self.config.strategy.allocator());
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
            let input = self.config.strategy.stratified_input(&sample, table)?;
            registry
                .histogram("synopsis_build_draw_us")
                .record(timer.elapsed_us());
            Ok((sample, input))
        })?;
        self.install(sample, input);
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

    /// Whether [`Self::refresh`] must run before answering.
    pub fn is_stale(&self) -> bool {
        self.stale
    }

    /// The generation queries are answered from: `None` before the first
    /// refresh or rebuild and while stale.
    pub fn generation(&self) -> Option<&Arc<Generation>> {
        self.generation.as_ref().filter(|_| !self.stale)
    }

    /// The generation queries are answered from, refreshing first if
    /// stale. `table` must be the full stored relation.
    pub(crate) fn current(&mut self, table: &Relation) -> Result<Arc<Generation>> {
        if self.stale {
            self.refresh(table)?;
        }
        Ok(Arc::clone(
            self.generation
                .as_ref()
                .expect("a refresh installs a generation"),
        ))
    }

    /// Lifetime hit/miss counts of every generation's query cache.
    pub(crate) fn cell_counts(&self) -> &CacheCounts {
        &self.cell_counts
    }

    /// Lifetime hit/miss counts of every generation's answer cache.
    pub(crate) fn answer_counts(&self) -> &MemoCounts {
        &self.answer_counts
    }

    /// Generations retired so far: made stale by an ingest, or replaced
    /// fresh by a refresh or rebuild.
    pub(crate) fn retired(&self) -> u64 {
        self.retired
    }

    /// The metric registry the maintenance counters (`synopsis_*`)
    /// accumulate in — the owning [`Aqua`](crate::Aqua)'s, if any.
    pub fn registry(&self) -> &Arc<obs::Registry> {
        &self.registry
    }

    /// Sampled tuples in the latest generation, stale or not.
    pub fn sample_rows(&self) -> usize {
        self.generation
            .as_ref()
            .map_or(0, |g| g.input.rows.row_count())
    }

    /// The configuration in force.
    pub fn config(&self) -> &AquaConfig {
        &self.config
    }

    /// The grouping columns this synopsis stratifies on.
    pub fn grouping(&self) -> &[ColumnId] {
        &self.grouping
    }

    /// The *applied* per-group allocation: sampled tuples per finest group
    /// in the materialized sample, keyed by group key. This is the
    /// "allocated" side the drift detector compares the observed workload
    /// against. Empty before the first refresh/rebuild.
    pub fn applied_allocation(&self) -> std::collections::HashMap<GroupKey, f64> {
        match &self.generation {
            Some(g) => g
                .sample
                .strata_keys()
                .iter()
                .cloned()
                .zip(g.sample.sampled_rows().iter().map(|rows| rows.len() as f64))
                .collect(),
            None => std::collections::HashMap::new(),
        }
    }

    /// Export the current materialized sample in the compact binary
    /// snapshot format (synopses are durable in Aqua — "stored as regular
    /// relations in the DBMS"). Encodes exactly the sample queries are
    /// answered from, refreshing first if stale.
    pub fn export(&mut self, table: &Relation) -> Result<bytes::Bytes> {
        Ok(congress::snapshot::encode(&self.current(table)?.sample))
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
        let input = syn.config.strategy.stratified_input(&sample, table)?;
        syn.install(sample, input);
        syn.stream(table, 0);
        syn.registry.counter("synopsis_imports_total").inc();
        Ok(syn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{RewriteChoice, SamplingStrategy};
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
            assert!(s.generation().is_some());
            assert!(
                s.sample_rows() > 0 && s.sample_rows() <= 80,
                "{}: {}",
                strategy.name(),
                s.sample_rows()
            );
        }
    }

    /// A generation retires once: when an ingest makes it stale, or when a
    /// refresh or rebuild replaces it while fresh.
    #[test]
    fn generations_retire_once() {
        let t = table(1000);
        let mut s = Synopsis::new(config(SamplingStrategy::Congress), vec![ColumnId(0)]).unwrap();
        s.ingest(&t, 0).unwrap();
        s.refresh(&t).unwrap();
        assert_eq!(
            s.retired(),
            0,
            "nothing to retire before the first generation"
        );
        let first = Arc::clone(s.generation().unwrap());
        let (a, b) = (t.gather(&[0, 1]), t.gather(&[2, 3]));
        s.ingest(&a, 1000).unwrap();
        s.ingest(&b, 1002).unwrap();
        let t = Relation::concat(&[&t, &a, &b]).unwrap();
        assert!(
            s.generation().is_none(),
            "a stale generation answers nothing"
        );
        assert_eq!(s.sample_rows(), first.input.rows.row_count());
        assert_eq!(s.retired(), 1, "the second ingest found it stale already");
        let second = s.current(&t).unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        assert_eq!(s.retired(), 1, "the lazy refresh retires nothing more");
        s.rebuild_bulk(&t).unwrap();
        assert_eq!(s.retired(), 2);
        s.refresh(&t).unwrap();
        assert_eq!(s.retired(), 3);
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

    /// The rewrite choice names the rendered SQL only: every choice builds
    /// the same generation.
    #[test]
    fn rewrite_choices_all_build() {
        let t = table(500);
        let mut samples = Vec::new();
        for rewrite in RewriteChoice::all() {
            let mut c = config(SamplingStrategy::Senate);
            c.rewrite = rewrite;
            let mut s = Synopsis::new(c, vec![ColumnId(0)]).unwrap();
            s.ingest(&t, 0).unwrap();
            s.refresh(&t).unwrap();
            samples.push(s.generation().unwrap().sample.sampled_rows().to_vec());
        }
        assert!(samples.windows(2).all(|w| w[0] == w[1]));
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
        let answer = |s: &Synopsis| {
            let g = s.generation().unwrap();
            let (input, opts) = (&g.input, engine::ExecOptions::default());
            let (strata, sfs) = (&input.stratum_of_row, &input.scale_factors);
            engine::rewrite::execute_cells(&input.rows, strata, sfs, &q, &opts, &g.cells).unwrap()
        };
        let (a, b) = (answer(&s), answer(&restored));
        // Export encodes exactly the sample queries are answered from, so
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
            samples.push(s.generation().unwrap().sample.clone());
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
