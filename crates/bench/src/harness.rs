//! Experiment machinery shared by the per-figure binaries.

use rand::rngs::StdRng;
use rand::SeedableRng;

use aqua::{RewriteChoice, SamplingStrategy};
use congress::alloc::AllocationStrategy;
use congress::{compare_results, CongressionalSample, GroupCensus, SeedSpec};
use engine::rewrite::{Integrated, KeyNormalized, NestedIntegrated, Normalized, SamplePlan};
use engine::{execute_exact, GroupByQuery, QueryResult};
use relation::{ColumnId, Relation};
use tpcd::{q_g0_set, q_g2, q_g3, GeneratorConfig, TpcdDataset};

/// A generated dataset with its census and the paper's three query sets.
pub struct ExperimentSetup {
    /// The lineitem table.
    pub dataset: TpcdDataset,
    /// Census over `{l_returnflag, l_linestatus, l_shipdate}`.
    pub census: GroupCensus,
    /// `Q_{g2}` (two grouping columns).
    pub qg2: GroupByQuery,
    /// `Q_{g3}` (finest grouping).
    pub qg3: GroupByQuery,
    /// The 20-query `Q_{g0}` set.
    pub qg0: Vec<GroupByQuery>,
}

impl ExperimentSetup {
    /// Generate a dataset and take its census. `c` for the `Q_{g0}` range
    /// width follows the paper: 7% of the table.
    pub fn new(config: GeneratorConfig) -> ExperimentSetup {
        let dataset = TpcdDataset::generate(config);
        let census = GroupCensus::build(&dataset.relation, &dataset.grouping_columns())
            .expect("generated table is non-empty");
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9E37_79B9);
        let c = (config.table_size as i64 * 7 / 100).max(1);
        let qg0 = q_g0_set(&dataset.ids, 20, config.table_size, c, &mut rng);
        ExperimentSetup {
            qg2: q_g2(&dataset.ids),
            qg3: q_g3(&dataset.ids),
            qg0,
            dataset,
            census,
        }
    }
}

/// Which query set an accuracy number is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuerySet {
    /// 20 no-group-by range queries.
    Qg0,
    /// Two grouping columns.
    Qg2,
    /// Three grouping columns (finest).
    Qg3,
}

impl QuerySet {
    /// Display label.
    pub fn name(self) -> &'static str {
        match self {
            QuerySet::Qg0 => "Qg0",
            QuerySet::Qg2 => "Qg2",
            QuerySet::Qg3 => "Qg3",
        }
    }
}

/// Build a congressional sample via the parallel construction pipeline
/// (parallel census + per-stratum seeded draws) on `threads` worker
/// threads (`0` = all cores). The output is identical for any thread
/// count: per-group RNG streams are derived from `seed` via [`SeedSpec`],
/// never from scheduling — so sequential/parallel timings from this
/// helper compare like for like.
pub fn construct_parallel(
    rel: &Relation,
    cols: &[ColumnId],
    strategy: &dyn AllocationStrategy,
    space: f64,
    seed: u64,
    threads: usize,
) -> CongressionalSample {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool");
    pool.install(|| {
        let census = GroupCensus::par_build(rel, cols).expect("non-empty relation");
        let spec = SeedSpec::new(seed);
        CongressionalSample::draw_par(rel, &census, strategy, space, &spec)
            .expect("valid allocation")
    })
}

/// Build a physical plan for a sampling strategy at a given sample
/// fraction, using the census-based construction route.
pub fn build_plan(
    setup: &ExperimentSetup,
    strategy: SamplingStrategy,
    rewrite: RewriteChoice,
    sample_fraction: f64,
    seed: u64,
) -> Box<dyn SamplePlan> {
    let rel = &setup.dataset.relation;
    let space = sample_fraction * rel.row_count() as f64;
    let sample = CongressionalSample::draw_par(
        rel,
        &setup.census,
        strategy.allocator(),
        space,
        &SeedSpec::new(seed),
    )
    .expect("sampling from a census-built setup cannot fail");
    let input = strategy
        .stratified_input(&sample, rel)
        .expect("sample is consistent");
    match rewrite {
        RewriteChoice::Integrated => Box::new(Integrated::build(&input).expect("valid input")),
        RewriteChoice::NestedIntegrated => {
            Box::new(NestedIntegrated::build(&input).expect("valid input"))
        }
        RewriteChoice::Normalized => Box::new(Normalized::build(&input).expect("valid input")),
        RewriteChoice::KeyNormalized => {
            Box::new(KeyNormalized::build(&input).expect("valid input"))
        }
    }
}

/// Accuracy of one strategy on one query set.
#[derive(Debug, Clone, Copy)]
pub struct AccuracyResult {
    /// Mean percentage error (the paper's reported metric: per-group mean
    /// for `Q_{g2}`/`Q_{g3}`, per-query mean for the `Q_{g0}` set).
    pub mean_error_pct: f64,
    /// Maximum error (ε∞ for group-bys; worst query for `Q_{g0}`).
    pub max_error_pct: f64,
}

/// Measure a strategy's accuracy on a query set, averaged over
/// `trials` independent samples (seeds `seed_base..seed_base+trials`).
pub fn accuracy_for_strategy(
    setup: &ExperimentSetup,
    strategy: SamplingStrategy,
    set: QuerySet,
    sample_fraction: f64,
    trials: u64,
    seed_base: u64,
) -> AccuracyResult {
    let queries: Vec<&GroupByQuery> = match set {
        QuerySet::Qg0 => setup.qg0.iter().collect(),
        QuerySet::Qg2 => vec![&setup.qg2],
        QuerySet::Qg3 => vec![&setup.qg3],
    };
    let exact: Vec<QueryResult> = queries
        .iter()
        .map(|q| execute_exact(&setup.dataset.relation, q).expect("exact execution"))
        .collect();

    // Trials are independent — fan them out across threads (each draws its
    // own sample with a distinct seed and replays the query set).
    let per_trial = |t: u64| -> (f64, f64) {
        let plan = build_plan(
            setup,
            strategy,
            RewriteChoice::Integrated,
            sample_fraction,
            seed_base + t,
        );
        match set {
            QuerySet::Qg0 => {
                // Mean over the 20 queries of each query's single-group error.
                let mut errs = Vec::with_capacity(queries.len());
                for (q, ex) in queries.iter().zip(&exact) {
                    let approx = plan.execute(q).expect("plan execution");
                    let report = compare_results(ex, &approx, 0, 100.0);
                    errs.push(report.l1());
                }
                let mean = errs.iter().sum::<f64>() / errs.len() as f64;
                let max = errs.iter().copied().fold(0.0, f64::max);
                (mean, max)
            }
            QuerySet::Qg2 | QuerySet::Qg3 => {
                let approx = plan.execute(queries[0]).expect("plan execution");
                let report = compare_results(&exact[0], &approx, 0, 100.0);
                (report.l1(), report.l_inf())
            }
        }
    };
    let results: Vec<(f64, f64)> = crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..trials)
            .map(|t| scope.spawn(move |_| per_trial(t)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("trial thread panicked"))
            .collect()
    })
    .expect("crossbeam scope");
    let (mean_sum, max_sum) = results
        .iter()
        .fold((0.0, 0.0), |(m, x), &(tm, tx)| (m + tm, x + tx));
    AccuracyResult {
        mean_error_pct: mean_sum / trials as f64,
        max_error_pct: max_sum / trials as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_setup() -> ExperimentSetup {
        ExperimentSetup::new(GeneratorConfig {
            table_size: 30_000,
            num_groups: 27,
            group_skew: 1.5,
            agg_skew: 0.86,
            seed: 123,
        })
    }

    #[test]
    fn setup_builds_queries_and_census() {
        let s = small_setup();
        assert_eq!(s.qg0.len(), 20);
        assert_eq!(s.census.group_count(), 27);
        assert_eq!(s.qg2.grouping.len(), 2);
        assert_eq!(s.qg3.grouping.len(), 3);
    }

    #[test]
    fn plans_build_for_all_strategies() {
        let s = small_setup();
        for strategy in SamplingStrategy::all() {
            let plan = build_plan(&s, strategy, RewriteChoice::Integrated, 0.07, 1);
            let r = plan.execute(&s.qg2).unwrap();
            assert!(r.group_count() > 0, "{}", strategy.name());
        }
    }

    #[test]
    fn accuracy_is_finite_and_ordered_sensibly() {
        let s = small_setup();
        // Senate should beat House on the finest grouping under skew.
        let house = accuracy_for_strategy(&s, SamplingStrategy::House, QuerySet::Qg3, 0.07, 3, 10);
        let senate =
            accuracy_for_strategy(&s, SamplingStrategy::Senate, QuerySet::Qg3, 0.07, 3, 10);
        assert!(house.mean_error_pct.is_finite());
        assert!(senate.mean_error_pct.is_finite());
        assert!(
            senate.mean_error_pct < house.mean_error_pct,
            "senate {} vs house {}",
            senate.mean_error_pct,
            house.mean_error_pct
        );
        assert!(senate.max_error_pct >= senate.mean_error_pct);
    }
}
