//! The materialized congressional sample and its conversion to the
//! engine's stratified-input form.

use rand::seq::SliceRandom;
use rand::Rng;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use engine::StratifiedInput;
use relation::{ColumnId, GroupKey, Relation};

use crate::alloc::{Allocation, AllocationStrategy};
use crate::census::GroupCensus;
use crate::error::{CongressError, Result};
use crate::seed::SeedSpec;

/// A drawn biased sample: per finest group, the sampled row indices into
/// the base relation, along with the census facts needed to scale
/// estimates (`n_g`) and to rebuild physical layouts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CongressionalSample {
    grouping_columns: Vec<ColumnId>,
    strata_keys: Vec<GroupKey>,
    group_sizes: Vec<u64>,
    sampled_rows: Vec<Vec<usize>>,
    strategy_name: String,
}

impl CongressionalSample {
    /// Draw a sample from `rel` per `strategy` with budget `space` tuples.
    ///
    /// This is the "given a data cube ... constructed in one pass" route of
    /// §6: the census provides the counts, and each group's quota is drawn
    /// uniformly without replacement. Strata are filled concurrently, each
    /// from its own RNG stream derived from `spec` by group key, so the
    /// result is bit-for-bit identical for *any* thread count — including
    /// the sequential `parallelism = 1` path.
    pub fn draw_par<S: AllocationStrategy + ?Sized>(
        rel: &Relation,
        census: &GroupCensus,
        strategy: &S,
        space: f64,
        spec: &SeedSpec,
    ) -> Result<CongressionalSample> {
        let allocation = strategy.allocate(census, space)?;
        Self::draw_with_allocation_par(rel, census, &allocation, strategy.name(), spec)
    }

    /// Draw a sample for an already-computed allocation (see
    /// [`Self::draw_par`] for the determinism contract).
    pub fn draw_with_allocation_par(
        rel: &Relation,
        census: &GroupCensus,
        allocation: &Allocation,
        strategy_name: &str,
        spec: &SeedSpec,
    ) -> Result<CongressionalSample> {
        check_census(rel, census)?;
        let counts = allocation.integer_counts(census.sizes());
        let rows_by_group = census.rows_by_group()?;
        let keys = census.keys();
        let sampled_rows: Vec<Vec<usize>> = rows_by_group
            .par_iter()
            .enumerate()
            .map(|(g, rows)| {
                let mut rng = spec.rng_for_group(&keys[g]);
                sample_without_replacement(rows, counts[g], &mut rng)
            })
            .collect();
        Ok(CongressionalSample {
            grouping_columns: census.grouping_columns().to_vec(),
            strata_keys: keys.to_vec(),
            group_sizes: census.sizes().to_vec(),
            sampled_rows,
            strategy_name: strategy_name.to_string(),
        })
    }

    /// Draw with *Bernoulli* semantics — §4.6's first alternative
    /// definition: "instead select each tuple in a group g with probability
    /// SampleSize(g)/n_g. Thus the expected number of tuples from g in the
    /// sample remains SampleSize(g), but the actual number may vary due to
    /// random fluctuations." Each group's coin flips come from that group's
    /// own seeded stream, walked over the group's rows in base-relation
    /// order — scheduling-independent, like [`Self::draw_par`].
    pub fn draw_bernoulli_par<S: AllocationStrategy + ?Sized>(
        rel: &Relation,
        census: &GroupCensus,
        strategy: &S,
        space: f64,
        spec: &SeedSpec,
    ) -> Result<CongressionalSample> {
        let allocation = strategy.allocate(census, space)?;
        check_census(rel, census)?;
        // Per-group inclusion probability, capped at 1.
        let probs: Vec<f64> = allocation
            .targets()
            .iter()
            .zip(census.sizes())
            .map(|(&t, &n)| (t / n as f64).min(1.0))
            .collect();
        let rows_by_group = census.rows_by_group()?;
        let keys = census.keys();
        let sampled_rows: Vec<Vec<usize>> = rows_by_group
            .par_iter()
            .enumerate()
            .map(|(g, rows)| {
                let mut rng = spec.rng_for_group(&keys[g]);
                let p = probs[g];
                rows.iter()
                    .copied()
                    .filter(|_| rng.gen::<f64>() < p)
                    .collect()
            })
            .collect();
        Ok(CongressionalSample {
            grouping_columns: census.grouping_columns().to_vec(),
            strata_keys: keys.to_vec(),
            group_sizes: census.sizes().to_vec(),
            sampled_rows,
            strategy_name: format!("{} (Bernoulli)", strategy.name()),
        })
    }

    /// Assemble a sample directly from parts (used by the incremental
    /// maintainers, which track membership themselves).
    pub fn from_parts(
        grouping_columns: Vec<ColumnId>,
        strata_keys: Vec<GroupKey>,
        group_sizes: Vec<u64>,
        sampled_rows: Vec<Vec<usize>>,
        strategy_name: impl Into<String>,
    ) -> Result<CongressionalSample> {
        if strata_keys.len() != group_sizes.len() || strata_keys.len() != sampled_rows.len() {
            return Err(CongressError::CensusMismatch(format!(
                "inconsistent strata: {} keys, {} sizes, {} row lists",
                strata_keys.len(),
                group_sizes.len(),
                sampled_rows.len()
            )));
        }
        for (g, rows) in sampled_rows.iter().enumerate() {
            if rows.len() as u64 > group_sizes[g] {
                return Err(CongressError::CensusMismatch(format!(
                    "stratum {g} sampled {} of {} tuples",
                    rows.len(),
                    group_sizes[g]
                )));
            }
        }
        Ok(CongressionalSample {
            grouping_columns,
            strata_keys,
            group_sizes,
            sampled_rows,
            strategy_name: strategy_name.into(),
        })
    }

    /// Name of the strategy that produced the sample.
    pub fn strategy_name(&self) -> &str {
        &self.strategy_name
    }

    /// Set the finest grouping columns (the streaming maintainers don't
    /// know schema column ids; construction wiring fills them in).
    pub fn set_grouping_columns(&mut self, cols: Vec<ColumnId>) {
        self.grouping_columns = cols;
    }

    /// The finest grouping columns `G`.
    pub fn grouping_columns(&self) -> &[ColumnId] {
        &self.grouping_columns
    }

    /// Number of strata (finest groups).
    pub fn stratum_count(&self) -> usize {
        self.strata_keys.len()
    }

    /// Stratum keys.
    pub fn strata_keys(&self) -> &[GroupKey] {
        &self.strata_keys
    }

    /// Group sizes `n_g` recorded at construction.
    pub fn group_sizes(&self) -> &[u64] {
        &self.group_sizes
    }

    /// Sampled base-relation row ids per stratum.
    pub fn sampled_rows(&self) -> &[Vec<usize>] {
        &self.sampled_rows
    }

    /// Total sampled tuples.
    pub fn total_sampled(&self) -> usize {
        self.sampled_rows.iter().map(Vec::len).sum()
    }

    /// Per-stratum ScaleFactor: `n_g / |sample_g|` (∞-avoiding: strata with
    /// no sampled tuples are excluded from the stratified input entirely).
    pub fn scale_factor(&self, stratum: usize) -> Option<f64> {
        let s = self.sampled_rows[stratum].len();
        (s > 0).then(|| self.group_sizes[stratum] as f64 / s as f64)
    }

    /// Like [`Self::to_stratified_input`], but with every stratum's
    /// ScaleFactor replaced by the single global factor `|R| / |sample|` —
    /// the classic uniform-sample scaling the paper's Aqua applies to House
    /// samples (the "100×" of Figure 2). Using per-stratum factors on a
    /// House sample would post-stratify it, which is *not* what the paper
    /// evaluates.
    pub fn to_stratified_input_uniform(&self, rel: &Relation) -> Result<StratifiedInput> {
        let mut input = self.to_stratified_input(rel)?;
        let population: u64 = self.group_sizes.iter().sum();
        let sampled = self.total_sampled();
        if sampled == 0 {
            return Err(CongressError::EmptyRelation);
        }
        let sf = population as f64 / sampled as f64;
        for s in &mut input.scale_factors {
            *s = sf;
        }
        Ok(input)
    }

    /// Materialize the engine-facing stratified input against the base
    /// relation the sample was drawn from. Empty strata are dropped (they
    /// contribute no tuples and would make ScaleFactor undefined).
    pub fn to_stratified_input(&self, rel: &Relation) -> Result<StratifiedInput> {
        let mut rows: Vec<usize> = Vec::with_capacity(self.total_sampled());
        let mut stratum_of_row: Vec<u32> = Vec::with_capacity(self.total_sampled());
        let mut scale_factors = Vec::new();
        let mut strata_keys = Vec::new();
        for (g, sampled) in self.sampled_rows.iter().enumerate() {
            if sampled.is_empty() {
                continue;
            }
            let dense = scale_factors.len() as u32;
            scale_factors.push(self.group_sizes[g] as f64 / sampled.len() as f64);
            strata_keys.push(self.strata_keys[g].clone());
            for &r in sampled {
                if r >= rel.row_count() {
                    return Err(CongressError::CensusMismatch(format!(
                        "sampled row {r} out of range for relation of {} rows",
                        rel.row_count()
                    )));
                }
                rows.push(r);
                stratum_of_row.push(dense);
            }
        }
        let input = StratifiedInput {
            rows: rel.gather(&rows),
            stratum_of_row,
            scale_factors,
            strata_keys,
            grouping_columns: self.grouping_columns.clone(),
        };
        input.validate()?;
        Ok(input)
    }
}

/// A census drawn from is one built from `rel`'s own rows.
fn check_census(rel: &Relation, census: &GroupCensus) -> Result<()> {
    let covered = census.group_of_row().map(<[u32]>::len);
    if covered != Some(rel.row_count()) {
        return Err(CongressError::CensusMismatch(format!(
            "census covers {covered:?} rows, relation has {}",
            rel.row_count()
        )));
    }
    Ok(())
}

/// Uniform sample of `want` distinct elements from `rows`, preserving no
/// particular order. Uses a partial Fisher–Yates over a copied index
/// vector — O(|rows|) copy, O(want) shuffling.
pub(crate) fn sample_without_replacement<R: Rng + ?Sized>(
    rows: &[usize],
    want: usize,
    rng: &mut R,
) -> Vec<usize> {
    let want = want.min(rows.len());
    if want == 0 {
        return Vec::new();
    }
    if want == rows.len() {
        return rows.to_vec();
    }
    let mut pool: Vec<usize> = rows.to_vec();
    let (chosen, _) = pool.partial_shuffle(rng, want);
    chosen.to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::{Congress, House, Senate};
    use crate::census::test_support::figure5_relation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Relation, GroupCensus) {
        let rel = figure5_relation(10);
        let cols = rel.schema().column_ids(&["A", "B"]).unwrap();
        let census = GroupCensus::build(&rel, &cols).unwrap();
        (rel, census)
    }

    #[test]
    fn draw_senate_equal_counts() {
        let (rel, census) = setup();
        let spec = SeedSpec::new(7);
        let s = CongressionalSample::draw_par(&rel, &census, &Senate, 100.0, &spec).unwrap();
        assert_eq!(s.total_sampled(), 100);
        for rows in s.sampled_rows() {
            assert_eq!(rows.len(), 25);
        }
        assert_eq!(s.strategy_name(), "Senate");
    }

    #[test]
    fn bernoulli_draw_matches_expectation() {
        let (rel, census) = setup();
        let trials = 40u64;
        let mut avg = vec![0.0f64; census.group_count()];
        let mut totals = Vec::new();
        for t in 0..trials {
            let spec = SeedSpec::new(600 + t);
            let s = CongressionalSample::draw_bernoulli_par(&rel, &census, &Congress, 100.0, &spec)
                .unwrap();
            assert!(s.strategy_name().contains("Bernoulli"));
            totals.push(s.total_sampled());
            for (g, rows) in s.sampled_rows().iter().enumerate() {
                avg[g] += rows.len() as f64 / trials as f64;
            }
        }
        // "The expected number of tuples from g remains SampleSize(g),
        // but the actual number may vary."
        let targets = Congress.allocate(&census, 100.0).unwrap();
        for (g, (&got, &want)) in avg.iter().zip(targets.targets()).enumerate() {
            assert!(
                (got - want).abs() < want * 0.25 + 2.0,
                "group {g}: Bernoulli avg {got} vs target {want}"
            );
        }
        // Sizes fluctuate (fixed-size draws never would).
        let min = totals.iter().min().unwrap();
        let max = totals.iter().max().unwrap();
        assert!(max > min, "Bernoulli totals must vary: {totals:?}");
    }

    #[test]
    fn sampled_rows_are_distinct_and_in_group() {
        let (rel, census) = setup();
        let spec = SeedSpec::new(42);
        let s = CongressionalSample::draw_par(&rel, &census, &Congress, 120.0, &spec).unwrap();
        let by_group = census.rows_by_group().unwrap();
        for (g, rows) in s.sampled_rows().iter().enumerate() {
            let mut sorted = rows.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), rows.len(), "duplicates in stratum {g}");
            for &r in rows {
                assert!(by_group[g].contains(&r), "row {r} not in stratum {g}");
            }
        }
    }

    #[test]
    fn scale_factors_reflect_rates() {
        let (rel, census) = setup();
        let spec = SeedSpec::new(3);
        let s = CongressionalSample::draw_par(&rel, &census, &House, 100.0, &spec).unwrap();
        for g in 0..s.stratum_count() {
            let sf = s.scale_factor(g).unwrap();
            let expect = census.sizes()[g] as f64 / s.sampled_rows()[g].len() as f64;
            assert_eq!(sf, expect);
        }
        let input = s.to_stratified_input(&rel).unwrap();
        assert_eq!(input.rows.row_count(), s.total_sampled());
        assert!(input.validate().is_ok());
    }

    #[test]
    fn stratified_input_drops_empty_strata() {
        let (rel, _) = setup();
        let s = CongressionalSample::from_parts(
            rel.schema().column_ids(&["A", "B"]).unwrap(),
            vec![
                GroupKey::new(vec![relation::Value::str("a1"), relation::Value::str("b1")]),
                GroupKey::new(vec![relation::Value::str("a2"), relation::Value::str("b3")]),
            ],
            vec![300, 250],
            vec![vec![0, 1, 2], vec![]],
            "test",
        )
        .unwrap();
        let input = s.to_stratified_input(&rel).unwrap();
        assert_eq!(input.stratum_count(), 1);
        assert_eq!(input.rows.row_count(), 3);
        assert_eq!(s.scale_factor(1), None);
    }

    #[test]
    fn from_parts_validation() {
        assert!(CongressionalSample::from_parts(
            vec![],
            vec![GroupKey::empty()],
            vec![10, 20],
            vec![vec![]],
            "t",
        )
        .is_err());
        // oversampled stratum
        assert!(CongressionalSample::from_parts(
            vec![],
            vec![GroupKey::empty()],
            vec![2],
            vec![vec![0, 1, 2]],
            "t",
        )
        .is_err());
    }

    #[test]
    fn out_of_range_row_detected() {
        let (rel, _) = setup();
        let s = CongressionalSample::from_parts(
            vec![ColumnId(0)],
            vec![GroupKey::new(vec![relation::Value::str("a1")])],
            vec![1000],
            vec![vec![999_999]],
            "t",
        )
        .unwrap();
        assert!(s.to_stratified_input(&rel).is_err());
    }

    #[test]
    fn deterministic_under_seed() {
        let (rel, census) = setup();
        let a = CongressionalSample::draw_par(&rel, &census, &Congress, 80.0, &SeedSpec::new(5))
            .unwrap();
        let b = CongressionalSample::draw_par(&rel, &census, &Congress, 80.0, &SeedSpec::new(5))
            .unwrap();
        assert_eq!(a.sampled_rows(), b.sampled_rows());
    }

    #[test]
    fn parallel_draw_identical_across_thread_counts() {
        let (rel, census) = setup();
        let spec = SeedSpec::new(11);
        let mut outputs = Vec::new();
        for threads in [1usize, 2, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let s = pool
                .install(|| CongressionalSample::draw_par(&rel, &census, &Congress, 80.0, &spec))
                .unwrap();
            outputs.push(s);
        }
        for s in &outputs[1..] {
            assert_eq!(outputs[0].sampled_rows(), s.sampled_rows());
            assert_eq!(outputs[0].strata_keys(), s.strata_keys());
        }
    }

    #[test]
    fn parallel_bernoulli_identical_across_thread_counts() {
        let (rel, census) = setup();
        let spec = SeedSpec::new(23);
        let mut outputs = Vec::new();
        for threads in [1usize, 4] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let s = pool
                .install(|| {
                    CongressionalSample::draw_bernoulli_par(&rel, &census, &Congress, 100.0, &spec)
                })
                .unwrap();
            outputs.push(s);
        }
        assert_eq!(outputs[0].sampled_rows(), outputs[1].sampled_rows());
        // A different root seed must perturb the draw.
        let other = CongressionalSample::draw_bernoulli_par(
            &rel,
            &census,
            &Congress,
            100.0,
            &SeedSpec::new(24),
        )
        .unwrap();
        assert_ne!(outputs[0].sampled_rows(), other.sampled_rows());
    }

    #[test]
    fn parallel_draw_respects_allocation_counts() {
        let (rel, census) = setup();
        let spec = SeedSpec::new(3);
        let alloc = Senate.allocate(&census, 100.0).unwrap();
        let s =
            CongressionalSample::draw_with_allocation_par(&rel, &census, &alloc, "Senate", &spec)
                .unwrap();
        assert_eq!(s.total_sampled(), 100);
        let by_group = census.rows_by_group().unwrap();
        for (g, rows) in s.sampled_rows().iter().enumerate() {
            assert_eq!(rows.len(), 25);
            for &r in rows {
                assert!(by_group[g].contains(&r), "row {r} not in stratum {g}");
            }
        }
    }

    #[test]
    fn sampling_helper_bounds() {
        let mut rng = StdRng::seed_from_u64(1);
        let rows: Vec<usize> = (0..10).collect();
        assert!(sample_without_replacement(&rows, 0, &mut rng).is_empty());
        assert_eq!(sample_without_replacement(&rows, 10, &mut rng).len(), 10);
        assert_eq!(sample_without_replacement(&rows, 99, &mut rng).len(), 10);
        let s = sample_without_replacement(&rows, 4, &mut rng);
        assert_eq!(s.len(), 4);
        let mut d = s.clone();
        d.sort_unstable();
        d.dedup();
        assert_eq!(d.len(), 4);
    }
}
