//! Closed-loop workload-adaptive allocation (§4.7 + §8).
//!
//! The paper's workload-weighted strategy (§4.7) and multi-criteria weight
//! vectors (§8) both presume somebody *knows* the workload. This module
//! closes the loop from the serving system instead:
//!
//! * [`WorkloadProfile`] — an accumulator for what was actually observed:
//!   per-grouping hit frequencies, per-grouping predicate selectivities
//!   (from the executor's scan traces), and per-group measure
//!   [`Moments`] (each group's cached per-stratum cells summed).
//! * [`recompute_weights`] — turns a profile into a concrete
//!   [`MultiCriteria`] strategy: the full Congress lattice vectors as a
//!   floor (no observed group ever loses its §4.6 share), one §4.7
//!   workload vector built from the observed grouping frequencies
//!   (selectivity-inflated: a grouping queried through a 10%-selective
//!   predicate needs ~10× the sample mass for the same effective sample
//!   size), and one §8 variance vector (`n_g · S_g`, Neyman shape) when
//!   measure moments are available. With an empty profile this degrades
//!   exactly to static Congress.
//! * [`DriftDetector`] — compares the allocation the profile *wants*
//!   against the allocation the synopsis *has* (total-variation distance
//!   over normalized per-group targets) and reports when the divergence
//!   justifies a reallocation.
//!
//! Everything here is deterministic given a profile snapshot: the weight
//! vectors are aligned to census order and the §4.7 maximization is an
//! order-independent elementwise max.

use std::collections::HashMap;

use engine::Moments;
use relation::{ColumnId, Expr, GroupKey};

use crate::alloc::criteria::{MultiCriteria, WeightVector};
use crate::alloc::{AllocationStrategy, GroupingPreference, WorkloadWeighted};
use crate::census::GroupCensus;
use crate::error::Result;
use crate::lattice::Grouping;

/// Observed statistics for one grouping column-set.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct GroupingStats {
    /// How many queries grouped by exactly this column set.
    pub hits: u64,
    /// Sum of observed predicate selectivities (selected / scanned).
    pub selectivity_sum: f64,
    /// How many of the hits carried a measurable selectivity.
    pub selectivity_n: u64,
}

impl GroupingStats {
    /// Mean observed selectivity, `1.0` when no predicate was measured
    /// (an unfiltered query touches every row of its groups).
    pub fn mean_selectivity(&self) -> f64 {
        if self.selectivity_n == 0 {
            1.0
        } else {
            (self.selectivity_sum / self.selectivity_n as f64).clamp(0.0, 1.0)
        }
    }
}

/// Observed statistics for one aggregate measure expression.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureStats {
    /// How many queries computed this measure.
    pub hits: u64,
    /// The measure expression (`None` for plain `COUNT(*)`).
    pub expr: Option<Expr>,
}

/// An accumulator of observed workload signals: which groupings queries
/// hit, how selective their predicates were, and how spread each group's
/// measure values are. Feeds [`recompute_weights`] and [`DriftDetector`].
#[derive(Debug, Clone, Default)]
pub struct WorkloadProfile {
    queries: u64,
    groupings: HashMap<Vec<ColumnId>, GroupingStats>,
    measures: HashMap<String, MeasureStats>,
    moments: HashMap<GroupKey, Moments>,
}

impl WorkloadProfile {
    /// An empty profile.
    pub fn new() -> WorkloadProfile {
        WorkloadProfile::default()
    }

    /// Total queries recorded.
    pub fn queries(&self) -> u64 {
        self.queries
    }

    /// Whether nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.queries == 0
    }

    /// Number of distinct grouping column-sets observed.
    pub fn grouping_count(&self) -> usize {
        self.groupings.len()
    }

    /// Record one answered query: its grouping columns and, when the
    /// executor measured one, the predicate selectivity (selected rows /
    /// scanned rows). Column order within a grouping is irrelevant, so the
    /// key is canonicalized by sorting.
    pub fn record_query(&mut self, grouping: &[ColumnId], selectivity: Option<f64>) {
        self.queries += 1;
        let mut cols = grouping.to_vec();
        cols.sort_unstable_by_key(|c| c.0);
        cols.dedup();
        let stats = self.groupings.entry(cols).or_default();
        stats.hits += 1;
        if let Some(s) = selectivity {
            if s.is_finite() && (0.0..=1.0).contains(&s) {
                stats.selectivity_sum += s;
                stats.selectivity_n += 1;
            }
        }
    }

    /// Record one computed measure, keyed by its canonical measure key.
    pub fn record_measure(&mut self, key: &str, expr: Option<&Expr>) {
        match self.measures.get_mut(key) {
            Some(m) => m.hits += 1,
            None => {
                self.measures.insert(
                    key.to_string(),
                    MeasureStats {
                        hits: 1,
                        expr: expr.cloned(),
                    },
                );
            }
        }
    }

    /// Install (overwrite) the measure moments for one finest group. Cells
    /// are absolute snapshots of summary state, not increments.
    pub fn set_group_moments(&mut self, key: GroupKey, moments: Moments) {
        self.moments.insert(key, moments);
    }

    /// Moments recorded for a group, if any.
    pub fn group_moments(&self, key: &GroupKey) -> Option<&Moments> {
        self.moments.get(key)
    }

    /// The most frequently computed measure (ties broken by key, so the
    /// answer is deterministic), if any was recorded.
    pub fn hottest_measure(&self) -> Option<(&str, &MeasureStats)> {
        self.measures
            .iter()
            .max_by(|(ka, a), (kb, b)| a.hits.cmp(&b.hits).then(kb.as_str().cmp(ka.as_str())))
            .map(|(k, m)| (k.as_str(), m))
    }

    /// Observed grouping statistics, sorted by column set for determinism.
    pub fn grouping_stats(&self) -> Vec<(Vec<ColumnId>, GroupingStats)> {
        let mut out: Vec<_> = self
            .groupings
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    /// Forget everything (used when the synopsis is rebuilt from scratch
    /// and old observations no longer describe the served sample).
    pub fn clear(&mut self) {
        *self = WorkloadProfile::default();
    }
}

/// Selectivities below this floor stop inflating workload weights — a
/// pathological needle query must not monopolize the whole budget.
const SELECTIVITY_FLOOR: f64 = 0.05;

/// Recompute a concrete allocation strategy from an observed profile: the
/// §4.6 Congress lattice vectors as a floor, plus a §4.7 workload vector
/// from the observed grouping frequencies, plus a §8 Neyman variance
/// vector (`n_g · S_g`) where measure moments are available.
///
/// Deterministic: identical profiles over the same census produce
/// bit-identical weight vectors. With an empty profile the result is
/// exactly static Congress (the lattice vectors alone).
pub fn recompute_weights(census: &GroupCensus, profile: &WorkloadProfile) -> Result<MultiCriteria> {
    let mut vectors = WeightVector::congress_lattice(census);

    if let Some(v) = workload_vector(census, profile)? {
        vectors.push(v);
    }
    if let Some(v) = variance_vector(census, profile)? {
        vectors.push(v);
    }
    MultiCriteria::new(vectors)
}

/// The §4.7 component: each observed grouping contributes its hit share,
/// inflated by the inverse of its mean predicate selectivity (effective
/// sample size under a σ-selective predicate is σ·n, so matching the
/// unfiltered effective size takes 1/σ more tuples). Groupings over
/// columns outside the census's `G` are skipped — this sample cannot
/// serve them no matter how it is allocated.
fn workload_vector(
    census: &GroupCensus,
    profile: &WorkloadProfile,
) -> Result<Option<WeightVector>> {
    if profile.is_empty() {
        return Ok(None);
    }
    let total = profile.queries() as f64;
    let mut preferences = Vec::new();
    for (cols, stats) in profile.grouping_stats() {
        let positions: Option<Vec<usize>> = cols
            .iter()
            .map(|c| census.grouping_columns().iter().position(|g| g == c))
            .collect();
        let Some(positions) = positions else {
            continue;
        };
        let share = stats.hits as f64 / total;
        let r = share / stats.mean_selectivity().max(SELECTIVITY_FLOOR);
        if r <= 0.0 {
            continue;
        }
        let grouping = Grouping::from_positions(&positions);
        let proj = grouping.positions();
        let mut weights = HashMap::new();
        for key in census.keys() {
            weights.entry(key.project(&proj)).or_insert(r);
        }
        preferences.push(GroupingPreference { grouping, weights });
    }
    if preferences.is_empty() {
        return Ok(None);
    }
    // Run the §4.7 maximization at a nominal budget; only the *shape* of
    // the targets matters (MultiCriteria normalizes every vector).
    let alloc = WorkloadWeighted::new(preferences)?.allocate(census, 1.0)?;
    if alloc.targets().iter().any(|&t| t > 0.0) {
        Ok(Some(WeightVector::new(
            "Workload",
            alloc.targets().to_vec(),
        )?))
    } else {
        Ok(None)
    }
}

/// The §8 variance criterion: weight each finest group `n_g · S_g`
/// (Neyman allocation shape) from the profile's summary-cell moments.
fn variance_vector(
    census: &GroupCensus,
    profile: &WorkloadProfile,
) -> Result<Option<WeightVector>> {
    let mut weights = Vec::with_capacity(census.group_count());
    let mut any = false;
    for (g, key) in census.keys().iter().enumerate() {
        let sd = profile
            .group_moments(key)
            .map(Moments::std_dev)
            .unwrap_or(0.0);
        let w = census.sizes()[g] as f64 * sd;
        if w > 0.0 {
            any = true;
        }
        weights.push(w);
    }
    if !any {
        return Ok(None);
    }
    Ok(Some(WeightVector::new("Variance", weights)?))
}

/// Outcome of a drift assessment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftReport {
    /// Total-variation distance between the normalized desired and applied
    /// per-group allocations, in `[0, 1]`.
    pub divergence: f64,
    /// Queries the profile had accumulated when assessed.
    pub queries: u64,
    /// Whether the detector recommends reallocating now.
    pub should_reallocate: bool,
}

/// Compares the allocation the observed workload wants against the
/// allocation the synopsis currently applies, and recommends a rebuild
/// when they diverge past a threshold.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftDetector {
    /// Total-variation divergence above which reallocation triggers.
    pub threshold: f64,
    /// Minimum observed queries before the detector will ever trigger
    /// (a two-query "workload" is noise, not drift).
    pub min_queries: u64,
}

impl Default for DriftDetector {
    fn default() -> Self {
        DriftDetector {
            threshold: 0.15,
            min_queries: 32,
        }
    }
}

impl DriftDetector {
    /// A detector with an explicit threshold and query floor.
    pub fn new(threshold: f64, min_queries: u64) -> DriftDetector {
        DriftDetector {
            threshold,
            min_queries,
        }
    }

    /// Assess drift: recompute the profile-desired allocation at `space`
    /// and compare it (total-variation distance over normalized targets)
    /// with the applied per-group sample counts keyed by finest group.
    pub fn assess(
        &self,
        census: &GroupCensus,
        profile: &WorkloadProfile,
        applied: &HashMap<GroupKey, f64>,
        space: f64,
    ) -> Result<DriftReport> {
        let desired = recompute_weights(census, profile)?.allocate(census, space)?;
        let divergence = total_variation(census.keys(), desired.targets(), applied);
        Ok(DriftReport {
            divergence,
            queries: profile.queries(),
            should_reallocate: profile.queries() >= self.min_queries && divergence > self.threshold,
        })
    }
}

/// Total-variation distance between two per-group allocations after
/// normalizing each to a probability vector. Applied mass on groups the
/// census no longer contains counts fully toward the distance (those
/// sampled rows serve groups the fresh data no longer has).
pub fn total_variation(
    keys: &[GroupKey],
    desired: &[f64],
    applied: &HashMap<GroupKey, f64>,
) -> f64 {
    let dt: f64 = desired.iter().sum();
    let at: f64 = applied.values().sum();
    if dt <= 0.0 && at <= 0.0 {
        return 0.0;
    }
    if dt <= 0.0 || at <= 0.0 {
        return 1.0;
    }
    let mut tv = 0.0;
    let mut matched = 0.0;
    for (key, &d) in keys.iter().zip(desired) {
        let a = applied.get(key).copied().unwrap_or(0.0);
        matched += a;
        tv += (d / dt - a / at).abs();
    }
    tv += (at - matched).max(0.0) / at;
    (0.5 * tv).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Congress;
    use crate::census::test_support::figure5_census;
    use relation::Value;

    fn hot_profile(census: &GroupCensus, reps: u64) -> WorkloadProfile {
        // Hammer the {A} grouping; everything else untouched.
        let mut p = WorkloadProfile::new();
        let a = census.grouping_columns()[0];
        for _ in 0..reps {
            p.record_query(&[a], Some(1.0));
        }
        p
    }

    #[test]
    fn empty_profile_degrades_to_static_congress() {
        let c = figure5_census(10);
        let adaptive = recompute_weights(&c, &WorkloadProfile::new()).unwrap();
        let a = adaptive.allocate(&c, 100.0).unwrap();
        let s = Congress.allocate(&c, 100.0).unwrap();
        for (x, y) in a.targets().iter().zip(s.targets()) {
            assert!((x - y).abs() < 1e-9, "adaptive {x} vs static {y}");
        }
    }

    #[test]
    fn hot_grouping_gains_share() {
        let c = figure5_census(10);
        let p = hot_profile(&c, 50);
        let adaptive = recompute_weights(&c, &p)
            .unwrap()
            .allocate(&c, 60.0)
            .unwrap();
        let s = Congress.allocate(&c, 60.0).unwrap();
        // a2's lone finest group (a2,b3) is tiny under {A,B} but carries a
        // full supergroup share under the hot {A}: adaptive must not give
        // it less share than static.
        let a2 = c
            .keys()
            .iter()
            .position(|k| k.values()[0] == Value::str("a2"))
            .unwrap();
        let share = |t: &[f64], g: usize| t[g] / t.iter().sum::<f64>();
        assert!(
            share(adaptive.targets(), a2) >= share(s.targets(), a2) - 1e-12,
            "hot supergroup share shrank: adaptive {} static {}",
            share(adaptive.targets(), a2),
            share(s.targets(), a2)
        );
    }

    #[test]
    fn selectivity_inflates_weight() {
        // Two groupings, equally hot — but {A} is queried through a
        // 10%-selective predicate. Within the workload vector {A}'s groups
        // must outweigh what they would get in the even-selectivity case.
        let c = figure5_census(10);
        let a = c.grouping_columns()[0];
        let b = c.grouping_columns()[1];
        let mut even = WorkloadProfile::new();
        let mut skewed = WorkloadProfile::new();
        for _ in 0..20 {
            even.record_query(&[a], Some(1.0));
            even.record_query(&[b], Some(1.0));
            skewed.record_query(&[a], Some(0.1));
            skewed.record_query(&[b], Some(1.0));
        }
        let we = workload_vector(&c, &even).unwrap().unwrap();
        let ws = workload_vector(&c, &skewed).unwrap().unwrap();
        // a2's lone finest group draws its candidate from the {A}
        // preference; its normalized share must grow under the selective
        // workload.
        let a2 = c
            .keys()
            .iter()
            .position(|k| k.values()[0] == Value::str("a2"))
            .unwrap();
        let share = |v: &WeightVector| v.weights[a2] / v.weights.iter().sum::<f64>();
        assert!(
            share(&ws) > share(&we) * 1.5,
            "selective share {} not inflated over {}",
            share(&ws),
            share(&we)
        );
    }

    #[test]
    fn recomputation_is_deterministic() {
        let c = figure5_census(10);
        let mut p = WorkloadProfile::new();
        let cols = c.grouping_columns().to_vec();
        p.record_query(&cols, Some(0.4));
        p.record_query(&[cols[0]], None);
        p.record_measure("m0", None);
        for (g, key) in c.keys().iter().enumerate() {
            p.set_group_moments(
                key.clone(),
                Moments {
                    n: 10 + g as u64,
                    sum: 5.0 * g as f64,
                    sum_sq: 40.0 * g as f64,
                    ..Moments::new()
                },
            );
        }
        let a = recompute_weights(&c, &p)
            .unwrap()
            .allocate(&c, 77.0)
            .unwrap();
        let b = recompute_weights(&c, &p.clone())
            .unwrap()
            .allocate(&c, 77.0)
            .unwrap();
        assert_eq!(a.targets(), b.targets());
    }

    #[test]
    fn drift_zero_when_applied_matches_desired() {
        let c = figure5_census(10);
        let p = hot_profile(&c, 64);
        let desired = recompute_weights(&c, &p)
            .unwrap()
            .allocate(&c, 50.0)
            .unwrap();
        let applied: HashMap<GroupKey, f64> = c
            .keys()
            .iter()
            .cloned()
            .zip(desired.targets().iter().copied())
            .collect();
        let d = DriftDetector::default();
        let report = d.assess(&c, &p, &applied, 50.0).unwrap();
        assert!(report.divergence < 1e-9, "divergence {}", report.divergence);
        assert!(!report.should_reallocate);
    }

    #[test]
    fn drift_detects_misallocation_and_respects_query_floor() {
        let c = figure5_census(10);
        let p = hot_profile(&c, 64);
        // Everything piled on one cold group.
        let mut applied = HashMap::new();
        applied.insert(c.keys()[0].clone(), 50.0);
        let d = DriftDetector::new(0.15, 32);
        let report = d.assess(&c, &p, &applied, 50.0).unwrap();
        assert!(report.divergence > 0.15, "divergence {}", report.divergence);
        assert!(report.should_reallocate);
        // Same drift but too few observations: no trigger.
        let young = hot_profile(&c, 4);
        let report = d.assess(&c, &young, &applied, 50.0).unwrap();
        assert!(!report.should_reallocate);
    }

    #[test]
    fn stale_group_mass_counts_as_drift() {
        let c = figure5_census(10);
        let p = hot_profile(&c, 64);
        // Applied sample entirely on a group the census doesn't contain.
        let mut applied = HashMap::new();
        applied.insert(
            GroupKey::new(vec![Value::str("gone"), Value::str("x")]),
            50.0,
        );
        let report = DriftDetector::default()
            .assess(&c, &p, &applied, 50.0)
            .unwrap();
        assert!(report.divergence > 0.9, "divergence {}", report.divergence);
    }
}
