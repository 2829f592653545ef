//! Statistical property tests pinning the adaptive-maintenance layer:
//!
//! * the Theorem 6.1 delta-sample merge ([`Reservoir::merge_uniform`] and
//!   [`BasicCongressMaintainer::absorb`]) preserves per-stratum target
//!   sizes and per-row uniformity (chi-square over seeded trials),
//! * the Eq-8 probabilistic-eviction maintainer keeps inclusion
//!   probabilities within tolerance of the closed-form targets under
//!   adversarial arrival orders,
//! * [`recompute_weights`] is deterministic given a fixed profile
//!   snapshot and degrades to static Congress on an empty profile.
//!
//! The statistical tests derive all randomness from `ADAPTIVE_SEED` (CI
//! runs a small seed matrix); every assertion is deterministic for a
//! fixed seed value.

use std::collections::HashMap;

use congress::adaptive::{recompute_weights, GroupMoments, WorkloadProfile};
use congress::alloc::per_tuple_probabilities;
use congress::build::{
    BasicCongressMaintainer, CongressEvictionMaintainer, IncrementalMaintainer, Reservoir,
};
use congress::{AllocationStrategy, Congress, GroupCensus};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use relation::{ColumnId, GroupKey, Value};

/// Base RNG seed for the chi-square trials; `ADAPTIVE_SEED` lets CI run a
/// matrix of seeds without recompiling.
fn base_seed() -> u64 {
    std::env::var("ADAPTIVE_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(17)
}

fn key(g: u8) -> GroupKey {
    GroupKey::new(vec![Value::Int(g as i64)])
}

// ---------------------------------------------------------------------------
// Theorem 6.1 delta merge: uniformity
// ---------------------------------------------------------------------------

/// Merging two fully-held reservoirs over disjoint streams must include
/// every union item with identical probability `capacity / N`. The
/// inclusion counts over many trials are compared against the uniform
/// expectation with a chi-square statistic: 49 cells, so a fair merge
/// lands near the degrees of freedom while any per-source or per-item
/// bias of a few percent blows past the bound by an order of magnitude.
#[test]
#[ignore = "seeded statistical trials; run with --include-ignored"]
fn merge_uniform_inclusion_is_uniform() {
    const NA: usize = 30;
    const NB: usize = 20;
    const CAP: usize = 25;
    const TRIALS: u64 = 4000;

    let mut warm = StdRng::seed_from_u64(base_seed());
    let mut a = Reservoir::new(NA);
    let mut b = Reservoir::new(NB);
    for i in 0..NA {
        a.offer(i, &mut warm);
    }
    for i in 0..NB {
        b.offer(NA + i, &mut warm);
    }

    let mut counts = vec![0u64; NA + NB];
    for t in 0..TRIALS {
        let mut rng = StdRng::seed_from_u64(base_seed().wrapping_add(t + 1));
        let merged = Reservoir::merge_uniform(&a, &b, CAP, &mut rng);
        assert_eq!(merged.len(), CAP);
        assert_eq!(merged.seen(), (NA + NB) as u64);
        let mut items = merged.items().to_vec();
        items.sort_unstable();
        items.dedup();
        assert_eq!(items.len(), CAP, "merge produced duplicate items");
        for &i in &items {
            counts[i] += 1;
        }
    }

    let expected = TRIALS as f64 * CAP as f64 / (NA + NB) as f64;
    let chi2: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    assert!(
        chi2 < 120.0,
        "delta-merge inclusion not uniform: chi2 {chi2:.1} over {} cells \
         (expected ~{expected:.0} each): {counts:?}",
        counts.len()
    );
}

/// After `absorb`ing a delta maintainer, the published sample of a group
/// whose rows were split across base and delta must still be uniform over
/// the whole group — arrival side must not bias inclusion.
#[test]
#[ignore = "seeded statistical trials; run with --include-ignored"]
fn absorb_keeps_per_group_samples_uniform() {
    const N: usize = 48;
    const SPLIT: usize = 30;
    const Y: usize = 12;
    const TRIALS: u64 = 2500;

    let mut counts = vec![0u64; N];
    let mut picked = 0u64;
    for t in 0..TRIALS {
        let mut rng = StdRng::seed_from_u64(base_seed() ^ (t + 1).wrapping_mul(0x9e37_79b9));
        let mut base = BasicCongressMaintainer::new(Y);
        for r in 0..SPLIT {
            base.insert(r, &key(0), &mut rng);
        }
        let mut delta = BasicCongressMaintainer::new(Y);
        for r in SPLIT..N {
            delta.insert(r, &key(0), &mut rng);
        }
        base.absorb(delta, &mut rng);
        assert_eq!(base.seen(), N as u64);
        let s = base.snapshot(&mut rng).unwrap();
        for &r in &s.sampled_rows()[0] {
            counts[r] += 1;
            picked += 1;
        }
    }

    let expected = picked as f64 / N as f64;
    let chi2: f64 = counts
        .iter()
        .map(|&c| {
            let d = c as f64 - expected;
            d * d / expected
        })
        .sum();
    assert!(
        chi2 < 130.0,
        "absorbed sample not uniform over the group: chi2 {chi2:.1} \
         (expected ~{expected:.0} per row): {counts:?}"
    );
}

// ---------------------------------------------------------------------------
// Eq-8 eviction: inclusion probabilities under adversarial orders
// ---------------------------------------------------------------------------

/// Insert the same skewed composition in four adversarial arrival orders;
/// after a final rebalance the maintained sample size must track the
/// closed-form expectation `Σ n_g · min(1, p_g)` from the Eq-8
/// probabilities, for every order. Mid-stream rebalances fire naturally
/// (the stream is longer than the maintainer's backoff interval), so the
/// staleness concession — tuples admitted at yesterday's probability — is
/// exercised, not bypassed.
#[test]
#[ignore = "seeded statistical trials; run with --include-ignored"]
fn eq8_eviction_tracks_inclusion_probabilities_under_adversarial_orders() {
    const BUDGET: f64 = 100.0;
    const TRIALS: u64 = 24;
    let sizes: [usize; 5] = [3600, 1800, 360, 180, 60];
    let n_total: usize = sizes.iter().sum();

    // Closed-form expectation from the exact census.
    let keys: Vec<GroupKey> = (0..sizes.len() as u8).map(key).collect();
    let census = GroupCensus::from_counts(
        vec![ColumnId(0)],
        keys,
        sizes.iter().map(|&n| n as u64).collect(),
    )
    .unwrap();
    let probs = per_tuple_probabilities(&census, BUDGET).unwrap();
    let expected: f64 = sizes
        .iter()
        .zip(&probs)
        .map(|(&n, &p)| n as f64 * p.min(1.0))
        .sum();

    // The four arrival orders: big groups first, small groups first,
    // round-robin interleave, and a seeded shuffle.
    let grouped: Vec<u8> = sizes
        .iter()
        .enumerate()
        .flat_map(|(g, &n)| std::iter::repeat_n(g as u8, n))
        .collect();
    let mut reversed = grouped.clone();
    reversed.reverse();
    let mut interleaved: Vec<u8> = Vec::with_capacity(n_total);
    let mut remaining = sizes;
    while interleaved.len() < n_total {
        for (g, r) in remaining.iter_mut().enumerate() {
            if *r > 0 {
                *r -= 1;
                interleaved.push(g as u8);
            }
        }
    }
    let mut shuffled = grouped.clone();
    shuffled.shuffle(&mut StdRng::seed_from_u64(base_seed()));

    for (name, stream) in [
        ("grouped", &grouped),
        ("reversed", &reversed),
        ("interleaved", &interleaved),
        ("shuffled", &shuffled),
    ] {
        let mut total = 0.0f64;
        let mut rebalances = 0u64;
        let mut evictions = 0u64;
        for t in 0..TRIALS {
            let mut rng = StdRng::seed_from_u64(base_seed().wrapping_add(1000 + t));
            let mut m = CongressEvictionMaintainer::new(1, BUDGET);
            for (r, &g) in stream.iter().enumerate() {
                m.insert(r, &key(g), &mut rng);
            }
            m.rebalance(&mut rng).unwrap();
            total += m.sample_len() as f64;
            rebalances += m.rebalances();
            evictions += m.evictions();
        }
        let mean = total / TRIALS as f64;
        assert!(
            rebalances > TRIALS && evictions > 0,
            "{name}: stream too short to exercise mid-stream rebalances \
             (rebalances {rebalances}, evictions {evictions})"
        );
        assert!(
            (mean - expected).abs() <= 0.15 * expected,
            "{name}: mean maintained sample {mean:.1} drifted from the \
             Eq-8 expectation {expected:.1} (probs {probs:?})"
        );
    }
}

// ---------------------------------------------------------------------------
// Absorb: structural invariants for arbitrary splits (proptest)
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `absorb` must leave the maintainer indistinguishable from one that
    /// streamed the rows directly: exact per-group counts, every group
    /// represented, rows unique and correctly keyed, total within the
    /// Basic Congress budget envelope.
    #[test]
    fn absorb_preserves_counts_and_targets(
        stream in proptest::collection::vec(0u8..8, 2..300),
        split_frac in 0.0f64..1.0,
        y in 6usize..60,
        seed in 0u64..64,
    ) {
        let split = (stream.len() as f64 * split_frac) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut base = BasicCongressMaintainer::new(y);
        for (r, &g) in stream[..split].iter().enumerate() {
            base.insert(r, &key(g), &mut rng);
        }
        let mut delta = BasicCongressMaintainer::new(y);
        for (r, &g) in stream[split..].iter().enumerate() {
            delta.insert(split + r, &key(g), &mut rng);
        }
        base.absorb(delta, &mut rng);
        prop_assert_eq!(base.seen(), stream.len() as u64);

        let s = base.snapshot(&mut rng).unwrap();
        let mut true_sizes: HashMap<GroupKey, u64> = HashMap::new();
        for &g in &stream {
            *true_sizes.entry(key(g)).or_insert(0) += 1;
        }
        prop_assert_eq!(s.stratum_count(), true_sizes.len());
        for (g, k) in s.strata_keys().iter().enumerate() {
            prop_assert_eq!(s.group_sizes()[g], true_sizes[k]);
            let rows = &s.sampled_rows()[g];
            prop_assert!(!rows.is_empty(), "group {} unrepresented after absorb", g);
            let mut sorted = rows.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), rows.len());
            for &r in rows {
                prop_assert!(r < stream.len());
                prop_assert_eq!(&key(stream[r]), k);
            }
        }
        // House half + Senate half, plus the ≥1-per-group floor.
        prop_assert!(s.total_sampled() <= 2 * y + true_sizes.len());
    }

    // -----------------------------------------------------------------------
    // Weight recomputation: determinism and budget conservation
    // -----------------------------------------------------------------------

    /// Recomputing weights twice from the same profile snapshot must
    /// produce bit-identical allocations, the allocation must spend
    /// exactly the budget, and the lattice floor must keep every census
    /// group represented.
    #[test]
    fn recompute_weights_is_deterministic(
        sizes in proptest::collection::vec(1u64..5000, 2..12),
        coarse_hits in 1u64..20,
        fine_hits in 0u64..20,
        sel in 0.01f64..1.0,
        moment_scale in 0.0f64..100.0,
        budget in 10.0f64..500.0,
    ) {
        let keys: Vec<GroupKey> = (0..sizes.len() as i64)
            .map(|i| GroupKey::new(vec![Value::Int(i / 3), Value::Int(i % 3)]))
            .collect();
        let census = GroupCensus::from_counts(
            vec![ColumnId(0), ColumnId(1)],
            keys.clone(),
            sizes.clone(),
        ).unwrap();

        let mut profile = WorkloadProfile::new();
        for _ in 0..coarse_hits {
            profile.record_query(&[ColumnId(0)], Some(sel));
        }
        for _ in 0..fine_hits {
            profile.record_query(&[ColumnId(0), ColumnId(1)], None);
        }
        for (i, k) in keys.iter().enumerate() {
            profile.set_group_moments(k.clone(), GroupMoments {
                n: 8,
                sum: moment_scale * (i as f64 + 1.0),
                sum_sq: moment_scale * (i as f64 + 1.0).powi(2),
            });
        }

        let a = recompute_weights(&census, &profile).unwrap()
            .allocate(&census, budget).unwrap();
        let b = recompute_weights(&census, &profile.clone()).unwrap()
            .allocate(&census, budget).unwrap();
        prop_assert_eq!(a.targets().len(), b.targets().len());
        for (x, y) in a.targets().iter().zip(b.targets()) {
            prop_assert_eq!(x.to_bits(), y.to_bits(), "non-deterministic target");
        }
        // Max over per-vector shares that each sum to the budget, rescaled:
        // the total is exactly the budget.
        let total: f64 = a.targets().iter().sum();
        prop_assert!((total - budget).abs() <= 1e-6 * budget,
            "allocation total {} != budget {}", total, budget);
        // Lattice floor: no census group is starved to zero.
        for (g, &t) in a.targets().iter().enumerate() {
            prop_assert!(t > 0.0, "group {} starved by adaptive weights", g);
        }
    }

    /// With an empty profile the recomputed strategy must degrade to
    /// static Congress — same targets within float tolerance.
    #[test]
    fn empty_profile_degrades_to_static_congress(
        sizes in proptest::collection::vec(1u64..5000, 2..12),
        budget in 10.0f64..500.0,
    ) {
        let keys: Vec<GroupKey> = (0..sizes.len() as i64)
            .map(|i| GroupKey::new(vec![Value::Int(i / 3), Value::Int(i % 3)]))
            .collect();
        let census = GroupCensus::from_counts(
            vec![ColumnId(0), ColumnId(1)],
            keys,
            sizes,
        ).unwrap();
        let adaptive = recompute_weights(&census, &WorkloadProfile::new()).unwrap()
            .allocate(&census, budget).unwrap();
        let statik = Congress.allocate(&census, budget).unwrap();
        for (x, y) in adaptive.targets().iter().zip(statik.targets()) {
            prop_assert!((x - y).abs() < 1e-9 * budget.max(1.0),
                "empty profile diverged from static Congress: {} vs {}", x, y);
        }
    }
}
