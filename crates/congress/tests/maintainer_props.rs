//! Property tests over the §6 incremental maintainers: for arbitrary
//! insert streams, every maintainer upholds its structural invariants at
//! every snapshot.

use congress::build::{
    BasicCongressMaintainer, CongressEvictionMaintainer, HouseMaintainer, IncrementalMaintainer,
    SenateMaintainer,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use relation::{GroupKey, Value};

/// A random stream: group ids (small domain, so groups repeat) in arrival
/// order. Row ids are the positions.
fn stream_strategy() -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(0u8..12, 1..400)
}

fn key(g: u8) -> GroupKey {
    GroupKey::new(vec![Value::Int(g as i64)])
}

/// Structural invariants every snapshot must satisfy, regardless of
/// strategy: exact group sizes, no duplicate rows, no over-sampling, row
/// ids from the stream, and strata keyed by every observed group.
fn check_snapshot(
    sample: &congress::CongressionalSample,
    stream: &[u8],
) -> Result<(), TestCaseError> {
    use std::collections::HashMap;
    let mut true_sizes: HashMap<GroupKey, u64> = HashMap::new();
    for &g in stream {
        *true_sizes.entry(key(g)).or_insert(0) += 1;
    }
    prop_assert_eq!(sample.stratum_count(), true_sizes.len());
    for (g, k) in sample.strata_keys().iter().enumerate() {
        prop_assert_eq!(sample.group_sizes()[g], true_sizes[k]);
        let rows = &sample.sampled_rows()[g];
        // No duplicates, never more than the group holds, and every row
        // actually belongs to this group.
        let mut sorted = rows.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), rows.len());
        prop_assert!(rows.len() as u64 <= true_sizes[k]);
        for &r in rows {
            prop_assert!(r < stream.len());
            prop_assert_eq!(&key(stream[r]), k);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn house_maintainer_invariants(stream in stream_strategy(), space in 1usize..80, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = HouseMaintainer::new(space);
        for (r, &g) in stream.iter().enumerate() {
            m.insert(r, &key(g), &mut rng);
        }
        prop_assert_eq!(m.seen(), stream.len() as u64);
        prop_assert_eq!(m.sample_len(), space.min(stream.len()));
        let s = m.snapshot(&mut rng).unwrap();
        prop_assert_eq!(s.total_sampled(), space.min(stream.len()));
        check_snapshot(&s, &stream)?;
    }

    #[test]
    fn senate_maintainer_invariants(stream in stream_strategy(), space in 1usize..80, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = SenateMaintainer::new(space);
        for (r, &g) in stream.iter().enumerate() {
            m.insert(r, &key(g), &mut rng);
        }
        let s = m.snapshot(&mut rng).unwrap();
        check_snapshot(&s, &stream)?;
        // Per-group quota: at most ⌈X/m⌉... but at least 1 per group.
        let m_groups = s.stratum_count();
        let cap = (space / m_groups).max(1);
        for rows in s.sampled_rows() {
            prop_assert!(rows.len() <= cap.max(1));
        }
    }

    #[test]
    fn basic_congress_maintainer_invariants(stream in stream_strategy(), y in 4usize..80, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = BasicCongressMaintainer::new(y);
        for (r, &g) in stream.iter().enumerate() {
            m.insert(r, &key(g), &mut rng);
        }
        let s = m.snapshot(&mut rng).unwrap();
        check_snapshot(&s, &stream)?;
        // Every group is represented (min(quota, n_g) ≥ 1 tuple) and no
        // group exceeds reservoir-share + quota.
        let quota = (y as f64 / s.stratum_count() as f64).ceil() as usize;
        for (g, rows) in s.sampled_rows().iter().enumerate() {
            prop_assert!(!rows.is_empty(), "group {} unrepresented", g);
            // Reservoir share can exceed quota for huge groups; bound by
            // the whole reservoir plus the delta quota.
            prop_assert!(rows.len() <= y + quota);
        }
    }

    #[test]
    fn congress_maintainer_invariants(stream in stream_strategy(), y in 4u32..80, seed in 0u64..100) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = CongressEvictionMaintainer::new(1, y as f64);
        for (r, &g) in stream.iter().enumerate() {
            m.insert(r, &key(g), &mut rng);
        }
        let s = m.snapshot(&mut rng).unwrap();
        check_snapshot(&s, &stream)?;
    }

    /// Maintainers are resumable: snapshotting mid-stream then continuing
    /// must not corrupt later snapshots.
    #[test]
    fn mid_stream_snapshot_is_safe(stream in stream_strategy(), seed in 0u64..50) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = SenateMaintainer::new(20);
        let half = stream.len() / 2;
        for (r, &g) in stream[..half].iter().enumerate() {
            m.insert(r, &key(g), &mut rng);
        }
        let _ = m.snapshot(&mut rng).unwrap();
        for (r, &g) in stream[half..].iter().enumerate() {
            m.insert(half + r, &key(g), &mut rng);
        }
        let s = m.snapshot(&mut rng).unwrap();
        check_snapshot(&s, &stream)?;
    }
}
