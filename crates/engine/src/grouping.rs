//! The group index: dense group ids for rows under a grouping.
//!
//! The served rewrites' cell layouts, the congress census and per-group
//! reservoir construction all need "which group is row *r* in?" for every
//! row of a relation. The [`GroupIndex`] computes, for a set of grouping
//! columns, a dense `u32` group id per row plus the materialized
//! [`GroupKey`] per id. The cold scan — exact queries and the four cold
//! rewrite plans — builds no index: it resolves ids for the selected rows
//! only, chunk by chunk (see `exec`).
//!
//! Implementation: each grouping column is first re-encoded to a dense
//! per-column code (string columns already are; int/float/date columns get
//! an on-the-fly dictionary). Up to four column codes are packed into a
//! `u128` hash key, so the per-row hash probe is over a fixed-width integer
//! rather than an allocated composite key. Groupings wider than four
//! columns fall back to a `Vec<u64>` key — correct, just slower, and outside
//! the paper's parameter range (|G| = 3).

use std::collections::HashMap;

use rayon::prelude::*;

use relation::{ColumnId, GroupKey, Relation};

/// Below this row count the sharded parallel index build is pure
/// overhead: [`GroupIndex::par_build`] builds sequentially.
pub const PAR_MIN_ROWS: usize = 4096;

/// Minimum rows *per shard* for the sharded parallel index build. The
/// measured cold-parallel regression (631.8 q/s vs 688.1 serial at a
/// 50k-row sample) came from gating on total rows only: splitting 50k
/// rows across 8+ threads gives each shard so little work
/// that per-shard dictionaries plus the merge pass cost more than they
/// save. Capping the shard count at `n / PAR_SHARD_MIN_ROWS` keeps every
/// shard beyond the measured break-even (~32Ki rows).
pub const PAR_SHARD_MIN_ROWS: usize = 32 * 1024;

/// Dense group ids for every row of a relation under one grouping.
#[derive(Debug, Clone)]
pub struct GroupIndex {
    cols: Vec<ColumnId>,
    group_of_row: Vec<u32>,
    keys: Vec<GroupKey>,
    /// First-occurrence row per group id (`u32::MAX` only for the empty
    /// grouping of a relation with no rows).
    first_rows: Vec<u32>,
    /// Group ids sorted by ascending key, computed once on first use so a
    /// memoized index lets repeat queries skip the per-result key sort.
    sorted_gids: std::sync::OnceLock<Vec<u32>>,
    /// Key → group id, computed once on first use. Bounds computation maps
    /// estimate keys back to census group ids on every query; memoizing
    /// the reverse index here (the index is cached and shared) replaces a
    /// per-query O(groups) HashMap build with a lookup.
    key_to_gid: std::sync::OnceLock<HashMap<GroupKey, u32>>,
}

impl GroupIndex {
    /// Build the index for `cols` over all rows of `rel`.
    ///
    /// An empty `cols` produces the single empty group (the `T = ∅`
    /// no-group-by grouping), with every row assigned to it.
    pub fn build(rel: &Relation, cols: &[ColumnId]) -> GroupIndex {
        let n = rel.row_count();
        if cols.is_empty() {
            return GroupIndex {
                cols: Vec::new(),
                group_of_row: vec![0; n],
                keys: vec![GroupKey::empty()],
                first_rows: vec![if n > 0 { 0 } else { u32::MAX }],
                sorted_gids: std::sync::OnceLock::new(),
                key_to_gid: std::sync::OnceLock::new(),
            };
        }

        // Pre-size the hash maps from zone-map distinct hints when zone
        // maps are already built (chunked storage builds them for pruning;
        // never force a build here). The hint sums per-chunk estimates so
        // it overestimates repeated values; capping at the row count keeps
        // the reservation bounded. A missing hint only costs rehashing.
        let zm = rel.zone_maps_if_built();
        let col_hint = |c: ColumnId| zm.as_ref().map_or(0, |z| z.distinct_hint(c).min(n));
        let group_hint = cols.iter().map(|&c| col_hint(c)).max().unwrap_or(0);

        // Dense per-column codes.
        let mut dense_codes: Vec<Vec<u32>> = Vec::with_capacity(cols.len());
        for &c in cols {
            let col = rel.column(c);
            let mut dict: HashMap<u64, u32> = HashMap::with_capacity(col_hint(c));
            let mut codes = vec![0u32; n];
            for (r, code) in codes.iter_mut().enumerate() {
                let raw = col.group_code(r);
                let next = dict.len() as u32;
                *code = *dict.entry(raw).or_insert(next);
            }
            dense_codes.push(codes);
        }

        let mut group_of_row = vec![0u32; n];
        let mut keys: Vec<GroupKey> = Vec::new();
        let mut first_rows: Vec<u32> = Vec::new();

        if cols.len() <= 4 {
            let mut map: HashMap<u128, u32> = HashMap::with_capacity(group_hint);
            for r in 0..n {
                let mut packed: u128 = 0;
                for codes in &dense_codes {
                    packed = (packed << 32) | codes[r] as u128;
                }
                let next = map.len() as u32;
                let gid = *map.entry(packed).or_insert_with(|| {
                    keys.push(GroupKey::from_row(rel, r, cols));
                    first_rows.push(r as u32);
                    next
                });
                group_of_row[r] = gid;
            }
        } else {
            let mut map: HashMap<Vec<u32>, u32> = HashMap::with_capacity(group_hint);
            let mut scratch: Vec<u32> = Vec::with_capacity(dense_codes.len());
            for r in 0..n {
                scratch.clear();
                scratch.extend(dense_codes.iter().map(|codes| codes[r]));
                // Probe by slice (`Vec<u32>` hashes identically to
                // `[u32]`); the owned key is allocated only when the
                // group is new.
                let gid = match map.get(scratch.as_slice()) {
                    Some(&g) => g,
                    None => {
                        let g = map.len() as u32;
                        keys.push(GroupKey::from_row(rel, r, cols));
                        first_rows.push(r as u32);
                        map.insert(scratch.clone(), g);
                        g
                    }
                };
                group_of_row[r] = gid;
            }
        }

        GroupIndex {
            cols: cols.to_vec(),
            group_of_row,
            keys,
            first_rows,
            sorted_gids: std::sync::OnceLock::new(),
            key_to_gid: std::sync::OnceLock::new(),
        }
    }

    /// Parallel [`Self::build`]: shard the rows across threads, build a
    /// local dictionary per shard, then merge shards in row order.
    ///
    /// Produces an index *identical* to the sequential build for any
    /// thread count: a group's id is its rank by global first-occurrence
    /// row, and merging shards in order (preserving each shard's local
    /// first-seen order) reproduces exactly that rank — the registration
    /// order is a property of the data, not of the chunking. Falls back to
    /// the sequential build for small inputs, a single thread, or the
    /// empty grouping.
    pub fn par_build(rel: &Relation, cols: &[ColumnId]) -> GroupIndex {
        let n = rel.row_count();
        // Every shard holds at least PAR_SHARD_MIN_ROWS rows; sequential
        // when even two shards of that size do not fit.
        let threads = rayon::current_num_threads()
            .max(1)
            .min(n / PAR_SHARD_MIN_ROWS);
        if cols.is_empty() || threads <= 1 || n < PAR_MIN_ROWS {
            return Self::build(rel, cols);
        }

        let chunk = n.div_ceil(threads);
        let ranges: Vec<(usize, usize)> = (0..threads)
            .map(|t| (t * chunk, ((t + 1) * chunk).min(n)))
            .filter(|(a, b)| a < b)
            .collect();

        // Shard pass: per shard, a local dictionary over the raw per-column
        // codes. `codes_by_local_id[g]` is the composite code of local group
        // `g`, `first_rows[g]` its first-occurrence row inside the shard,
        // local ids in shard first-seen order.
        struct Shard {
            start: usize,
            codes_by_local_id: Vec<Vec<u64>>,
            first_rows: Vec<usize>,
            local_gids: Vec<u32>,
        }
        let shards: Vec<Shard> = ranges
            .into_par_iter()
            .map(|(start, end)| {
                let columns: Vec<_> = cols.iter().map(|&c| rel.column(c)).collect();
                let mut map: HashMap<Vec<u64>, u32> = HashMap::new();
                let mut codes_by_local_id: Vec<Vec<u64>> = Vec::new();
                let mut first_rows: Vec<usize> = Vec::new();
                let mut local_gids = vec![u32::MAX; end - start];
                for r in start..end {
                    let code: Vec<u64> = columns.iter().map(|col| col.group_code(r)).collect();
                    let gid = match map.get(&code) {
                        Some(&g) => g,
                        None => {
                            let g = codes_by_local_id.len() as u32;
                            codes_by_local_id.push(code.clone());
                            first_rows.push(r);
                            map.insert(code, g);
                            g
                        }
                    };
                    local_gids[r - start] = gid;
                }
                Shard {
                    start,
                    codes_by_local_id,
                    first_rows,
                    local_gids,
                }
            })
            .collect();

        // Merge pass (sequential, over distinct groups only): shards in row
        // order, local ids in shard first-seen order, so a group is
        // registered at its global first-occurrence row.
        let mut global: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut keys: Vec<GroupKey> = Vec::new();
        let mut first_rows: Vec<u32> = Vec::new();
        let mut remaps: Vec<Vec<u32>> = Vec::with_capacity(shards.len());
        for shard in &shards {
            let mut remap = Vec::with_capacity(shard.codes_by_local_id.len());
            for (local, code) in shard.codes_by_local_id.iter().enumerate() {
                let gid = match global.get(code) {
                    Some(&g) => g,
                    None => {
                        let g = keys.len() as u32;
                        keys.push(GroupKey::from_row(rel, shard.first_rows[local], cols));
                        first_rows.push(shard.first_rows[local] as u32);
                        global.insert(code.clone(), g);
                        g
                    }
                };
                remap.push(gid);
            }
            remaps.push(remap);
        }

        // Fill pass: translate local ids to global ids.
        let mut group_of_row = vec![u32::MAX; n];
        for (shard, remap) in shards.iter().zip(&remaps) {
            for (i, &lg) in shard.local_gids.iter().enumerate() {
                group_of_row[shard.start + i] = remap[lg as usize];
            }
        }

        GroupIndex {
            cols: cols.to_vec(),
            group_of_row,
            keys,
            first_rows,
            sorted_gids: std::sync::OnceLock::new(),
            key_to_gid: std::sync::OnceLock::new(),
        }
    }

    /// The grouping columns this index was built for.
    pub fn columns(&self) -> &[ColumnId] {
        &self.cols
    }

    /// Number of non-empty groups.
    pub fn group_count(&self) -> usize {
        self.keys.len()
    }

    /// Group ids ordered by ascending group key. Keys are distinct, so this
    /// order is exactly what sorting result rows by key would produce —
    /// emitting rows in this order lets [`QueryResult::from_sorted`] skip
    /// the per-query sort.
    ///
    /// [`QueryResult::from_sorted`]: crate::QueryResult::from_sorted
    pub fn gids_by_key(&self) -> &[u32] {
        self.sorted_gids.get_or_init(|| {
            let mut gids: Vec<u32> = (0..self.keys.len() as u32).collect();
            gids.sort_unstable_by(|&a, &b| self.keys[a as usize].cmp(&self.keys[b as usize]));
            gids
        })
    }

    /// Group id of `key`, or `None` if the key names no group. The reverse
    /// index is built once on first use and shared by every subsequent
    /// lookup (bounds computation calls this per result group per query).
    pub fn gid_of_key(&self, key: &GroupKey) -> Option<u32> {
        let map = self.key_to_gid.get_or_init(|| {
            self.keys
                .iter()
                .enumerate()
                .map(|(gid, k)| (k.clone(), gid as u32))
                .collect()
        });
        map.get(key).copied()
    }

    /// Group id of `row`.
    #[inline]
    pub fn group_of(&self, row: usize) -> u32 {
        self.group_of_row[row]
    }

    /// Per-row group ids.
    pub fn group_ids(&self) -> &[u32] {
        &self.group_of_row
    }

    /// The key of group `gid`.
    pub fn key(&self, gid: u32) -> &GroupKey {
        &self.keys[gid as usize]
    }

    /// All group keys, indexed by group id.
    pub fn keys(&self) -> &[GroupKey] {
        &self.keys
    }

    /// First-occurrence row of group `gid` — a representative row for
    /// evaluating expressions that are constant within the group (e.g. a
    /// predicate over the grouping columns).
    ///
    /// # Panics
    /// For the empty grouping of a relation with no rows, since no
    /// representative row exists.
    pub fn first_row(&self, gid: u32) -> usize {
        let r = self.first_rows[gid as usize];
        assert_ne!(r, u32::MAX, "group has no representative row");
        r as usize
    }

    /// Per-group row counts.
    pub fn group_sizes(&self) -> Vec<usize> {
        let mut sizes = vec![0usize; self.keys.len()];
        for &g in &self.group_of_row {
            sizes[g as usize] += 1;
        }
        sizes
    }

    /// Row indices of each group, in relation order.
    pub fn rows_by_group(&self) -> Vec<Vec<usize>> {
        let mut out: Vec<Vec<usize>> = vec![Vec::new(); self.keys.len()];
        for (r, &g) in self.group_of_row.iter().enumerate() {
            out[g as usize].push(r);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relation::{DataType, RelationBuilder, Value};

    fn rel() -> Relation {
        let mut b = RelationBuilder::new()
            .column("a", DataType::Str)
            .column("b", DataType::Int)
            .column("v", DataType::Float);
        let rows: [(&str, i64, f64); 6] = [
            ("x", 1, 1.0),
            ("y", 1, 2.0),
            ("x", 2, 3.0),
            ("x", 1, 4.0),
            ("y", 2, 5.0),
            ("x", 2, 6.0),
        ];
        for (a, bb, v) in rows {
            b.push_row(&[Value::str(a), Value::Int(bb), Value::from(v)])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn single_column_grouping() {
        let r = rel();
        let ix = GroupIndex::build(&r, &[r.schema().column_id("a").unwrap()]);
        assert_eq!(ix.group_count(), 2);
        assert_eq!(ix.group_of(0), ix.group_of(2));
        assert_ne!(ix.group_of(0), ix.group_of(1));
        let sizes = ix.group_sizes();
        assert_eq!(sizes.iter().sum::<usize>(), 6);
        assert!(sizes.contains(&4) && sizes.contains(&2));
    }

    #[test]
    fn two_column_grouping() {
        let r = rel();
        let cols = r.schema().column_ids(&["a", "b"]).unwrap();
        let ix = GroupIndex::build(&r, &cols);
        assert_eq!(ix.group_count(), 4); // (x,1),(y,1),(x,2),(y,2)
                                         // rows 0 and 3 are both (x,1)
        assert_eq!(ix.group_of(0), ix.group_of(3));
        assert_eq!(ix.key(ix.group_of(0)).values()[0], Value::str("x"));
    }

    #[test]
    fn empty_grouping_is_single_group() {
        let r = rel();
        let ix = GroupIndex::build(&r, &[]);
        assert_eq!(ix.group_count(), 1);
        assert!(ix.keys()[0].is_empty());
        assert!(ix.group_ids().iter().all(|&g| g == 0));
    }

    #[test]
    fn rows_by_group_partitions() {
        let r = rel();
        let ix = GroupIndex::build(&r, &[r.schema().column_id("b").unwrap()]);
        let parts = ix.rows_by_group();
        let mut all: Vec<usize> = parts.concat();
        all.sort_unstable();
        assert_eq!(all, (0..6).collect::<Vec<_>>());
        // group of b=1 contains rows 0,1,3
        let g1 = ix.group_of(0) as usize;
        assert_eq!(parts[g1], vec![0, 1, 3]);
    }

    #[test]
    fn wide_grouping_falls_back() {
        // 5 grouping columns exercises the Vec<u32>-keyed path.
        let mut b = RelationBuilder::new()
            .column("c1", DataType::Int)
            .column("c2", DataType::Int)
            .column("c3", DataType::Int)
            .column("c4", DataType::Int)
            .column("c5", DataType::Int);
        for i in 0..8i64 {
            b.push_row(&[
                Value::Int(i % 2),
                Value::Int(i / 2 % 2),
                Value::Int(i / 4 % 2),
                Value::Int(0),
                Value::Int(i),
            ])
            .unwrap();
        }
        let r = b.finish();
        let cols: Vec<ColumnId> = (0..5).map(ColumnId).collect();
        let ix = GroupIndex::build(&r, &cols);
        assert_eq!(ix.group_count(), 8); // c5 = i makes every row distinct
    }

    #[test]
    fn wide_fallback_matches_packed_path() {
        // The >4-column composite-key fallback must assign exactly the
        // same group structure as the packed-u128 path. Appending a
        // constant fifth column leaves the grouping semantically unchanged
        // but forces the fallback, so the two indexes must agree row for
        // row — ids, counts, and keys (modulo the appended constant).
        let mut b = RelationBuilder::new()
            .column("c1", DataType::Int)
            .column("c2", DataType::Str)
            .column("c3", DataType::Int)
            .column("c4", DataType::Int)
            .column("c5", DataType::Int);
        for i in 0..200i64 {
            let g = (i * 31) % 17;
            b.push_row(&[
                Value::Int(g % 3),
                Value::str(if g % 2 == 0 { "even" } else { "odd" }),
                Value::Int(g % 5),
                Value::Int(g % 7),
                Value::Int(42), // constant: adds no grouping information
            ])
            .unwrap();
        }
        let r = b.finish();
        let packed_cols: Vec<ColumnId> = (0..4).map(ColumnId).collect();
        let wide_cols: Vec<ColumnId> = (0..5).map(ColumnId).collect();

        let packed = GroupIndex::build(&r, &packed_cols);
        let wide = GroupIndex::build(&r, &wide_cols);
        assert_eq!(wide.group_count(), packed.group_count());
        assert_eq!(wide.group_ids(), packed.group_ids());
        assert_eq!(wide.group_sizes(), packed.group_sizes());
        for gid in 0..packed.group_count() as u32 {
            let w = wide.key(gid).values();
            assert_eq!(&w[..4], packed.key(gid).values());
            assert_eq!(w[4], Value::Int(42));
            assert_eq!(wide.first_row(gid), packed.first_row(gid));
        }
    }

    /// A relation big enough to exercise the sharded parallel path
    /// (> PAR_MIN_ROWS), with group first-occurrences spread across shards.
    fn big_rel(n: usize) -> Relation {
        let mut b = RelationBuilder::new()
            .column("a", DataType::Int)
            .column("b", DataType::Str)
            .column("v", DataType::Float);
        for i in 0..n {
            // Deliberately non-monotone group pattern so late shards see
            // both old and brand-new groups.
            let g = (i * 7919) % 97;
            b.push_row(&[
                Value::Int((g % 13) as i64),
                Value::str(format!("s{}", g / 13).as_str()),
                Value::from(i as f64),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn par_build_matches_sequential_at_any_thread_count() {
        // Big enough that the per-shard work gate (PAR_SHARD_MIN_ROWS)
        // still yields at least two shards.
        let r = big_rel(80_000);
        let cols = r.schema().column_ids(&["a", "b"]).unwrap();
        let seq = GroupIndex::build(&r, &cols);
        for threads in [1usize, 2, 3, 8] {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let par = pool.install(|| GroupIndex::par_build(&r, &cols));
            assert_eq!(par.group_ids(), seq.group_ids(), "threads = {threads}");
            assert_eq!(par.keys(), seq.keys(), "threads = {threads}");
            for gid in 0..seq.group_count() as u32 {
                assert_eq!(
                    par.first_row(gid),
                    seq.first_row(gid),
                    "threads = {threads}"
                );
            }
        }
    }

    #[test]
    fn small_parallel_build_falls_back_to_sequential_shape() {
        // Below two shards' worth of rows the parallel entry point must
        // still produce the identical index via the sequential path.
        let r = big_rel(10_000);
        let cols = r.schema().column_ids(&["a", "b"]).unwrap();
        let seq = GroupIndex::build(&r, &cols);
        let par = GroupIndex::par_build(&r, &cols);
        assert_eq!(par.group_ids(), seq.group_ids());
        assert_eq!(par.keys(), seq.keys());
    }

    #[test]
    fn first_row_tracks_global_first_occurrence() {
        let r = rel();
        let a = r.schema().column_id("a").unwrap();
        let ix = GroupIndex::build(&r, &[a]);
        // "x" first appears at row 0, "y" at row 1.
        assert_eq!(ix.first_row(ix.group_of(0)), 0);
        assert_eq!(ix.first_row(ix.group_of(1)), 1);
    }

    #[test]
    fn float_groups_by_bit_pattern() {
        let mut b = RelationBuilder::new().column("f", DataType::Float);
        for v in [1.5, 1.5, 2.5] {
            b.push_row(&[Value::from(v)]).unwrap();
        }
        let r = b.finish();
        let ix = GroupIndex::build(&r, &[ColumnId(0)]);
        assert_eq!(ix.group_count(), 2);
    }
}
