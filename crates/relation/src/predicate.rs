//! Predicate AST and vectorized evaluation.
//!
//! The paper's workload needs equality and range predicates over single
//! columns (`Q_{g0}`'s `s <= l_id <= s+c`, TPC-D Q1's `l_shipdate <=
//! '01-SEP-98'`) plus boolean combinations. Predicates evaluate to a
//! selection bitmap over a [`Relation`].

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::bitmap::Bitmap;
use crate::chunk::{
    chunk_count, chunk_range, ChunkStats, ChunkVerdict, EncodedColumn, EncodedRelation, PruneStats,
    ZoneMaps,
};
use crate::column::Column;
use crate::error::Result;
use crate::kernels::{self, KernelStats};
use crate::relation::Relation;
use crate::schema::ColumnId;
use crate::value::Value;

/// Comparison operator for scalar predicates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Whether an operand ordered `ord` relative to the literal satisfies
    /// the comparison.
    pub(crate) fn apply(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        };
        f.write_str(s)
    }
}

/// A boolean predicate over relation rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// Always true (no WHERE clause).
    True,
    /// `col <op> literal`
    Cmp {
        /// Column operand.
        col: ColumnId,
        /// Comparison operator.
        op: CmpOp,
        /// Literal operand.
        value: Value,
    },
    /// `lo <= col <= hi` (inclusive on both ends, like SQL BETWEEN).
    Between {
        /// Column operand.
        col: ColumnId,
        /// Inclusive lower bound.
        lo: Value,
        /// Inclusive upper bound.
        hi: Value,
    },
    /// Conjunction.
    And(Box<Predicate>, Box<Predicate>),
    /// Disjunction.
    Or(Box<Predicate>, Box<Predicate>),
    /// Negation.
    Not(Box<Predicate>),
}

impl Predicate {
    /// `col = value`
    pub fn eq(col: ColumnId, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            col,
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// `col <= value`
    pub fn le(col: ColumnId, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            col,
            op: CmpOp::Le,
            value: value.into(),
        }
    }

    /// `col >= value`
    pub fn ge(col: ColumnId, value: impl Into<Value>) -> Predicate {
        Predicate::Cmp {
            col,
            op: CmpOp::Ge,
            value: value.into(),
        }
    }

    /// `lo <= col <= hi`
    pub fn between(col: ColumnId, lo: impl Into<Value>, hi: impl Into<Value>) -> Predicate {
        Predicate::Between {
            col,
            lo: lo.into(),
            hi: hi.into(),
        }
    }

    /// `self AND other`
    pub fn and(self, other: Predicate) -> Predicate {
        Predicate::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`
    pub fn or(self, other: Predicate) -> Predicate {
        Predicate::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Predicate {
        Predicate::Not(Box::new(self))
    }

    /// Evaluate on a single row.
    pub fn eval_row(&self, rel: &Relation, row: usize) -> bool {
        match self {
            Predicate::True => true,
            Predicate::Cmp { col, op, value } => {
                let v = rel.column(*col).value(row);
                cmp_values(&v, value).map(|o| op.apply(o)).unwrap_or(false)
            }
            Predicate::Between { col, lo, hi } => {
                let v = rel.column(*col).value(row);
                matches!(cmp_values(&v, lo), Some(o) if o != std::cmp::Ordering::Less)
                    && matches!(cmp_values(&v, hi), Some(o) if o != std::cmp::Ordering::Greater)
            }
            Predicate::And(a, b) => a.eval_row(rel, row) && b.eval_row(rel, row),
            Predicate::Or(a, b) => a.eval_row(rel, row) || b.eval_row(rel, row),
            Predicate::Not(a) => !a.eval_row(rel, row),
        }
    }

    /// Evaluate over the whole relation into a packed selection bitmap.
    ///
    /// Single-column comparisons take a vectorized fast path over the raw
    /// column storage; boolean combinators combine child bitmaps word-wise.
    pub fn eval(&self, rel: &Relation) -> Bitmap {
        match self {
            Predicate::True => Bitmap::new_true(rel.row_count()),
            Predicate::Cmp { col, op, value } => eval_cmp_vectorized(rel.column(*col), *op, value)
                .unwrap_or_else(|| Bitmap::from_fn(rel.row_count(), |r| self.eval_row(rel, r))),
            Predicate::Between { col, lo, hi } => {
                let a = eval_cmp_vectorized(rel.column(*col), CmpOp::Ge, lo);
                let b = eval_cmp_vectorized(rel.column(*col), CmpOp::Le, hi);
                match (a, b) {
                    (Some(mut a), Some(b)) => {
                        a.and_assign(&b);
                        a
                    }
                    _ => Bitmap::from_fn(rel.row_count(), |r| self.eval_row(rel, r)),
                }
            }
            Predicate::And(a, b) => {
                let mut m = a.eval(rel);
                m.and_assign(&b.eval(rel));
                m
            }
            Predicate::Or(a, b) => {
                let mut m = a.eval(rel);
                m.or_assign(&b.eval(rel));
                m
            }
            Predicate::Not(a) => {
                let mut m = a.eval(rel);
                m.not_assign();
                m
            }
        }
    }

    /// Row indices satisfying the predicate.
    pub fn selected_rows(&self, rel: &Relation) -> Vec<usize> {
        self.eval(rel).ones().collect()
    }

    /// Fraction of rows satisfying the predicate.
    pub fn selectivity(&self, rel: &Relation) -> f64 {
        if rel.row_count() == 0 {
            return 0.0;
        }
        self.eval(rel).count_ones() as f64 / rel.row_count() as f64
    }

    /// All column ids the predicate references (deduplicated, in first-
    /// reference order). `True` references nothing.
    pub fn referenced_columns(&self) -> Vec<ColumnId> {
        fn walk(p: &Predicate, out: &mut Vec<ColumnId>) {
            match p {
                Predicate::True => {}
                Predicate::Cmp { col, .. } | Predicate::Between { col, .. } => {
                    if !out.contains(col) {
                        out.push(*col);
                    }
                }
                Predicate::And(a, b) | Predicate::Or(a, b) => {
                    walk(a, out);
                    walk(b, out);
                }
                Predicate::Not(a) => walk(a, out),
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }

    /// `true` when every referenced column is in `allowed` (vacuously true
    /// for `True`). Such a predicate is constant within each group of a
    /// grouping over `allowed`, so it can be decided once per group rather
    /// than once per row — the property summary-serving fast paths rely on.
    pub fn references_only(&self, allowed: &[ColumnId]) -> bool {
        self.referenced_columns()
            .iter()
            .all(|c| allowed.contains(c))
    }

    /// Validate that every referenced column exists in the schema.
    pub fn validate(&self, rel: &Relation) -> Result<()> {
        match self {
            Predicate::True => Ok(()),
            Predicate::Cmp { col, .. } | Predicate::Between { col, .. } => {
                rel.schema().field(*col).map(|_| ())
            }
            Predicate::And(a, b) | Predicate::Or(a, b) => {
                a.validate(rel)?;
                b.validate(rel)
            }
            Predicate::Not(a) => a.validate(rel),
        }
    }

    /// Decide this predicate against one chunk's zone-map stats.
    ///
    /// The verdict is *exact* under the evaluation semantics: numeric
    /// bounds are folded with the same `as f64` + `total_cmp` the
    /// vectorized kernels use, and a type-incompatible literal yields
    /// [`ChunkVerdict::NoneMatch`], matching `eval`'s all-false fallback
    /// for such comparisons (`Not` then flips it to all-true, also
    /// matching).
    pub fn chunk_verdict(&self, zm: &ZoneMaps, chunk: usize) -> ChunkVerdict {
        match self {
            Predicate::True => ChunkVerdict::AllMatch,
            Predicate::Cmp { col, op, value } => cmp_verdict(zm.stats(*col, chunk), *op, value),
            Predicate::Between { col, lo, hi } => {
                let s = zm.stats(*col, chunk);
                cmp_verdict(s, CmpOp::Ge, lo).and(cmp_verdict(s, CmpOp::Le, hi))
            }
            Predicate::And(a, b) => a.chunk_verdict(zm, chunk).and(b.chunk_verdict(zm, chunk)),
            Predicate::Or(a, b) => a.chunk_verdict(zm, chunk).or(b.chunk_verdict(zm, chunk)),
            Predicate::Not(a) => a.chunk_verdict(zm, chunk).negate(),
        }
    }

    /// Evaluate with zone-map pruning: chunks whose verdict is
    /// [`ChunkVerdict::NoneMatch`] are skipped without touching a row,
    /// all-match chunks fill their mask span word-wise, and only `Maybe`
    /// chunks run the row-level kernels. The returned bitmap is
    /// bit-identical to [`Predicate::eval`]; [`PruneStats`] feeds
    /// observability counters, and its `kept_rows` counts the rows of every
    /// chunk that holds at least one set bit — the chunks a downstream fold
    /// visits.
    pub fn eval_pruned(&self, rel: &Relation) -> (Bitmap, PruneStats) {
        let rows = rel.row_count();
        if matches!(self, Predicate::True) || rows == 0 {
            return trivial_scan(rows);
        }
        let zm = rel.zone_maps().clone();
        pruned_scan(
            rows,
            |c| self.chunk_verdict(&zm, c),
            |_c, start, end| self.eval_chunk(rel, start, end),
        )
    }

    /// [`Predicate::eval_pruned`] with decode-free kernels: `Maybe` chunks
    /// answer comparison leaves in the code domain of the relation's
    /// encoded twin ([`Relation::encoded`]) instead of scanning the dense
    /// column, falling back to the dense kernels only where no code-domain
    /// strategy applies (plain-int fallback chunks). The mask and prune
    /// stats are bit-identical to [`Predicate::eval_pruned`]; `kstats`
    /// counts the chunks whose decode was avoided.
    pub fn eval_pruned_kernels(
        &self,
        rel: &Relation,
        kstats: &mut KernelStats,
    ) -> (Bitmap, PruneStats) {
        let rows = rel.row_count();
        if matches!(self, Predicate::True) || rows == 0 {
            return trivial_scan(rows);
        }
        let zm = rel.zone_maps().clone();
        let enc = rel.encoded().clone();
        pruned_scan(
            rows,
            |c| self.chunk_verdict(&zm, c),
            |c, start, end| self.eval_chunk_kernels(rel, &enc, c, start, end, kstats),
        )
    }

    /// Evaluate over the row span `[start, end)` into a chunk-local bitmap
    /// (bit `i` is row `start + i`). Kernels are the same as
    /// [`Predicate::eval`]'s, restricted to the span, so splicing the
    /// results of every chunk reproduces `eval` exactly.
    pub fn eval_chunk(&self, rel: &Relation, start: usize, end: usize) -> Bitmap {
        let n = end - start;
        match self {
            Predicate::True => Bitmap::new_true(n),
            Predicate::Cmp { col, op, value } => {
                eval_cmp_range(rel.column(*col), *op, value, start, end)
                    .unwrap_or_else(|| Bitmap::from_fn(n, |r| self.eval_row(rel, start + r)))
            }
            Predicate::Between { col, lo, hi } => {
                let a = eval_cmp_range(rel.column(*col), CmpOp::Ge, lo, start, end);
                let b = eval_cmp_range(rel.column(*col), CmpOp::Le, hi, start, end);
                match (a, b) {
                    (Some(mut a), Some(b)) => {
                        a.and_assign(&b);
                        a
                    }
                    _ => Bitmap::from_fn(n, |r| self.eval_row(rel, start + r)),
                }
            }
            Predicate::And(a, b) => {
                let mut m = a.eval_chunk(rel, start, end);
                m.and_assign(&b.eval_chunk(rel, start, end));
                m
            }
            Predicate::Or(a, b) => {
                let mut m = a.eval_chunk(rel, start, end);
                m.or_assign(&b.eval_chunk(rel, start, end));
                m
            }
            Predicate::Not(a) => {
                let mut m = a.eval_chunk(rel, start, end);
                m.not_assign();
                m
            }
        }
    }

    /// One `Maybe` chunk of [`Predicate::eval_pruned_kernels`]: comparison
    /// leaves go through the code-domain kernels over the encoded twin;
    /// only plain-int fallback chunks (and fully type-incompatible shapes)
    /// touch the dense column. Bit-identical to [`Predicate::eval_chunk`].
    fn eval_chunk_kernels(
        &self,
        rel: &Relation,
        enc: &EncodedRelation,
        chunk: usize,
        start: usize,
        end: usize,
        kstats: &mut KernelStats,
    ) -> Bitmap {
        let n = end - start;
        match self {
            Predicate::True => Bitmap::new_true(n),
            Predicate::Cmp { col, op, value } => {
                match kernels::eval_cmp_chunk(enc.column(*col), *op, value, chunk) {
                    Some(m) => {
                        kstats.pred_chunks += 1;
                        m
                    }
                    None => eval_cmp_range(rel.column(*col), *op, value, start, end)
                        .unwrap_or_else(|| Bitmap::from_fn(n, |r| self.eval_row(rel, start + r))),
                }
            }
            Predicate::Between { col, lo, hi } => {
                match between_chunk_kernels(enc.column(*col), lo, hi, chunk, kstats) {
                    Some(m) => m,
                    None => {
                        let a = eval_cmp_range(rel.column(*col), CmpOp::Ge, lo, start, end);
                        let b = eval_cmp_range(rel.column(*col), CmpOp::Le, hi, start, end);
                        match (a, b) {
                            (Some(mut a), Some(b)) => {
                                a.and_assign(&b);
                                a
                            }
                            _ => Bitmap::from_fn(n, |r| self.eval_row(rel, start + r)),
                        }
                    }
                }
            }
            Predicate::And(a, b) => {
                let mut m = a.eval_chunk_kernels(rel, enc, chunk, start, end, kstats);
                m.and_assign(&b.eval_chunk_kernels(rel, enc, chunk, start, end, kstats));
                m
            }
            Predicate::Or(a, b) => {
                let mut m = a.eval_chunk_kernels(rel, enc, chunk, start, end, kstats);
                m.or_assign(&b.eval_chunk_kernels(rel, enc, chunk, start, end, kstats));
                m
            }
            Predicate::Not(a) => {
                let mut m = a.eval_chunk_kernels(rel, enc, chunk, start, end, kstats);
                m.not_assign();
                m
            }
        }
    }
}

/// The trivial scan result for `True` predicates and empty relations: every
/// row selected, no chunk examined.
fn trivial_scan(rows: usize) -> (Bitmap, PruneStats) {
    let stats = PruneStats {
        kept_rows: rows as u64,
        ..PruneStats::default()
    };
    (Bitmap::new_true(rows), stats)
}

/// Shared pruned-scan skeleton: walk every chunk, skip `NoneMatch`
/// verdicts, fill `AllMatch` spans word-wise, and delegate `Maybe` chunks
/// to `eval_maybe(chunk, start, end)`. Both pruned entry points (decode
/// and kernels) share this loop, so their masks and stats agree by
/// construction.
fn pruned_scan(
    rows: usize,
    mut verdict: impl FnMut(usize) -> ChunkVerdict,
    mut eval_maybe: impl FnMut(usize, usize, usize) -> Bitmap,
) -> (Bitmap, PruneStats) {
    let nchunks = chunk_count(rows);
    let mut mask = Bitmap::new_false(rows);
    let mut stats = PruneStats {
        chunks: nchunks as u64,
        ..PruneStats::default()
    };
    for c in 0..nchunks {
        let (start, end) = chunk_range(c, rows);
        match verdict(c) {
            ChunkVerdict::NoneMatch => stats.pruned += 1,
            ChunkVerdict::AllMatch => {
                stats.full += 1;
                stats.kept_rows += (end - start) as u64;
                mask.fill_range(start, end);
            }
            ChunkVerdict::Maybe => {
                let chunk_mask = eval_maybe(c, start, end);
                if chunk_mask.any() {
                    stats.kept_rows += (end - start) as u64;
                    mask.splice_aligned(start, &chunk_mask);
                }
            }
        }
    }
    (mask, stats)
}

/// BETWEEN over one chunk via the kernels: the fused interval kernel where
/// it applies, otherwise two one-sided code-domain kernels AND-ed (the
/// dictionary-code path for strings). `None` only when a side has no
/// code-domain strategy (plain-int fallback chunks).
fn between_chunk_kernels(
    col: &EncodedColumn,
    lo: &Value,
    hi: &Value,
    chunk: usize,
    kstats: &mut KernelStats,
) -> Option<Bitmap> {
    if let Some(m) = kernels::eval_between_chunk(col, lo, hi, chunk) {
        kstats.pred_chunks += 1;
        return Some(m);
    }
    let mut a = kernels::eval_cmp_chunk(col, CmpOp::Ge, lo, chunk)?;
    let b = kernels::eval_cmp_chunk(col, CmpOp::Le, hi, chunk)?;
    kstats.pred_chunks += 1;
    a.and_assign(&b);
    Some(a)
}

/// Verdict of `col <op> value` against one chunk's stats. A literal whose
/// type cannot be compared with the column yields `NoneMatch` — the same
/// all-false outcome as the row-level fallback.
fn cmp_verdict(stats: &ChunkStats, op: CmpOp, value: &Value) -> ChunkVerdict {
    match stats {
        ChunkStats::Empty => ChunkVerdict::Maybe,
        ChunkStats::Numeric { min, max, .. } => match value.as_f64() {
            None => ChunkVerdict::NoneMatch,
            Some(lit) => range_verdict(op, min.total_cmp(&lit), max.total_cmp(&lit)),
        },
        ChunkStats::Str { min, max, .. } => match value {
            Value::Str(s) => range_verdict(op, min.as_ref().cmp(s.as_ref()), max.as_ref().cmp(s)),
            _ => ChunkVerdict::NoneMatch,
        },
    }
}

/// Verdict of `v <op> lit` for all `v` in `[min, max]`, given how the
/// bounds compare to the literal. Exactness relies on min/max being tight
/// under the same ordering the row kernels use.
fn range_verdict(
    op: CmpOp,
    min_cmp: std::cmp::Ordering,
    max_cmp: std::cmp::Ordering,
) -> ChunkVerdict {
    use std::cmp::Ordering::*;
    use ChunkVerdict::*;
    match op {
        CmpOp::Eq => {
            if min_cmp == Greater || max_cmp == Less {
                NoneMatch
            } else if min_cmp == Equal && max_cmp == Equal {
                AllMatch
            } else {
                Maybe
            }
        }
        CmpOp::Ne => {
            if min_cmp == Greater || max_cmp == Less {
                AllMatch
            } else if min_cmp == Equal && max_cmp == Equal {
                NoneMatch
            } else {
                Maybe
            }
        }
        CmpOp::Lt => {
            if max_cmp == Less {
                AllMatch
            } else if min_cmp != Less {
                NoneMatch
            } else {
                Maybe
            }
        }
        CmpOp::Le => {
            if max_cmp != Greater {
                AllMatch
            } else if min_cmp == Greater {
                NoneMatch
            } else {
                Maybe
            }
        }
        CmpOp::Gt => {
            if min_cmp == Greater {
                AllMatch
            } else if max_cmp != Greater {
                NoneMatch
            } else {
                Maybe
            }
        }
        CmpOp::Ge => {
            if min_cmp != Less {
                AllMatch
            } else if max_cmp == Less {
                NoneMatch
            } else {
                Maybe
            }
        }
    }
}

/// Compare two values of (possibly) mixed numeric types.
fn cmp_values(a: &Value, b: &Value) -> Option<std::cmp::Ordering> {
    match (a, b) {
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        (Value::Str(_), _) | (_, Value::Str(_)) => None,
        _ => {
            let (x, y) = (a.as_f64()?, b.as_f64()?);
            Some(x.total_cmp(&y))
        }
    }
}

/// Vectorized comparison over raw column storage, packed straight into a
/// [`Bitmap`]. Returns `None` when the literal's type is incompatible with
/// the column (the caller falls back to the row-at-a-time path, which
/// yields all-false for such predicates).
fn eval_cmp_vectorized(col: &Column, op: CmpOp, value: &Value) -> Option<Bitmap> {
    match (col, value) {
        (Column::Int(v), _) => {
            let lit = value.as_f64()?;
            Some(Bitmap::from_fn(v.len(), |r| {
                op.apply((v[r] as f64).total_cmp(&lit))
            }))
        }
        (Column::Float(v), _) => {
            let lit = value.as_f64()?;
            Some(Bitmap::from_fn(v.len(), |r| op.apply(v[r].total_cmp(&lit))))
        }
        (Column::Date(v), _) => {
            let lit = value.as_f64()?;
            Some(Bitmap::from_fn(v.len(), |r| {
                op.apply((v[r] as f64).total_cmp(&lit))
            }))
        }
        (Column::Str(v), Value::Str(s)) => {
            // Equality on dictionary columns compares codes.
            match op {
                CmpOp::Eq => Some(match v.lookup(s) {
                    Some(c) => {
                        let codes = v.codes();
                        Bitmap::from_fn(v.len(), |r| codes[r] == c)
                    }
                    None => Bitmap::new_false(v.len()),
                }),
                CmpOp::Ne => Some(match v.lookup(s) {
                    Some(c) => {
                        let codes = v.codes();
                        Bitmap::from_fn(v.len(), |r| codes[r] != c)
                    }
                    None => Bitmap::new_true(v.len()),
                }),
                // Order comparisons run in the dictionary domain: one
                // string comparison per *distinct* value, then a table
                // lookup per row via the code vector.
                _ => {
                    let lut: Vec<bool> = v
                        .dict()
                        .iter()
                        .map(|d| op.apply(d.as_ref().cmp(s)))
                        .collect();
                    Some(Bitmap::from_lut(v.codes(), &lut))
                }
            }
        }
        (Column::Str(_), _) => None,
    }
}

/// [`eval_cmp_vectorized`] restricted to rows `[start, end)`, producing a
/// chunk-local bitmap. The per-row comparisons are identical; only the
/// iteration span changes.
fn eval_cmp_range(
    col: &Column,
    op: CmpOp,
    value: &Value,
    start: usize,
    end: usize,
) -> Option<Bitmap> {
    let n = end - start;
    match (col, value) {
        (Column::Int(v), _) => {
            let lit = value.as_f64()?;
            let v = &v[start..end];
            Some(Bitmap::from_fn(n, |r| {
                op.apply((v[r] as f64).total_cmp(&lit))
            }))
        }
        (Column::Float(v), _) => {
            let lit = value.as_f64()?;
            let v = &v[start..end];
            Some(Bitmap::from_fn(n, |r| op.apply(v[r].total_cmp(&lit))))
        }
        (Column::Date(v), _) => {
            let lit = value.as_f64()?;
            let v = &v[start..end];
            Some(Bitmap::from_fn(n, |r| {
                op.apply((v[r] as f64).total_cmp(&lit))
            }))
        }
        (Column::Str(v), Value::Str(s)) => {
            let codes = &v.codes()[start..end];
            match op {
                CmpOp::Eq => Some(match v.lookup(s) {
                    Some(c) => Bitmap::from_fn(n, |r| codes[r] == c),
                    None => Bitmap::new_false(n),
                }),
                CmpOp::Ne => Some(match v.lookup(s) {
                    Some(c) => Bitmap::from_fn(n, |r| codes[r] != c),
                    None => Bitmap::new_true(n),
                }),
                _ => {
                    let lut: Vec<bool> = v
                        .dict()
                        .iter()
                        .map(|d| op.apply(d.as_ref().cmp(s)))
                        .collect();
                    Some(Bitmap::from_lut(codes, &lut))
                }
            }
        }
        (Column::Str(_), _) => None,
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::True => write!(f, "TRUE"),
            Predicate::Cmp { col, op, value } => write!(f, "{col} {op} {value}"),
            Predicate::Between { col, lo, hi } => write!(f, "{col} BETWEEN {lo} AND {hi}"),
            Predicate::And(a, b) => write!(f, "({a} AND {b})"),
            Predicate::Or(a, b) => write!(f, "({a} OR {b})"),
            Predicate::Not(a) => write!(f, "NOT ({a})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::relation::RelationBuilder;

    fn rel() -> Relation {
        let mut b = RelationBuilder::new()
            .column("id", DataType::Int)
            .column("flag", DataType::Str)
            .column("qty", DataType::Float)
            .column("ship", DataType::Date);
        let rows: [(i64, &str, f64, i32); 5] = [
            (1, "A", 10.0, 100),
            (2, "N", 20.0, 200),
            (3, "N", 30.0, 300),
            (4, "R", 40.0, 400),
            (5, "A", 50.0, 500),
        ];
        for (id, fl, q, d) in rows {
            b.push_row(&[
                Value::Int(id),
                Value::str(fl),
                Value::from(q),
                Value::Date(d),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn cmp_int_range() {
        let r = rel();
        let p = Predicate::between(ColumnId(0), 2i64, 4i64);
        assert_eq!(p.eval(&r).to_bools(), vec![false, true, true, true, false]);
        assert_eq!(p.selected_rows(&r), vec![1, 2, 3]);
        assert!((p.selectivity(&r) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn str_equality_uses_dictionary() {
        let r = rel();
        let p = Predicate::eq(ColumnId(1), "N");
        assert_eq!(p.eval(&r).to_bools(), vec![false, true, true, false, false]);
        // Unknown string matches nothing.
        let p = Predicate::eq(ColumnId(1), "ZZZ");
        assert_eq!(p.eval(&r).to_bools(), vec![false; 5]);
        // Ne of unknown string matches everything.
        let p = Predicate::Cmp {
            col: ColumnId(1),
            op: CmpOp::Ne,
            value: Value::str("ZZZ"),
        };
        assert_eq!(p.eval(&r).to_bools(), vec![true; 5]);
    }

    #[test]
    fn str_range_lexicographic() {
        let r = rel();
        let p = Predicate::le(ColumnId(1), "M"); // only "A" <= "M"
        assert_eq!(p.eval(&r).to_bools(), vec![true, false, false, false, true]);
        // All four order operators agree with the row-at-a-time path
        // (the vectorized side evaluates per dictionary code).
        for op in [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let p = Predicate::Cmp {
                col: ColumnId(1),
                op,
                value: Value::str("N"),
            };
            let scalar: Vec<bool> = (0..r.row_count()).map(|i| p.eval_row(&r, i)).collect();
            assert_eq!(p.eval(&r).to_bools(), scalar, "{op}");
        }
    }

    #[test]
    fn referenced_columns_walk_the_tree() {
        let p = Predicate::eq(ColumnId(1), "N")
            .and(Predicate::between(ColumnId(0), 1i64, 3i64))
            .or(Predicate::ge(ColumnId(1), "A").not());
        assert_eq!(p.referenced_columns(), vec![ColumnId(1), ColumnId(0)]);
        assert_eq!(Predicate::True.referenced_columns(), Vec::<ColumnId>::new());
    }

    #[test]
    fn references_only_gates_on_allowed_set() {
        let p = Predicate::eq(ColumnId(1), "N").and(Predicate::ge(ColumnId(0), 2i64));
        assert!(p.references_only(&[ColumnId(0), ColumnId(1)]));
        assert!(!p.references_only(&[ColumnId(1)]));
        assert!(!p.references_only(&[]));
        // TRUE references nothing, so any allowed set works — including
        // the empty grouping.
        assert!(Predicate::True.references_only(&[]));
    }

    #[test]
    fn date_le_mirrors_tpcd_q1() {
        let r = rel();
        let p = Predicate::le(ColumnId(3), Value::Date(300));
        assert_eq!(p.selected_rows(&r), vec![0, 1, 2]);
    }

    #[test]
    fn boolean_combinators() {
        let r = rel();
        let p = Predicate::eq(ColumnId(1), "N").and(Predicate::ge(ColumnId(2), 25.0));
        assert_eq!(p.selected_rows(&r), vec![2]);
        let p = Predicate::eq(ColumnId(1), "A").or(Predicate::eq(ColumnId(1), "R"));
        assert_eq!(p.selected_rows(&r), vec![0, 3, 4]);
        let p = Predicate::eq(ColumnId(1), "A").not();
        assert_eq!(p.selected_rows(&r), vec![1, 2, 3]);
    }

    #[test]
    fn true_selects_all() {
        let r = rel();
        assert_eq!(Predicate::True.selected_rows(&r).len(), 5);
        assert_eq!(Predicate::True.selectivity(&r), 1.0);
    }

    #[test]
    fn row_and_vectorized_paths_agree() {
        let r = rel();
        let preds = vec![
            Predicate::between(ColumnId(0), 2i64, 4i64),
            Predicate::eq(ColumnId(1), "N"),
            Predicate::le(ColumnId(3), Value::Date(250)),
            Predicate::ge(ColumnId(2), 30.0).and(Predicate::eq(ColumnId(1), "R").not()),
        ];
        for p in preds {
            let vectorized = p.eval(&r).to_bools();
            let scalar: Vec<bool> = (0..r.row_count()).map(|i| p.eval_row(&r, i)).collect();
            assert_eq!(vectorized, scalar, "mismatch for {p}");
        }
    }

    #[test]
    fn type_incompatible_predicate_is_false() {
        let r = rel();
        // string literal against int column
        let p = Predicate::eq(ColumnId(0), "x");
        assert_eq!(p.eval(&r).to_bools(), vec![false; 5]);
    }

    #[test]
    fn validate_checks_columns() {
        let r = rel();
        assert!(Predicate::eq(ColumnId(0), 1i64).validate(&r).is_ok());
        assert!(Predicate::eq(ColumnId(42), 1i64).validate(&r).is_err());
        assert!(Predicate::eq(ColumnId(42), 1i64)
            .and(Predicate::True)
            .validate(&r)
            .is_err());
    }

    #[test]
    fn empty_relation_selectivity_zero() {
        let r = rel().gather(&[]);
        assert_eq!(Predicate::True.selectivity(&r), 0.0);
    }

    #[test]
    fn display_renders_sql_like() {
        let p = Predicate::between(ColumnId(0), 1i64, 5i64).and(Predicate::eq(ColumnId(1), "A"));
        let s = p.to_string();
        assert!(s.contains("BETWEEN") && s.contains("AND"));
    }

    /// A multi-chunk relation with per-chunk structure the zone maps can
    /// exploit: ids are globally increasing (clustered), floats cycle, and
    /// flags repeat within a small dictionary.
    fn big_rel(rows: usize) -> Relation {
        use crate::chunk::CHUNK_ROWS;
        let mut b = RelationBuilder::new()
            .column("id", DataType::Int)
            .column("flag", DataType::Str)
            .column("qty", DataType::Float)
            .column("ship", DataType::Date);
        for r in 0..rows {
            let chunk = r / CHUNK_ROWS;
            let flag = ["A", "N", "R"][(r / 7 + chunk) % 3];
            let q = if r % 911 == 0 {
                f64::NAN
            } else {
                ((r % 1000) as f64) - 500.0
            };
            b.push_row(&[
                Value::Int(r as i64),
                Value::str(flag),
                Value::from(q),
                Value::Date((r % 365) as i32),
            ])
            .unwrap();
        }
        b.finish()
    }

    fn pruning_preds(rows: usize) -> Vec<Predicate> {
        use crate::chunk::CHUNK_ROWS;
        let mid = (rows / 2) as i64;
        vec![
            Predicate::True,
            // Selective clustered range: most chunks prune.
            Predicate::between(ColumnId(0), mid, mid + 100),
            // Everything matches: all chunks AllMatch.
            Predicate::ge(ColumnId(0), 0i64),
            // Nothing matches.
            Predicate::ge(ColumnId(0), rows as i64),
            // Chunk-boundary-exact range.
            Predicate::between(ColumnId(0), CHUNK_ROWS as i64, (2 * CHUNK_ROWS - 1) as i64),
            // Unclustered float predicate: chunks stay Maybe.
            Predicate::ge(ColumnId(2), 250.0),
            // String equality and order.
            Predicate::eq(ColumnId(1), "N"),
            Predicate::le(ColumnId(1), "M"),
            Predicate::eq(ColumnId(1), "ZZZ"),
            // Combinators, incl. NOT over an incompatible comparison.
            Predicate::between(ColumnId(0), mid, mid + 500).and(Predicate::eq(ColumnId(1), "A")),
            Predicate::le(ColumnId(0), 100i64).or(Predicate::ge(ColumnId(0), (rows - 100) as i64)),
            Predicate::eq(ColumnId(0), "x").not(),
            Predicate::le(ColumnId(3), Value::Date(100)),
            // NaN-aware: total_cmp sorts NaN above everything, so Gt 1e300
            // matches exactly the NaN rows.
            Predicate::Cmp {
                col: ColumnId(2),
                op: CmpOp::Gt,
                value: Value::from(1e300),
            },
        ]
    }

    #[test]
    fn eval_pruned_is_bit_identical_to_eval() {
        let rows = 3 * crate::chunk::CHUNK_ROWS + 517;
        let r = big_rel(rows);
        let nchunks = crate::chunk::chunk_count(rows);
        for p in pruning_preds(rows) {
            let dense = p.eval(&r);
            let (pruned, stats) = p.eval_pruned(&r);
            assert_eq!(pruned, dense, "mask mismatch for {p}");
            // Kept rows are exactly the rows of chunks holding a set bit.
            let kept: usize = (0..nchunks)
                .map(|c| chunk_range(c, rows))
                .filter(|&(start, end)| dense.ones_range(start, end).next().is_some())
                .map(|(start, end)| end - start)
                .sum();
            assert_eq!(stats.kept_rows as usize, kept, "kept rows for {p}");
            // `True` takes the trivial fast path and examines no chunks.
            if !matches!(p, Predicate::True) {
                assert_eq!(stats.chunks as usize, nchunks);
            }
        }
        // The selective clustered predicate must actually prune.
        let mid = (rows / 2) as i64;
        let p = Predicate::between(ColumnId(0), mid, mid + 100);
        let (_, stats) = p.eval_pruned(&r);
        assert!(stats.pruned >= 2, "expected pruning, got {stats:?}");
        // The all-match predicate must take the fill fast path.
        let (_, stats) = Predicate::ge(ColumnId(0), 0i64).eval_pruned(&r);
        assert_eq!(stats.full as usize, nchunks);
    }

    #[test]
    fn eval_pruned_kernels_is_bit_identical_to_eval() {
        let rows = 3 * crate::chunk::CHUNK_ROWS + 517;
        let r = big_rel(rows);
        let mut total = KernelStats::default();
        for p in pruning_preds(rows) {
            let dense = p.eval(&r);
            let decode = p.eval_pruned(&r);
            let mut kstats = KernelStats::default();
            let (mask, stats) = p.eval_pruned_kernels(&r, &mut kstats);
            assert_eq!(mask, dense, "kernel mask mismatch for {p}");
            assert_eq!(stats, decode.1, "prune stats mismatch for {p}");
            total.merge(&kstats);
        }
        // The kernels must actually fire on this workload (FOR ints, floats,
        // dictionary strings are all kernel-eligible shapes).
        assert!(total.pred_chunks > 0, "no kernel chunks fired: {total:?}");
    }

    #[test]
    fn kernels_fall_back_on_plain_int_chunks() {
        // i64 extremes defeat FOR encoding (range overflows the 56-bit
        // width cap), so the chunk stores PlainInt and every comparison
        // must take the decode fallback — still bit-identical.
        let mut b = RelationBuilder::new().column("x", DataType::Int);
        for r in 0..1000usize {
            let v = if r % 2 == 0 {
                i64::MIN + r as i64
            } else {
                i64::MAX - r as i64
            };
            b.push_row(&[Value::Int(v)]).unwrap();
        }
        let r = b.finish();
        for p in [
            Predicate::ge(ColumnId(0), 0i64),
            Predicate::between(ColumnId(0), i64::MIN + 10, i64::MAX - 10),
            Predicate::eq(ColumnId(0), i64::MIN + 2),
        ] {
            let dense = p.eval(&r);
            let mut kstats = KernelStats::default();
            let (mask, _) = p.eval_pruned_kernels(&r, &mut kstats);
            assert_eq!(mask, dense, "fallback mask mismatch for {p}");
            assert_eq!(
                kstats.pred_chunks, 0,
                "kernel claimed a PlainInt chunk for {p}"
            );
        }
    }

    #[test]
    fn verdicts_never_contradict_row_evaluation() {
        use crate::chunk::{chunk_range, ChunkVerdict};
        let rows = 2 * crate::chunk::CHUNK_ROWS + 129;
        let r = big_rel(rows);
        let zm = r.zone_maps().clone();
        for p in pruning_preds(rows) {
            let dense = p.eval(&r);
            for c in 0..zm.chunk_count() {
                let (start, end) = chunk_range(c, rows);
                let set = (start..end).filter(|&i| dense.get(i)).count();
                match p.chunk_verdict(&zm, c) {
                    ChunkVerdict::NoneMatch => {
                        assert_eq!(set, 0, "NoneMatch chunk {c} has matches for {p}")
                    }
                    ChunkVerdict::AllMatch => {
                        assert_eq!(set, end - start, "AllMatch chunk {c} has misses for {p}")
                    }
                    ChunkVerdict::Maybe => {}
                }
            }
        }
    }
}
