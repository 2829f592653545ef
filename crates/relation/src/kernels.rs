//! Decode-free scan kernels over encoded chunks.
//!
//! The chunked storage layer (see [`crate::chunk`]) keeps surviving chunks
//! encoded until the moment a predicate or aggregate touches them. The
//! kernels here close that gap: they answer comparison predicates and
//! whole-chunk aggregate folds **in the encoding's own domain**, without
//! materializing decoded values.
//!
//! * **Code-domain predicates** — a comparison literal is translated once
//!   per chunk into the chunk's delta domain (frame-of-reference columns),
//!   `total_cmp` key domain (float columns), or dictionary-code domain
//!   (string columns). The per-row work is then a branch-free packed
//!   integer range test, specialized per bit-width (1/2/4/8/16/32-bit fast
//!   paths) so the compiler auto-vectorizes the unpack-compare loop.
//! * **Encoded folds** — COUNT/SUM over a fully-selected FOR chunk is
//!   `base·n + Σdeltas` with Σdeltas folded over the packed words, and
//!   MIN/MAX comes straight from the chunk's zone-map stats.
//!
//! Every kernel is **bit-identical** to the decode-then-evaluate path: the
//! predicate transforms are exact inverses of the `as f64` + `total_cmp`
//! comparison semantics, and the folds only engage when f64 accumulation
//! provably cannot round (see [`fold_chunk_encoded`]). When a kernel cannot
//! guarantee identity (plain-int fallback chunks, float folds, magnitude
//! overflow) it returns `None` and the caller falls back to decoding.

use std::cell::RefCell;
use std::cmp::Ordering;

use crate::bitmap::Bitmap;
use crate::chunk::{ChunkStats, DecodeScratch, EncodedChunk, EncodedColumn, PackedInts};
use crate::datatype::DataType;
use crate::predicate::CmpOp;
use crate::value::Value;

// ---------------------------------------------------------------------------
// Counters
// ---------------------------------------------------------------------------

/// Counters for decode-free kernel activity during one scan.
///
/// Each counter records one (chunk, operation) pair whose decode was
/// avoided; the observability layer maps them onto the
/// `relation_decode_avoided_total` / `relation_encoded_fold_total` metric
/// kinds.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct KernelStats {
    /// Comparison leaves answered in the code domain (kind
    /// `code-domain-predicate`).
    pub pred_chunks: u64,
    /// Fully-selected chunks whose COUNT/SUM came from the encoded fold
    /// (kind `encoded-sum`).
    pub fold_sum_chunks: u64,
    /// Fully-selected chunks whose MIN/MAX came from the zone map (kind
    /// `zonemap-minmax`).
    pub fold_minmax_chunks: u64,
}

impl KernelStats {
    /// Accumulate another stats record into this one.
    pub fn merge(&mut self, other: &KernelStats) {
        self.pred_chunks += other.pred_chunks;
        self.fold_sum_chunks += other.fold_sum_chunks;
        self.fold_minmax_chunks += other.fold_minmax_chunks;
    }

    /// Total decode-avoided events across all kinds.
    pub fn decode_avoided(&self) -> u64 {
        self.pred_chunks + self.fold_sum_chunks + self.fold_minmax_chunks
    }
}

// ---------------------------------------------------------------------------
// Per-thread decode scratch pool
// ---------------------------------------------------------------------------

thread_local! {
    static SCRATCH_POOL: RefCell<Vec<DecodeScratch>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with a pooled per-thread [`DecodeScratch`].
///
/// The buffer is popped from a thread-local pool (or freshly defaulted on
/// first use) and returned afterwards, so decode-on-demand paths allocate
/// their scratch once per thread instead of once per call. Re-entrant use
/// is safe: a nested call simply pops (or creates) a second buffer. Pool
/// entries live until the owning thread exits.
pub fn with_scratch<R>(f: impl FnOnce(&mut DecodeScratch) -> R) -> R {
    let mut scratch = SCRATCH_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_default();
    let out = f(&mut scratch);
    SCRATCH_POOL.with(|pool| pool.borrow_mut().push(scratch));
    out
}

// ---------------------------------------------------------------------------
// Value-domain intervals
// ---------------------------------------------------------------------------

/// An inclusive interval over a column's `i64` comparison domain — the
/// code-domain form of a `col <op> literal` predicate.
///
/// For Int/Date columns the domain is the raw value; for Float columns it
/// is the [`total_cmp_key`] of the bit pattern. In either domain a row
/// matches the original predicate iff its key falls in (or, for
/// [`IntRange::NotRange`], outside) the interval.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntRange {
    /// No value matches.
    Empty,
    /// Every value matches.
    All,
    /// Values in `[lo, hi]` (inclusive) match.
    Range(i64, i64),
    /// Values **outside** `[lo, hi]` (inclusive) match.
    NotRange(i64, i64),
}

/// Clamp an inclusive `i128` interval onto the `i64` domain.
fn range_i128(lo: i128, hi: i128) -> IntRange {
    const MIN: i128 = i64::MIN as i128;
    const MAX: i128 = i64::MAX as i128;
    if lo > hi || hi < MIN || lo > MAX {
        return IntRange::Empty;
    }
    let lo = lo.max(MIN) as i64;
    let hi = hi.min(MAX) as i64;
    if lo == i64::MIN && hi == i64::MAX {
        IntRange::All
    } else {
        IntRange::Range(lo, hi)
    }
}

/// Complement of an interval.
fn complement(r: IntRange) -> IntRange {
    match r {
        IntRange::Empty => IntRange::All,
        IntRange::All => IntRange::Empty,
        IntRange::Range(lo, hi) => IntRange::NotRange(lo, hi),
        IntRange::NotRange(lo, hi) => IntRange::Range(lo, hi),
    }
}

/// Intersection of two intervals produced by `Ge`/`Le` translations (which
/// only ever yield `Empty`, `All`, or `Range`). Used by the fused BETWEEN
/// kernel; the result is set-equal to evaluating the two sides separately
/// and AND-ing the bitmaps.
fn intersect(a: IntRange, b: IntRange) -> IntRange {
    match (a, b) {
        (IntRange::Empty, _) | (_, IntRange::Empty) => IntRange::Empty,
        (IntRange::All, x) | (x, IntRange::All) => x,
        (IntRange::Range(a1, a2), IntRange::Range(b1, b2)) => {
            range_i128(a1.max(b1) as i128, a2.min(b2) as i128)
        }
        _ => unreachable!("intersect only sees Ge/Le intervals"),
    }
}

/// Smallest `i64` value satisfying the monotone predicate `pred` (false
/// then true over increasing values), as an `i128`; `i64::MAX + 1` when no
/// value satisfies it. At most ~64 probes.
fn first_true(pred: impl Fn(i64) -> bool) -> i128 {
    if pred(i64::MIN) {
        return i64::MIN as i128;
    }
    if !pred(i64::MAX) {
        return i64::MAX as i128 + 1;
    }
    // Invariant: pred(lo) == false, pred(hi) == true.
    let mut lo = i64::MIN;
    let mut hi = i64::MAX;
    while (hi as i128) - (lo as i128) > 1 {
        let mid = (((lo as i128) + (hi as i128)) >> 1) as i64;
        if pred(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi as i128
}

/// Translate `v <op> lit` — evaluated as `(v as f64).total_cmp(&lit)`, the
/// exact semantics of the decode path for Int/Date columns — into an
/// interval over the `i64` value domain.
///
/// The translation is exact for every literal, including fractional values
/// (`Eq 0.5` → `Empty`), out-of-domain magnitudes (`Gt 1e300` → `Empty`,
/// `Lt 1e300` → `All`), and NaNs (`total_cmp` places positive NaN above
/// every integer, negative NaN below). It relies on `i64 → f64` widening
/// being monotone non-decreasing, which makes both threshold predicates
/// binary-searchable.
pub fn int_cmp_interval(op: CmpOp, lit: f64) -> IntRange {
    const MIN: i128 = i64::MIN as i128;
    const MAX: i128 = i64::MAX as i128;
    let first_ge = || first_true(|v| (v as f64).total_cmp(&lit) != Ordering::Less);
    let first_gt = || first_true(|v| (v as f64).total_cmp(&lit) == Ordering::Greater);
    match op {
        CmpOp::Lt => range_i128(MIN, first_ge() - 1),
        CmpOp::Le => range_i128(MIN, first_gt() - 1),
        CmpOp::Gt => range_i128(first_gt(), MAX),
        CmpOp::Ge => range_i128(first_ge(), MAX),
        CmpOp::Eq => range_i128(first_ge(), first_gt() - 1),
        CmpOp::Ne => complement(range_i128(first_ge(), first_gt() - 1)),
    }
}

/// Map an `f64` bit pattern to an `i64` key whose natural integer order
/// equals `total_cmp` order on the floats (the sign-magnitude flip
/// `total_cmp` itself applies). The mapping is a bijection, so float
/// equality in key space is exact bit-pattern equality — distinct NaN
/// payloads and `-0.0` vs `+0.0` stay distinguishable, exactly as
/// `total_cmp` treats them.
#[inline]
pub fn total_cmp_key(bits: u64) -> i64 {
    let k = bits as i64;
    k ^ (((k >> 63) as u64) >> 1) as i64
}

/// Translate `v <op> lit` over a Float column — evaluated as
/// `v.total_cmp(&lit)` on the decode path — into an interval over the
/// [`total_cmp_key`] domain. No search is needed: the key transform is an
/// order-isomorphism, so the literal's own key bounds the interval
/// directly.
pub fn float_cmp_interval(op: CmpOp, lit: f64) -> IntRange {
    const MIN: i128 = i64::MIN as i128;
    const MAX: i128 = i64::MAX as i128;
    let k = total_cmp_key(lit.to_bits()) as i128;
    match op {
        CmpOp::Lt => range_i128(MIN, k - 1),
        CmpOp::Le => range_i128(MIN, k),
        CmpOp::Gt => range_i128(k + 1, MAX),
        CmpOp::Ge => range_i128(k, MAX),
        CmpOp::Eq => range_i128(k, k),
        CmpOp::Ne => complement(range_i128(k, k)),
    }
}

// ---------------------------------------------------------------------------
// Packed-domain evaluation loops
// ---------------------------------------------------------------------------

/// `(1 << width) - 1` without the undefined 64-bit shift.
fn width_mask(width: u8) -> u64 {
    if width == 64 {
        !0
    } else {
        (1u64 << width) - 1
    }
}

/// Branch-free inclusive range membership in an unsigned domain:
/// `v ∈ [lo, lo + span]` (callers precompute `span = hi - lo`).
#[inline]
fn in_span(v: u64, lo: u64, span: u64) -> bool {
    v.wrapping_sub(lo) <= span
}

/// Per-width verdict loop: one output word of 64 verdict bits consumes
/// exactly `W` input words (`64 / W` lanes each). Constant trip counts let
/// the compiler unroll and auto-vectorize; `test` must be branch-free for
/// that to pay off (the range tests above are).
fn map_packed_width<const W: usize>(
    words: &[u64],
    n: usize,
    test: impl Fn(u64) -> bool,
    out: &mut Vec<u64>,
) {
    debug_assert!(W > 0 && W < 64 && 64 % W == 0);
    let lanes = 64 / W;
    let mask = (1u64 << W) - 1;
    for ow in 0..n / 64 {
        let mut acc = 0u64;
        for j in 0..W {
            let w = words[ow * W + j];
            for lane in 0..lanes {
                let v = (w >> (lane * W)) & mask;
                acc |= u64::from(test(v)) << (j * lanes + lane);
            }
        }
        out.push(acc);
    }
}

/// Evaluate `test` over every packed value, producing a selection bitmap.
/// Widths 1/2/4/8/16/32 take the specialized lane loops; other widths fall
/// back to a per-value `get` loop that is still decode-free (no
/// materialized vector). The ragged tail past the last full 64-value block
/// goes through `get` in every case.
fn packed_verdicts(packed: &PackedInts, test: impl Fn(u64) -> bool) -> Bitmap {
    let n = packed.len();
    if packed.width() == 0 {
        // Every value is zero; one probe decides the whole chunk.
        return if test(0) {
            Bitmap::new_true(n)
        } else {
            Bitmap::new_false(n)
        };
    }
    let mut out: Vec<u64> = Vec::with_capacity(n.div_ceil(64));
    let words = packed.words();
    match packed.width() {
        1 => map_packed_width::<1>(words, n, &test, &mut out),
        2 => map_packed_width::<2>(words, n, &test, &mut out),
        4 => map_packed_width::<4>(words, n, &test, &mut out),
        8 => map_packed_width::<8>(words, n, &test, &mut out),
        16 => map_packed_width::<16>(words, n, &test, &mut out),
        32 => map_packed_width::<32>(words, n, &test, &mut out),
        _ => {
            for ow in 0..n / 64 {
                let mut acc = 0u64;
                for bit in 0..64 {
                    acc |= u64::from(test(packed.get(ow * 64 + bit))) << bit;
                }
                out.push(acc);
            }
        }
    }
    if !n.is_multiple_of(64) {
        let mut acc = 0u64;
        for (bit, i) in ((n / 64) * 64..n).enumerate() {
            acc |= u64::from(test(packed.get(i))) << bit;
        }
        out.push(acc);
    }
    Bitmap::from_words(out, n)
}

/// Apply a value-domain interval to one FOR chunk by translating the
/// bounds into the chunk's delta domain once, then range-testing the
/// packed deltas. Exact: `v = base + d` with `d ∈ [0, 2^width)`, so `v ∈
/// [lo, hi]` iff `d ∈ [lo - base, hi - base] ∩ [0, 2^width)`.
fn for_chunk_interval(base: i64, deltas: &PackedInts, range: IntRange) -> Bitmap {
    let n = deltas.len();
    match range {
        IntRange::Empty => Bitmap::new_false(n),
        IntRange::All => Bitmap::new_true(n),
        IntRange::Range(lo, hi) => {
            let dmax = width_mask(deltas.width()) as i128;
            let dlo = lo as i128 - base as i128;
            let dhi = hi as i128 - base as i128;
            if dhi < 0 || dlo > dmax {
                return Bitmap::new_false(n);
            }
            let dlo = dlo.max(0) as u64;
            let dhi = dhi.min(dmax) as u64;
            let span = dhi - dlo;
            packed_verdicts(deltas, |d| in_span(d, dlo, span))
        }
        IntRange::NotRange(lo, hi) => {
            let mut m = for_chunk_interval(base, deltas, IntRange::Range(lo, hi));
            m.not_assign();
            m
        }
    }
}

/// Apply a key-domain interval to one Floats chunk: each bit pattern maps
/// through [`total_cmp_key`] and range-tests with a signed-domain rotation
/// (`k - lo` as unsigned), all branch-free.
fn float_chunk_interval(bits: &[u64], range: IntRange) -> Bitmap {
    let n = bits.len();
    match range {
        IntRange::Empty => Bitmap::new_false(n),
        IntRange::All => Bitmap::new_true(n),
        IntRange::Range(lo, hi) => {
            let span = hi.wrapping_sub(lo) as u64;
            let mut words = Vec::with_capacity(n.div_ceil(64));
            for block in bits.chunks(64) {
                let mut acc = 0u64;
                for (bit, &b) in block.iter().enumerate() {
                    let k = total_cmp_key(b);
                    acc |= u64::from(k.wrapping_sub(lo) as u64 <= span) << bit;
                }
                words.push(acc);
            }
            Bitmap::from_words(words, n)
        }
        IntRange::NotRange(lo, hi) => {
            let mut m = float_chunk_interval(bits, IntRange::Range(lo, hi));
            m.not_assign();
            m
        }
    }
}

// ---------------------------------------------------------------------------
// Predicate kernels
// ---------------------------------------------------------------------------

/// Decode-free `col <op> value` over chunk `chunk` of an encoded column.
///
/// Returns `None` when no code-domain strategy applies — currently exactly
/// the `PlainInt` chunks, whose frame-of-reference width exceeded the
/// packing cutoff — and the caller falls back to decode-then-compare.
/// Every `Some` result is bit-identical to that fallback: numeric
/// comparisons go through [`int_cmp_interval`] / [`float_cmp_interval`]
/// (both exact inverses of the `as f64` + `total_cmp` semantics), and
/// string comparisons run in the dictionary-code domain with the same
/// per-distinct-value decisions as the LUT path.
pub fn eval_cmp_chunk(
    col: &EncodedColumn,
    op: CmpOp,
    value: &Value,
    chunk: usize,
) -> Option<Bitmap> {
    let enc = &col.chunks()[chunk];
    let n = enc.len();
    match col.data_type() {
        DataType::Int | DataType::Date => {
            let Some(lit) = value.as_f64() else {
                // Type-incompatible literal: all-false, as on the decode path.
                return Some(Bitmap::new_false(n));
            };
            match enc {
                EncodedChunk::For { base, deltas } => {
                    Some(for_chunk_interval(*base, deltas, int_cmp_interval(op, lit)))
                }
                EncodedChunk::PlainInt(_) => None,
                _ => unreachable!("int column with non-int chunk"),
            }
        }
        DataType::Float => {
            let Some(lit) = value.as_f64() else {
                return Some(Bitmap::new_false(n));
            };
            let EncodedChunk::Floats(bits) = enc else {
                unreachable!("float column with non-float chunk")
            };
            Some(float_chunk_interval(bits, float_cmp_interval(op, lit)))
        }
        DataType::Str => {
            let Value::Str(s) = value else {
                return Some(Bitmap::new_false(n));
            };
            let EncodedChunk::Codes(codes) = enc else {
                unreachable!("string column with non-code chunk")
            };
            match op {
                CmpOp::Eq | CmpOp::Ne => {
                    let pos = col.dict().iter().position(|d| d.as_ref() == s.as_ref());
                    Some(match (op, pos) {
                        (CmpOp::Eq, Some(c)) => {
                            let c = c as u64;
                            packed_verdicts(codes, |v| v == c)
                        }
                        (CmpOp::Eq, None) => Bitmap::new_false(n),
                        (CmpOp::Ne, Some(c)) => {
                            let c = c as u64;
                            packed_verdicts(codes, |v| v != c)
                        }
                        (CmpOp::Ne, None) => Bitmap::new_true(n),
                        _ => unreachable!(),
                    })
                }
                // Order comparisons: decide once per distinct dictionary
                // entry into a bitset LUT, then test packed codes directly
                // without expanding any string.
                _ => {
                    let dict = col.dict();
                    let mut lut = vec![0u64; dict.len().div_ceil(64).max(1)];
                    for (c, d) in dict.iter().enumerate() {
                        if op.apply(d.as_ref().cmp(s)) {
                            lut[c >> 6] |= 1u64 << (c & 63);
                        }
                    }
                    Some(packed_verdicts(codes, |v| {
                        (lut[(v >> 6) as usize] >> (v & 63)) & 1 != 0
                    }))
                }
            }
        }
    }
}

/// Decode-free `lo <= col <= hi` over one chunk, fused: the two bound
/// intervals intersect into a single interval so the packed data is
/// scanned once instead of twice. Set-equality of the intersection with
/// `Ge(lo) AND Le(hi)` makes the bitmap bit-identical to evaluating the
/// sides separately. Returns `None` for `PlainInt` chunks (decode
/// fallback) and for string columns (BETWEEN keeps the two-sided path).
pub fn eval_between_chunk(
    col: &EncodedColumn,
    lo: &Value,
    hi: &Value,
    chunk: usize,
) -> Option<Bitmap> {
    let enc = &col.chunks()[chunk];
    let n = enc.len();
    match col.data_type() {
        DataType::Int | DataType::Date => {
            let (Some(l), Some(h)) = (lo.as_f64(), hi.as_f64()) else {
                // Either side incompatible → that side is all-false → AND
                // is all-false, matching the decode path.
                return Some(Bitmap::new_false(n));
            };
            let range = intersect(
                int_cmp_interval(CmpOp::Ge, l),
                int_cmp_interval(CmpOp::Le, h),
            );
            match enc {
                EncodedChunk::For { base, deltas } => {
                    Some(for_chunk_interval(*base, deltas, range))
                }
                EncodedChunk::PlainInt(_) => None,
                _ => unreachable!("int column with non-int chunk"),
            }
        }
        DataType::Float => {
            let (Some(l), Some(h)) = (lo.as_f64(), hi.as_f64()) else {
                return Some(Bitmap::new_false(n));
            };
            let range = intersect(
                float_cmp_interval(CmpOp::Ge, l),
                float_cmp_interval(CmpOp::Le, h),
            );
            let EncodedChunk::Floats(bits) = enc else {
                unreachable!("float column with non-float chunk")
            };
            Some(float_chunk_interval(bits, range))
        }
        DataType::Str => None,
    }
}

// ---------------------------------------------------------------------------
// Encoded aggregate folds
// ---------------------------------------------------------------------------

/// Sum of every value in a packed array, folded over the packed words
/// without materializing a decoded vector. Width 1 is a `count_ones` over
/// the payload words (tail bits are zero by construction); widths
/// 2/4/8/16/32 extract lanes with constant trip counts; other widths fall
/// back to per-value `get`.
pub fn packed_sum(packed: &PackedInts) -> u128 {
    match packed.width() {
        0 => 0,
        1 => packed.words().iter().map(|w| w.count_ones() as u128).sum(),
        2 => packed_sum_width::<2>(packed),
        4 => packed_sum_width::<4>(packed),
        8 => packed_sum_width::<8>(packed),
        16 => packed_sum_width::<16>(packed),
        32 => packed_sum_width::<32>(packed),
        _ => (0..packed.len()).map(|i| packed.get(i) as u128).sum(),
    }
}

/// Lane-extraction sum for one width. The per-word accumulator cannot
/// overflow (`64 / W` lanes of `W ≤ 32` bits each stay under `2^37`); the
/// running total is `u128` so arbitrarily long arrays stay exact.
fn packed_sum_width<const W: usize>(packed: &PackedInts) -> u128 {
    let n = packed.len();
    let lanes = 64 / W;
    let mask = (1u64 << W) - 1;
    let full = n / lanes;
    let mut total: u128 = 0;
    for &w in &packed.words()[..full] {
        let mut acc = 0u64;
        for lane in 0..lanes {
            acc += (w >> (lane * W)) & mask;
        }
        total += acc as u128;
    }
    for i in full * lanes..n {
        total += packed.get(i) as u128;
    }
    total
}

/// Result of folding one fully-selected chunk without decoding. Field
/// values are bit-identical to what the sequential decode-fold produces
/// (see [`fold_chunk_encoded`] for why).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChunkFold {
    /// `Σ value` over the chunk, exactly as sequential f64 accumulation
    /// computes it.
    pub sum: f64,
    /// Minimum value (from the zone map).
    pub min: f64,
    /// Maximum value (from the zone map).
    pub max: f64,
    /// Number of rows folded.
    pub rows: usize,
}

/// Fold SUM/MIN/MAX of a fully-selected Int/Date FOR chunk straight from
/// the encoding: `Σv = base·n + Σdeltas` over the packed words, MIN/MAX
/// from the chunk's zone-map stats.
///
/// Returns `None` whenever bit-identity with the sequential decode-fold is
/// not provable, and the caller falls back to masked decode:
///
/// * Float and `PlainInt` chunks (floats can round and their NaN ordering
///   differs between the `<`/`>` fold and the `total_cmp` zone stats;
///   plain-int chunks have no packed deltas and their magnitudes exceed
///   the guard below anyway).
/// * Chunks where `n · max(|base|, |base + 2^width - 1|) ≥ 2^53`. Under
///   the guard every prefix sum is an integer below 2^53, so each f64 `+=`
///   in the decode-fold is exact and the final value equals the exact
///   integer sum — which is what this fold returns.
///
/// MIN/MAX identity holds because Int/Date values are NaN-free and
/// `i64 as f64` never yields `-0.0`, so the zone map's `total_cmp` fold
/// and the accumulator's `<`/`>` fold agree on both value and bit pattern.
pub fn fold_chunk_encoded(
    col: &EncodedColumn,
    chunk: usize,
    stats: &ChunkStats,
) -> Option<ChunkFold> {
    if !matches!(col.data_type(), DataType::Int | DataType::Date) {
        return None;
    }
    let EncodedChunk::For { base, deltas } = &col.chunks()[chunk] else {
        return None;
    };
    let n = deltas.len();
    if n == 0 {
        return None;
    }
    let base = *base as i128;
    let dmax = width_mask(deltas.width()) as i128;
    let abs_max = base.abs().max((base + dmax).abs());
    if (n as i128).saturating_mul(abs_max) >= 1i128 << 53 {
        return None;
    }
    let ChunkStats::Numeric { min, max, .. } = stats else {
        return None;
    };
    let sum = base * n as i128 + packed_sum(deltas) as i128;
    Some(ChunkFold {
        sum: sum as f64,
        min: *min,
        max: *max,
        rows: n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{chunk_range, encode_int_chunk, EncodedRelation, CHUNK_ROWS};
    use crate::datatype::DataType;
    use crate::relation::{Relation, RelationBuilder};
    use crate::schema::ColumnId;

    fn all_ops() -> [CmpOp; 6] {
        [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ]
    }

    /// Decode-path reference verdict for a numeric column chunk.
    fn decode_verdicts_f64(col: &EncodedColumn, chunk: usize, op: CmpOp, lit: f64) -> Bitmap {
        let mut vals = Vec::new();
        col.decode_chunk_f64(chunk, &mut vals);
        Bitmap::from_fn(vals.len(), |r| op.apply(vals[r].total_cmp(&lit)))
    }

    #[test]
    fn int_interval_matches_total_cmp_on_edges() {
        let values: Vec<i64> = vec![
            i64::MIN,
            i64::MIN + 1,
            -4_000_000_000,
            -3,
            -1,
            0,
            1,
            2,
            1000,
            (1i64 << 53) - 1,
            1i64 << 53,
            (1i64 << 53) + 1,
            i64::MAX - 1,
            i64::MAX,
        ];
        let lits = [
            0.0,
            -0.0,
            0.5,
            -0.5,
            1.0,
            1000.0,
            -3.0,
            1e300,
            -1e300,
            9.3e18, // > i64::MAX as f64
            i64::MIN as f64,
            i64::MAX as f64,
            (1u64 << 53) as f64,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &lit in &lits {
            for op in all_ops() {
                let range = int_cmp_interval(op, lit);
                for &v in &values {
                    let want = op.apply((v as f64).total_cmp(&lit));
                    let got = match range {
                        IntRange::Empty => false,
                        IntRange::All => true,
                        IntRange::Range(lo, hi) => lo <= v && v <= hi,
                        IntRange::NotRange(lo, hi) => v < lo || v > hi,
                    };
                    assert_eq!(got, want, "v={v} {op} {lit} → {range:?}");
                }
            }
        }
    }

    #[test]
    fn float_key_preserves_total_cmp_order() {
        let vals = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1e300,
            f64::INFINITY,
            f64::NAN,
            -f64::NAN,
        ];
        for &a in &vals {
            for &b in &vals {
                assert_eq!(
                    total_cmp_key(a.to_bits()).cmp(&total_cmp_key(b.to_bits())),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn for_chunk_kernel_matches_decode() {
        // Narrow FOR chunk with a ragged length; literals probe inside,
        // outside, and across the chunk's domain.
        let values: Vec<i64> = (0..1000).map(|i| 5_000 + (i * i) % 777).collect();
        let col = EncodedColumn::from_parts(
            DataType::Int,
            values.len(),
            Vec::new(),
            vec![encode_int_chunk(&values)],
        )
        .unwrap();
        for lit in [
            4_999.0,
            5_000.0,
            5_100.5,
            5_776.0,
            5_777.0,
            0.0,
            -1e18,
            1e18,
            f64::NAN,
        ] {
            for op in all_ops() {
                let want = decode_verdicts_f64(&col, 0, op, lit);
                let got = eval_cmp_chunk(&col, op, &Value::from(lit), 0).unwrap();
                assert_eq!(got, want, "{op} {lit}");
            }
        }
    }

    #[test]
    fn plain_int_chunk_falls_back() {
        let values = vec![i64::MIN, 0, i64::MAX];
        let col = EncodedColumn::from_parts(
            DataType::Int,
            values.len(),
            Vec::new(),
            vec![encode_int_chunk(&values)],
        )
        .unwrap();
        assert!(matches!(col.chunks()[0], EncodedChunk::PlainInt(_)));
        assert!(eval_cmp_chunk(&col, CmpOp::Ge, &Value::Int(0), 0).is_none());
        assert!(eval_between_chunk(&col, &Value::Int(0), &Value::Int(5), 0).is_none());
    }

    #[test]
    fn float_chunk_kernel_matches_decode() {
        let mut vals: Vec<f64> = (0..500).map(|i| (i as f64) * 0.37 - 91.0).collect();
        vals.extend([0.0, -0.0, f64::NAN, -f64::NAN, f64::INFINITY, 1e-320]);
        let col = EncodedColumn::from_parts(
            DataType::Float,
            vals.len(),
            Vec::new(),
            vec![EncodedChunk::Floats(
                vals.iter().map(|v| v.to_bits()).collect(),
            )],
        )
        .unwrap();
        for lit in [0.0, -0.0, 42.21, f64::NAN, f64::INFINITY, 1e-320, -91.0] {
            for op in all_ops() {
                let want = decode_verdicts_f64(&col, 0, op, lit);
                let got = eval_cmp_chunk(&col, op, &Value::from(lit), 0).unwrap();
                assert_eq!(got, want, "{op} {lit}");
            }
        }
    }

    #[test]
    fn width_fast_paths_match_generic_get_loop() {
        // Exercise every specialized width plus a generic one (13) against
        // the get()-based reference, with a ragged tail.
        for width in [1u8, 2, 4, 8, 16, 32, 13] {
            let mask = width_mask(width);
            let values: Vec<u64> = (0..(64 * 5 + 17) as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & mask)
                .collect();
            let packed = PackedInts::pack_width(&values, width);
            let lo = mask / 4;
            let span = mask / 2;
            let got = packed_verdicts(&packed, |v| in_span(v, lo, span));
            let want = Bitmap::from_fn(values.len(), |i| in_span(values[i], lo, span));
            assert_eq!(got, want, "width {width}");
            assert_eq!(
                packed_sum(&packed),
                values.iter().map(|&v| v as u128).sum::<u128>(),
                "sum width {width}"
            );
        }
    }

    #[test]
    fn between_kernel_matches_two_sided_and() {
        let values: Vec<i64> = (0..900).map(|i| (i * 31) % 512 - 100).collect();
        let col = EncodedColumn::from_parts(
            DataType::Int,
            values.len(),
            Vec::new(),
            vec![encode_int_chunk(&values)],
        )
        .unwrap();
        for (lo, hi) in [(-50.0, 50.0), (0.5, 0.6), (400.0, 200.0), (-1e18, 1e18)] {
            let mut want = decode_verdicts_f64(&col, 0, CmpOp::Ge, lo);
            want.and_assign(&decode_verdicts_f64(&col, 0, CmpOp::Le, hi));
            let got = eval_between_chunk(&col, &Value::from(lo), &Value::from(hi), 0).unwrap();
            assert_eq!(got, want, "BETWEEN {lo} AND {hi}");
        }
    }

    #[test]
    fn str_kernel_matches_dict_decode() {
        let mut b = RelationBuilder::new().column("s", DataType::Str);
        for i in 0..300usize {
            b.push_row(&[Value::str(["alpha", "beta", "gamma", "delta"][i % 4])])
                .unwrap();
        }
        let rel = b.finish();
        let enc = EncodedRelation::encode(&rel);
        let col = enc.column(ColumnId(0));
        for lit in ["alpha", "beta", "zzz", ""] {
            for op in all_ops() {
                let mut codes = Vec::new();
                col.decode_chunk_u64(0, &mut codes);
                let want = Bitmap::from_fn(codes.len(), |r| {
                    op.apply(col.dict()[codes[r] as usize].as_ref().cmp(lit))
                });
                // Absent-literal Eq/Ne need the decode path's lookup
                // semantics, which the from_fn above already matches
                // (everything compares unequal to an absent literal...
                // except order ops still order against it).
                let got = eval_cmp_chunk(col, op, &Value::str(lit), 0).unwrap();
                assert_eq!(got, want, "{op} {lit:?}");
            }
        }
        // Non-string literal on a string column: all-false.
        let got = eval_cmp_chunk(col, CmpOp::Eq, &Value::Int(3), 0).unwrap();
        assert_eq!(got, Bitmap::new_false(300));
    }

    #[test]
    fn fold_matches_sequential_decode_fold() {
        let mut b = RelationBuilder::new()
            .column("i", DataType::Int)
            .column("d", DataType::Date);
        let rows = CHUNK_ROWS + 321;
        for r in 0..rows {
            b.push_row(&[
                Value::Int((r as i64) * 3 - 10_000),
                Value::Date((r % 365) as i32 - 40),
            ])
            .unwrap();
        }
        let rel: Relation = b.finish();
        let enc = EncodedRelation::encode(&rel);
        let zm = rel.zone_maps();
        for cid in [ColumnId(0), ColumnId(1)] {
            let col = enc.column(cid);
            for chunk in 0..enc.chunk_count() {
                let fold = fold_chunk_encoded(col, chunk, zm.stats(cid, chunk))
                    .expect("small magnitudes must fold");
                let mut vals = Vec::new();
                col.decode_chunk_f64(chunk, &mut vals);
                let mut sum = 0.0f64;
                let mut min = f64::INFINITY;
                let mut max = f64::NEG_INFINITY;
                for &v in &vals {
                    sum += v;
                    if v < min {
                        min = v;
                    }
                    if v > max {
                        max = v;
                    }
                }
                assert_eq!(fold.sum.to_bits(), sum.to_bits(), "{cid} chunk {chunk}");
                assert_eq!(fold.min.to_bits(), min.to_bits());
                assert_eq!(fold.max.to_bits(), max.to_bits());
                assert_eq!(
                    fold.rows,
                    chunk_range(chunk, rows).1 - chunk_range(chunk, rows).0
                );
            }
        }
    }

    #[test]
    fn fold_declines_unsafe_magnitudes_and_floats() {
        // Magnitude guard: n * |base| ≥ 2^53 must decline.
        let big: Vec<i64> = (0..64).map(|i| (1i64 << 52) + i).collect();
        let col = EncodedColumn::from_parts(
            DataType::Int,
            big.len(),
            Vec::new(),
            vec![encode_int_chunk(&big)],
        )
        .unwrap();
        let stats = ChunkStats::Numeric {
            min: big[0] as f64,
            max: big[63] as f64,
            distinct_hint: 64,
        };
        assert!(fold_chunk_encoded(&col, 0, &stats).is_none());
        // Floats never fold.
        let fcol = EncodedColumn::from_parts(
            DataType::Float,
            2,
            Vec::new(),
            vec![EncodedChunk::Floats(vec![
                1.0f64.to_bits(),
                2.0f64.to_bits(),
            ])],
        )
        .unwrap();
        assert!(fold_chunk_encoded(&fcol, 0, &stats).is_none());
    }

    #[test]
    fn scratch_pool_reuses_buffers() {
        let cap = with_scratch(|s| {
            s.f64s.clear();
            s.f64s.reserve(4096);
            s.f64s.capacity()
        });
        // Same thread: the pooled buffer (with its capacity) comes back.
        let cap2 = with_scratch(|s| s.f64s.capacity());
        assert!(cap2 >= cap);
        // Re-entrancy hands out a distinct buffer without deadlocking.
        with_scratch(|outer| {
            outer.f64s.push(1.0);
            with_scratch(|inner| inner.u64s.push(2));
            assert_eq!(outer.f64s.len(), 1);
        });
    }

    #[test]
    fn kernel_stats_merge_and_total() {
        let mut a = KernelStats {
            pred_chunks: 1,
            fold_sum_chunks: 2,
            fold_minmax_chunks: 3,
        };
        let b = KernelStats {
            pred_chunks: 10,
            fold_sum_chunks: 20,
            fold_minmax_chunks: 30,
        };
        a.merge(&b);
        assert_eq!(a.pred_chunks, 11);
        assert_eq!(a.decode_avoided(), 66);
    }
}
