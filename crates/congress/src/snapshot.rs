//! Compact binary persistence for congressional samples.
//!
//! Aqua stores its synopses durably ("stored as regular relations in the
//! DBMS", §2) so they survive restarts and can be shipped between the
//! warehouse and the middleware. Here a snapshot is stored the way a base
//! table is: one [`relation::binio`] container (magic `CGRS`), with a
//! per-section CRC32C and a header checksum over the directory. The
//! encoding stores row *indices* (not tuples), so a snapshot is small —
//! the base relation is re-joined at load time by
//! [`CongressionalSample::to_stratified_input`].
//!
//! Section 0 (`meta`) carries the strategy name and grouping columns;
//! section 1 (`strata`) the stratum count, then per stratum its key,
//! population size and sampled row ids. Decoding is defensive throughout:
//! a hostile or torn buffer produces a [`CongressError::CorruptSnapshot`],
//! never a panic or an unbounded allocation.

use bytes::Bytes;

use relation::binio::{open_container, ContainerWriter, Reader};
use relation::{ColumnId, GroupKey, RelationError};

use crate::error::{CongressError, Result};
use crate::sample::CongressionalSample;

/// Magic of a snapshot blob: `b"CGRS"`.
pub const MAGIC: u32 = u32::from_be_bytes(*b"CGRS");

const SECTION_META: u8 = 0;
const SECTION_STRATA: u8 = 1;

/// Smallest possible encoded stratum: key arity (2) + group size (8) +
/// row count (4), with zero key values and zero rows.
const MIN_STRATUM_BYTES: usize = 14;

fn corrupt(e: RelationError) -> CongressError {
    CongressError::CorruptSnapshot(e.reason())
}

/// Serialize a sample to its binary snapshot form.
pub fn encode(sample: &CongressionalSample) -> Bytes {
    let mut c = ContainerWriter::new(MAGIC, 2, sample.total_sampled() * 8 + 64);
    let w = c.section(SECTION_META);
    w.str(sample.strategy_name());
    w.u16(sample.grouping_columns().len() as u16);
    for col in sample.grouping_columns() {
        w.u32(col.index() as u32);
    }
    let w = c.section(SECTION_STRATA);
    w.u32(sample.stratum_count() as u32);
    for g in 0..sample.stratum_count() {
        let key = &sample.strata_keys()[g];
        w.u16(key.len() as u16);
        key.values().iter().for_each(|v| w.value(v));
        w.u64(sample.group_sizes()[g]);
        let rows = &sample.sampled_rows()[g];
        w.u32(rows.len() as u32);
        rows.iter().for_each(|&r| w.u64(r as u64));
    }
    Bytes::from(c.finish())
}

/// Parse the meta payload: (strategy name, grouping columns).
fn decode_meta(payload: &[u8]) -> relation::Result<(String, Vec<ColumnId>)> {
    let mut r = Reader::new(payload);
    let name = r.str()?.to_string();
    let ncols = r.u16()? as usize;
    let cols = r.vec(ncols, 4, |r| Ok(ColumnId(r.u32()? as usize)))?;
    r.finish()?;
    Ok((name, cols))
}

/// Parse the strata payload: (keys, sizes, rows).
#[allow(clippy::type_complexity)]
fn decode_strata(payload: &[u8]) -> relation::Result<(Vec<GroupKey>, Vec<u64>, Vec<Vec<usize>>)> {
    let mut r = Reader::new(payload);
    let strata = r.count(MIN_STRATUM_BYTES)?;
    let mut keys = Vec::with_capacity(strata);
    let mut sizes = Vec::with_capacity(strata);
    let mut rows = Vec::with_capacity(strata);
    for _ in 0..strata {
        // A value is at least a tag plus four bytes.
        let arity = r.u16()? as usize;
        keys.push(GroupKey::new(r.vec(arity, 5, Reader::value)?));
        sizes.push(r.u64()?);
        let n = r.u32()? as usize;
        rows.push(r.vec(n, 8, |r| Ok(r.u64()? as usize))?);
    }
    r.finish()?;
    Ok((keys, sizes, rows))
}

/// Deserialize a snapshot produced by [`encode`].
pub fn decode(buf: Bytes) -> Result<CongressionalSample> {
    let sections = open_container(&buf, MAGIC).map_err(corrupt)?;
    let [(SECTION_META, meta), (SECTION_STRATA, strata)] = sections[..] else {
        return Err(CongressError::CorruptSnapshot(
            "expected exactly a meta and a strata section".into(),
        ));
    };
    let (name, cols) = decode_meta(meta).map_err(corrupt)?;
    let (keys, sizes, rows) = decode_strata(strata).map_err(corrupt)?;
    CongressionalSample::from_parts(cols, keys, sizes, rows, name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alloc::Congress;
    use crate::census::test_support::{figure5_census, figure5_relation};
    use crate::seed::SeedSpec;
    use relation::binio::Writer;

    fn sample() -> CongressionalSample {
        let rel = figure5_relation(10);
        let census = figure5_census(10);
        CongressionalSample::draw_par(&rel, &census, &Congress, 80.0, &SeedSpec::new(12)).unwrap()
    }

    #[test]
    fn round_trip_preserves_everything() {
        let s = sample();
        let bytes = encode(&s);
        let back = decode(bytes).unwrap();
        assert_eq!(back.strategy_name(), s.strategy_name());
        assert_eq!(back.grouping_columns(), s.grouping_columns());
        assert_eq!(back.strata_keys(), s.strata_keys());
        assert_eq!(back.group_sizes(), s.group_sizes());
        assert_eq!(back.sampled_rows(), s.sampled_rows());
    }

    #[test]
    fn round_trip_through_stratified_input() {
        let rel = figure5_relation(10);
        let s = sample();
        let back = decode(encode(&s)).unwrap();
        let a = s.to_stratified_input(&rel).unwrap();
        let b = back.to_stratified_input(&rel).unwrap();
        assert_eq!(a.scale_factors, b.scale_factors);
        assert_eq!(a.stratum_of_row, b.stratum_of_row);
        assert_eq!(a.rows.row_count(), b.rows.row_count());
    }

    #[test]
    fn snapshot_is_compact() {
        let s = sample();
        let bytes = encode(&s);
        // ~8 bytes per sampled row id + key/header/checksum overhead; far
        // below materializing the tuples themselves.
        assert!(bytes.len() < 96 + s.total_sampled() * 8 + s.stratum_count() * 64);
    }

    #[test]
    fn rejects_bad_magic_and_old_versions() {
        let s = sample();
        let mut raw = encode(&s).to_vec();
        raw[0] ^= 0xFF;
        assert!(decode(Bytes::from(raw)).is_err());
        // The pre-container layouts: `CGRS` v1 (unchecked) and v2.
        for version in [1u8, 2] {
            let mut raw = encode(&s).to_vec();
            raw[5] = version;
            let err = decode(Bytes::from(raw)).unwrap_err();
            assert!(
                matches!(&err, CongressError::CorruptSnapshot(m) if m.contains("unsupported version")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn rejects_trailing_garbage() {
        let s = sample();
        let mut raw = encode(&s).to_vec();
        raw.push(0);
        assert!(decode(Bytes::from(raw)).is_err());
    }

    #[test]
    fn detects_any_single_bit_flip() {
        let s = sample();
        let full = encode(&s).to_vec();
        for byte in 0..full.len() {
            let mut raw = full.clone();
            raw[byte] ^= 0x01;
            assert!(
                decode(Bytes::from(raw)).is_err(),
                "bit flip at byte {byte} must be detected"
            );
        }
    }

    #[test]
    fn hostile_stratum_count_rejected_before_allocation() {
        let mut w = Writer::default();
        w.u32(u32::MAX);
        w.bytes(&[0u8; 16]);
        let err = corrupt(decode_strata(&w.into_vec()).unwrap_err());
        assert!(matches!(err, CongressError::CorruptSnapshot(_)), "{err:?}");
    }

    #[test]
    fn hostile_row_count_rejected_before_allocation() {
        let mut w = Writer::default();
        w.u32(1); // one stratum
        w.u16(0); // empty key
        w.u64(10); // group size
        w.u32(u32::MAX); // hostile row count
        let err = decode_strata(&w.into_vec()).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "{err}");
    }
}
