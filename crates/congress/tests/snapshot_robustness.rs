//! Adversarial-input sweep over the snapshot codec: a decoder fed torn,
//! bit-rotted, or arbitrary bytes must return an error — never panic,
//! never attempt a huge allocation.

use congress::snapshot;
use congress::{Congress, GroupCensus, SeedSpec};
use proptest::prelude::*;
use relation::{DataType, Relation, RelationBuilder, Value};

fn skewed_relation() -> Relation {
    let mut b = RelationBuilder::new()
        .column("a", DataType::Str)
        .column("b", DataType::Str)
        .column("q", DataType::Float);
    let groups: [(&str, &str, usize); 4] = [
        ("a1", "b1", 300),
        ("a1", "b2", 300),
        ("a1", "b3", 150),
        ("a2", "b3", 250),
    ];
    let mut i = 0u64;
    for (a, bb, n) in groups {
        for _ in 0..n {
            b.push_row(&[Value::str(a), Value::str(bb), Value::from((i % 97) as f64)])
                .unwrap();
            i += 1;
        }
    }
    b.finish()
}

fn valid_snapshot() -> bytes::Bytes {
    let rel = skewed_relation();
    let cols = rel.schema().column_ids(&["a", "b"]).unwrap();
    let census = GroupCensus::build(&rel, &cols).unwrap();
    let sample =
        congress::CongressionalSample::draw_par(&rel, &census, &Congress, 80.0, &SeedSpec::new(12))
            .unwrap();
    snapshot::encode(&sample)
}

/// Torn-write sweep: truncating a valid snapshot at *every* byte offset
/// must yield a clean error.
#[test]
fn truncation_at_every_offset_errors_cleanly() {
    let full = valid_snapshot();
    assert!(
        snapshot::decode(full.clone()).is_ok(),
        "fixture must decode"
    );
    for cut in 0..full.len() {
        let torn = full.slice(0..cut);
        assert!(
            snapshot::decode(torn).is_err(),
            "truncation to {cut}/{} bytes decoded successfully",
            full.len()
        );
    }
}

/// Bit-rot sweep: flipping any single bit anywhere in the snapshot is
/// detected by a checksum (section CRC, footer CRC, or both).
#[test]
fn bit_flip_at_every_byte_is_detected() {
    let full = valid_snapshot().to_vec();
    for (i, bit) in (0..full.len()).map(|i| (i, i % 8)) {
        let mut bad = full.clone();
        bad[i] ^= 1 << bit;
        assert!(
            snapshot::decode(bytes::Bytes::from(bad)).is_err(),
            "flipping bit {bit} of byte {i} went undetected"
        );
    }
}

proptest! {
    /// Arbitrary bytes never decode (the magic + CRCs make an accidental
    /// valid snapshot astronomically unlikely) and, more importantly,
    /// never panic or over-allocate.
    #[test]
    fn arbitrary_bytes_never_decode(data in proptest::collection::vec(0u8..=255, 0..4096)) {
        prop_assert!(snapshot::decode(bytes::Bytes::from(data)).is_err());
    }

    /// Arbitrary mutations of a valid prefix keep the decoder total, too.
    #[test]
    fn mutated_valid_snapshot_never_panics(
        idx in 0usize..1000,
        byte in 0u8..=255,
    ) {
        let mut bytes = valid_snapshot().to_vec();
        let i = idx % bytes.len();
        bytes[i] = byte;
        // Writing the byte already stored can leave the snapshot valid;
        // everything else must error. Either way: no panic.
        let _ = snapshot::decode(bytes::Bytes::from(bytes));
    }
}
