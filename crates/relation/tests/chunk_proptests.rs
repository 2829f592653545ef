//! Property tests over chunked encoded storage: encode/decode roundtrip
//! identity, zone-map pruning soundness, and bitwise equivalence of the
//! code-domain kernels and encoded folds with decode-then-evaluate.

use proptest::prelude::*;
use relation::chunk::{chunk_range, EncodedRelation};
use relation::kernels::fold_chunk_encoded;
use relation::predicate::CmpOp;
use relation::{
    binio, ColumnId, DataType, Expr, KernelStats, Predicate, Relation, RelationBuilder, Value,
};

#[derive(Debug, Clone)]
struct Row {
    i: i64,
    f: f64,
    s: String,
    d: i32,
}

fn row_strategy() -> impl Strategy<Value = Row> {
    (
        (0u8..8, -1_000i64..1_000),
        (0u8..12, -100.0f64..100.0),
        prop_oneof![Just("aa"), Just("bb"), Just("cc"), Just("dd")],
        -50i32..50,
    )
        .prop_map(|((ik, iv), (fk, fv), s, d)| Row {
            // Wide outliers defeat frame-of-reference width reduction, so
            // the plain-int fallback is exercised too.
            i: match ik {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => iv,
            },
            f: match fk {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -0.0,
                _ => fv,
            },
            s: s.to_string(),
            d,
        })
}

fn relation_of(rows: &[Row]) -> Relation {
    let mut b = RelationBuilder::new()
        .column("i", DataType::Int)
        .column("f", DataType::Float)
        .column("s", DataType::Str)
        .column("d", DataType::Date);
    for r in rows {
        b.push_row(&[
            Value::Int(r.i),
            Value::from(r.f),
            Value::str(r.s.as_str()),
            Value::Date(r.d),
        ])
        .unwrap();
    }
    b.finish()
}

fn cmp_op_strategy() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

fn predicate_strategy() -> impl Strategy<Value = Predicate> {
    (
        (cmp_op_strategy(), cmp_op_strategy()),
        -1_100i64..1_100,
        -110.0f64..110.0,
        (0u8..5, 0u8..5, 0u8..4),
    )
        .prop_map(|((op1, op2), ilit, flit, (l1, l2, comb))| {
            let leaf = |sel: u8, op: CmpOp| match sel {
                0 => Predicate::Cmp {
                    col: ColumnId(0),
                    op,
                    value: Value::Int(ilit),
                },
                1 => Predicate::Cmp {
                    col: ColumnId(1),
                    op,
                    value: Value::from(flit),
                },
                2 => Predicate::Cmp {
                    col: ColumnId(2),
                    op,
                    value: Value::str("cc"),
                },
                3 => Predicate::between(ColumnId(0), ilit, ilit.saturating_add(300)),
                _ => Predicate::between(ColumnId(3), Value::Date(-20), Value::Date(20)),
            };
            let a = leaf(l1, op1);
            let b = leaf(l2, op2);
            match comb {
                0 => a,
                1 => a.and(b),
                2 => a.or(b),
                _ => a.not(),
            }
        })
}

/// Comparison constants for the code-domain transform, biased toward the
/// edges where the translation into the encoding's delta domain must
/// saturate or bail: far outside the column domain, at the i64 extremes
/// (where `lit - base` overflows), and fractional / non-finite floats.
fn hostile_int_lit() -> impl Strategy<Value = i64> {
    (0u8..12, -1_100i64..1_100).prop_map(|(k, v)| match k {
        0 => i64::MIN,
        1 => i64::MIN + 1,
        2 => i64::MAX,
        3 => i64::MAX - 1,
        4 => 1_000_000_000_000,
        5 => -1_000_000_000_000,
        _ => v,
    })
}

fn hostile_float_lit() -> impl Strategy<Value = f64> {
    // The in-range arm stays fractional on purpose: a fractional literal
    // against an integer column makes the interval reduction round to the
    // right integer neighbours.
    (0u8..14, -1_100.0f64..1_100.0).prop_map(|(k, v)| match k {
        0 => f64::NAN,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => -0.0,
        4 => 0.5,
        5 => 1e300,
        6 => -1e300,
        _ => v,
    })
}

/// Comparison leaves for the kernel equivalence property: every encoding
/// (FOR int, plain-int fallback, floats, dictionary strings, dates),
/// every op, hostile constants, and a type-incompatible literal that must
/// evaluate all-false on both paths.
fn kernel_predicate_strategy() -> impl Strategy<Value = Predicate> {
    (
        (cmp_op_strategy(), cmp_op_strategy()),
        hostile_int_lit(),
        hostile_float_lit(),
        (0u8..8, 0u8..8, 0u8..4),
    )
        .prop_map(|((op1, op2), ilit, flit, (l1, l2, comb))| {
            let leaf = |sel: u8, op: CmpOp| match sel {
                0 => Predicate::Cmp {
                    col: ColumnId(0),
                    op,
                    value: Value::Int(ilit),
                },
                1 => Predicate::Cmp {
                    col: ColumnId(1),
                    op,
                    value: Value::from(flit),
                },
                2 => Predicate::Cmp {
                    col: ColumnId(2),
                    op,
                    value: Value::str("cc"),
                },
                3 => Predicate::Cmp {
                    col: ColumnId(2),
                    op,
                    value: Value::str("zz"), // absent from the dictionary
                },
                4 => Predicate::between(ColumnId(0), ilit, ilit.saturating_add(300)),
                5 => Predicate::between(ColumnId(1), Value::from(flit), Value::from(flit + 50.0)),
                // Type-incompatible literal: all-false on every path.
                6 => Predicate::Cmp {
                    col: ColumnId(2),
                    op,
                    value: Value::Int(ilit),
                },
                _ => Predicate::between(ColumnId(3), Value::Date(-20), Value::Date(20)),
            };
            let a = leaf(l1, op1);
            let b = leaf(l2, op2);
            match comb {
                0 => a,
                1 => a.and(b),
                2 => a.or(b),
                _ => a.not(),
            }
        })
}

/// Exact value-level equality between two relations, with float columns
/// compared by bit pattern (so NaN == NaN and -0.0 != 0.0 distinctions
/// survive the roundtrip check).
fn assert_bit_identical(a: &Relation, b: &Relation) -> std::result::Result<(), TestCaseError> {
    prop_assert_eq!(a.row_count(), b.row_count());
    prop_assert_eq!(a.schema(), b.schema());
    for r in 0..a.row_count() {
        for c in 0..a.schema().width() {
            let (va, vb) = (a.value(r, ColumnId(c)), b.value(r, ColumnId(c)));
            match (&va, &vb) {
                (Value::Float(x), Value::Float(y)) => {
                    prop_assert_eq!(x.get().to_bits(), y.get().to_bits(), "row {} col {}", r, c);
                }
                _ => prop_assert_eq!(va, vb, "row {} col {}", r, c),
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Chunked encoding then decoding is the identity, both in memory
    /// (`EncodedRelation`) and through the v2 snapshot bytes (`binio`).
    #[test]
    fn encode_decode_roundtrip_is_identity(
        rows in proptest::collection::vec(row_strategy(), 0..80),
    ) {
        let rel = relation_of(&rows);
        let enc = EncodedRelation::encode(&rel);
        assert_bit_identical(&enc.to_relation().unwrap(), &rel)?;
        let bytes = binio::encode(&rel);
        assert_bit_identical(&binio::decode(&bytes).unwrap(), &rel)?;
        // Decoding straight to chunked storage agrees as well.
        let enc2 = binio::decode_encoded(&bytes).unwrap();
        assert_bit_identical(&enc2.to_relation().unwrap(), &rel)?;
    }

    /// Zone-map pruning is sound and exact: the pruned mask is bit-identical
    /// to the unpruned evaluation and to row-at-a-time evaluation, and the
    /// kept rows are exactly those of the chunks holding a matching row.
    #[test]
    fn zone_map_pruning_is_sound(
        rows in proptest::collection::vec(row_strategy(), 1..80),
        pred in predicate_strategy(),
    ) {
        let rel = relation_of(&rows);
        let dense = pred.eval(&rel);
        let (mask, stats) = pred.eval_pruned(&rel);
        prop_assert_eq!(mask.to_bools(), dense.to_bools(), "pruned mask diverges for {}", &pred);
        let nchunks = relation::chunk_count(rel.row_count());
        prop_assert_eq!(stats.chunks, nchunks as u64);
        let mut kept = 0;
        for c in 0..nchunks {
            let (start, end) = chunk_range(c, rel.row_count());
            let matching = (start..end).filter(|&r| pred.eval_row(&rel, r)).count();
            prop_assert_eq!(matching, mask.ones_range(start, end).count(), "chunk {}", c);
            if matching > 0 {
                kept += end - start;
            }
        }
        prop_assert_eq!(stats.kept_rows, kept as u64, "kept rows for {}", &pred);
    }

    /// The code-domain kernel path is bitwise-equal to decode-then-compare
    /// for arbitrary (encoding, constant, op) triples: the mask and prune
    /// stats match the decode path exactly. The literal strategies
    /// deliberately include overflow and out-of-domain edges where the
    /// transform must saturate or fall back to decode.
    #[test]
    fn code_domain_kernels_match_decode(
        rows in proptest::collection::vec(row_strategy(), 1..80),
        pred in kernel_predicate_strategy(),
    ) {
        let rel = relation_of(&rows);
        let dense = pred.eval(&rel);
        let (dmask, dstats) = pred.eval_pruned(&rel);
        let mut kstats = KernelStats::default();
        let (kmask, kprune) = pred.eval_pruned_kernels(&rel, &mut kstats);
        prop_assert_eq!(kmask.to_bools(), dense.to_bools(), "kernel mask diverges for {}", &pred);
        prop_assert_eq!(dmask.to_bools(), kmask.to_bools());
        prop_assert_eq!(kprune, dstats, "kernel prune stats diverge for {}", &pred);
    }

    /// The encoded aggregate fold agrees bit-for-bit with the sequential
    /// decode-then-accumulate reference on every chunk it accepts: same
    /// running `f64` sum, same min/max, same row count. Chunks it declines
    /// (floats, plain-int fallback, 2^53 overflow risk) are simply absent.
    #[test]
    fn encoded_fold_matches_decode_fold(
        rows in proptest::collection::vec(row_strategy(), 1..80),
    ) {
        let rel = relation_of(&rows);
        let enc = EncodedRelation::encode(&rel);
        let zm = rel.zone_maps();
        for c in [0usize, 3] { // the Int and Date columns
            let col = ColumnId(c);
            for chunk in 0..relation::chunk_count(rel.row_count()) {
                let Some(fold) = fold_chunk_encoded(enc.column(col), chunk, zm.stats(col, chunk))
                else {
                    continue;
                };
                let (start, end) = chunk_range(chunk, rel.row_count());
                // The reference the accumulator would compute: sequential
                // `+=` over `v as f64`, comparison-folded min/max.
                let (mut sum, mut min, mut max) = (0.0f64, f64::INFINITY, f64::NEG_INFINITY);
                for r in start..end {
                    let v = match rel.value(r, col) {
                        Value::Int(v) => v as f64,
                        Value::Date(d) => d as f64,
                        other => return Err(TestCaseError::fail(format!("unexpected {other:?}"))),
                    };
                    sum += v;
                    if v < min { min = v; }
                    if v > max { max = v; }
                }
                prop_assert_eq!(fold.rows, end - start);
                prop_assert_eq!(fold.sum.to_bits(), sum.to_bits(), "sum diverges col {} chunk {}", c, chunk);
                prop_assert_eq!(fold.min.to_bits(), min.to_bits(), "min diverges col {} chunk {}", c, chunk);
                prop_assert_eq!(fold.max.to_bits(), max.to_bits(), "max diverges col {} chunk {}", c, chunk);
            }
        }
    }

    /// `eval_rows` at the selected rows is bitwise-equal to the full `eval`
    /// there, for arbitrary expressions and masks, and so is each bare
    /// column gathered from its decoded chunk (what the scalar fold reads).
    #[test]
    fn eval_rows_matches_eval_dense_and_decoded(
        rows in proptest::collection::vec(row_strategy(), 1..80),
        bits in proptest::collection::vec(0u8..2, 80..81),
        scale in -3.0f64..3.0,
    ) {
        let rel = relation_of(&rows);
        let sel: Vec<u32> = (0..rel.row_count() as u32).filter(|&r| bits[r as usize] == 1).collect();
        let exprs = vec![
            Expr::col(ColumnId(0)),
            Expr::col(ColumnId(1)),
            Expr::col(ColumnId(3)),
            Expr::col(ColumnId(0)).add(Expr::col(ColumnId(1))),
            Expr::col(ColumnId(1)).mul(Expr::lit(scale)),
            Expr::col(ColumnId(1)).sub(Expr::col(ColumnId(3))).mul(Expr::col(ColumnId(0))),
        ];
        let enc = EncodedRelation::encode(&rel);
        for e in exprs {
            let full = e.eval(&rel).unwrap();
            let mut dense = Vec::new();
            e.eval_rows(&rel, &sel, &mut dense).unwrap();
            prop_assert_eq!(dense.len(), sel.len());
            let mut chunk = Vec::new();
            if let Expr::Column(id) = &e {
                enc.column(*id).decode_chunk_f64(0, &mut chunk);
            }
            for (i, &r) in sel.iter().enumerate() {
                let want = full[r as usize].to_bits();
                prop_assert_eq!(dense[i].to_bits(), want, "dense row {} of {:?}", r, &e);
                if !chunk.is_empty() {
                    prop_assert_eq!(chunk[r as usize].to_bits(), want, "decoded row {} of {:?}", r, &e);
                }
            }
        }
    }
}

/// Multi-chunk coverage the small property cases cannot reach: a seeded
/// pseudo-random relation spanning several 16Ki chunks, pushed through the
/// same three invariants once.
#[test]
fn multi_chunk_invariants_hold() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(8);
    let rows = relation::CHUNK_ROWS * 3 + 777;
    let mut b = RelationBuilder::new()
        .column("i", DataType::Int)
        .column("f", DataType::Float)
        .column("s", DataType::Str);
    for r in 0..rows {
        let f = if r % 911 == 0 {
            f64::NAN
        } else {
            rng.gen_range(-100.0..100.0)
        };
        b.push_row(&[
            // Clustered: each chunk sees a narrow, disjoint id band, so
            // zone maps can actually prune.
            Value::Int((r / relation::CHUNK_ROWS) as i64 * 1_000_000 + rng.gen_range(0i64..1_000)),
            Value::from(f),
            Value::str(["aa", "bb", "cc"][r % 3]),
        ])
        .unwrap();
    }
    let rel = b.finish();

    // Roundtrip.
    let back = binio::decode(&binio::encode(&rel)).unwrap();
    assert_eq!(back.row_count(), rel.row_count());
    for r in (0..rows).step_by(509) {
        assert_eq!(back.row(r).unwrap(), rel.row(r).unwrap());
    }

    // Pruning: ids of chunk 1 only — chunks 0, 2, 3 must be skipped.
    let pred = Predicate::between(ColumnId(0), 1_000_000i64, 1_000_999);
    let dense = pred.eval(&rel);
    let (mask, stats) = pred.eval_pruned(&rel);
    assert_eq!(mask.to_bools(), dense.to_bools());
    assert_eq!(stats.chunks, 4);
    assert_eq!(stats.pruned, 3);
    assert_eq!(stats.kept_rows as usize, relation::CHUNK_ROWS);

    // Expression at the selected rows (the predicate keeps rows of chunk 1
    // only).
    let e = Expr::col(ColumnId(1)).mul(Expr::col(ColumnId(0)));
    let full = e.eval(&rel).unwrap();
    let sel: Vec<u32> = mask.ones().map(|r| r as u32).collect();
    let mut d = Vec::new();
    e.eval_rows(&rel, &sel, &mut d).unwrap();
    assert_eq!(d.len(), sel.len());
    for (&r, a) in sel.iter().zip(&d) {
        assert_eq!(a.to_bits(), full[r as usize].to_bits());
    }
}
