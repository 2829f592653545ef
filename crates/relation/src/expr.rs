//! Scalar arithmetic expressions over numeric columns.
//!
//! Aggregates in the paper are taken over either a raw measured column
//! (`sum(l_quantity)`) or a derived expression such as TPC-D Q1's
//! `l_extendedprice * (1 - l_discount) * (1 + l_tax)`. §8 also proposes
//! allocating sample space by the variance of "some commonly-used
//! expression" — so expressions are first-class here.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::bitmap::Bitmap;
use crate::chunk::{chunk_range, DecodeScratch, EncodedRelation};
use crate::error::{RelationError, Result};
use crate::relation::Relation;
use crate::schema::{ColumnId, Schema};

/// Binary arithmetic operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (division by zero yields `f64` infinity/NaN, as in IEEE)
    Div,
}

impl ArithOp {
    fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => a / b,
        }
    }
}

impl fmt::Display for ArithOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ArithOp::Add => "+",
            ArithOp::Sub => "-",
            ArithOp::Mul => "*",
            ArithOp::Div => "/",
        })
    }
}

/// Appends one column's values at the rows under evaluation.
type Gather<'a> = &'a mut dyn FnMut(ColumnId, &mut Vec<f64>);

/// A numeric scalar expression evaluated per row to `f64`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// Reference to a numeric column.
    Column(ColumnId),
    /// Floating literal.
    Literal(f64),
    /// Binary arithmetic.
    Binary {
        /// Operator.
        op: ArithOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
}

impl Expr {
    /// Column reference.
    pub fn col(id: ColumnId) -> Expr {
        Expr::Column(id)
    }

    /// Literal.
    pub fn lit(v: f64) -> Expr {
        Expr::Literal(v)
    }

    fn binary(op: ArithOp, lhs: Expr, rhs: Expr) -> Expr {
        Expr::Binary {
            op,
            lhs: Box::new(lhs),
            rhs: Box::new(rhs),
        }
    }

    /// `self + rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, rhs: Expr) -> Expr {
        Expr::binary(ArithOp::Add, self, rhs)
    }

    /// `self - rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, rhs: Expr) -> Expr {
        Expr::binary(ArithOp::Sub, self, rhs)
    }

    /// `self * rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, rhs: Expr) -> Expr {
        Expr::binary(ArithOp::Mul, self, rhs)
    }

    /// `self / rhs`
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, rhs: Expr) -> Expr {
        Expr::binary(ArithOp::Div, self, rhs)
    }

    /// Evaluate on one row. Errors if a referenced column is non-numeric or
    /// out of range.
    pub fn eval_row(&self, rel: &Relation, row: usize) -> Result<f64> {
        match self {
            Expr::Column(id) => {
                let field = rel.schema().field(*id)?;
                rel.column(*id)
                    .value_f64(row)
                    .ok_or(RelationError::InvalidOperandType {
                        context: "arithmetic expression",
                        actual: field.data_type,
                    })
            }
            Expr::Literal(v) => Ok(*v),
            Expr::Binary { op, lhs, rhs } => {
                Ok(op.apply(lhs.eval_row(rel, row)?, rhs.eval_row(rel, row)?))
            }
        }
    }

    /// Evaluate over all rows into a dense vector.
    pub fn eval(&self, rel: &Relation) -> Result<Vec<f64>> {
        self.validate(rel)?;
        let n = rel.row_count();
        match self {
            // Fast paths for the two overwhelmingly common shapes.
            Expr::Column(id) => {
                let col = rel.column(*id);
                Ok((0..n)
                    .map(|r| col.value_f64(r).expect("validated numeric"))
                    .collect())
            }
            Expr::Literal(v) => Ok(vec![*v; n]),
            Expr::Binary { op, lhs, rhs } => {
                let mut a = lhs.eval(rel)?;
                let b = rhs.eval(rel)?;
                for (x, y) in a.iter_mut().zip(b) {
                    *x = op.apply(*x, y);
                }
                Ok(a)
            }
        }
    }

    /// Evaluate only the rows selected by `mask` into a dense vector;
    /// unselected slots are left at `0.0` and must not be consumed.
    ///
    /// For the selected rows this performs exactly the same per-row
    /// operations as [`Self::eval`], so the values at selected positions
    /// are bit-identical to a full evaluation — selective predicates just
    /// stop paying for the rows the query discards anyway.
    pub fn eval_masked(&self, rel: &Relation, mask: &Bitmap) -> Result<Vec<f64>> {
        self.validate(rel)?;
        debug_assert_eq!(mask.len(), rel.row_count());
        Ok(self.eval_masked_validated(rel, mask))
    }

    fn eval_masked_validated(&self, rel: &Relation, mask: &Bitmap) -> Vec<f64> {
        let n = rel.row_count();
        match self {
            Expr::Column(id) => {
                let col = rel.column(*id);
                let mut out = vec![0.0; n];
                for r in mask.ones() {
                    out[r] = col.value_f64(r).expect("validated numeric");
                }
                out
            }
            Expr::Literal(v) => {
                let mut out = vec![0.0; n];
                for r in mask.ones() {
                    out[r] = *v;
                }
                out
            }
            Expr::Binary { op, lhs, rhs } => {
                let mut a = lhs.eval_masked_validated(rel, mask);
                let b = rhs.eval_masked_validated(rel, mask);
                for r in mask.ones() {
                    a[r] = op.apply(a[r], b[r]);
                }
                a
            }
        }
    }

    /// Check that every referenced column exists and is numeric.
    pub fn validate(&self, rel: &Relation) -> Result<()> {
        self.validate_schema(rel.schema())
    }

    /// [`Expr::validate`] against a bare schema (the check is schema-only;
    /// the encoded execution path has no dense relation to hand).
    pub fn validate_schema(&self, schema: &Schema) -> Result<()> {
        match self {
            Expr::Column(id) => {
                let field = schema.field(*id)?;
                if !field.data_type.is_numeric() {
                    return Err(RelationError::InvalidOperandType {
                        context: "arithmetic expression",
                        actual: field.data_type,
                    });
                }
                Ok(())
            }
            Expr::Literal(_) => Ok(()),
            Expr::Binary { lhs, rhs, .. } => {
                lhs.validate_schema(schema)?;
                rhs.validate_schema(schema)
            }
        }
    }

    /// Evaluate at `rows` only (ascending row ids), appending one value per
    /// row to `out` — the compact twin of [`Self::eval_masked`] for callers
    /// that already hold the selected rows of one chunk. Performs exactly
    /// the per-row casts and `op.apply` calls of [`Self::eval`], so the
    /// values are bit-identical to a full evaluation at those rows.
    pub fn eval_rows(&self, rel: &Relation, rows: &[u32], out: &mut Vec<f64>) -> Result<()> {
        self.validate(rel)?;
        self.eval_gathered(rows.len(), out, &mut |id, out| {
            let col = rel.column(id);
            let value = |&r: &u32| col.value_f64(r as usize).expect("validated numeric");
            out.extend(rows.iter().map(value));
        });
        Ok(())
    }

    /// [`Self::eval_rows`] over an [`EncodedRelation`] for `rows` that all
    /// lie in chunk `chunk`: each referenced column's chunk is decoded into
    /// `scratch` (with exactly the `value_f64` casts) and gathered, so no
    /// other chunk is touched and the values are bit-identical to the
    /// dense evaluation.
    pub fn eval_rows_encoded(
        &self,
        enc: &EncodedRelation,
        chunk: usize,
        rows: &[u32],
        scratch: &mut DecodeScratch,
        out: &mut Vec<f64>,
    ) -> Result<()> {
        self.validate_schema(enc.schema())?;
        let start = chunk_range(chunk, enc.row_count()).0;
        self.eval_gathered(rows.len(), out, &mut |id, out| {
            scratch.f64s.clear();
            enc.column(id).decode_chunk_f64(chunk, &mut scratch.f64s);
            out.extend(rows.iter().map(|&r| scratch.f64s[r as usize - start]));
        });
        Ok(())
    }

    /// Append `n` values to `out`, with `gather(col, out)` appending column
    /// `col`'s `n` row values. A binary node evaluates both operands onto
    /// the tail of `out` and folds the right one into the left in place, so
    /// no buffer beyond `out` is allocated.
    fn eval_gathered(&self, n: usize, out: &mut Vec<f64>, gather: Gather) {
        match self {
            Expr::Column(id) => gather(*id, out),
            Expr::Literal(v) => out.resize(out.len() + n, *v),
            Expr::Binary { op, lhs, rhs } => {
                let base = out.len();
                lhs.eval_gathered(n, out, gather);
                rhs.eval_gathered(n, out, gather);
                let (a, b) = out[base..].split_at_mut(n);
                for (x, y) in a.iter_mut().zip(b.iter()) {
                    *x = op.apply(*x, *y);
                }
                out.truncate(base + n);
            }
        }
    }

    /// All column ids referenced by the expression.
    pub fn referenced_columns(&self) -> Vec<ColumnId> {
        fn walk(e: &Expr, out: &mut Vec<ColumnId>) {
            match e {
                Expr::Column(id) => {
                    if !out.contains(id) {
                        out.push(*id);
                    }
                }
                Expr::Literal(_) => {}
                Expr::Binary { lhs, rhs, .. } => {
                    walk(lhs, out);
                    walk(rhs, out);
                }
            }
        }
        let mut out = Vec::new();
        walk(self, &mut out);
        out
    }
}

impl From<ColumnId> for Expr {
    fn from(id: ColumnId) -> Self {
        Expr::Column(id)
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(id) => write!(f, "{id}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Binary { op, lhs, rhs } => write!(f, "({lhs} {op} {rhs})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datatype::DataType;
    use crate::relation::RelationBuilder;
    use crate::value::Value;

    fn rel() -> Relation {
        let mut b = RelationBuilder::new()
            .column("price", DataType::Float)
            .column("disc", DataType::Float)
            .column("tax", DataType::Float)
            .column("name", DataType::Str);
        b.push_row(&[
            Value::from(100.0),
            Value::from(0.1),
            Value::from(0.05),
            Value::str("x"),
        ])
        .unwrap();
        b.push_row(&[
            Value::from(200.0),
            Value::from(0.0),
            Value::from(0.1),
            Value::str("y"),
        ])
        .unwrap();
        b.finish()
    }

    #[test]
    fn tpcd_q1_expression() {
        // price * (1 - disc) * (1 + tax)
        let r = rel();
        let e = Expr::col(ColumnId(0))
            .mul(Expr::lit(1.0).sub(Expr::col(ColumnId(1))))
            .mul(Expr::lit(1.0).add(Expr::col(ColumnId(2))));
        let v = e.eval(&r).unwrap();
        assert!((v[0] - 100.0 * 0.9 * 1.05).abs() < 1e-9);
        assert!((v[1] - 200.0 * 1.0 * 1.1).abs() < 1e-9);
    }

    #[test]
    fn row_and_vector_agree() {
        let r = rel();
        let e = Expr::col(ColumnId(0))
            .div(Expr::lit(2.0))
            .add(Expr::lit(1.0));
        let v = e.eval(&r).unwrap();
        for (i, &vi) in v.iter().enumerate() {
            assert_eq!(vi, e.eval_row(&r, i).unwrap());
        }
    }

    #[test]
    fn masked_eval_matches_full_on_selected_rows() {
        use crate::bitmap::Bitmap;
        let r = rel();
        let e = Expr::col(ColumnId(0))
            .mul(Expr::lit(1.0).sub(Expr::col(ColumnId(1))))
            .mul(Expr::lit(1.0).add(Expr::col(ColumnId(2))));
        let full = e.eval(&r).unwrap();
        let mask = Bitmap::from_fn(r.row_count(), |i| i == 1);
        let masked = e.eval_masked(&r, &mask).unwrap();
        assert_eq!(masked[1], full[1]); // bit-identical where selected
        assert_eq!(masked[0], 0.0); // unselected slots untouched
                                    // Validation still applies to masked evaluation.
        assert!(Expr::col(ColumnId(3)).eval_masked(&r, &mask).is_err());
    }

    #[test]
    fn non_numeric_column_rejected() {
        let r = rel();
        let e = Expr::col(ColumnId(3));
        assert!(matches!(
            e.eval(&r),
            Err(RelationError::InvalidOperandType { .. })
        ));
        let e2 = Expr::lit(1.0).add(Expr::col(ColumnId(3)));
        assert!(e2.validate(&r).is_err());
    }

    #[test]
    fn unknown_column_rejected() {
        let r = rel();
        assert!(Expr::col(ColumnId(99)).validate(&r).is_err());
    }

    #[test]
    fn referenced_columns_deduped() {
        let e = Expr::col(ColumnId(1))
            .add(Expr::col(ColumnId(0)))
            .mul(Expr::col(ColumnId(1)));
        assert_eq!(e.referenced_columns(), vec![ColumnId(1), ColumnId(0)]);
    }

    #[test]
    fn division_follows_ieee() {
        let r = rel();
        let e = Expr::lit(1.0).div(Expr::lit(0.0));
        assert_eq!(e.eval(&r).unwrap()[0], f64::INFINITY);
    }

    #[test]
    fn display_is_parenthesized() {
        let e = Expr::col(ColumnId(0)).mul(Expr::lit(2.0));
        assert_eq!(e.to_string(), "(#0 * 2)");
    }

    #[test]
    fn eval_rows_is_bitwise_equal_to_eval_dense_and_chunk_decoded() {
        use crate::bitmap::Bitmap;
        use crate::chunk::{chunk_count, DecodeScratch, EncodedRelation, CHUNK_ROWS};
        let rows = CHUNK_ROWS + 300;
        let mut b = RelationBuilder::new()
            .column("i", DataType::Int)
            .column("f", DataType::Float)
            .column("d", DataType::Date);
        for r in 0..rows {
            let f = if r % 503 == 0 {
                f64::NAN
            } else {
                (r as f64) * 0.37 - 9.0
            };
            b.push_row(&[
                Value::Int(r as i64 * 7 - 3),
                Value::from(f),
                Value::Date(r as i32),
            ])
            .unwrap();
        }
        let r = b.finish();
        let enc = EncodedRelation::encode(&r);
        let mut scratch = DecodeScratch::default();
        let exprs = [
            Expr::col(ColumnId(0)),
            Expr::lit(2.5),
            Expr::col(ColumnId(1))
                .mul(Expr::lit(1.0).sub(Expr::col(ColumnId(0))))
                .add(Expr::col(ColumnId(2)).div(Expr::lit(3.0))),
        ];
        let masks = [
            Bitmap::from_fn(rows, |i| i % 3 == 0),
            // Second chunk entirely unselected.
            Bitmap::from_fn(rows, |i| i < CHUNK_ROWS && i % 2 == 1),
            Bitmap::new_false(rows),
            Bitmap::new_true(rows),
        ];
        for e in &exprs {
            let full = e.eval(&r).unwrap();
            for mask in &masks {
                for c in 0..chunk_count(rows) {
                    let (start, end) = chunk_range(c, rows);
                    let sel: Vec<u32> = mask.ones_range(start, end).map(|r| r as u32).collect();
                    // Appends after what `out` already holds.
                    let (mut dense, mut decoded) = (vec![7.0], vec![7.0]);
                    e.eval_rows(&r, &sel, &mut dense).unwrap();
                    e.eval_rows_encoded(&enc, c, &sel, &mut scratch, &mut decoded)
                        .unwrap();
                    let want = sel.iter().map(|&r| full[r as usize].to_bits());
                    let want: Vec<u64> = [7.0f64.to_bits()].into_iter().chain(want).collect();
                    for got in [&dense, &decoded] {
                        let got: Vec<u64> = got.iter().map(|v| v.to_bits()).collect();
                        assert_eq!(got, want, "chunk {c} differs for {e}");
                    }
                }
            }
        }
        // Validation carries over to both forms.
        let bad = Expr::col(ColumnId(9));
        assert!(bad.eval_rows(&r, &[0], &mut Vec::new()).is_err());
        assert!(bad
            .eval_rows_encoded(&enc, 0, &[0], &mut scratch, &mut Vec::new())
            .is_err());
    }
}
