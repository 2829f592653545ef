//! The [`Relation`]: an immutable columnar table, plus its builder.

use std::fmt;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::chunk::{EncodedRelation, ZoneMaps};
use crate::column::Column;
use crate::datatype::DataType;
use crate::error::{RelationError, Result};
use crate::schema::{ColumnId, Field, Schema};
use crate::value::Value;

/// An immutable, null-free, columnar table.
///
/// Relations are the unit the rest of the workspace operates on: the TPC-D
/// generator produces one, the congress crate samples row indices out of one,
/// and the engine's rewrite strategies materialize sample relations (with
/// extra ScaleFactor / GID columns) as new `Relation`s.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Relation {
    schema: Schema,
    columns: Arc<[Column]>,
    rows: usize,
    /// Lazily-built per-chunk zone maps (see [`crate::chunk`]). Built on
    /// first pruned predicate evaluation; cloning a relation shares the
    /// computed maps. Never serialized — snapshot decode rebuilds them so
    /// hostile inputs cannot poison pruning.
    #[serde(skip)]
    zone_maps: OnceLock<Arc<ZoneMaps>>,
    /// Lazily-built encoded twin for the decode-free scan kernels (see
    /// [`crate::kernels`]). Built on first kernel-path scan, or seeded by
    /// [`crate::binio::decode`] with the chunks it read; cloning a relation
    /// shares the encoding. Never serde-serialized.
    #[serde(skip)]
    encoded: OnceLock<Arc<EncodedRelation>>,
}

impl Relation {
    /// Assemble a relation from a schema and matching columns.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Result<Self> {
        if schema.width() != columns.len() {
            return Err(RelationError::ArityMismatch {
                expected: schema.width(),
                actual: columns.len(),
            });
        }
        let rows = columns.first().map_or(0, Column::len);
        for (i, c) in columns.iter().enumerate() {
            let field = &schema.fields()[i];
            if c.data_type() != field.data_type {
                return Err(RelationError::TypeMismatch {
                    column: field.name.clone(),
                    expected: field.data_type,
                    actual: c.data_type(),
                });
            }
            if c.len() != rows {
                return Err(RelationError::ArityMismatch {
                    expected: rows,
                    actual: c.len(),
                });
            }
        }
        Ok(Relation {
            schema,
            columns: columns.into(),
            rows,
            zone_maps: OnceLock::new(),
            encoded: OnceLock::new(),
        })
    }

    /// An empty relation with the given schema.
    pub fn empty(schema: Schema) -> Self {
        let columns: Vec<Column> = schema
            .fields()
            .iter()
            .map(|f| Column::empty(f.data_type))
            .collect();
        Relation {
            schema,
            columns: columns.into(),
            rows: 0,
            zone_maps: OnceLock::new(),
            encoded: OnceLock::new(),
        }
    }

    /// The relation's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The column at `id`. Panics if out of range (schema-validated ids only).
    pub fn column(&self, id: ColumnId) -> &Column {
        &self.columns[id.index()]
    }

    /// Column lookup by name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        Ok(self.column(self.schema.column_id(name)?))
    }

    /// All columns in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Per-chunk zone maps, built on first use and shared by clones.
    pub fn zone_maps(&self) -> &Arc<ZoneMaps> {
        self.zone_maps
            .get_or_init(|| Arc::new(ZoneMaps::build(self)))
    }

    /// The zone maps if they have already been built (never triggers a build).
    pub fn zone_maps_if_built(&self) -> Option<Arc<ZoneMaps>> {
        self.zone_maps.get().cloned()
    }

    /// The encoded twin of this relation, built on first use and shared by
    /// clones. The decode-free kernels (see [`crate::kernels`]) scan this
    /// representation directly; the dense columns remain the source of
    /// truth for decode fallbacks.
    pub fn encoded(&self) -> &Arc<EncodedRelation> {
        self.encoded
            .get_or_init(|| Arc::new(EncodedRelation::encode(self)))
    }

    /// Seed the encoded twin with chunks this relation was decoded from,
    /// so the first kernel scan does not encode it again. No-op if already
    /// built.
    pub(crate) fn set_encoded(&self, enc: Arc<EncodedRelation>) {
        debug_assert_eq!(enc.row_count(), self.rows);
        let _ = self.encoded.set(enc);
    }

    /// The value at (`row`, `col`).
    pub fn value(&self, row: usize, col: ColumnId) -> Value {
        self.columns[col.index()].value(row)
    }

    /// A full row materialized as values (test/debug convenience; hot paths
    /// should iterate columns instead).
    pub fn row(&self, row: usize) -> Result<Vec<Value>> {
        if row >= self.rows {
            return Err(RelationError::RowOutOfRange {
                row,
                rows: self.rows,
            });
        }
        Ok(self.columns.iter().map(|c| c.value(row)).collect())
    }

    /// Materialize the given rows (in order, duplicates allowed) as a new
    /// relation sharing this schema. This is how samples become relations.
    pub fn gather(&self, rows: &[usize]) -> Relation {
        let columns: Vec<Column> = self.columns.iter().map(|c| c.gather(rows)).collect();
        Relation {
            schema: self.schema.clone(),
            columns: columns.into(),
            rows: rows.len(),
            zone_maps: OnceLock::new(),
            encoded: OnceLock::new(),
        }
    }

    /// Keep only the given columns, in order.
    pub fn project(&self, ids: &[ColumnId]) -> Result<Relation> {
        let schema = self.schema.project(ids)?;
        let columns: Vec<Column> = ids.iter().map(|&id| self.column(id).clone()).collect();
        Ok(Relation {
            schema,
            columns: columns.into(),
            rows: self.rows,
            zone_maps: OnceLock::new(),
            encoded: OnceLock::new(),
        })
    }

    /// A new relation with extra columns appended (lengths must match).
    pub fn with_columns(&self, extra: Vec<(Field, Column)>) -> Result<Relation> {
        let mut fields = Vec::with_capacity(extra.len());
        let mut columns: Vec<Column> = self.columns.to_vec();
        for (f, c) in extra {
            if c.len() != self.rows {
                return Err(RelationError::ArityMismatch {
                    expected: self.rows,
                    actual: c.len(),
                });
            }
            if c.data_type() != f.data_type {
                return Err(RelationError::TypeMismatch {
                    column: f.name.clone(),
                    expected: f.data_type,
                    actual: c.data_type(),
                });
            }
            fields.push(f);
            columns.push(c);
        }
        let schema = self.schema.with_appended(fields)?;
        Ok(Relation {
            schema,
            columns: columns.into(),
            rows: self.rows,
            zone_maps: OnceLock::new(),
            encoded: OnceLock::new(),
        })
    }

    /// Concatenate several relations sharing a schema into one. Row ids of
    /// the first part are preserved; part `i+1`'s rows follow part `i`'s.
    /// Used by the Aqua middleware to fold warehouse insertions into the
    /// stored table without rebuilding it row by row.
    pub fn concat(parts: &[&Relation]) -> Result<Relation> {
        let first = parts.first().ok_or(RelationError::ArityMismatch {
            expected: 1,
            actual: 0,
        })?;
        let schema = first.schema.clone();
        let mut columns: Vec<Column> = first.columns.to_vec();
        let mut rows = first.rows;
        for part in &parts[1..] {
            if part.schema != schema {
                return Err(RelationError::ArityMismatch {
                    expected: schema.width(),
                    actual: part.schema.width(),
                });
            }
            for (c, pc) in columns.iter_mut().zip(part.columns.iter()) {
                c.append(pc)?;
            }
            rows += part.rows;
        }
        Ok(Relation {
            schema,
            columns: columns.into(),
            rows,
            zone_maps: OnceLock::new(),
            encoded: OnceLock::new(),
        })
    }

    /// Approximate heap footprint in bytes (columns only), used by the
    /// synopsis store to enforce space budgets.
    pub fn approx_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|c| match c {
                Column::Int(v) => v.len() * 8,
                Column::Float(v) => v.len() * 8,
                Column::Date(v) => v.len() * 4,
                Column::Str(v) => v.len() * 4 + v.dict_len() * 16,
            })
            .sum()
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Relation{} [{} rows]", self.schema, self.rows)?;
        let show = self.rows.min(8);
        for r in 0..show {
            let vals: Vec<String> = self
                .columns
                .iter()
                .map(|c| c.value(r).to_string())
                .collect();
            writeln!(f, "  {}", vals.join(" | "))?;
        }
        if self.rows > show {
            writeln!(f, "  ... ({} more)", self.rows - show)?;
        }
        Ok(())
    }
}

/// Incremental row-at-a-time builder for a [`Relation`].
#[derive(Debug)]
pub struct RelationBuilder {
    fields: Vec<Field>,
    columns: Vec<Column>,
}

impl RelationBuilder {
    /// Start an empty builder.
    pub fn new() -> Self {
        RelationBuilder {
            fields: Vec::new(),
            columns: Vec::new(),
        }
    }

    /// Builder pre-populated from an existing schema.
    pub fn from_schema(schema: &Schema) -> Self {
        let fields: Vec<Field> = schema.fields().to_vec();
        let columns = fields.iter().map(|f| Column::empty(f.data_type)).collect();
        RelationBuilder { fields, columns }
    }

    /// Declare a column (chainable, must precede `push_row`).
    pub fn column(mut self, name: impl Into<String>, dt: DataType) -> Self {
        self.fields.push(Field::new(name, dt));
        self.columns.push(Column::empty(dt));
        self
    }

    /// Reserve capacity in every column.
    pub fn reserve(&mut self, additional: usize) {
        for c in &mut self.columns {
            match c {
                Column::Int(v) => v.reserve(additional),
                Column::Float(v) => v.reserve(additional),
                Column::Date(v) => v.reserve(additional),
                Column::Str(_) => {}
            }
        }
    }

    /// Append one row of values.
    pub fn push_row(&mut self, row: &[Value]) -> Result<()> {
        if row.len() != self.columns.len() {
            return Err(RelationError::ArityMismatch {
                expected: self.columns.len(),
                actual: row.len(),
            });
        }
        for (c, v) in self.columns.iter_mut().zip(row) {
            c.push(v.clone()).map_err(|e| match e {
                RelationError::TypeMismatch {
                    expected, actual, ..
                } => RelationError::TypeMismatch {
                    column: String::new(),
                    expected,
                    actual,
                },
                other => other,
            })?;
        }
        Ok(())
    }

    /// Number of rows pushed so far.
    pub fn row_count(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// Finish into an immutable relation. Panics only if internal invariants
    /// were violated, which `push_row`'s checks prevent.
    pub fn finish(self) -> Relation {
        let schema = Schema::new(self.fields).expect("builder enforced unique names");
        Relation::new(schema, self.columns).expect("builder enforced column invariants")
    }
}

impl Default for RelationBuilder {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Relation {
        let mut b = RelationBuilder::new()
            .column("k", DataType::Int)
            .column("g", DataType::Str)
            .column("v", DataType::Float);
        for i in 0..10i64 {
            b.push_row(&[
                Value::Int(i),
                Value::str(if i % 2 == 0 { "even" } else { "odd" }),
                Value::from(i as f64 * 1.5),
            ])
            .unwrap();
        }
        b.finish()
    }

    #[test]
    fn build_and_read() {
        let r = sample();
        assert_eq!(r.row_count(), 10);
        assert_eq!(r.schema().width(), 3);
        assert_eq!(r.value(3, ColumnId(0)), Value::Int(3));
        assert_eq!(r.value(3, ColumnId(1)), Value::str("odd"));
        assert_eq!(r.value(4, ColumnId(2)), Value::from(6.0));
        assert_eq!(
            r.row(2).unwrap(),
            vec![Value::Int(2), Value::str("even"), Value::from(3.0)]
        );
        assert!(r.row(10).is_err());
    }

    #[test]
    fn gather_materializes_sample() {
        let r = sample();
        let s = r.gather(&[9, 1, 1]);
        assert_eq!(s.row_count(), 3);
        assert_eq!(s.value(0, ColumnId(0)), Value::Int(9));
        assert_eq!(s.value(1, ColumnId(0)), Value::Int(1));
        assert_eq!(s.value(2, ColumnId(0)), Value::Int(1));
        assert_eq!(s.schema(), r.schema());
    }

    #[test]
    fn project_and_append() {
        let r = sample();
        let p = r.project(&[ColumnId(2)]).unwrap();
        assert_eq!(p.schema().width(), 1);
        assert_eq!(p.row_count(), 10);

        let sf = Column::Float(vec![2.0; 10]);
        let r2 = r
            .with_columns(vec![(Field::new("sf", DataType::Float), sf)])
            .unwrap();
        assert_eq!(r2.schema().width(), 4);
        assert_eq!(r2.value(0, ColumnId(3)), Value::from(2.0));

        // Length mismatch rejected.
        let bad = Column::Float(vec![1.0; 3]);
        assert!(r
            .with_columns(vec![(Field::new("x", DataType::Float), bad)])
            .is_err());
    }

    #[test]
    fn mismatched_construction_rejected() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]).unwrap();
        // wrong type
        assert!(Relation::new(schema.clone(), vec![Column::Float(vec![1.0])]).is_err());
        // wrong column count
        assert!(Relation::new(schema.clone(), vec![]).is_err());
        // ragged lengths
        let schema2 = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ])
        .unwrap();
        assert!(
            Relation::new(schema2, vec![Column::Int(vec![1, 2]), Column::Int(vec![1])]).is_err()
        );
    }

    #[test]
    fn builder_arity_checked() {
        let mut b = RelationBuilder::new().column("a", DataType::Int);
        assert!(b.push_row(&[Value::Int(1), Value::Int(2)]).is_err());
        assert!(b.push_row(&[Value::str("x")]).is_err());
        b.push_row(&[Value::Int(1)]).unwrap();
        assert_eq!(b.row_count(), 1);
    }

    #[test]
    fn empty_relation() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]).unwrap();
        let r = Relation::empty(schema);
        assert!(r.is_empty());
        assert_eq!(r.gather(&[]).row_count(), 0);
    }

    #[test]
    fn concat_appends_rows() {
        let r = sample();
        let head = r.gather(&[0, 1]);
        let tail = r.gather(&[5]);
        let cat = Relation::concat(&[&head, &tail]).unwrap();
        assert_eq!(cat.row_count(), 3);
        assert_eq!(cat.value(0, ColumnId(0)), Value::Int(0));
        assert_eq!(cat.value(2, ColumnId(0)), Value::Int(5));
        assert_eq!(cat.value(2, ColumnId(1)), Value::str("odd"));
        // single part round-trips
        let one = Relation::concat(&[&head]).unwrap();
        assert_eq!(one.row_count(), 2);
        // empty list rejected
        assert!(Relation::concat(&[]).is_err());
        // schema mismatch rejected
        let other = RelationBuilder::new().column("z", DataType::Int).finish();
        assert!(Relation::concat(&[&head, &other]).is_err());
    }

    #[test]
    fn approx_bytes_scales_with_rows() {
        let r = sample();
        let small = r.gather(&[0]);
        assert!(r.approx_bytes() > small.approx_bytes());
    }

    #[test]
    fn display_truncates() {
        let r = sample();
        let s = r.to_string();
        assert!(s.contains("10 rows"));
        assert!(s.contains("more"));
    }
}
