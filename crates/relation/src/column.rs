//! Typed columnar storage.
//!
//! Each column is a dense, null-free vector. Strings are dictionary-encoded:
//! the column stores `u32` codes into a per-column dictionary of interned
//! strings. Grouping and equality predicates on string columns therefore
//! compare integers, which matters at the 6M-row top end of the paper's
//! Table 1 parameter range.

use std::collections::HashMap;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use crate::datatype::DataType;
use crate::error::{RelationError, Result};
use crate::value::{Value, F64};

/// A dictionary-encoded string column.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct StrColumn {
    codes: Vec<u32>,
    dict: Vec<Arc<str>>,
    #[serde(skip)]
    interner: HashMap<Arc<str>, u32>,
}

impl StrColumn {
    /// Empty column.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Number of distinct strings seen.
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Rebuild a column from a dictionary and codes (snapshot decode).
    /// Every code must index into the dictionary; the interner is rebuilt
    /// eagerly so subsequent `push`es intern against the existing entries.
    pub fn from_parts(dict: Vec<Arc<str>>, codes: Vec<u32>) -> Result<StrColumn> {
        let n = dict.len() as u32;
        if codes.iter().any(|&c| c >= n) {
            return Err(RelationError::CorruptEncoding(
                "string code out of dictionary range".into(),
            ));
        }
        let mut col = StrColumn {
            codes,
            dict,
            interner: HashMap::new(),
        };
        col.rebuild_interner();
        Ok(col)
    }

    /// Rebuild the code interner from the dictionary. The interner is
    /// `#[serde(skip)]`, so a deserialized column arrives with it empty;
    /// `push` calls this lazily before interning anything new.
    fn rebuild_interner(&mut self) {
        self.interner = self
            .dict
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), i as u32))
            .collect();
    }

    /// Append a string, interning it.
    pub fn push(&mut self, s: Arc<str>) {
        // After deserialization the interner is empty while the dictionary
        // is not; interning against the empty map would mint a duplicate
        // code for a string the dictionary already holds. Rebuild first.
        if self.interner.is_empty() && !self.dict.is_empty() {
            self.rebuild_interner();
        }
        let code = match self.interner.get(&s) {
            Some(&c) => c,
            None => {
                let c = self.dict.len() as u32;
                self.dict.push(s.clone());
                self.interner.insert(s, c);
                c
            }
        };
        self.codes.push(code);
    }

    /// The dictionary code at `row`.
    pub fn code(&self, row: usize) -> u32 {
        self.codes[row]
    }

    /// All codes.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The string at `row`.
    pub fn get(&self, row: usize) -> &Arc<str> {
        &self.dict[self.codes[row] as usize]
    }

    /// Decode a dictionary code.
    pub fn decode(&self, code: u32) -> &Arc<str> {
        &self.dict[code as usize]
    }

    /// The dictionary, indexed by code. Predicates evaluate order
    /// comparisons once per entry here rather than once per row.
    pub fn dict(&self) -> &[Arc<str>] {
        &self.dict
    }

    /// Code of `s` if it has been seen.
    pub fn lookup(&self, s: &str) -> Option<u32> {
        // The interner map is not serialized; fall back to a scan when it is
        // empty but the dictionary is not (i.e. after deserialization).
        if self.interner.is_empty() && !self.dict.is_empty() {
            return self.dict.iter().position(|d| &**d == s).map(|i| i as u32);
        }
        self.interner.get(s).copied()
    }

    /// Gather rows by index into a fresh column (dictionary rebuilt compactly).
    pub fn gather(&self, rows: &[usize]) -> StrColumn {
        let mut out = StrColumn::new();
        out.codes.reserve(rows.len());
        for &r in rows {
            out.push(self.get(r).clone());
        }
        out
    }
}

/// Physical storage for one column.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Column {
    /// Dense `i64` vector.
    Int(Vec<i64>),
    /// Dense `f64` vector.
    Float(Vec<f64>),
    /// Dictionary-encoded strings.
    Str(StrColumn),
    /// Dense day-number vector.
    Date(Vec<i32>),
}

impl Column {
    /// Empty column of the given type.
    pub fn empty(dt: DataType) -> Column {
        match dt {
            DataType::Int => Column::Int(Vec::new()),
            DataType::Float => Column::Float(Vec::new()),
            DataType::Str => Column::Str(StrColumn::new()),
            DataType::Date => Column::Date(Vec::new()),
        }
    }

    /// Empty column with reserved capacity.
    pub fn with_capacity(dt: DataType, cap: usize) -> Column {
        match dt {
            DataType::Int => Column::Int(Vec::with_capacity(cap)),
            DataType::Float => Column::Float(Vec::with_capacity(cap)),
            DataType::Str => Column::Str(StrColumn::new()),
            DataType::Date => Column::Date(Vec::with_capacity(cap)),
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) => DataType::Str,
            Column::Date(_) => DataType::Date,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Date(v) => v.len(),
        }
    }

    /// Whether the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a value; errors on type mismatch.
    pub fn push(&mut self, value: Value) -> Result<()> {
        match (self, value) {
            (Column::Int(v), Value::Int(x)) => v.push(x),
            (Column::Float(v), Value::Float(x)) => v.push(x.get()),
            // Int widens into a Float column losslessly for small ints; this
            // is a deliberate convenience for hand-built test relations.
            (Column::Float(v), Value::Int(x)) => v.push(x as f64),
            (Column::Str(v), Value::Str(s)) => v.push(s),
            (Column::Date(v), Value::Date(d)) => v.push(d),
            (col, value) => {
                return Err(RelationError::TypeMismatch {
                    column: String::new(),
                    expected: col.data_type(),
                    actual: value.data_type(),
                })
            }
        }
        Ok(())
    }

    /// The value at `row` (clones strings cheaply via `Arc`).
    pub fn value(&self, row: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[row]),
            Column::Float(v) => Value::Float(F64::new(v[row])),
            Column::Str(v) => Value::Str(v.get(row).clone()),
            Column::Date(v) => Value::Date(v[row]),
        }
    }

    /// Numeric view of the value at `row` (dates as day numbers).
    pub fn value_f64(&self, row: usize) -> Option<f64> {
        match self {
            Column::Int(v) => Some(v[row] as f64),
            Column::Float(v) => Some(v[row]),
            Column::Date(v) => Some(v[row] as f64),
            Column::Str(_) => None,
        }
    }

    /// Typed access to an int column.
    pub fn as_int(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// Typed access to a float column.
    pub fn as_float(&self) -> Option<&[f64]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// Typed access to a string column.
    pub fn as_str(&self) -> Option<&StrColumn> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// Typed access to a date column.
    pub fn as_date(&self) -> Option<&[i32]> {
        match self {
            Column::Date(v) => Some(v),
            _ => None,
        }
    }

    /// Append all values of `other` (same type) onto `self`.
    pub fn append(&mut self, other: &Column) -> Result<()> {
        match (self, other) {
            (Column::Int(a), Column::Int(b)) => a.extend_from_slice(b),
            (Column::Float(a), Column::Float(b)) => a.extend_from_slice(b),
            (Column::Date(a), Column::Date(b)) => a.extend_from_slice(b),
            (Column::Str(a), Column::Str(b)) => {
                for r in 0..b.len() {
                    a.push(b.get(r).clone());
                }
            }
            (a, b) => {
                return Err(RelationError::TypeMismatch {
                    column: String::new(),
                    expected: a.data_type(),
                    actual: b.data_type(),
                })
            }
        }
        Ok(())
    }

    /// Gather rows by index into a new column.
    pub fn gather(&self, rows: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(rows.iter().map(|&r| v[r]).collect()),
            Column::Float(v) => Column::Float(rows.iter().map(|&r| v[r]).collect()),
            Column::Str(v) => Column::Str(v.gather(rows)),
            Column::Date(v) => Column::Date(rows.iter().map(|&r| v[r]).collect()),
        }
    }

    /// A stable `u64` grouping code for the value at `row`.
    ///
    /// Codes are only comparable within the same column: ints and dates use
    /// their numeric value (sign-extended), floats their bit pattern, and
    /// strings their dictionary code. The group-by executor packs these into
    /// composite keys instead of materializing `Value`s per row.
    pub fn group_code(&self, row: usize) -> u64 {
        match self {
            Column::Int(v) => v[row] as u64,
            Column::Float(v) => F64::new(v[row]).get().to_bits(),
            Column::Str(v) => v.code(row) as u64,
            Column::Date(v) => v[row] as i64 as u64,
        }
    }

    /// Append [`Column::group_code`] at each of `rows`. One type dispatch
    /// per call, so the per-row loop is a plain gather — what the exact
    /// executor's per-chunk fold runs per grouping column.
    pub fn group_codes_at(&self, rows: &[u32], out: &mut Vec<u64>) {
        let at = rows.iter().map(|&r| r as usize);
        match self {
            Column::Int(v) => out.extend(at.map(|r| v[r] as u64)),
            Column::Float(v) => out.extend(at.map(|r| F64::new(v[r]).get().to_bits())),
            Column::Str(v) => out.extend(at.map(|r| v.code(r) as u64)),
            Column::Date(v) => out.extend(at.map(|r| v[r] as i64 as u64)),
        }
    }

    /// Append [`Column::value_f64`] at each of `rows`, with one type
    /// dispatch per call; `None` (nothing appended) for a string column.
    pub fn values_f64_at(&self, rows: &[u32], out: &mut Vec<f64>) -> Option<()> {
        let at = rows.iter().map(|&r| r as usize);
        match self {
            Column::Int(v) => out.extend(at.map(|r| v[r] as f64)),
            Column::Float(v) => out.extend(at.map(|r| v[r])),
            Column::Date(v) => out.extend(at.map(|r| v[r] as f64)),
            Column::Str(_) => return None,
        }
        Some(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_column_interns() {
        let mut c = StrColumn::new();
        c.push("a".into());
        c.push("b".into());
        c.push("a".into());
        assert_eq!(c.len(), 3);
        assert_eq!(c.dict_len(), 2);
        assert_eq!(c.code(0), c.code(2));
        assert_ne!(c.code(0), c.code(1));
        assert_eq!(&**c.get(2), "a");
        assert_eq!(c.lookup("b"), Some(1));
        assert_eq!(c.lookup("zz"), None);
    }

    #[test]
    fn push_type_checks() {
        let mut c = Column::empty(DataType::Int);
        c.push(Value::Int(1)).unwrap();
        assert!(c.push(Value::str("x")).is_err());
        assert_eq!(c.len(), 1);

        // Int widens into Float columns.
        let mut f = Column::empty(DataType::Float);
        f.push(Value::Int(2)).unwrap();
        f.push(Value::from(0.5)).unwrap();
        assert_eq!(f.as_float().unwrap(), &[2.0, 0.5]);
    }

    #[test]
    fn value_round_trip() {
        let mut c = Column::empty(DataType::Date);
        c.push(Value::Date(42)).unwrap();
        assert_eq!(c.value(0), Value::Date(42));
        assert_eq!(c.value_f64(0), Some(42.0));

        let mut s = Column::empty(DataType::Str);
        s.push(Value::str("hi")).unwrap();
        assert_eq!(s.value(0), Value::str("hi"));
        assert_eq!(s.value_f64(0), None);
    }

    #[test]
    fn gather_reorders_and_repeats() {
        let mut c = Column::empty(DataType::Int);
        for i in 0..5 {
            c.push(Value::Int(i)).unwrap();
        }
        let g = c.gather(&[4, 0, 0, 2]);
        assert_eq!(g.as_int().unwrap(), &[4, 0, 0, 2]);
    }

    #[test]
    fn gather_str_rebuilds_dict() {
        let mut c = StrColumn::new();
        for s in ["x", "y", "z", "y"] {
            c.push(s.into());
        }
        let g = c.gather(&[3, 1]);
        assert_eq!(g.len(), 2);
        assert_eq!(g.dict_len(), 1); // only "y" survives
        assert_eq!(&**g.get(0), "y");
    }

    #[test]
    fn group_codes_distinguish_values() {
        let mut c = Column::empty(DataType::Float);
        c.push(Value::from(1.5)).unwrap();
        c.push(Value::from(2.5)).unwrap();
        c.push(Value::from(1.5)).unwrap();
        assert_eq!(c.group_code(0), c.group_code(2));
        assert_ne!(c.group_code(0), c.group_code(1));
    }

    /// The row-list gathers equal the per-row accessors bit for bit, on
    /// every type (NaN payloads and signed zeros included).
    #[test]
    fn gathers_at_rows_match_the_per_row_accessors() {
        let nan = f64::from_bits(0x7ff8_0000_0000_0001);
        let columns = [
            Column::Int(vec![-3, 0, i64::MAX, i64::MIN, 7]),
            Column::Float(vec![-0.0, 0.0, nan, f64::NAN, 2.5]),
            Column::Date(vec![-1, 0, i32::MAX, i32::MIN, 9]),
            Column::Str(
                StrColumn::from_parts(vec!["a".into(), "b".into()], vec![1, 0, 1, 1, 0]).unwrap(),
            ),
        ];
        let rows = [4u32, 0, 2, 2, 3];
        for c in &columns {
            let mut codes = vec![42];
            c.group_codes_at(&rows, &mut codes);
            let want: Vec<u64> = rows.iter().map(|&r| c.group_code(r as usize)).collect();
            assert_eq!(codes[1..], want[..], "{:?}", c.data_type());
            let mut values = vec![1.0];
            let got = c.values_f64_at(&rows, &mut values);
            assert_eq!(got.is_some(), c.data_type() != DataType::Str);
            let want = rows.iter().filter_map(|&r| c.value_f64(r as usize));
            let want: Vec<u64> = want.map(f64::to_bits).collect();
            let got: Vec<u64> = values[1..].iter().map(|v| v.to_bits()).collect();
            assert_eq!(got, want, "{:?}", c.data_type());
        }
    }

    #[test]
    fn push_after_serde_round_trip_mints_no_duplicate_codes() {
        let mut c = StrColumn::new();
        c.push("p".into());
        c.push("q".into());
        // Simulate deserialization: the interner is `#[serde(skip)]`, so a
        // decoded column arrives with it empty while the dictionary is not.
        let mut c2 = c.clone();
        c2.interner.clear();
        // Pushing a string the dictionary already holds must reuse its
        // code, not mint a duplicate entry.
        c2.push("p".into());
        assert_eq!(c2.dict_len(), 2);
        assert_eq!(c2.codes(), &[0, 1, 0]);
        // A genuinely new string still gets the next fresh code.
        c2.push("r".into());
        assert_eq!(c2.dict_len(), 3);
        assert_eq!(c2.codes(), &[0, 1, 0, 2]);
    }

    #[test]
    fn lookup_after_serde_round_trip_uses_scan() {
        let mut c = StrColumn::new();
        c.push("p".into());
        c.push("q".into());
        // Simulate deserialization: interner skipped.
        let mut c2 = c.clone();
        c2.interner.clear();
        assert_eq!(c2.lookup("q"), Some(1));
        assert_eq!(c2.lookup("nope"), None);
    }
}
