//! The one on-disk shape: a checksummed section container, its reader and
//! writer, and the relation codec built on them.
//!
//! Every blob the warehouse stores — base table, synopsis snapshot,
//! manifest — is one container (CSV is the ingestion format, not the
//! durability format: it loses float precision and column types):
//!
//! ```text
//! u32 magic (one per blob kind) | u16 version | u16 section count
//! per section: u8 kind | u64 payload length | u32 crc32c(payload)
//! u32 header checksum = crc32c(every byte above)
//! the section payloads, in directory order
//! u32 footer magic "END!"
//! ```
//!
//! Each stored byte is covered by exactly one CRC32C: a payload by its
//! directory entry, the header and directory by the header checksum. The
//! header checksum therefore pins the whole blob, which is why the
//! warehouse manifest records it ([`header_checksum`]) instead of hashing
//! the blob again. [`open_container`] checks the total length against the
//! directory before touching a payload, so a torn write is caught up front,
//! and every decoder guards each count and length against the bytes
//! present before it allocates: a torn or hostile buffer yields an error,
//! never a panic or an unbounded allocation.
//!
//! A relation is a schema section plus one section per column holding its
//! dictionary (strings) and per-chunk encodings — the representation
//! [`EncodedRelation`] holds in memory, so [`encode`] writes the relation's
//! encoded twin as it sits and [`decode`] keeps the chunks it read as the
//! decoded relation's twin. Zone maps are *not* persisted; they are rebuilt
//! lazily from the values so a hostile blob can never poison pruning.
//! The write-ahead log stores row batches ([`encode_rows`]) in [`frame`]s.

use std::sync::Arc;

use crate::chunk::{
    chunk_count, chunk_range, EncodedChunk, EncodedColumn, EncodedRelation, PackedInts,
};
use crate::datatype::DataType;
use crate::error::{RelationError, Result};
use crate::relation::Relation;
use crate::schema::{Field, Schema};
use crate::value::Value;

/// Container version. Versions 1 and 2 were the relation and snapshot
/// codecs' own layouts; they are no longer read.
const VERSION: u16 = 3;
/// Last four bytes of every container.
const FOOTER: [u8; 4] = *b"END!";
/// Bytes per directory entry: kind, length, CRC.
const DIR_ENTRY: usize = 1 + 8 + 4;

/// Magic of a relation blob: `b"RLBN"`.
pub const RELATION_MAGIC: u32 = u32::from_be_bytes(*b"RLBN");
const SECTION_SCHEMA: u8 = 0;
const SECTION_COLUMN: u8 = 1;

/// Hard cap on one string (column name, dictionary entry, value). A
/// length beyond this is corruption, rejected before any allocation.
const MAX_STR_LEN: usize = 1 << 20;

/// Value and column types by tag; a type's tag is its declaration index.
const TYPES: [DataType; 4] = [
    DataType::Int,
    DataType::Float,
    DataType::Str,
    DataType::Date,
];

/// Per-chunk encoding tags.
const CHUNK_FOR: u8 = 0;
const CHUNK_PLAIN: u8 = 1;
const CHUNK_FLOATS: u8 = 2;
const CHUNK_CODES: u8 = 3;

fn corrupt(what: impl Into<String>) -> RelationError {
    RelationError::CorruptEncoding(what.into())
}

fn tag_type(tag: u8) -> Result<DataType> {
    TYPES
        .get(tag as usize)
        .copied()
        .ok_or_else(|| corrupt(format!("unknown type tag {tag}")))
}

/// The Castagnoli polynomial, reflected.
const POLY: u32 = 0x82F6_3B78;

/// 8-bit lookup table, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32C (Castagnoli) — the polynomial of iSCSI, ext4 and most storage
/// engines, chosen for its burst-error detection — of a byte slice. A
/// portable table-driven implementation with no hardware dependency.
pub fn crc32c(bytes: &[u8]) -> u32 {
    !bytes.iter().fold(!0u32, |crc, &b| {
        TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8)
    })
}

/// Bounds-checked big-endian reader over a byte slice. Every read fails
/// with [`RelationError::CorruptEncoding`] rather than running past the end.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet read.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(corrupt(format!("truncated at byte {}", self.pos)));
        }
        self.pos += n;
        Ok(&self.buf[self.pos - n..self.pos])
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// An `f64` stored as its bit pattern.
    pub fn f64(&mut self) -> Result<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A `u32`-length-prefixed UTF-8 string of at most 1 MiB.
    pub fn str(&mut self) -> Result<&'a str> {
        let len = self.u32()? as usize;
        if len > MAX_STR_LEN {
            return Err(corrupt(format!(
                "string length {len} exceeds maximum {MAX_STR_LEN}"
            )));
        }
        std::str::from_utf8(self.take(len)?).map_err(|_| corrupt("string not utf-8"))
    }

    /// A tagged [`Value`], as [`Writer::value`] writes it.
    pub fn value(&mut self) -> Result<Value> {
        Ok(match tag_type(self.u8()?)? {
            DataType::Int => Value::Int(self.i64()?),
            DataType::Float => Value::from(self.f64()?),
            DataType::Str => Value::str(self.str()?),
            DataType::Date => Value::Date(self.i32()?),
        })
    }

    /// Fail unless `count` items of at least `min_bytes` each fit in what
    /// remains — the guard to run before reserving capacity for them.
    fn check(&self, count: usize, min_bytes: usize) -> Result<()> {
        if (self.remaining() as u64) < (count as u64).saturating_mul(min_bytes as u64) {
            return Err(corrupt(format!(
                "count {count} exceeds what the buffer can hold"
            )));
        }
        Ok(())
    }

    /// A `u32` item count, checked to fit `min_bytes` per item in what remains.
    pub fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        self.check(n, min_bytes)?;
        Ok(n)
    }

    /// `n` fixed-width items of `width` bytes each, read by `item`.
    pub fn vec<T>(
        &mut self,
        n: usize,
        width: usize,
        mut item: impl FnMut(&mut Self) -> Result<T>,
    ) -> Result<Vec<T>> {
        self.check(n, width)?;
        (0..n).map(|_| item(self)).collect()
    }

    /// Succeed only if every byte was consumed.
    pub fn finish(self) -> Result<()> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(corrupt(format!("{n} trailing bytes"))),
        }
    }
}

/// The mirror of [`Reader`]: appends big-endian fields to a byte buffer.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `capacity` bytes.
    fn with_capacity(capacity: usize) -> Writer {
        Writer {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Raw bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// An `f64` as its bit pattern (exact, NaN payloads included).
    pub fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    /// A `u32`-length-prefixed string.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.bytes(s.as_bytes());
    }

    /// A value: its type tag, then its payload.
    pub fn value(&mut self, v: &Value) {
        self.u8(v.data_type() as u8);
        match v {
            Value::Int(x) => self.i64(*x),
            Value::Float(x) => self.f64(x.get()),
            Value::Str(s) => self.str(s),
            Value::Date(d) => self.i32(*d),
        }
    }

    /// The bytes written.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Fixed-width big-endian reads and writes, one pair per integer type.
macro_rules! ints {
    ($($t:ident),*) => {
        impl Reader<'_> {$(
            #[doc = concat!("A big-endian `", stringify!($t), "`.")]
            pub fn $t(&mut self) -> Result<$t> {
                self.array().map($t::from_be_bytes)
            }
        )*}
        impl Writer {$(
            #[doc = concat!("A big-endian `", stringify!($t), "`.")]
            pub fn $t(&mut self, x: $t) {
                self.bytes(&x.to_be_bytes());
            }
        )*}
    };
}
ints!(u8, u16, u32, u64, i32, i64);

/// Writes one container in place: the header and directory are reserved
/// up front and filled in by [`Self::finish`], so each payload is written
/// once, straight into the output.
pub struct ContainerWriter {
    out: Writer,
    /// `(kind, start offset)` of each section begun so far.
    starts: Vec<(u8, usize)>,
    sections: usize,
}

impl ContainerWriter {
    /// A container of `magic` that will hold exactly `sections` sections,
    /// with room for `capacity` payload bytes.
    pub fn new(magic: u32, sections: usize, capacity: usize) -> ContainerWriter {
        let mut out = Writer::with_capacity(12 + sections * DIR_ENTRY + capacity + 4);
        out.u32(magic);
        out.u16(VERSION);
        out.u16(u16::try_from(sections).expect("at most u16::MAX sections"));
        out.buf.resize(8 + sections * DIR_ENTRY + 4, 0);
        ContainerWriter {
            out,
            starts: Vec::with_capacity(sections),
            sections,
        }
    }

    /// Begin the next section: everything written to the returned writer
    /// until the next call (or [`Self::finish`]) is its payload.
    pub fn section(&mut self, kind: u8) -> &mut Writer {
        self.starts.push((kind, self.out.buf.len()));
        &mut self.out
    }

    /// Fill in the directory and header checksum, append the footer.
    pub fn finish(self) -> Vec<u8> {
        assert_eq!(self.starts.len(), self.sections, "sections written");
        let mut buf = self.out.into_vec();
        let ends = self.starts.iter().skip(1).map(|s| s.1).chain([buf.len()]);
        let mut at = 8;
        for (&(kind, start), end) in self.starts.iter().zip(ends) {
            let crc = crc32c(&buf[start..end]);
            buf[at] = kind;
            buf[at + 1..at + 9].copy_from_slice(&((end - start) as u64).to_be_bytes());
            buf[at + 9..at + DIR_ENTRY].copy_from_slice(&crc.to_be_bytes());
            at += DIR_ENTRY;
        }
        let crc = crc32c(&buf[..at]);
        buf[at..at + 4].copy_from_slice(&crc.to_be_bytes());
        buf.extend_from_slice(&FOOTER);
        buf
    }
}

/// Verify `buf` as a container of `magic` — version, header checksum,
/// exact total length, every section checksum and the footer — and return
/// its `(kind, payload)` sections in directory order.
pub fn open_container(buf: &[u8], magic: u32) -> Result<Vec<(u8, &[u8])>> {
    let mut r = Reader::new(buf);
    if r.u32()? != magic {
        return Err(corrupt("bad magic"));
    }
    let version = r.u16()?;
    if version != VERSION {
        return Err(corrupt(format!("unsupported version {version}")));
    }
    let n = r.u16()? as usize;
    let dir = r.vec(n, DIR_ENTRY, |r| Ok((r.u8()?, r.u64()?, r.u32()?)))?;
    let checksum = crc32c(&buf[..r.pos]);
    if r.u32()? != checksum {
        return Err(corrupt("header checksum mismatch"));
    }
    let total = dir
        .iter()
        .try_fold((r.pos + FOOTER.len()) as u64, |t, d| t.checked_add(d.1));
    if total != Some(buf.len() as u64) {
        return Err(corrupt(format!(
            "length {} does not match the directory's {total:?}",
            buf.len()
        )));
    }
    let mut sections = Vec::with_capacity(n);
    for (i, (kind, len, crc)) in dir.into_iter().enumerate() {
        let payload = r.take(len as usize)?;
        if crc32c(payload) != crc {
            return Err(corrupt(format!("section {i} checksum mismatch")));
        }
        sections.push((kind, payload));
    }
    if r.take(FOOTER.len())? != FOOTER {
        return Err(corrupt("bad footer"));
    }
    Ok(sections)
}

/// The header checksum a container *claims*, read without verifying it
/// ([`open_container`] does that). `None` if `buf` is too short to hold one.
pub fn header_checksum(buf: &[u8]) -> Option<u32> {
    let n = u16::from_be_bytes(buf.get(6..8)?.try_into().ok()?) as usize;
    let at = 8 + n * DIR_ENTRY;
    Some(u32::from_be_bytes(buf.get(at..at + 4)?.try_into().ok()?))
}

/// Serialize a relation: [`encode_encoded`] over its encoded twin
/// ([`Relation::encoded`]), which is built only if no scan or decode has
/// built it yet.
pub fn encode(rel: &Relation) -> Vec<u8> {
    encode_encoded(rel.encoded())
}

/// Serialize chunked storage: the schema section, then per column its
/// dictionary (strings) and each chunk's tag and payload. Chunk boundaries
/// are implied by the row count, so they are not stored.
pub fn encode_encoded(enc: &EncodedRelation) -> Vec<u8> {
    let schema = enc.schema();
    let mut c = ContainerWriter::new(RELATION_MAGIC, 1 + schema.width(), enc.encoded_bytes());
    let w = c.section(SECTION_SCHEMA);
    w.u32(schema.width() as u32);
    for f in schema.fields() {
        w.str(&f.name);
        w.u8(f.data_type as u8);
    }
    w.u64(enc.row_count() as u64);
    for col in enc.columns() {
        let w = c.section(SECTION_COLUMN);
        if col.data_type() == DataType::Str {
            w.u32(col.dict().len() as u32);
            col.dict().iter().for_each(|s| w.str(s));
        }
        for chunk in col.chunks() {
            match chunk {
                EncodedChunk::For { base, deltas } => {
                    w.u8(CHUNK_FOR);
                    w.i64(*base);
                    put_packed(w, deltas);
                }
                EncodedChunk::PlainInt(v) => {
                    w.u8(CHUNK_PLAIN);
                    v.iter().for_each(|&x| w.i64(x));
                }
                EncodedChunk::Floats(bits) => {
                    w.u8(CHUNK_FLOATS);
                    bits.iter().for_each(|&x| w.u64(x));
                }
                EncodedChunk::Codes(codes) => {
                    w.u8(CHUNK_CODES);
                    put_packed(w, codes);
                }
            }
        }
    }
    c.finish()
}

/// Write a [`PackedInts`]: width byte, then the word buffer (whose length
/// is derivable from the chunk length and width, so it is not stored).
fn put_packed(w: &mut Writer, p: &PackedInts) {
    w.u8(p.width());
    p.words().iter().for_each(|&x| w.u64(x));
}

/// Deserialize a relation written by [`encode`], seeding its encoded twin
/// with the chunks just read so neither a kernel scan nor a later
/// [`encode`] encodes it again.
pub fn decode(buf: &[u8]) -> Result<Relation> {
    let enc = decode_encoded(buf)?;
    let rel = enc.to_relation()?;
    rel.set_encoded(Arc::new(enc));
    Ok(rel)
}

/// Deserialize straight into chunked storage, without a dense copy.
pub fn decode_encoded(buf: &[u8]) -> Result<EncodedRelation> {
    let sections = open_container(buf, RELATION_MAGIC)?;
    let [(SECTION_SCHEMA, schema), ref columns @ ..] = sections[..] else {
        return Err(corrupt("missing schema section"));
    };
    let mut r = Reader::new(schema);
    let ncols = r.count(5)?;
    let fields = r.vec(ncols, 5, |r| Ok(Field::new(r.str()?, tag_type(r.u8()?)?)))?;
    let nrows = r.u64()? as usize;
    r.finish()?;
    if columns.len() != ncols {
        return Err(corrupt("column sections do not match the schema"));
    }
    let columns = fields
        .iter()
        .zip(columns)
        .map(|(f, &(kind, payload))| match kind {
            SECTION_COLUMN => decode_column(payload, f.data_type, nrows),
            k => Err(corrupt(format!("unexpected section kind {k}"))),
        })
        .collect::<Result<Vec<_>>>()?;
    EncodedRelation::from_parts(Schema::new(fields)?, columns, nrows)
}

/// Read one column section: optional dictionary, then one tagged chunk per
/// [`chunk_range`] of `nrows`. Structural validation (variant vs type, code
/// ranges, date ranges) is [`EncodedColumn::from_parts`]'s.
fn decode_column(payload: &[u8], dtype: DataType, nrows: usize) -> Result<EncodedColumn> {
    let mut r = Reader::new(payload);
    let dict = match dtype {
        DataType::Str => {
            let n = r.count(4)?;
            r.vec(n, 4, |r| Ok(Arc::from(r.str()?)))?
        }
        _ => Vec::new(),
    };
    // A chunk is at least a tag byte plus a payload byte.
    let nchunks = chunk_count(nrows);
    r.check(nchunks, 2)?;
    let mut chunks = Vec::with_capacity(nchunks);
    for i in 0..nchunks {
        let (start, end) = chunk_range(i, nrows);
        let len = end - start;
        chunks.push(match r.u8()? {
            CHUNK_FOR => EncodedChunk::For {
                base: r.i64()?,
                deltas: read_packed(&mut r, len)?,
            },
            CHUNK_PLAIN => EncodedChunk::PlainInt(r.vec(len, 8, Reader::i64)?),
            CHUNK_FLOATS => EncodedChunk::Floats(r.vec(len, 8, Reader::u64)?),
            CHUNK_CODES => EncodedChunk::Codes(read_packed(&mut r, len)?),
            t => return Err(corrupt(format!("unknown chunk tag {t}"))),
        });
    }
    r.finish()?;
    EncodedColumn::from_parts(dtype, nrows, dict, chunks)
}

/// Read a [`PackedInts`]: width byte, then the word count implied by
/// `len * width` (plus the trailing pad word).
fn read_packed(r: &mut Reader<'_>, len: usize) -> Result<PackedInts> {
    let width = r.u8()?;
    if width > 64 {
        return Err(corrupt(format!("packed width {width} exceeds 64")));
    }
    let nwords = (len * width as usize).div_ceil(64) + 1;
    PackedInts::from_raw(width, len as u32, r.vec(nwords, 8, Reader::u64)?)
}

/// Serialize a batch of rows (loose tuples matching `schema`): a `u32` row
/// count, then each row's tagged values.
pub fn encode_rows(schema: &Schema, rows: &[Vec<Value>]) -> Result<Vec<u8>> {
    let mut w = Writer::with_capacity(4 + rows.len() * schema.width() * 9);
    w.u32(rows.len() as u32);
    for row in rows {
        if row.len() != schema.width() {
            return Err(RelationError::ArityMismatch {
                expected: schema.width(),
                actual: row.len(),
            });
        }
        for (v, f) in row.iter().zip(schema.fields()) {
            match (v, f.data_type) {
                // Int widens into Float columns the way Column::push does.
                (Value::Int(x), DataType::Float) => w.value(&Value::from(*x as f64)),
                (v, dt) if v.data_type() == dt => w.value(v),
                (v, dt) => {
                    return Err(RelationError::TypeMismatch {
                        column: f.name.clone(),
                        expected: dt,
                        actual: v.data_type(),
                    })
                }
            }
        }
    }
    Ok(w.into_vec())
}

/// Deserialize a batch written by [`encode_rows`], validating every value
/// against `schema`.
pub fn decode_rows(schema: &Schema, buf: &[u8]) -> Result<Vec<Vec<Value>>> {
    let mut r = Reader::new(buf);
    // A value is at least a tag plus four bytes.
    let n = r.count((5 * schema.width()).max(1))?;
    let rows = r.vec(n, 0, |r| {
        schema
            .fields()
            .iter()
            .map(|f| match r.value()? {
                v if v.data_type() == f.data_type => Ok(v),
                _ => Err(corrupt(format!("column `{}`: wrong value type", f.name))),
            })
            .collect()
    })?;
    r.finish()?;
    Ok(rows)
}

/// Wrap `payload` as one `u32 length | payload | u32 crc32c(payload)`
/// frame — the write-ahead log's record shape.
pub fn frame(payload: &[u8]) -> Vec<u8> {
    let mut w = Writer::with_capacity(payload.len() + 8);
    w.u32(payload.len() as u32);
    w.bytes(payload);
    w.u32(crc32c(payload));
    w.into_vec()
}

/// The intact [`frame`]s at the front of `buf`, each as its payload and the
/// offset just past it. Iteration ends at the first torn or corrupt frame,
/// so the last offset yielded is where valid data ends.
pub fn frames(buf: &[u8]) -> impl Iterator<Item = (&[u8], usize)> {
    let mut r = Reader::new(buf);
    std::iter::from_fn(move || {
        let len = r.u32().ok()? as usize;
        let payload = r.take(len).ok()?;
        (r.u32().ok()? == crc32c(payload)).then_some((payload, r.pos))
    })
    .fuse()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::column::Column;
    use crate::relation::RelationBuilder;
    use crate::schema::ColumnId;

    fn sample() -> Relation {
        let mut b = RelationBuilder::new()
            .column("k", DataType::Int)
            .column("g", DataType::Str)
            .column("v", DataType::Float)
            .column("d", DataType::Date);
        for i in 0..50i64 {
            b.push_row(&[
                Value::Int(i),
                Value::str(if i % 3 == 0 { "fizz" } else { "plain" }),
                Value::from(i as f64 * 0.1 + 1e-17), // precision must survive
                Value::Date(10_000 + i as i32),
            ])
            .unwrap();
        }
        b.finish()
    }

    /// Re-seal a relation blob after `edit` changes its section payloads,
    /// so a test reaches the decoder's own guards past the checksums.
    fn reseal(bytes: &[u8], edit: impl FnOnce(&mut Vec<(u8, Vec<u8>)>)) -> Vec<u8> {
        let mut sections: Vec<(u8, Vec<u8>)> = open_container(bytes, RELATION_MAGIC)
            .unwrap()
            .into_iter()
            .map(|(k, p)| (k, p.to_vec()))
            .collect();
        edit(&mut sections);
        let mut out = ContainerWriter::new(RELATION_MAGIC, sections.len(), 0);
        for (kind, payload) in &sections {
            out.section(*kind).bytes(payload);
        }
        out.finish()
    }

    #[test]
    fn crc32c_known_vectors() {
        // RFC 3720 / iSCSI test vectors.
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xFFu8; 32]), 0x62A8_AB43);
    }

    #[test]
    fn crc32c_detects_single_bit_flips() {
        let data = b"congressional samples".to_vec();
        let base = crc32c(&data);
        for byte in 0..data.len() {
            for bit in 0..8 {
                let mut flipped = data.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc32c(&flipped), base, "flip at {byte}:{bit}");
            }
        }
    }

    #[test]
    fn round_trip_is_exact() {
        let rel = sample();
        let bytes = encode(&rel);
        let back = decode(&bytes).unwrap();
        assert_eq!(back.schema(), rel.schema());
        assert_eq!(back.row_count(), rel.row_count());
        for row in 0..rel.row_count() {
            assert_eq!(back.row(row).unwrap(), rel.row(row).unwrap());
        }
    }

    #[test]
    fn empty_relation_round_trips() {
        let rel = RelationBuilder::new()
            .column("a", DataType::Int)
            .column("s", DataType::Str)
            .finish();
        let back = decode(&encode(&rel)).unwrap();
        assert_eq!(back.row_count(), 0);
        assert_eq!(back.schema(), rel.schema());
    }

    #[test]
    fn rejects_truncation_and_any_bit_flip() {
        let bytes = encode(&sample());
        for cut in 0..bytes.len() {
            assert!(decode(&bytes[..cut]).is_err(), "cut at {cut} must fail");
        }
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[i] ^= 1 << bit;
                assert!(decode(&bad).is_err(), "flip at {i}:{bit} must fail");
            }
        }
    }

    #[test]
    fn rejects_bad_magic_version_and_trailing() {
        let bytes = encode(&sample());
        let err = |b: &[u8]| decode(b).unwrap_err().to_string();
        let mut bad = bytes.clone();
        bad[0] ^= 0xFF;
        assert!(err(&bad).contains("bad magic"));
        let mut bad = bytes.clone();
        bad[5] = 2;
        assert!(err(&bad).contains("unsupported version 2"));
        let mut bad = bytes.clone();
        bad.push(0);
        assert!(err(&bad).contains("does not match"));
    }

    #[test]
    fn header_checksum_is_what_open_verifies() {
        let bytes = encode(&sample());
        let sections = open_container(&bytes, RELATION_MAGIC).unwrap();
        assert_eq!(sections.len(), 1 + 4);
        let header = 8 + sections.len() * DIR_ENTRY;
        assert_eq!(header_checksum(&bytes), Some(crc32c(&bytes[..header])));
        assert_eq!(header_checksum(&bytes[..7]), None);
    }

    #[test]
    fn hostile_counts_rejected_before_allocation() {
        // A schema claiming u64::MAX rows over an empty column section.
        let rel = RelationBuilder::new().column("a", DataType::Int).finish();
        let bytes = reseal(&encode(&rel), |s| {
            let n = s[0].1.len();
            s[0].1[n - 8..].copy_from_slice(&u64::MAX.to_be_bytes());
        });
        assert!(decode(&bytes).is_err());
        // A dictionary claiming u32::MAX entries.
        let mut b = RelationBuilder::new().column("s", DataType::Str);
        b.push_row(&[Value::str("x")]).unwrap();
        let bytes = reseal(&encode(&b.finish()), |s| {
            s[1].1[..4].copy_from_slice(&u32::MAX.to_be_bytes());
        });
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn string_codes_validated() {
        let mut b = RelationBuilder::new().column("s", DataType::Str);
        for s in ["a", "b", "c"] {
            b.push_row(&[Value::str(s)]).unwrap();
        }
        // The packed word holding the three 2-bit codes is the
        // second-to-last u64 (the last is the pad word). Rewrite the third
        // code from 2 to 3, one past the dictionary.
        let bytes = reseal(&encode(&b.finish()), |s| {
            let col = &mut s[1].1;
            let n = col.len();
            let mut word = u64::from_be_bytes(col[n - 16..n - 8].try_into().unwrap());
            assert_eq!(word, 0b10_01_00, "codes 0,1,2 packed at width 2");
            word |= 0b01 << 4;
            col[n - 16..n - 8].copy_from_slice(&word.to_be_bytes());
        });
        assert!(decode(&bytes).is_err());
    }

    #[test]
    fn unknown_chunk_tag_and_section_kind_rejected() {
        let mut b = RelationBuilder::new().column("a", DataType::Int);
        b.push_row(&[Value::Int(7)]).unwrap();
        let bytes = encode(&b.finish());
        let tagged = reseal(&bytes, |s| {
            assert_eq!(s[1].1[0], CHUNK_FOR);
            s[1].1[0] = 9;
        });
        assert!(decode(&tagged)
            .unwrap_err()
            .to_string()
            .contains("chunk tag 9"));
        let kinded = reseal(&bytes, |s| s[1].0 = 7);
        assert!(decode(&kinded).unwrap_err().to_string().contains("kind 7"));
        let missing = reseal(&bytes, |s| s.truncate(1));
        assert!(decode(&missing).is_err());
    }

    #[test]
    fn decoded_string_column_interns_against_existing_dictionary() {
        // Warehouse-reopen path: ingest after a decode must reuse existing
        // dictionary codes, not mint duplicates (the interner is rebuilt,
        // not serialized).
        let mut b = RelationBuilder::new().column("s", DataType::Str);
        for s in ["a", "b", "a"] {
            b.push_row(&[Value::str(s)]).unwrap();
        }
        let back = decode(&encode(&b.finish())).unwrap();
        let Column::Str(mut col) = back.column(ColumnId(0)).clone() else {
            panic!("expected string column");
        };
        col.push("a".into());
        col.push("c".into());
        assert_eq!(col.dict_len(), 3);
        assert_eq!(col.codes(), &[0, 1, 0, 0, 2]);
    }

    #[test]
    fn decode_encoded_skips_dense_materialization() {
        let rel = sample();
        let enc = decode_encoded(&encode(&rel)).unwrap();
        assert_eq!(enc.row_count(), rel.row_count());
        assert_eq!(encode_encoded(&enc), encode(&rel));
        let back = enc.to_relation().unwrap();
        for row in 0..rel.row_count() {
            assert_eq!(back.row(row).unwrap(), rel.row(row).unwrap());
        }
    }

    /// A decoded relation's twin is the chunks it was read from: encoding
    /// it again returns the blob byte for byte.
    #[test]
    fn decode_then_encode_returns_the_same_bytes() {
        let rel = sample();
        let bytes = encode(&rel);
        let back = decode(&bytes).unwrap();
        assert_eq!(
            back.encoded().columns(),
            decode_encoded(&bytes).unwrap().columns()
        );
        assert_eq!(encode(&back), bytes);
        let empty = RelationBuilder::new().column("a", DataType::Int).finish();
        let bytes = encode(&empty);
        assert_eq!(encode(&decode(&bytes).unwrap()), bytes);
    }

    #[test]
    fn type_tags_are_declaration_indices() {
        for (tag, dt) in TYPES.into_iter().enumerate() {
            assert_eq!(dt as usize, tag);
            assert_eq!(tag_type(tag as u8).unwrap(), dt);
        }
        assert!(tag_type(4).is_err());
    }

    #[test]
    fn all_value_types_round_trip() {
        let vals = [
            Value::Int(-42),
            Value::from(1.5),
            Value::str("héllo"),
            Value::Date(12345),
        ];
        let mut w = Writer::default();
        vals.iter().for_each(|v| w.value(v));
        let bytes = w.into_vec();
        let mut r = Reader::new(&bytes);
        for v in &vals {
            assert_eq!(&r.value().unwrap(), v);
        }
        r.finish().unwrap();
    }

    #[test]
    fn hostile_string_length_rejected_before_allocation() {
        let mut w = Writer::default();
        w.u8(DataType::Str as u8);
        w.u32(u32::MAX);
        let bytes = w.into_vec();
        let err = Reader::new(&bytes).value().unwrap_err().to_string();
        assert!(err.contains("exceeds maximum"), "{err}");
    }

    #[test]
    fn row_batches_round_trip() {
        let rel = sample();
        let rows: Vec<Vec<Value>> = (0..5).map(|r| rel.row(r).unwrap()).collect();
        let bytes = encode_rows(rel.schema(), &rows).unwrap();
        let back = decode_rows(rel.schema(), &bytes).unwrap();
        assert_eq!(back, rows);
        // Empty batch.
        let bytes = encode_rows(rel.schema(), &[]).unwrap();
        assert!(decode_rows(rel.schema(), &bytes).unwrap().is_empty());
    }

    #[test]
    fn row_batches_validate_schema() {
        let rel = sample();
        // Wrong arity.
        assert!(encode_rows(rel.schema(), &[vec![Value::Int(1)]]).is_err());
        // Wrong type.
        let mut row = rel.row(0).unwrap();
        row[0] = Value::str("not an int");
        assert!(encode_rows(rel.schema(), &[row]).is_err());
        // Torn batch bytes.
        let rows: Vec<Vec<Value>> = vec![rel.row(0).unwrap()];
        let bytes = encode_rows(rel.schema(), &rows).unwrap();
        for cut in 0..bytes.len() {
            assert!(decode_rows(rel.schema(), &bytes[..cut]).is_err());
        }
    }

    #[test]
    fn frames_stop_at_the_first_torn_or_corrupt_frame() {
        let log: Vec<u8> = [&b"one"[..], b"", b"three"]
            .iter()
            .flat_map(|p| frame(p))
            .collect();
        let all: Vec<_> = frames(&log).collect();
        assert_eq!(
            all,
            vec![(&b"one"[..], 11), (&b""[..], 19), (&b"three"[..], 32)]
        );
        for cut in 0..log.len() {
            let intact = all.iter().filter(|f| f.1 <= cut).count();
            assert_eq!(frames(&log[..cut]).count(), intact, "cut at {cut}");
        }
        let mut bad = log.clone();
        bad[16] ^= 1; // the second frame's CRC (its length sits at 11..15)
        assert_eq!(frames(&bad).count(), 1);
    }
}
