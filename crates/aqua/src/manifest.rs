//! The warehouse manifest: the single commit point for
//! [`crate::Warehouse::save_all`].
//!
//! The manifest lists, per relation, the store keys of the base-table
//! encoding, the synopsis snapshot, and the pending-insert write-ahead
//! log, together with the expected length and header checksum of each blob
//! and the full synopsis configuration. Because the manifest itself is
//! written with an atomic `put`, a crash during a save leaves the previous
//! manifest (and its generation's files, which are only deleted *after*
//! the new manifest lands) fully intact: recovery always sees a complete
//! generation, old or new.
//!
//! It is stored like every other blob, as one [`relation::binio`]
//! container (magic `AQWM`): section 0 holds the generation, then one
//! section per relation with its name, store key prefix, grouping column
//! indices, [`AquaConfig`] fields, and its [`FileRef`]s.

use relation::binio::{open_container, ContainerWriter, Reader, Writer};
use relation::RelationError;

use crate::config::{AquaConfig, RewriteChoice, SamplingStrategy};
use crate::error::{AquaError, Result};

/// Store key of the warehouse manifest.
pub const MANIFEST_KEY: &str = "MANIFEST";

/// Store key prefix corrupt blobs are renamed under.
pub const QUARANTINE_PREFIX: &str = "quarantine";

const MAGIC: u32 = u32::from_be_bytes(*b"AQWM");
const SECTION_GENERATION: u8 = 0;
const SECTION_RELATION: u8 = 1;

/// A reference to one immutable blob in the store, with its expected size
/// and checksum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileRef {
    /// Store key.
    pub key: String,
    /// Expected length in bytes.
    pub len: u64,
    /// Expected [`relation::binio::header_checksum`] of the blob. It covers every
    /// section CRC, so it pins the whole contents.
    pub crc: u32,
}

/// One relation's persistent state.
#[derive(Debug, Clone, PartialEq)]
pub struct ManifestEntry {
    /// Relation name as registered (arbitrary UTF-8).
    pub name: String,
    /// Store key prefix all of this relation's blobs live under.
    pub dir: String,
    /// Grouping column indices declared at registration.
    pub grouping: Vec<usize>,
    /// Synopsis configuration.
    pub config: AquaConfig,
    /// Binary base-table encoding.
    pub table: FileRef,
    /// Synopsis snapshot; `None` when the relation was saved in degraded
    /// mode (no synopsis existed).
    pub snapshot: Option<FileRef>,
    /// Write-ahead-log key for inserts after this save (the blob may not
    /// exist yet; it is created on first logged insert).
    pub wal: String,
}

/// The parsed manifest: a generation number plus one entry per relation.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Save generation this manifest commits (monotonically increasing).
    pub generation: u64,
    /// Per-relation state, in saved order (sorted by name).
    pub entries: Vec<ManifestEntry>,
}

fn corrupt(m: impl Into<String>) -> RelationError {
    RelationError::CorruptEncoding(m.into())
}

fn put_file(w: &mut Writer, f: &FileRef) {
    w.str(&f.key);
    w.u64(f.len);
    w.u32(f.crc);
}

fn read_file(r: &mut Reader<'_>) -> relation::Result<FileRef> {
    Ok(FileRef {
        key: r.str()?.to_string(),
        len: r.u64()?,
        crc: r.u32()?,
    })
}

/// The enum behind a stored tag: its declaration index, which is its
/// position in `all()`.
fn from_tag<T: Copy>(all: &[T], tag: u8, what: &str) -> relation::Result<T> {
    all.get(tag as usize)
        .copied()
        .ok_or_else(|| corrupt(format!("unknown {what} tag {tag}")))
}

fn read_entry(payload: &[u8]) -> relation::Result<ManifestEntry> {
    let mut r = Reader::new(payload);
    // Fields are read in the order they are listed, which is write order.
    let entry = ManifestEntry {
        name: r.str()?.to_string(),
        dir: r.str()?.to_string(),
        grouping: {
            let n = r.count(4)?;
            r.vec(n, 4, |r| Ok(r.u32()? as usize))?
        },
        config: AquaConfig {
            space: r.u64()? as usize,
            strategy: from_tag(&SamplingStrategy::all(), r.u8()?, "strategy")?,
            rewrite: from_tag(&RewriteChoice::all(), r.u8()?, "rewrite")?,
            confidence: r.f64()?,
            seed: r.u64()?,
            parallelism: r.u64()? as usize,
        },
        table: read_file(&mut r)?,
        snapshot: match r.u8()? {
            0 => None,
            _ => Some(read_file(&mut r)?),
        },
        wal: r.str()?.to_string(),
    };
    r.finish()?;
    entry
        .config
        .validate()
        .map_err(|e| corrupt(e.to_string()))?;
    Ok(entry)
}

impl Manifest {
    /// Serialize the manifest as one checksummed container.
    pub fn encode(&self) -> Vec<u8> {
        let mut c = ContainerWriter::new(MAGIC, 1 + self.entries.len(), 256);
        c.section(SECTION_GENERATION).u64(self.generation);
        for e in &self.entries {
            let w = c.section(SECTION_RELATION);
            w.str(&e.name);
            w.str(&e.dir);
            w.u32(e.grouping.len() as u32);
            e.grouping.iter().for_each(|&g| w.u32(g as u32));
            w.u64(e.config.space as u64);
            w.u8(e.config.strategy as u8);
            w.u8(e.config.rewrite as u8);
            w.f64(e.config.confidence);
            w.u64(e.config.seed);
            w.u64(e.config.parallelism as u64);
            put_file(w, &e.table);
            match &e.snapshot {
                Some(s) => {
                    w.u8(1);
                    put_file(w, s);
                }
                None => w.u8(0),
            }
            w.str(&e.wal);
        }
        c.finish()
    }

    /// Parse and checksum-verify a manifest. Any deviation is an
    /// `AquaError::Storage("corrupt manifest: …")`, never a partial result.
    pub fn parse(bytes: &[u8]) -> Result<Manifest> {
        Self::read(bytes)
            .map_err(|e| AquaError::Storage(format!("corrupt manifest: {}", e.reason())))
    }

    fn read(bytes: &[u8]) -> relation::Result<Manifest> {
        let sections = open_container(bytes, MAGIC)?;
        let [(SECTION_GENERATION, generation), ref relations @ ..] = sections[..] else {
            return Err(corrupt("missing generation section"));
        };
        let mut r = Reader::new(generation);
        let generation = r.u64()?;
        r.finish()?;
        let entries = relations
            .iter()
            .map(|&(kind, payload)| match kind {
                SECTION_RELATION => read_entry(payload),
                k => Err(corrupt(format!("unexpected section kind {k}"))),
            })
            .collect::<relation::Result<_>>()?;
        Ok(Manifest {
            generation,
            entries,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Manifest {
        Manifest {
            generation: 7,
            entries: vec![
                ManifestEntry {
                    name: "sales 2024\n%odd".into(),
                    dir: "rel-sales_2024-deadbeef".into(),
                    grouping: vec![0, 2],
                    config: AquaConfig::default(),
                    table: FileRef {
                        key: "rel-sales/table.g7.bin".into(),
                        len: 1234,
                        crc: 0xDEAD_BEEF,
                    },
                    snapshot: Some(FileRef {
                        key: "rel-sales/synopsis.g7.bin".into(),
                        len: 99,
                        crc: 1,
                    }),
                    wal: "rel-sales/wal.g7.log".into(),
                },
                ManifestEntry {
                    name: "tiny".into(),
                    dir: "rel-tiny-0".into(),
                    grouping: vec![],
                    config: AquaConfig {
                        space: 5,
                        ..AquaConfig::default()
                    },
                    table: FileRef {
                        key: "rel-tiny/table.g7.bin".into(),
                        len: 0,
                        crc: 0,
                    },
                    snapshot: None,
                    wal: "rel-tiny/wal.g7.log".into(),
                },
            ],
        }
    }

    #[test]
    fn round_trips_exactly() {
        let m = sample();
        assert_eq!(Manifest::parse(&m.encode()).unwrap(), m);
    }

    #[test]
    fn every_config_round_trips_exactly() {
        for strategy in SamplingStrategy::all() {
            for rewrite in RewriteChoice::all() {
                let mut m = sample();
                m.entries[0].config = AquaConfig {
                    space: 123,
                    strategy,
                    rewrite,
                    confidence: 0.95,
                    seed: 0xDEAD_BEEF,
                    parallelism: 7,
                };
                assert_eq!(Manifest::parse(&m.encode()).unwrap(), m);
            }
        }
    }

    #[test]
    fn any_single_bit_flip_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 1;
            assert!(
                Manifest::parse(&bad).is_err(),
                "bit flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn truncation_at_every_offset_is_detected() {
        let bytes = sample().encode();
        for i in 0..bytes.len() {
            let err = Manifest::parse(&bytes[..i]).unwrap_err().to_string();
            assert!(err.contains("corrupt manifest"), "{err}");
        }
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut m = sample();
        m.entries[1].config.confidence = 1.5;
        let err = Manifest::parse(&m.encode()).unwrap_err().to_string();
        assert!(
            err.contains("corrupt manifest") && err.contains("confidence"),
            "{err}"
        );
    }

    #[test]
    fn text_manifest_is_rejected() {
        let text = b"aqua-warehouse v1\ngeneration=1\nchecksum=00000000\n";
        let err = Manifest::parse(text).unwrap_err().to_string();
        assert!(err.contains("corrupt manifest: bad magic"), "{err}");
    }
}
