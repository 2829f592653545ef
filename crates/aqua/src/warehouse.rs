//! A multi-relation warehouse front end (the paper's Figure 1: Aqua keeps
//! a *set* of synopses — base-table samples and join synopses — inside the
//! DBMS, under one administrator-supplied space budget), with durable
//! crash-safe persistence on top of any [`SnapshotStore`].
//!
//! # Persistence model
//!
//! [`Warehouse::save_all`] writes each relation's base table (exact binary
//! encoding), synopsis snapshot, and configuration under a fresh
//! *generation* number, then commits the whole save with one atomic `put`
//! of the [`manifest`](crate::manifest). Files of the previous generation
//! are deleted only after the commit, so a crash at any store operation
//! leaves a complete generation on disk — old or new, never a mix.
//!
//! [`Warehouse::open`] verifies every blob against the manifest's length
//! and header checksum before trusting it, and its decoder verifies each
//! section's CRC32C. A corrupt synopsis is *quarantined* (renamed under
//! `quarantine/`); a relation without a usable synopsis comes back as an
//! [`Aqua`] with none — exact scans, surfaced through
//! [`AnswerProvenance::ExactFallback`](crate::answer::AnswerProvenance) —
//! which, under [`RecoveryPolicy::Rebuild`], then rebuilds one from its
//! (intact) base table. A corrupt base table makes the
//! relation unrecoverable from this store; it is quarantined and reported,
//! and the rest of the warehouse still opens.
//!
//! Inserts between saves can be made durable with
//! [`Warehouse::insert_logged`], which appends length+CRC framed row
//! batches to a per-relation write-ahead log; `open` replays intact
//! records and truncates a torn tail.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use congress::{snapshot, SnapshotStore};
use engine::join::foreign_key_join;
use relation::binio;
use relation::{ColumnId, Relation, Schema, Value};

use crate::config::AquaConfig;
use crate::error::{AquaError, Result};
use crate::manifest::{FileRef, Manifest, ManifestEntry, MANIFEST_KEY, QUARANTINE_PREFIX};
use crate::system::Aqua;

/// What [`Warehouse::open`] does with a relation whose synopsis is
/// missing or fails verification (the base table being intact).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryPolicy {
    /// Rebuild the synopsis from the base table (slow open, full service).
    Rebuild,
    /// Serve the relation in degraded mode — exact scans of the base
    /// table, flagged via
    /// [`AnswerProvenance::ExactFallback`](crate::AnswerProvenance) —
    /// until an explicit [`Warehouse::repair`].
    Degrade,
}

/// Per-relation outcome of [`Warehouse::open`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RelationStatus {
    /// Table and synopsis verified clean.
    Healthy,
    /// The synopsis was quarantined (or absent) and rebuilt from the base
    /// table.
    Rebuilt {
        /// Store key the corrupt snapshot was moved to, if one existed.
        quarantined: Option<String>,
    },
    /// Serving exact scans only.
    Degraded {
        /// Why the synopsis path is unavailable.
        reason: String,
    },
    /// The base table itself failed verification; the relation could not
    /// be loaded at all.
    Lost {
        /// What failed.
        reason: String,
    },
}

impl RelationStatus {
    /// Stable lowercase label, used as a metric label value.
    pub fn label(&self) -> &'static str {
        match self {
            RelationStatus::Healthy => "healthy",
            RelationStatus::Rebuilt { .. } => "rebuilt",
            RelationStatus::Degraded { .. } => "degraded",
            RelationStatus::Lost { .. } => "lost",
        }
    }
}

/// One relation's recovery report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelationReport {
    /// Relation name.
    pub name: String,
    /// How the relation came back.
    pub status: RelationStatus,
    /// Intact WAL records replayed into the relation.
    pub wal_records_replayed: usize,
    /// Torn/corrupt WAL bytes dropped (the tail is truncated in-store).
    pub wal_bytes_dropped: usize,
}

/// What [`Warehouse::open`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpenReport {
    /// Generation of the manifest that was opened.
    pub generation: u64,
    /// Per-relation outcomes, in manifest order.
    pub relations: Vec<RelationReport>,
}

impl OpenReport {
    /// `true` when every relation came back healthy with no WAL damage.
    pub fn fully_healthy(&self) -> bool {
        self.relations
            .iter()
            .all(|r| r.status == RelationStatus::Healthy && r.wal_bytes_dropped == 0)
    }
}

/// What [`Warehouse::save_all`] wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SaveReport {
    /// The generation this save committed.
    pub generation: u64,
    /// Blobs written (tables + snapshots + manifest).
    pub files_written: usize,
    /// Total payload bytes across those blobs.
    pub bytes_written: u64,
}

/// What [`Warehouse::verify`] found (read-only; nothing is modified).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyReport {
    /// Generation of the manifest that was checked.
    pub generation: u64,
    /// `true` when every blob matches the manifest and no WAL is torn.
    pub ok: bool,
    /// Human-readable per-check lines.
    pub lines: Vec<String>,
}

struct Entry {
    /// A relation without a synopsis is an [`Aqua`] without one.
    aqua: Arc<Aqua>,
    /// Store key prefix for this relation's blobs.
    dir: String,
}

/// A named collection of approximate-query-answering systems, one per
/// (base or pre-joined) relation.
#[derive(Default)]
pub struct Warehouse {
    relations: RwLock<HashMap<String, Entry>>,
    /// Last committed save generation (0 = never saved).
    generation: AtomicU64,
    /// Warehouse-level durability counters (`warehouse_*`); per-relation
    /// query metrics live in each [`Aqua`]'s own registry and are merged
    /// in by [`Warehouse::stats`].
    registry: Arc<obs::Registry>,
}

/// Store-safe key prefix for a relation name: printable-safe characters
/// kept, the rest replaced, plus a CRC of the raw name so distinct names
/// never share a prefix.
fn store_dir(name: &str) -> String {
    let safe: String = name
        .chars()
        .take(48)
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("rel-{safe}-{:08x}", binio::crc32c(name.as_bytes()))
}

fn table_key(dir: &str, generation: u64) -> String {
    format!("{dir}/table.g{generation}.bin")
}
fn snapshot_key(dir: &str, generation: u64) -> String {
    format!("{dir}/synopsis.g{generation}.bin")
}
fn wal_key(dir: &str, generation: u64) -> String {
    format!("{dir}/wal.g{generation}.log")
}

/// Fetch a blob and check its length and claimed header checksum against
/// its manifest reference; the blob's decoder (or `open_container`)
/// then verifies the bytes against that checksum. Returns the bytes or a
/// human-readable reason for rejection.
fn load_checked(store: &dyn SnapshotStore, fref: &FileRef) -> std::result::Result<Vec<u8>, String> {
    let bytes = store.get(&fref.key).map_err(|e| e.to_string())?;
    if bytes.len() as u64 != fref.len {
        return Err(format!(
            "`{}`: length {} does not match manifest ({})",
            fref.key,
            bytes.len(),
            fref.len
        ));
    }
    match binio::header_checksum(&bytes) {
        Some(crc) if crc == fref.crc => Ok(bytes),
        crc => Err(format!(
            "`{}`: checksum {:08x} does not match manifest ({:08x})",
            fref.key,
            crc.unwrap_or_default(),
            fref.crc
        )),
    }
}

/// Fetch and parse the manifest.
fn load_manifest(store: &dyn SnapshotStore) -> Result<Manifest> {
    let bytes = store.get(MANIFEST_KEY).map_err(|e| {
        if e.is_not_found() {
            AquaError::Storage("no warehouse manifest in this store".into())
        } else {
            AquaError::from(e)
        }
    })?;
    Manifest::parse(&bytes)
}

/// Move a (possibly missing) blob under `quarantine/`, best-effort.
fn quarantine(store: &dyn SnapshotStore, key: &str) -> Option<String> {
    let dest = format!("{QUARANTINE_PREFIX}/{key}");
    match store.rename(key, &dest) {
        Ok(()) => Some(dest),
        Err(_) => None, // missing blob, or a store that cannot rename
    }
}

/// Scan a WAL blob: decode its intact [`binio::frames`] into rows,
/// stopping at the first torn or corrupt frame. Returns the rows, the
/// record count, and the byte offset where valid data ends.
fn scan_wal(schema: &Schema, buf: &[u8]) -> (Vec<Vec<Value>>, usize, usize) {
    let (mut rows, mut records, mut end) = (Vec::new(), 0, 0);
    for (payload, frame_end) in binio::frames(buf) {
        let Ok(batch) = binio::decode_rows(schema, payload) else {
            break;
        };
        rows.extend(batch);
        records += 1;
        end = frame_end;
    }
    (rows, records, end)
}

impl Warehouse {
    /// Empty warehouse.
    pub fn new() -> Warehouse {
        Warehouse::default()
    }

    /// Register a base relation with its dimensional columns and synopsis
    /// configuration. Errors if the name is taken — checked *before* the
    /// (potentially expensive) synopsis build, so a duplicate registration
    /// fails fast without wasted work.
    pub fn register(
        &self,
        name: impl Into<String>,
        table: Relation,
        grouping: Vec<ColumnId>,
        config: AquaConfig,
    ) -> Result<()> {
        let name = name.into();
        let taken = |name: &str| {
            AquaError::InvalidConfig(format!("relation `{name}` is already registered"))
        };
        if self.relations.read().contains_key(&name) {
            return Err(taken(&name));
        }
        let system = Aqua::build(table, grouping, config)?;
        let mut map = self.relations.write();
        // Re-check under the write lock: a racing registration may have
        // claimed the name while the synopsis was building.
        if map.contains_key(&name) {
            return Err(taken(&name));
        }
        let dir = store_dir(&name);
        let aqua = Arc::new(system);
        map.insert(name, Entry { aqua, dir });
        Ok(())
    }

    /// Register a *join synopsis* (§2): materialize the foreign-key join
    /// `fact ⋈ dim` and build a congressional sample over the result, so
    /// multi-table group-by queries become single-relation queries.
    #[allow(clippy::too_many_arguments)]
    pub fn register_join_synopsis(
        &self,
        name: impl Into<String>,
        fact: &Relation,
        fk: ColumnId,
        dim: &Relation,
        pk: ColumnId,
        dim_prefix: &str,
        grouping_names: &[&str],
        config: AquaConfig,
    ) -> Result<()> {
        let joined = foreign_key_join(fact, fk, dim, pk, dim_prefix)?;
        let grouping = joined.schema().column_ids(grouping_names)?;
        self.register(name, joined, grouping, config)
    }

    fn unknown(name: &str) -> AquaError {
        AquaError::InvalidConfig(format!("unknown relation `{name}`"))
    }

    /// The system serving `name` — a degraded relation's has no synopsis
    /// and answers with exact scans ([`Self::degraded_relations`] says why).
    /// Errors for unknown relations.
    pub fn system(&self, name: &str) -> Result<Arc<Aqua>> {
        let map = self.relations.read();
        let entry = map.get(name).ok_or_else(|| Self::unknown(name))?;
        Ok(Arc::clone(&entry.aqua))
    }

    /// Relations currently served in degraded mode, as `(name, reason)`.
    pub fn degraded_relations(&self) -> Vec<(String, String)> {
        let map = self.relations.read();
        let degraded =
            |(name, e): (&String, &Entry)| Some((name.clone(), e.aqua.degraded_reason()?));
        let mut out: Vec<_> = map.iter().filter_map(degraded).collect();
        out.sort();
        out
    }

    /// Insert tuples *durably*: the batch is appended to the relation's
    /// write-ahead log (length + CRC32C framed) before being applied in
    /// memory, so a crash before the next [`Self::save_all`] loses
    /// nothing — [`Self::open`] replays the log. The in-memory apply is
    /// [`Aqua::insert_batch`], so a WAL insert retires the synopsis
    /// generation exactly like a plain one; a replay on `open` starts from
    /// a fresh generation anyway.
    pub fn insert_logged(
        &self,
        store: &dyn SnapshotStore,
        name: &str,
        rows: &[Vec<Value>],
    ) -> Result<()> {
        if rows.is_empty() {
            return Ok(());
        }
        // Hold the map read lock across append + apply so `save_all`
        // (which takes the write lock) can never interleave and miss the
        // batch from both the saved table and the surviving WAL.
        let map = self.relations.read();
        let entry = map.get(name).ok_or_else(|| Self::unknown(name))?;
        let table = entry.aqua.table_snapshot();
        let frame = binio::frame(&binio::encode_rows(table.schema(), rows)?);
        let key = wal_key(&entry.dir, self.generation.load(Ordering::SeqCst));
        store.append(&key, &frame)?;
        self.registry.counter("warehouse_wal_appends_total").inc();
        self.registry
            .counter("warehouse_wal_appended_bytes_total")
            .add(frame.len() as u64);
        entry.aqua.insert_batch(rows)
    }

    /// Registered relation names, sorted.
    pub fn relation_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.relations.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Total sampled tuples across every synopsis — what counts against
    /// the administrator's space budget. Degraded relations contribute 0.
    pub fn total_synopsis_rows(&self) -> usize {
        let map = self.relations.read();
        map.values().map(|e| e.aqua.synopsis_rows()).sum()
    }

    /// Split a total tuple budget across relations proportionally to their
    /// row counts (a simple default for the administrator's single "space
    /// for synopses" knob). Returns `(name, budget)` pairs for the given
    /// table sizes.
    pub fn divide_space(total: usize, sizes: &[(&str, usize)]) -> Vec<(String, usize)> {
        let all: usize = sizes.iter().map(|(_, n)| n).sum();
        if all == 0 {
            return sizes.iter().map(|(n, _)| (n.to_string(), 0)).collect();
        }
        let mut out: Vec<(String, usize)> = sizes
            .iter()
            .map(|(name, n)| (name.to_string(), total * n / all))
            .collect();
        // Distribute rounding leftovers to the largest relations.
        let mut assigned: usize = out.iter().map(|(_, b)| b).sum();
        let mut order: Vec<usize> = (0..out.len()).collect();
        order.sort_by_key(|&i| std::cmp::Reverse(sizes[i].1));
        let mut i = 0;
        while assigned < total && !order.is_empty() {
            out[order[i % order.len()]].1 += 1;
            assigned += 1;
            i += 1;
        }
        out
    }

    // -----------------------------------------------------------------
    // Durability
    // -----------------------------------------------------------------

    /// Persist every relation to `store` under a fresh generation,
    /// committing with one atomic manifest write.
    ///
    /// Crash safety: until the manifest `put` succeeds, the previous
    /// manifest and all of its files are untouched, so a failure at any
    /// point leaves the on-store warehouse exactly as it was. Cleanup of
    /// the superseded generation runs only after the commit and is
    /// best-effort (stale files are harmless; they are never referenced).
    pub fn save_all(&self, store: &dyn SnapshotStore) -> Result<SaveReport> {
        let timer = obs::Timer::start();
        // Write lock: no inserts may land between a table export and the
        // manifest commit, or they would be lost from both table and WAL.
        let map = self.relations.write();
        let old_gen = self.generation.load(Ordering::SeqCst);
        let generation = old_gen + 1;

        let mut names: Vec<&String> = map.keys().collect();
        names.sort();
        let mut entries = Vec::with_capacity(names.len());
        let mut files_written = 0usize;
        let mut bytes_written = 0u64;
        let mut put = |key: String, bytes: &[u8]| -> Result<FileRef> {
            store.put(&key, bytes)?;
            files_written += 1;
            bytes_written += bytes.len() as u64;
            Ok(FileRef {
                key,
                len: bytes.len() as u64,
                crc: binio::header_checksum(bytes).expect("encoders write containers"),
            })
        };
        for name in names {
            let entry = &map[name];
            let (table, grouping, config, snapshot_bytes) = entry.aqua.saved()?;
            let table = put(table_key(&entry.dir, generation), &binio::encode(&table))?;
            let snapshot = snapshot_bytes
                .map(|snap| put(snapshot_key(&entry.dir, generation), &snap))
                .transpose()?;
            entries.push(ManifestEntry {
                name: name.clone(),
                dir: entry.dir.clone(),
                grouping: grouping.iter().map(|c| c.0).collect(),
                config,
                table,
                snapshot,
                wal: wal_key(&entry.dir, generation),
            });
        }

        let manifest = Manifest {
            generation,
            entries,
        };
        put(MANIFEST_KEY.to_string(), &manifest.encode())?; // commit point
        self.generation.store(generation, Ordering::SeqCst);

        // Best-effort cleanup of the superseded generation. Failures are
        // ignored: the commit already happened and stale blobs are inert.
        for entry in map.values() {
            let _ = store.delete(&table_key(&entry.dir, old_gen));
            let _ = store.delete(&snapshot_key(&entry.dir, old_gen));
            let _ = store.delete(&wal_key(&entry.dir, old_gen));
        }

        self.registry.counter("warehouse_saves_total").inc();
        self.registry
            .counter("warehouse_save_files_total")
            .add(files_written as u64);
        self.registry
            .counter("warehouse_save_bytes_total")
            .add(bytes_written);
        self.registry
            .histogram("warehouse_save_us")
            .record(timer.elapsed_us());
        Ok(SaveReport {
            generation,
            files_written,
            bytes_written,
        })
    }

    /// Open a saved warehouse from `store`, verifying every blob and
    /// recovering per `policy`. Always returns a working warehouse if a
    /// valid manifest exists — individual relations may come back
    /// rebuilt, degraded, or (with a corrupt base table) lost, all
    /// detailed in the [`OpenReport`].
    pub fn open(
        store: &dyn SnapshotStore,
        policy: RecoveryPolicy,
    ) -> Result<(Warehouse, OpenReport)> {
        let manifest = load_manifest(store)?;
        let registry = Arc::new(obs::Registry::new());
        registry.counter("warehouse_opens_total").inc();

        let mut map = HashMap::new();
        let mut reports = Vec::with_capacity(manifest.entries.len());
        for entry in &manifest.entries {
            let mut report = RelationReport {
                name: entry.name.clone(),
                status: RelationStatus::Healthy,
                wal_records_replayed: 0,
                wal_bytes_dropped: 0,
            };

            let table = match load_checked(store, &entry.table).and_then(|bytes| {
                let timer = obs::Timer::start();
                let rel = binio::decode(&bytes).map_err(|e| e.to_string());
                registry
                    .histogram("relation_decode_us")
                    .record(timer.elapsed_us());
                rel
            }) {
                Ok(table) => table,
                Err(reason) => {
                    quarantine(store, &entry.table.key);
                    report.status = RelationStatus::Lost {
                        reason: format!("base table {reason}"),
                    };
                    reports.push(report);
                    continue;
                }
            };
            let grouping: Vec<ColumnId> = entry.grouping.iter().map(|&i| ColumnId(i)).collect();

            // Import the snapshot; without a usable one the relation is
            // served by scans, and `Rebuild` then draws it a new synopsis.
            let loaded = match &entry.snapshot {
                Some(fref) => load_checked(store, fref)
                    .and_then(|bytes| {
                        let snapshot = bytes::Bytes::from(bytes);
                        Aqua::build_from_snapshot(table.clone(), entry.config, snapshot)
                            .map_err(|e| e.to_string())
                    })
                    .map_err(|e| (format!("synopsis {e}"), quarantine(store, &fref.key))),
                None => Err(("saved without a synopsis".to_string(), None)),
            };
            let aqua = match loaded {
                Ok(aqua) => aqua,
                Err((reason, quarantined)) => {
                    let aqua = Aqua::degraded(table, grouping, entry.config, reason.clone());
                    report.status = match policy {
                        RecoveryPolicy::Rebuild => match aqua.rebuild() {
                            Ok(()) => RelationStatus::Rebuilt { quarantined },
                            Err(e) => RelationStatus::Degraded {
                                reason: format!("{reason}; rebuild failed: {e}"),
                            },
                        },
                        RecoveryPolicy::Degrade => RelationStatus::Degraded { reason },
                    };
                    aqua
                }
            };

            // Replay the write-ahead log, truncating any torn tail.
            match store.get(&entry.wal) {
                Ok(buf) => {
                    let (rows, records, valid_end) = scan_wal(aqua.table_snapshot().schema(), &buf);
                    report.wal_records_replayed = records;
                    report.wal_bytes_dropped = buf.len() - valid_end;
                    if report.wal_bytes_dropped > 0 {
                        store.put(&entry.wal, &buf[..valid_end])?;
                    }
                    aqua.insert_batch(&rows)?;
                }
                Err(e) if e.is_not_found() => {}
                Err(e) => return Err(e.into()),
            }

            registry
                .counter(&obs::label(
                    "warehouse_recovered_relations_total",
                    &[("status", report.status.label())],
                ))
                .inc();
            registry
                .counter("warehouse_wal_replayed_records_total")
                .add(report.wal_records_replayed as u64);
            if report.wal_bytes_dropped > 0 {
                registry.counter("warehouse_wal_truncations_total").inc();
                registry
                    .counter("warehouse_wal_dropped_bytes_total")
                    .add(report.wal_bytes_dropped as u64);
            }
            reports.push(report);
            let (aqua, dir) = (Arc::new(aqua), entry.dir.clone());
            map.insert(entry.name.clone(), Entry { aqua, dir });
        }

        let warehouse = Warehouse {
            relations: RwLock::new(map),
            generation: AtomicU64::new(manifest.generation),
            registry,
        };
        Ok((
            warehouse,
            OpenReport {
                generation: manifest.generation,
                relations: reports,
            },
        ))
    }

    /// Read-only integrity check of a saved warehouse: manifest checksum,
    /// every blob's length and checksums, and WAL frame integrity. Modifies
    /// nothing — corrupt blobs are reported, not quarantined.
    pub fn verify(store: &dyn SnapshotStore) -> Result<VerifyReport> {
        let manifest = load_manifest(store)?;
        let mut ok = true;
        let mut lines = vec![format!(
            "manifest: generation {}, {} relation(s), checksum ok",
            manifest.generation,
            manifest.entries.len()
        )];
        for entry in &manifest.entries {
            let mut check = |label: &str, fref: &FileRef, magic| {
                let verified = load_checked(store, fref).and_then(|bytes| {
                    binio::open_container(&bytes, magic)
                        .map(|_| bytes.len())
                        .map_err(|e| format!("`{}`: {e}", fref.key))
                });
                match verified {
                    Ok(len) => lines.push(format!(
                        "{}: {label} ok ({len} bytes, crc {:08x})",
                        entry.name, fref.crc
                    )),
                    Err(reason) => {
                        ok = false;
                        lines.push(format!("{}: {label} CORRUPT — {reason}", entry.name));
                    }
                }
            };
            check("table", &entry.table, binio::RELATION_MAGIC);
            match &entry.snapshot {
                Some(fref) => check("synopsis", fref, snapshot::MAGIC),
                None => lines.push(format!("{}: no synopsis (saved degraded)", entry.name)),
            }
            match store.get(&entry.wal) {
                Ok(buf) => {
                    // Frame scan only; decoding rows needs the table, which
                    // may itself be corrupt.
                    let (frames, off) = binio::frames(&buf).fold((0, 0), |(n, _), f| (n + 1, f.1));
                    if off == buf.len() {
                        lines.push(format!(
                            "{}: wal ok ({frames} record(s), {} bytes)",
                            entry.name,
                            buf.len()
                        ));
                    } else {
                        ok = false;
                        lines.push(format!(
                            "{}: wal TORN — {} valid record(s), {} trailing byte(s) corrupt",
                            entry.name,
                            frames,
                            buf.len() - off
                        ));
                    }
                }
                Err(e) if e.is_not_found() => {
                    lines.push(format!("{}: wal empty", entry.name));
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(VerifyReport {
            generation: manifest.generation,
            ok,
            lines,
        })
    }

    /// Point-in-time metrics snapshot: the warehouse's own durability
    /// counters (`warehouse_*`) merged with every relation's
    /// [`Aqua::stats`] (query spans, exact scans, cache counters,
    /// maintenance timings — summed across relations).
    pub fn stats(&self) -> crate::system::StatsSnapshot {
        let mut snap = self.registry.snapshot();
        snap.set_gauge("warehouse_generation", self.generation() as i64);
        let map = self.relations.read();
        snap.set_gauge("warehouse_relations", map.len() as i64);
        for entry in map.values() {
            snap.merge(&entry.aqua.stats());
        }
        snap
    }

    /// Last committed save generation (0 = never saved).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Open with recovery, then immediately re-save: quarantined blobs are
    /// replaced by freshly built ones, torn WALs are folded into the new
    /// generation's tables, and (under [`RecoveryPolicy::Rebuild`])
    /// degraded relations regain their synopses.
    pub fn repair(
        store: &dyn SnapshotStore,
        policy: RecoveryPolicy,
    ) -> Result<(Warehouse, OpenReport, SaveReport)> {
        let (warehouse, open_report) = Warehouse::open(store, policy)?;
        let save_report = warehouse.save_all(store)?;
        Ok((warehouse, open_report, save_report))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SamplingStrategy;
    use crate::system::Request;
    use congress::MemStore;
    use engine::{AggregateSpec, GroupByQuery, QueryResult};
    use relation::{DataType, Expr, RelationBuilder};

    fn sales(n: i64) -> Relation {
        let mut b = RelationBuilder::new()
            .column("region", DataType::Str)
            .column("amount", DataType::Float)
            .column("cust_fk", DataType::Int);
        for i in 0..n {
            b.push_row(&[
                Value::str(if i % 3 == 0 { "east" } else { "west" }),
                Value::from((i % 90) as f64),
                Value::Int(i % 10),
            ])
            .unwrap();
        }
        b.finish()
    }

    fn customers() -> Relation {
        let mut b = RelationBuilder::new()
            .column("cust_id", DataType::Int)
            .column("segment", DataType::Str);
        for i in 0..10i64 {
            b.push_row(&[
                Value::Int(i),
                Value::str(if i < 2 { "enterprise" } else { "retail" }),
            ])
            .unwrap();
        }
        b.finish()
    }

    fn exact(w: &Warehouse, name: &str, q: &GroupByQuery) -> QueryResult {
        let request = Request {
            exact: true,
            ..Request::query(q)
        };
        let served = w.system(name).unwrap().run(&request).unwrap();
        served.answer.result.clone()
    }

    fn config() -> AquaConfig {
        AquaConfig {
            space: 200,
            strategy: SamplingStrategy::Congress,
            seed: 1,
            ..AquaConfig::default()
        }
    }

    #[test]
    fn register_answer_and_insert() {
        let w = Warehouse::new();
        let t = sales(3000);
        let grouping = t.schema().column_ids(&["region"]).unwrap();
        w.register("sales", t, grouping, config()).unwrap();
        assert_eq!(w.relation_names(), vec!["sales"]);

        let q = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")]);
        let ans = w.system("sales").unwrap().answer(&q).unwrap();
        assert_eq!(ans.result.group_count(), 2);
        assert!(!ans.is_degraded());
        let north = vec![Value::str("north"), Value::from(1.0), Value::Int(0)];
        w.system("sales").unwrap().insert_batch(&[north]).unwrap();
        let ans = w.system("sales").unwrap().answer(&q).unwrap();
        assert_eq!(ans.result.group_count(), 3);
        assert!(w.total_synopsis_rows() > 0);
        assert!(w.degraded_relations().is_empty());
    }

    #[test]
    fn duplicate_and_unknown_names_rejected() {
        let w = Warehouse::new();
        let t = sales(100);
        let g = t.schema().column_ids(&["region"]).unwrap();
        w.register("sales", t.clone(), g.clone(), config()).unwrap();
        assert!(w.register("sales", t, g, config()).is_err());
        assert!(w.system("nope").is_err());
    }

    #[test]
    fn duplicate_name_fails_before_synopsis_build() {
        let w = Warehouse::new();
        let t = sales(100);
        let g = t.schema().column_ids(&["region"]).unwrap();
        w.register("sales", t.clone(), g.clone(), config()).unwrap();
        // An *empty* table would make `Aqua::build` fail with its own
        // "empty relation" error — so getting the duplicate-name error
        // back proves the name check ran first, without wasted work.
        let empty = t.gather(&[]);
        let err = w.register("sales", empty, g, config()).unwrap_err();
        assert!(
            err.to_string().contains("already registered"),
            "expected fast duplicate-name failure, got: {err}"
        );
    }

    #[test]
    fn join_synopsis_registration() {
        let w = Warehouse::new();
        let fact = sales(2000);
        let dim = customers();
        w.register_join_synopsis(
            "sales_by_customer",
            &fact,
            fact.schema().column_id("cust_fk").unwrap(),
            &dim,
            dim.schema().column_id("cust_id").unwrap(),
            "c_",
            &["region", "c_segment"],
            config(),
        )
        .unwrap();
        // Cross-table grouping answered from the join synopsis.
        let joined = w.system("sales_by_customer").unwrap();
        let seg = ColumnId(4); // region, amount, cust_fk, c_cust_id, c_segment
        let q = GroupByQuery::new(
            vec![seg],
            vec![AggregateSpec::sum(Expr::col(ColumnId(1)), "rev")],
        );
        let ans = joined.answer(&q).unwrap();
        assert_eq!(ans.result.group_count(), 2); // enterprise / retail
    }

    #[test]
    fn divide_space_proportional_and_exact() {
        let parts =
            Warehouse::divide_space(100, &[("big", 7_000), ("mid", 2_000), ("tiny", 1_000)]);
        let total: usize = parts.iter().map(|(_, b)| b).sum();
        assert_eq!(total, 100);
        let get = |n: &str| parts.iter().find(|(m, _)| m == n).unwrap().1;
        assert_eq!(get("big"), 70);
        assert_eq!(get("mid"), 20);
        assert_eq!(get("tiny"), 10);
        // Degenerate: all-empty sizes.
        let parts = Warehouse::divide_space(10, &[("a", 0)]);
        assert_eq!(parts[0].1, 0);
    }

    #[test]
    fn save_open_round_trip_preserves_answers() {
        let store = MemStore::new();
        let w = Warehouse::new();
        let t = sales(2000);
        let grouping = t.schema().column_ids(&["region"]).unwrap();
        w.register("sales", t, grouping, config()).unwrap();
        let q = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")]);
        let before = w.system("sales").unwrap().answer(&q).unwrap();
        let save = w.save_all(&store).unwrap();
        assert_eq!(save.generation, 1);

        let (w2, report) = Warehouse::open(&store, RecoveryPolicy::Rebuild).unwrap();
        assert!(report.fully_healthy(), "{report:?}");
        let after = w2.system("sales").unwrap().answer(&q).unwrap();
        assert!(!after.is_degraded());
        assert_eq!(before.result, after.result);
        assert_eq!(exact(&w2, "sales", &q), exact(&w, "sales", &q));
    }

    #[test]
    fn logged_inserts_survive_via_wal_replay() {
        let store = MemStore::new();
        let w = Warehouse::new();
        let t = sales(500);
        let grouping = t.schema().column_ids(&["region"]).unwrap();
        w.register("sales", t, grouping, config()).unwrap();
        w.save_all(&store).unwrap();
        // Durable inserts after the save — never re-saved.
        w.insert_logged(
            &store,
            "sales",
            &[
                vec![Value::str("north"), Value::from(5.0), Value::Int(1)],
                vec![Value::str("north"), Value::from(6.0), Value::Int(2)],
            ],
        )
        .unwrap();
        let (w2, report) = Warehouse::open(&store, RecoveryPolicy::Rebuild).unwrap();
        assert_eq!(report.relations[0].wal_records_replayed, 1);
        assert_eq!(report.relations[0].wal_bytes_dropped, 0);
        let q = GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")]);
        let exact = exact(&w2, "sales", &q);
        let north = exact
            .get(&relation::GroupKey::new(vec![Value::str("north")]))
            .expect("replayed rows present");
        assert_eq!(north[0], 2.0);
    }

    #[test]
    fn verify_reports_clean_and_corrupt_stores() {
        let store = MemStore::new();
        let w = Warehouse::new();
        let t = sales(500);
        let grouping = t.schema().column_ids(&["region"]).unwrap();
        w.register("sales", t, grouping, config()).unwrap();
        w.save_all(&store).unwrap();
        let report = Warehouse::verify(&store).unwrap();
        assert!(report.ok, "{:?}", report.lines);

        // Flip one bit in the synopsis blob.
        let key = store
            .list()
            .unwrap()
            .into_iter()
            .find(|k| k.contains("synopsis"))
            .unwrap();
        let mut bytes = store.get(&key).unwrap();
        bytes[10] ^= 0x40;
        store.put(&key, &bytes).unwrap();
        let report = Warehouse::verify(&store).unwrap();
        assert!(!report.ok);
        assert!(report.lines.iter().any(|l| l.contains("CORRUPT")));
    }
}
