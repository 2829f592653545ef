//! Crash-safety and corruption-recovery sweeps over the warehouse
//! persistence subsystem, driven by deterministic fault injection.

use aqua::{
    AnswerProvenance, AquaConfig, Manifest, RecoveryPolicy, RelationStatus, SamplingStrategy,
    Warehouse,
};
use congress::{snapshot, CongressError, Fault, FaultyStore, MemStore, SnapshotStore};
use engine::{AggregateSpec, GroupByQuery};
use relation::{binio, ColumnId, DataType, GroupKey, Relation, RelationBuilder, Value};

fn sales(n: i64) -> Relation {
    let mut b = RelationBuilder::new()
        .column("region", DataType::Str)
        .column("amount", DataType::Float);
    for i in 0..n {
        b.push_row(&[
            Value::str(if i % 4 == 0 { "east" } else { "west" }),
            Value::from((i % 50) as f64),
        ])
        .unwrap();
    }
    b.finish()
}

fn returns(n: i64) -> Relation {
    let mut b = RelationBuilder::new()
        .column("reason", DataType::Str)
        .column("qty", DataType::Int);
    for i in 0..n {
        b.push_row(&[
            Value::str(if i % 5 == 0 { "damaged" } else { "unwanted" }),
            Value::Int(1 + i % 3),
        ])
        .unwrap();
    }
    b.finish()
}

fn config() -> AquaConfig {
    AquaConfig {
        space: 60,
        strategy: SamplingStrategy::Congress,
        seed: 7,
        ..AquaConfig::default()
    }
}

fn count_query() -> GroupByQuery {
    GroupByQuery::new(vec![ColumnId(0)], vec![AggregateSpec::count("c")])
}

/// Build a two-relation warehouse, save it to `store` (generation 1), and
/// durably log one extra insert so a WAL exists.
fn seeded_warehouse(store: &MemStore) -> (Warehouse, f64) {
    let w = Warehouse::new();
    let t = sales(400);
    let grouping = t.schema().column_ids(&["region"]).unwrap();
    w.register("sales", t, grouping, config()).unwrap();
    let r = returns(200);
    let grouping = r.schema().column_ids(&["reason"]).unwrap();
    w.register("returns", r, grouping, config()).unwrap();
    w.save_all(store).unwrap();
    w.insert_logged(
        store,
        "sales",
        &[vec![Value::str("east"), Value::from(1.0)]],
    )
    .unwrap();
    let exact = w.exact("sales", &count_query()).unwrap();
    let total: f64 = exact.iter().map(|(_, v)| v[0]).sum();
    (w, total)
}

fn exact_total(w: &Warehouse, name: &str) -> f64 {
    w.exact(name, &count_query())
        .unwrap()
        .iter()
        .map(|(_, v)| v[0])
        .sum()
}

fn copy_store(src: &MemStore) -> MemStore {
    let dst = MemStore::new();
    for key in src.list().unwrap() {
        dst.put(&key, &src.get(&key).unwrap()).unwrap();
    }
    dst
}

/// The acceptance sweep: inject a clean failure at *every* store
/// operation index during `save_all`. Whatever the failure point, the
/// on-store warehouse must be fully the old generation or fully the new
/// one: `open` always succeeds, every relation comes back healthy, and no
/// row — including the WAL-logged insert — is lost.
#[test]
#[ignore = "seeded sweep over every store op of a save; run with --include-ignored"]
fn kill_the_writer_at_every_op() {
    // Dry run to learn how many store ops a save issues.
    let store = MemStore::new();
    let (w, expected_rows) = seeded_warehouse(&store);
    let probe = FaultyStore::new(copy_store(&store), Fault::FailAt { op: u64::MAX });
    w.save_all(&probe).unwrap();
    let total_ops = probe.ops();
    assert!(total_ops >= 5, "save of 2 relations must take several ops");

    for fail_at in 0..total_ops {
        let store = MemStore::new();
        let (w, expected_rows) = seeded_warehouse(&store);
        let faulty = FaultyStore::new(store, Fault::FailAt { op: fail_at });
        let _ = w.save_all(&faulty); // may or may not error; disk state is what matters
        let disk = faulty.into_inner();

        let (recovered, report) = Warehouse::open(&disk, RecoveryPolicy::Rebuild)
            .unwrap_or_else(|e| panic!("open failed after crash at op {fail_at}: {e}"));
        assert!(
            report.generation == 1 || report.generation == 2,
            "crash at op {fail_at}: generation {}",
            report.generation
        );
        for r in &report.relations {
            assert_eq!(
                r.status,
                RelationStatus::Healthy,
                "crash at op {fail_at}: relation {} not healthy: {:?}",
                r.name,
                r.status
            );
            assert_eq!(r.wal_bytes_dropped, 0, "crash at op {fail_at}");
        }
        assert_eq!(
            exact_total(&recovered, "sales"),
            expected_rows,
            "crash at op {fail_at} lost rows"
        );
        let ans = recovered.answer("sales", &count_query()).unwrap();
        assert!(!ans.is_degraded(), "crash at op {fail_at}");
    }
    let _ = expected_rows;
}

/// Flip a bit at many offsets of the synopsis blob. Every corruption must
/// be detected at open; under `Degrade` the relation serves exact answers
/// with `ExactFallback` provenance and the bad blob lands in quarantine,
/// under `Rebuild` it comes back sampled.
#[test]
fn bit_flip_in_snapshot_quarantines_and_recovers() {
    let pristine = MemStore::new();
    let (w, expected_rows) = seeded_warehouse(&pristine);
    let _ = &w;
    let snap_key = pristine
        .list()
        .unwrap()
        .into_iter()
        .find(|k| k.contains("rel-sales") && k.contains("synopsis"))
        .unwrap();
    let snap = pristine.get(&snap_key).unwrap();

    let offsets: Vec<usize> = (0..snap.len())
        .step_by(13)
        .chain([snap.len() - 1])
        .collect();
    for &off in &offsets {
        let store = copy_store(&pristine);
        let mut bad = snap.clone();
        bad[off] ^= 0x10;
        store.put(&snap_key, &bad).unwrap();

        let (w2, report) = Warehouse::open(&store, RecoveryPolicy::Degrade).unwrap();
        let sales_report = report.relations.iter().find(|r| r.name == "sales").unwrap();
        assert!(
            matches!(sales_report.status, RelationStatus::Degraded { .. }),
            "flip at byte {off}: {:?}",
            sales_report.status
        );
        // The corrupt blob was quarantined, not left in place.
        assert!(!store.exists(&snap_key).unwrap(), "flip at byte {off}");
        assert!(store.exists(&format!("quarantine/{snap_key}")).unwrap());
        // Degraded answers are exact and say so.
        let ans = w2.answer("sales", &count_query()).unwrap();
        assert!(
            matches!(ans.provenance, AnswerProvenance::ExactFallback { .. }),
            "flip at byte {off}"
        );
        let total: f64 = ans.result.iter().map(|(_, v)| v[0]).sum();
        assert_eq!(total, expected_rows, "flip at byte {off}");
        assert_eq!(w2.degraded_relations().len(), 1);
        // The healthy relation is unaffected.
        assert!(!w2.answer("returns", &count_query()).unwrap().is_degraded());
    }

    // Same corruption under Rebuild: full service restored from the table.
    let store = copy_store(&pristine);
    let mut bad = snap.clone();
    bad[snap.len() / 2] ^= 0x01;
    store.put(&snap_key, &bad).unwrap();
    let (w2, report) = Warehouse::open(&store, RecoveryPolicy::Rebuild).unwrap();
    let sales_report = report.relations.iter().find(|r| r.name == "sales").unwrap();
    assert!(matches!(
        sales_report.status,
        RelationStatus::Rebuilt {
            quarantined: Some(_)
        }
    ));
    let ans = w2.answer("sales", &count_query()).unwrap();
    assert!(!ans.is_degraded());
    assert!(w2.system("sales").is_ok());
}

/// A corrupt *base table* cannot be recovered from this store: the
/// relation is reported lost (and quarantined), while the rest of the
/// warehouse still opens.
#[test]
fn corrupt_table_is_lost_but_warehouse_opens() {
    let store = MemStore::new();
    let (_w, _) = seeded_warehouse(&store);
    let table_key = store
        .list()
        .unwrap()
        .into_iter()
        .find(|k| k.contains("rel-returns") && k.contains("table"))
        .unwrap();
    let mut bytes = store.get(&table_key).unwrap();
    bytes[7] ^= 0xFF;
    store.put(&table_key, &bytes).unwrap();

    let (w2, report) = Warehouse::open(&store, RecoveryPolicy::Rebuild).unwrap();
    let lost = report
        .relations
        .iter()
        .find(|r| r.name == "returns")
        .unwrap();
    assert!(matches!(lost.status, RelationStatus::Lost { .. }));
    assert!(store.exists(&format!("quarantine/{table_key}")).unwrap());
    assert!(w2.answer("returns", &count_query()).is_err());
    assert!(w2.answer("sales", &count_query()).is_ok());
}

/// A torn manifest write (non-atomic store) is detected — open refuses
/// loudly instead of serving a half-written catalog.
#[test]
fn torn_manifest_is_detected() {
    let store = MemStore::new();
    let (w, _) = seeded_warehouse(&store);
    // Manifest is the last put of save_all: relations sorted -> returns
    // (table, synopsis), sales (table, synopsis), manifest = op 4.
    let faulty = FaultyStore::new(store, Fault::TruncateAt { op: 4, keep: 40 });
    w.save_all(&faulty).unwrap(); // torn write reports success
    assert!(faulty.fired(), "fault must have hit the manifest put");
    let disk = faulty.into_inner();
    let err = match Warehouse::open(&disk, RecoveryPolicy::Rebuild) {
        Err(e) => e,
        Ok(_) => panic!("open must reject a torn manifest"),
    };
    assert!(err.to_string().contains("manifest"), "{err}");
}

/// Running out of space mid-save fails cleanly and leaves the previous
/// generation fully intact.
#[test]
fn enospc_leaves_old_generation_intact() {
    let store = MemStore::new();
    let (w, expected_rows) = seeded_warehouse(&store);
    let faulty = FaultyStore::new(store, Fault::Enospc { byte_budget: 512 });
    assert!(w.save_all(&faulty).is_err());
    let disk = faulty.into_inner();
    let (w2, report) = Warehouse::open(&disk, RecoveryPolicy::Rebuild).unwrap();
    assert_eq!(report.generation, 1);
    assert_eq!(exact_total(&w2, "sales"), expected_rows);
}

/// A torn WAL tail is dropped and truncated in-store; intact records
/// before the tear still replay.
#[test]
fn torn_wal_tail_is_truncated() {
    let store = MemStore::new();
    let (w, expected_rows) = seeded_warehouse(&store);
    w.insert_logged(
        &store,
        "sales",
        &[vec![Value::str("west"), Value::from(2.0)]],
    )
    .unwrap();
    let wal_key = store
        .list()
        .unwrap()
        .into_iter()
        .find(|k| k.contains("rel-sales") && k.contains("wal"))
        .unwrap();
    let wal = store.get(&wal_key).unwrap();
    // Tear off the last 3 bytes (mid-record) — models a crash mid-append.
    store.put(&wal_key, &wal[..wal.len() - 3]).unwrap();

    let (w2, report) = Warehouse::open(&store, RecoveryPolicy::Rebuild).unwrap();
    let sales_report = report.relations.iter().find(|r| r.name == "sales").unwrap();
    assert_eq!(sales_report.wal_records_replayed, 1);
    assert!(sales_report.wal_bytes_dropped > 0);
    // First logged insert survives; the torn second one is gone.
    assert_eq!(exact_total(&w2, "sales"), expected_rows);
    // The tail was physically truncated: a later open sees a clean WAL.
    let (_, report) = Warehouse::open(&store, RecoveryPolicy::Rebuild).unwrap();
    let sales_report = report.relations.iter().find(|r| r.name == "sales").unwrap();
    assert_eq!(sales_report.wal_bytes_dropped, 0);
}

/// `repair` after corruption writes a fresh, fully verifiable generation
/// and restores sampled service.
#[test]
fn repair_restores_full_service() {
    let store = MemStore::new();
    let (_w, expected_rows) = seeded_warehouse(&store);
    let snap_key = store
        .list()
        .unwrap()
        .into_iter()
        .find(|k| k.contains("rel-sales") && k.contains("synopsis"))
        .unwrap();
    let mut bytes = store.get(&snap_key).unwrap();
    bytes[3] ^= 0x02;
    store.put(&snap_key, &bytes).unwrap();
    assert!(!Warehouse::verify(&store).unwrap().ok);

    let (w2, open_report, save_report) =
        Warehouse::repair(&store, RecoveryPolicy::Rebuild).unwrap();
    assert!(open_report
        .relations
        .iter()
        .any(|r| matches!(r.status, RelationStatus::Rebuilt { .. })));
    assert_eq!(save_report.generation, 2);
    let verify = Warehouse::verify(&store).unwrap();
    assert!(verify.ok, "{:?}", verify.lines);
    let ans = w2.answer("sales", &count_query()).unwrap();
    assert!(!ans.is_degraded());
    assert_eq!(exact_total(&w2, "sales"), expected_rows);
}

/// Degraded relations keep accepting inserts and serving exact group-bys.
#[test]
fn degraded_mode_still_serves_and_grows() {
    let store = MemStore::new();
    let (_w, expected_rows) = seeded_warehouse(&store);
    let snap_key = store
        .list()
        .unwrap()
        .into_iter()
        .find(|k| k.contains("rel-sales") && k.contains("synopsis"))
        .unwrap();
    store.delete(&snap_key).unwrap();

    let (w2, _) = Warehouse::open(&store, RecoveryPolicy::Degrade).unwrap();
    assert_eq!(w2.degraded_relations().len(), 1);
    w2.insert("sales", &[vec![Value::str("north"), Value::from(9.0)]])
        .unwrap();
    let ans = w2.answer("sales", &count_query()).unwrap();
    assert!(ans.is_degraded());
    assert!(ans.to_string().contains("degraded"));
    let north = ans
        .result
        .get(&GroupKey::new(vec![Value::str("north")]))
        .unwrap();
    assert_eq!(north[0], 1.0);
    let total: f64 = ans.result.iter().map(|(_, v)| v[0]).sum();
    assert_eq!(total, expected_rows + 1.0);
    // Saving a degraded warehouse records `snapshot=-`; reopening under
    // Rebuild restores sampled service from the saved table.
    w2.save_all(&store).unwrap();
    let (w3, report) = Warehouse::open(&store, RecoveryPolicy::Rebuild).unwrap();
    assert!(report
        .relations
        .iter()
        .any(|r| r.status == RelationStatus::Rebuilt { quarantined: None }));
    assert!(!w3.answer("sales", &count_query()).unwrap().is_degraded());
    assert_eq!(exact_total(&w3, "sales"), expected_rows + 1.0);
}

/// Every blob kind `save_all` writes is guarded by its own decoder: a
/// single flipped bit anywhere in a base table, a synopsis or the
/// manifest, or a truncation at any offset, is rejected by that blob's
/// decoder alone — before the manifest's length and checksum are consulted.
#[test]
fn every_blob_kind_rejects_any_bit_flip_or_truncation() {
    let store = MemStore::new();
    let _ = seeded_warehouse(&store);
    let decodes = |key: &str, bytes: &[u8]| -> Option<bool> {
        if key.ends_with("MANIFEST") {
            Some(Manifest::parse(bytes).is_ok())
        } else if key.contains("/table.") {
            Some(binio::decode(bytes).is_ok())
        } else if key.contains("/synopsis.") {
            Some(snapshot::decode(bytes::Bytes::from(bytes.to_vec())).is_ok())
        } else {
            None // the WAL: frames, swept by `torn_wal_verify_and_open_agree_at_every_offset`
        }
    };
    let mut kinds = Vec::new();
    for key in store.list().unwrap() {
        let blob = store.get(&key).unwrap();
        let Some(true) = decodes(&key, &blob) else {
            assert!(key.contains("/wal."), "`{key}` must decode");
            continue;
        };
        kinds.push(key.clone());
        for cut in 0..blob.len() {
            assert_eq!(
                decodes(&key, &blob[..cut]),
                Some(false),
                "`{key}` cut at {cut}"
            );
        }
        for i in 0..blob.len() {
            for bit in 0..8 {
                let mut bad = blob.clone();
                bad[i] ^= 1 << bit;
                assert_eq!(
                    decodes(&key, &bad),
                    Some(false),
                    "`{key}` bit {bit} of byte {i}"
                );
            }
        }
    }
    // Two relations (table + synopsis each) plus the manifest.
    assert_eq!(kinds.len(), 5, "{kinds:?}");
}

/// The layouts that predate the shared container — dense v1 and chunked v2
/// relation bytes, the `CGRS` v1/v2 snapshot headers, the text manifest —
/// are refused with an error naming why, never a panic.
#[test]
fn pre_container_formats_are_rejected_with_an_error() {
    for version in [1u8, 2] {
        // One Int column `a`, one row, as the old relation codecs began.
        let mut old = b"RLBN\0".to_vec();
        old.push(version);
        old.extend_from_slice(b"\0\x01\0\0\0\x01a\0");
        old.extend_from_slice(&1u64.to_be_bytes());
        old.extend_from_slice(&7i64.to_be_bytes());
        let err = binio::decode(&old).unwrap_err().to_string();
        assert!(
            err.contains(&format!("unsupported version {version}")),
            "{err}"
        );

        let mut old = b"CGRS\0".to_vec();
        old.push(version);
        old.extend_from_slice(&[0; 32]);
        match snapshot::decode(bytes::Bytes::from(old)) {
            Err(CongressError::CorruptSnapshot(m)) => {
                assert!(m.contains("unsupported version"), "{m}")
            }
            other => panic!("CGRS v{version}: expected CorruptSnapshot, got {other:?}"),
        }
    }
    let text = "aqua-warehouse v1\ngeneration=1\nchecksum=00000000\n";
    let err = Manifest::parse(text.as_bytes()).unwrap_err().to_string();
    assert!(err.contains("corrupt manifest: bad magic"), "{err}");
    let store = MemStore::new();
    store.put("MANIFEST", text.as_bytes()).unwrap();
    let err = Warehouse::open(&store, RecoveryPolicy::Rebuild)
        .err()
        .unwrap();
    assert!(err.to_string().contains("corrupt manifest"), "{err}");
}

/// `(records, dropped bytes)` from `verify`'s WAL line for `relation`.
fn verified_wal(lines: &[String], relation: &str) -> (usize, usize) {
    let line = lines
        .iter()
        .find(|l| l.starts_with(&format!("{relation}: wal")))
        .unwrap();
    let numbers: Vec<usize> = line
        .split(|c: char| !c.is_ascii_digit())
        .filter_map(|n| n.parse().ok())
        .collect();
    match (line.contains("TORN"), &numbers[..]) {
        (false, &[records, _len]) => (records, 0),
        (true, &[records, dropped]) => (records, dropped),
        _ => panic!("unexpected wal line `{line}`"),
    }
}

/// A WAL torn at every byte offset: the intact records `verify` counts
/// are exactly the ones `open` replays, and `open` truncates the log to
/// exactly where `verify` says valid data ends.
#[test]
fn torn_wal_verify_and_open_agree_at_every_offset() {
    let pristine = MemStore::new();
    let (w, _) = seeded_warehouse(&pristine);
    let row = |region: &str, amount: f64| vec![Value::str(region), Value::from(amount)];
    w.insert_logged(&pristine, "sales", &[row("west", 2.0), row("north", 3.0)])
        .unwrap();
    w.insert_logged(&pristine, "sales", &[row("east", 4.0)])
        .unwrap();
    let wal_key = pristine
        .list()
        .unwrap()
        .into_iter()
        .find(|k| k.contains("rel-sales") && k.contains("wal"))
        .unwrap();
    let wal = pristine.get(&wal_key).unwrap();

    let mut seen = std::collections::BTreeSet::new();
    for cut in 0..=wal.len() {
        let store = copy_store(&pristine);
        store.put(&wal_key, &wal[..cut]).unwrap();
        let (records, dropped) = verified_wal(&Warehouse::verify(&store).unwrap().lines, "sales");
        let (_, report) = Warehouse::open(&store, RecoveryPolicy::Rebuild).unwrap();
        let sales = report.relations.iter().find(|r| r.name == "sales").unwrap();
        assert_eq!(sales.wal_records_replayed, records, "cut at {cut}");
        assert_eq!(sales.wal_bytes_dropped, dropped, "cut at {cut}");
        assert_eq!(
            store.get(&wal_key).unwrap().len(),
            cut - dropped,
            "cut at {cut}"
        );
        seen.insert(records);
    }
    assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
}
