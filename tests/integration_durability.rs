//! Durability integration: checkpoint, WAL replay, crash simulation and
//! corruption detection across the storage and query layers.

use std::path::PathBuf;

use nf2::core::schema::NestOrder;
use nf2::storage::{NfTable, SharedDictionary, StorageError};
use nf2::workload;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("nf2_it_{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn build_table(rows: usize, seed: u64) -> NfTable {
    let w = workload::relationship(rows, 20, 15, 3, seed);
    NfTable::from_flat(
        "facts",
        &w.flat,
        NestOrder::identity(3),
        SharedDictionary::new(),
    )
    .unwrap()
}

#[test]
fn checkpoint_reopen_preserves_canonical_form() {
    let dir = temp_dir("ckpt");
    let t = build_table(300, 5);
    let before = t.snapshot().canonical();
    t.checkpoint(&dir).unwrap();
    let reopened = NfTable::open(&dir, "facts", SharedDictionary::new()).unwrap();
    assert_eq!(reopened.snapshot().canonical(), before.clone());
    assert_eq!(reopened.flat_count(), 300);
}

#[test]
fn wal_replay_after_simulated_crash() {
    let dir = temp_dir("crash");
    let dict = SharedDictionary::new();
    let t = NfTable::create("facts", &["A", "B", "C"], NestOrder::identity(3), dict).unwrap();
    for i in 0..50u32 {
        t.insert_row(&[
            &format!("a{}", i % 7),
            &format!("b{}", i % 5),
            &format!("c{}", i % 3),
        ])
        .unwrap();
    }
    t.checkpoint(&dir).unwrap();

    // Post-checkpoint work that only reaches the WAL ("crash" before the
    // next checkpoint).
    t.insert_row(&["a9", "b9", "c9"]).unwrap();
    t.delete_row(&["a0", "b0", "c0"]).unwrap();
    t.flush_wal(&dir).unwrap();
    let expected = t.snapshot().canonical();
    drop(t); // crash

    // Recovery must replay the WAL over the checkpoint. Dictionary
    // entries for post-checkpoint rows were persisted in neither place —
    // re-intern them in the same order the meta file defines, which the
    // WAL atoms reference. Reopen with a fresh dictionary and verify
    // structure.
    let reopened = NfTable::open(&dir, "facts", SharedDictionary::new());
    // a9/b9/c9 were interned after the checkpointed meta: the WAL rows
    // reference atoms the restored dictionary does not know, but atom
    // identity is what matters for relation equality.
    let reopened = reopened.unwrap();
    assert_eq!(
        reopened.snapshot().canonical().expand().len(),
        expected.expand().len()
    );
    assert_eq!(reopened.snapshot().canonical(), expected.clone());
}

#[test]
fn a_flipped_checkpoint_byte_is_refused_by_its_shard_digest() {
    let dir = temp_dir("corrupt");
    let t = build_table(100, 6);
    t.checkpoint(&dir).unwrap();
    let tuples = dir.join("facts.tuples");
    let mut bytes = std::fs::read(&tuples).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x55;
    std::fs::write(&tuples, &bytes).unwrap();
    let err = NfTable::open(&dir, "facts", SharedDictionary::new()).unwrap_err();
    assert!(
        matches!(&err, StorageError::Corrupt(msg) if msg.starts_with("shard 0:")),
        "a corrupt byte must be refused before it is decoded: {err:?}"
    );
}

#[test]
fn reopen_then_update_then_reopen_again() {
    let dir = temp_dir("cycle");
    let t = build_table(120, 8);
    t.checkpoint(&dir).unwrap();

    let t2 = NfTable::open(&dir, "facts", SharedDictionary::new()).unwrap();
    // Mutate the reopened table and checkpoint again.
    t2.insert_row(&["zz", "zz", "zz"]).unwrap();
    t2.checkpoint(&dir).unwrap();
    let t3 = NfTable::open(&dir, "facts", SharedDictionary::new()).unwrap();
    assert_eq!(t3.snapshot().canonical(), t2.snapshot().canonical());
    assert_eq!(t3.flat_count(), 121);
    // The new value must resolve by name after reopen.
    let zz = t3.dict().lookup("zz").expect("dictionary persisted");
    assert!(t3
        .snapshot()
        .canonical()
        .tuples()
        .iter()
        .any(|tp| tp.component(0).contains(zz)));
}

#[test]
fn lookup_probe_accounting_survives_reopen() {
    let dir = temp_dir("probes");
    let t = build_table(200, 9);
    t.checkpoint(&dir).unwrap();
    let reopened = NfTable::open(&dir, "facts", SharedDictionary::new()).unwrap();
    let some_atom = reopened.snapshot().canonical().tuples()[0]
        .component(0)
        .iter()
        .next()
        .unwrap();
    let hits = reopened
        .scan()
        .filter(|t| t.as_ref().component(0).contains(some_atom))
        .count();
    assert!(hits > 0);
    let stats = reopened.stats();
    assert_eq!(stats.lookups, 1);
    assert_eq!(stats.units_probed, reopened.tuple_count() as u64);
}
