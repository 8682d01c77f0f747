//! Durability of the realization view: WAL replay, checkpoints, and
//! corruption detection.
//!
//! §2 argues the NFR can be the *physical* representation. That claim
//! obliges the storage engine to survive crashes: this example
//! checkpoints an [`NfTable`], keeps updating, "crashes" before the next
//! checkpoint, and recovers the exact canonical relation from checkpoint
//! pages + write-ahead log. It then flips one bit on disk and shows the
//! checksummed page format refuses to load silently-corrupt data, and
//! rewrites the pages one tuple short — every page checksum valid — to
//! show the per-shard digest in the meta refusing what the pages alone
//! cannot.
//!
//! Run with: `cargo run --example crash_recovery`

use nf2::prelude::*;
use nf2::storage::{HeapFile, StorageError};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dir = std::env::temp_dir().join("nf2_crash_recovery_example");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;

    // 1. Build a table and checkpoint it.
    let dict = SharedDictionary::new();
    let table = NfTable::create(
        "sc",
        &["Student", "Course", "Club"],
        NestOrder::identity(3),
        dict,
    )?;
    for (s, c, b) in [
        ("s1", "c1", "b1"),
        ("s1", "c2", "b1"),
        ("s2", "c1", "b2"),
        ("s2", "c2", "b2"),
        ("s3", "c3", "b1"),
    ] {
        table.insert_row(&[s, c, b])?;
    }
    table.checkpoint(&dir)?;
    println!(
        "checkpointed: {} flat rows in {} NF² tuples",
        table.flat_count(),
        table.tuple_count()
    );

    // 2. More updates, logged to the WAL but not checkpointed.
    table.insert_row(&["s4", "c1", "b1"])?;
    table.delete_row(&["s3", "c3", "b1"])?;
    table.flush_wal(&dir)?;
    println!(
        "post-checkpoint updates in WAL only: now {} rows / {} tuples",
        table.flat_count(),
        table.tuple_count()
    );

    // 3. "Crash": drop the in-memory table; reopen from disk.
    let expected = table.relation().clone();
    drop(table);
    let recovered = NfTable::open(&dir, "sc", SharedDictionary::new())?;
    assert_eq!(recovered.relation(), expected.clone());
    println!(
        "recovered after crash: {} rows / {} tuples — checkpoint + WAL replay \
         reproduced the canonical relation exactly",
        recovered.flat_count(),
        recovered.tuple_count()
    );

    // 4. Corruption: flip one bit in the checkpoint pages. The FNV-1a
    //    page checksum must catch it.
    let pages = dir.join("sc.pages");
    let mut bytes = std::fs::read(&pages)?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&pages, &bytes)?;
    match NfTable::open(&dir, "sc", SharedDictionary::new()) {
        Err(e) => println!("bit-flip detected as expected: {e}"),
        Ok(_) => panic!("corrupt checkpoint must not load"),
    }

    // 5. A checkpoint one tuple short: copy every record but the first
    //    into fresh pages. Each page checksum holds; the digest the meta
    //    keeps for the shard does not.
    recovered.checkpoint(&dir)?;
    let mut short = HeapFile::new();
    for (_, record) in HeapFile::load(&pages)?.iter().skip(1) {
        short.insert(record)?;
    }
    short.save(&pages)?;
    match NfTable::open(&dir, "sc", SharedDictionary::new()) {
        Err(StorageError::Corrupt(msg)) => {
            println!("missing tuple refused by the shard digest: {msg}")
        }
        Err(e) => panic!("expected a digest mismatch, got: {e}"),
        Ok(_) => panic!("a checkpoint missing a tuple must not load"),
    }

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
