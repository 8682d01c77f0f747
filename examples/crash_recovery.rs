//! Durability of the realization view: WAL replay, checkpoints, and
//! corruption detection.
//!
//! §2 argues the NFR can be the *physical* representation. That claim
//! obliges the storage engine to survive crashes: this example
//! checkpoints an [`NfTable`], keeps updating, "crashes" before the next
//! checkpoint, and recovers the exact canonical relation from the
//! checkpoint's tuples + write-ahead log. It then flips one bit in the
//! tuple file and shows the shard digest in the meta refusing it, naming
//! the shard, before a byte is decoded; and cuts one tuple off the file,
//! meta untouched, to show the shard lengths the meta records refusing
//! that too.
//!
//! Run with: `cargo run --example crash_recovery`

use nf2::prelude::*;
use nf2::storage::codec::decode_nf_tuple;
use nf2::storage::StorageError;

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
    let expected = table.snapshot().canonical();
    drop(table);
    let recovered = NfTable::open(&dir, "sc", SharedDictionary::new())?;
    assert_eq!(recovered.snapshot().canonical(), expected.clone());
    println!(
        "recovered after crash: {} rows / {} tuples — checkpoint + WAL replay \
         reproduced the canonical relation exactly",
        recovered.flat_count(),
        recovered.tuple_count()
    );

    // 4. Corruption: flip one bit in the checkpoint's tuple file. The
    //    FNV-1a digest the meta keeps for the shard must catch it.
    let tuples = dir.join("sc.tuples");
    let mut bytes = std::fs::read(&tuples)?;
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&tuples, &bytes)?;
    match NfTable::open(&dir, "sc", SharedDictionary::new()) {
        Err(StorageError::Corrupt(msg)) if msg.starts_with("shard 0:") => {
            println!("bit-flip refused by the shard digest: {msg}")
        }
        Err(e) => panic!("expected shard 0's digest to refuse the flip, got: {e}"),
        Ok(_) => panic!("corrupt checkpoint must not load"),
    }

    // 5. A checkpoint one tuple short: cut the first tuple off the file
    //    and leave the meta as it is. The shard lengths it records no
    //    longer add up to the file.
    recovered.checkpoint(&dir)?;
    let bytes = std::fs::read(&tuples)?;
    let mut rest = bytes.as_slice();
    decode_nf_tuple(&mut rest, 3)?;
    std::fs::write(&tuples, rest)?;
    match NfTable::open(&dir, "sc", SharedDictionary::new()) {
        Err(StorageError::Corrupt(msg)) => {
            println!("missing tuple refused by the shard lengths: {msg}")
        }
        Err(e) => panic!("expected a length mismatch, got: {e}"),
        Ok(_) => panic!("a checkpoint missing a tuple must not load"),
    }

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}
