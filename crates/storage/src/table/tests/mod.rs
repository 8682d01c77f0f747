//! The table's unit tests. Each durability test — checkpoint and open
//! round trips, every `open_refuses_*` and `open_rejects_*` case, the
//! WAL's torn-tail and binding cases — runs once on each half of the
//! storage seam ([`Vfs::halves`]) and tampers with files only through
//! it; `faults` replays a scripted run with each file call failing.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::BytesMut;

use nf2_core::bulk::Op;
use nf2_core::maintenance::CostCounter;
use nf2_core::relation::RowBlock;
use nf2_core::schema::NestOrder;
use nf2_core::shard::ShardSpec;
use nf2_core::tuple::{NfTuple, TupleRef, TupleView, ValueSet};
use nf2_core::value::Atom;

use super::persist::{encode_shard, meta_path, read_meta, tuples_path, wal_path, ShardExtent};
use super::{NfTable, TableScan, ZoneCounts};
use crate::codec::{encode_nf_tuple, fnv1a64};
use crate::dictionary::SharedDictionary;
use crate::error::{Result, StorageError};
use crate::vfs::Vfs;

mod faults;

fn temp_dir(fs: &Vfs, tag: &str) -> PathBuf {
    fs.temp_dir(&format!("table_{tag}"))
}

/// Opens `name` from `dir` in `fs` with a fresh dictionary.
fn open(fs: &Vfs, dir: &Path, name: &str) -> Result<NfTable> {
    NfTable::open_in(fs.clone(), dir, name, SharedDictionary::new())
}

fn sample_table() -> NfTable {
    let dict = SharedDictionary::new();
    let t = NfTable::create("sc", &["Student", "Course"], NestOrder::identity(2), dict).unwrap();
    for (s, c) in [("s1", "c1"), ("s2", "c1"), ("s1", "c2"), ("s3", "c3")] {
        assert!(t.insert_row(&[s, c]).unwrap());
    }
    t
}

#[test]
fn insert_compresses_into_nf_tuples() {
    let t = sample_table();
    assert_eq!(t.flat_count(), 4);
    assert!(t.tuple_count() < 4, "students collapse per course");
}

#[test]
fn duplicate_insert_and_missing_delete_are_noops() {
    let t = sample_table();
    assert!(!t.insert_row(&["s1", "c1"]).unwrap());
    assert!(!t.delete_row(&["zz", "c9"]).unwrap());
    assert_eq!(t.flat_count(), 4);
}

#[test]
fn delete_updates_canonical_form() {
    let t = sample_table();
    assert!(t.delete_row(&["s1", "c1"]).unwrap());
    assert_eq!(t.flat_count(), 3);
    let row = t.row_from_strs(&["s1", "c1"]).unwrap();
    assert!(!t.contains(&row));
}

#[test]
fn contains_rejects_rows_of_the_wrong_arity() {
    let t = sharded_table(4);
    let snap = t.snapshot();
    let stored = t.row_from_strs(&["s1", "c1"]).unwrap();
    assert!(t.contains(&stored) && snap.contains(&stored));
    let over_long = [stored.as_slice(), &[Atom(0)]].concat();
    for row in [&stored[..1], over_long.as_slice(), &[]] {
        assert!(!t.contains(row), "{row:?}");
        assert!(!snap.contains(row), "{row:?}");
    }
}

#[test]
fn scan_counts_only_what_it_yields() {
    let t = sample_table();
    let tuples = t.tuple_count();
    assert!(tuples >= 2);
    // A partial scan charges exactly the tuples pulled.
    {
        let mut scan = t.scan();
        assert!(scan.next().is_some());
    }
    let stats = t.stats();
    assert_eq!(stats.lookups, 1);
    assert_eq!(stats.units_probed, 1, "one tuple yielded → one probe");
    // A full drain charges the whole relation.
    assert_eq!(t.scan().count(), tuples);
    assert_eq!(t.stats().units_probed, 1 + tuples as u64);
}

#[test]
fn checkpoint_and_open_round_trips() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "ckpt");
        let t = sample_table().with_vfs(fs.clone());
        t.checkpoint(&dir).unwrap();
        let reopened = open(&fs, &dir, "sc").unwrap();
        assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
        assert_eq!(reopened.flat_count(), 4);
        // Dictionary restored: names resolve.
        let row = reopened.row_from_strs(&["s1", "c1"]).unwrap();
        assert!(reopened.contains(&row));
    }
}

#[test]
fn wal_replay_recovers_unflushed_updates() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "wal");
        let t = sample_table().with_vfs(fs.clone());
        // The WAL logs atoms, so the checkpoint's dictionary must already
        // hold every string the post-checkpoint updates use.
        let s4 = t.row_from_strs(&["s4", "c1"]).unwrap();
        t.checkpoint(&dir).unwrap();
        // Post-checkpoint updates, flushed to WAL only.
        t.insert_atoms(s4).unwrap();
        t.delete_row(&["s3", "c3"]).unwrap();
        t.flush_wal(&dir).unwrap();
        let reopened = open(&fs, &dir, "sc").unwrap();
        assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
        assert_eq!(reopened.flat_count(), 4);
        assert_eq!(
            reopened.maintenance_cost(),
            CostCounter::new(),
            "WAL replay is recovery, not maintenance"
        );
    }
}

#[test]
fn an_unreadable_wal_is_an_error_and_a_missing_one_is_empty() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "wal_unreadable");
        let t = sample_table().with_vfs(fs.clone());
        let s4 = t.row_from_strs(&["s4", "c1"]).unwrap();
        t.checkpoint(&dir).unwrap();
        t.insert_atoms(s4).unwrap();
        t.flush_wal(&dir).unwrap();
        assert_eq!(t.flat_count(), 5);
        // A log that cannot be read must not replay as an empty one.
        let wal = wal_path(&dir, "sc");
        fs.remove(&wal).unwrap();
        fs.create_dir_all(&wal).unwrap();
        match open(&fs, &dir, "sc") {
            Err(StorageError::Io(_)) => {}
            Err(e) => panic!("expected an I/O error, got {e}"),
            Ok(t) => panic!("opened without its log: {} rows", t.flat_count()),
        }
        // A log that was never written is: the checkpoint alone opens.
        fs.remove(&wal).unwrap();
        let reopened = open(&fs, &dir, "sc").unwrap();
        assert_eq!(reopened.flat_count(), 4);
    }
}

#[test]
fn open_rejects_corrupt_meta() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "badmeta");
        let t = sample_table().with_vfs(fs.clone());
        t.checkpoint(&dir).unwrap();
        let meta = meta_path(&dir, "sc");
        let good = fs.read(&meta).unwrap();
        let mut bytes = good.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs.write(&meta, &bytes).unwrap();
        assert!(open(&fs, &dir, "sc").is_err());
        // One format: a body cut short, or run on past its last field,
        // is corrupt even under a valid checksum.
        let body = &good[8..];
        let longer = [body, &[0]].concat();
        for body in [&body[..body.len() - 1], longer.as_slice()] {
            let mut bytes = crate::codec::fnv1a64(body).to_be_bytes().to_vec();
            bytes.extend_from_slice(body);
            fs.write(&meta, &bytes).unwrap();
            let err = open(&fs, &dir, "sc").unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
        }
    }
}

#[test]
fn bulk_load_matches_per_row_inserts() {
    let per_row = sample_table();
    let dict = SharedDictionary::new();
    let bulk = NfTable::bulk_load_strs(
        "sc",
        &["Student", "Course"],
        [("s1", "c1"), ("s2", "c1"), ("s1", "c2"), ("s3", "c3")]
            .iter()
            .map(|(s, c)| vec![*s, *c])
            .collect::<Vec<_>>(),
        NestOrder::identity(2),
        dict,
    )
    .unwrap();
    // Same value space (fresh dictionaries intern in the same order),
    // so the relations are directly comparable.
    assert_eq!(bulk.snapshot().canonical(), per_row.snapshot().canonical());
    assert_eq!(bulk.stats().inserts, 4);
    // The shared dictionary resolves bulk-loaded values.
    let row = bulk.row_from_strs(&["s1", "c2"]).unwrap();
    assert!(bulk.contains(&row));
}

#[test]
fn bulk_load_checks_arity() {
    let dict = SharedDictionary::new();
    let bad = NfTable::bulk_load_strs(
        "sc",
        &["Student", "Course"],
        vec![vec!["s1"]],
        NestOrder::identity(2),
        dict,
    );
    assert!(bad.is_err());
}

#[test]
fn a_row_of_the_wrong_arity_mid_load_loads_nothing() {
    let dict = SharedDictionary::new();
    let rows = vec![
        vec!["s1", "c1"],
        vec!["s2", "c2"],
        vec!["s3"],
        vec!["s4", "c4"],
    ];
    let bad = NfTable::bulk_load_strs_sharded(
        "sc",
        &["Student", "Course"],
        rows,
        NestOrder::identity(2),
        ShardSpec::hash(3).unwrap(),
        dict.clone(),
    );
    assert!(
        matches!(
            bad,
            Err(StorageError::Model(
                nf2_core::error::NfError::ArityMismatch {
                    expected: 2,
                    got: 1
                }
            ))
        ),
        "{bad:?}"
    );
    // The load interned up to the row it refused, in row and then
    // attribute order, and stopped there.
    let interned: Vec<String> = (0..dict.len() as u32)
        .map(|id| dict.resolve(Atom(id)).unwrap())
        .collect();
    assert_eq!(interned, ["s1", "c1", "s2", "c2", "s3"]);
}

#[test]
fn a_load_whose_rows_use_its_dictionary_completes_with_the_same_atoms() {
    // 3 000 rows: the load interns them in three chunks.
    let rows: Vec<[String; 2]> = (0..3_000)
        .map(|i| [format!("s{}", i % 1_400), format!("c{}", i % 13)])
        .collect();
    let load = |dict: &SharedDictionary, use_dict: bool| {
        let fed = rows.iter().map(|row| {
            if use_dict {
                // The iterator runs outside the load's lock: it can read
                // and intern in the dictionary the load interns into.
                let held = dict.lookup(&row[0]);
                let atom = dict.intern(&row[0]);
                assert!(held.is_none_or(|held| held == atom));
                dict.intern(&row[1]);
            }
            row.iter().map(String::as_str).collect()
        });
        NfTable::bulk_load_strs_sharded(
            "sc",
            &["Student", "Course"],
            fed,
            NestOrder::identity(2),
            ShardSpec::hash(3).unwrap(),
            dict.clone(),
        )
        .unwrap()
    };
    let (busy, plain) = (SharedDictionary::new(), SharedDictionary::new());
    let (busy_table, plain_table) = (load(&busy, true), load(&plain, false));
    let names =
        |dict: &SharedDictionary| dict.read(|d| d.names().map(str::to_owned).collect::<Vec<_>>());
    assert_eq!(names(&busy), names(&plain), "the same atom for every name");
    assert_eq!(busy.len(), 1_413);
    assert_eq!(
        busy_table.snapshot().canonical(),
        plain_table.snapshot().canonical()
    );
}

#[test]
fn zero_arity_and_empty_loads_hold_what_they_were_given() {
    for (rows, held) in [(0usize, 0u128), (1, 1), (3, 1)] {
        let unit = NfTable::bulk_load_atoms_sharded(
            "u",
            &[],
            vec![Vec::new(); rows],
            NestOrder::identity(0),
            ShardSpec::hash(2).unwrap(),
            SharedDictionary::new(),
        )
        .unwrap();
        assert_eq!(unit.flat_count(), held, "{rows} unit rows");
        assert_eq!(unit.stats().inserts as u128, held);
        assert_eq!(unit.tuple_count() as u128, held);
    }
    let empty = NfTable::bulk_load_strs_sharded(
        "sc",
        &["Student", "Course"],
        Vec::<Vec<&str>>::new(),
        NestOrder::identity(2),
        ShardSpec::hash(4).unwrap(),
        SharedDictionary::new(),
    )
    .unwrap();
    assert_eq!(empty.flat_count(), 0);
    assert_eq!(empty.stats().inserts, 0);
    assert!(empty.snapshot().canonical().is_empty());
}

#[test]
fn a_load_that_repeats_rows_holds_each_once() {
    let distinct = [("s1", "c1"), ("s2", "c1"), ("s1", "c2"), ("s3", "c3")];
    // Every row three times, the copies spread over the input.
    let repeated: Vec<Vec<&str>> = (0..3)
        .flat_map(|_| distinct.iter().map(|(s, c)| vec![*s, *c]))
        .collect();
    for shards in [1, 3] {
        let once = NfTable::bulk_load_strs_sharded(
            "sc",
            &["Student", "Course"],
            distinct.iter().map(|(s, c)| vec![*s, *c]),
            NestOrder::identity(2),
            ShardSpec::hash(shards).unwrap(),
            SharedDictionary::new(),
        )
        .unwrap();
        let thrice = NfTable::bulk_load_strs_sharded(
            "sc",
            &["Student", "Course"],
            repeated.clone(),
            NestOrder::identity(2),
            ShardSpec::hash(shards).unwrap(),
            SharedDictionary::new(),
        )
        .unwrap();
        assert_eq!(thrice.flat_count(), 4, "{shards} shards");
        assert_eq!(thrice.stats().inserts, 4);
        assert_eq!(thrice.snapshot().canonical(), once.snapshot().canonical());
        let (thrice, once) = (thrice.snapshot(), once.snapshot());
        for s in 0..shards {
            assert!(thrice
                .version()
                .shard(s)
                .tuples()
                .eq(once.version().shard(s).tuples()));
        }
    }
}

#[test]
fn append_batch_is_atomic_on_arity_errors() {
    let t = sample_table();
    let before = t.snapshot().canonical();
    let good = t.row_from_strs(&["s9", "c9"]).unwrap();
    let bad = vec![t.dict().intern("s9")]; // arity 1 against a 2-ary schema
    let ops = vec![Op::Insert(good.clone()), Op::Insert(bad)];
    assert!(t.append_batch(&ops).is_err());
    // Nothing was applied or logged: the valid prefix did not land.
    assert_eq!(t.snapshot().canonical(), before);
    assert!(!t.contains(&good));
    assert_eq!(t.stats().inserts, 4, "only the seed inserts counted");
}

#[test]
fn append_batch_maintains_canonical_form_and_wal() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "append");
        let t = sample_table().with_vfs(fs.clone());
        // Every batch's rows are interned before the checkpoint, so its
        // dictionary resolves the atoms the WAL logs.
        let mk = |s: &str, c: &str, t: &NfTable| t.row_from_strs(&[s, c]).unwrap();
        let small = vec![Op::Insert(mk("s4", "c1", &t))];
        let big: Vec<Op> = (0..12)
            .map(|i| Op::Insert(mk(&format!("x{i}"), "c9", &t)))
            .collect();
        let every: Vec<Op> = ["c1", "c2", "c3", "c9"]
            .iter()
            .map(|c| Op::Insert(mk("s9", c, &t)))
            .collect();
        t.checkpoint(&dir).unwrap();
        // The seeding point writes are writes too: count from here.
        let seeded = t.stats();
        let regrouped = || t.stats().write_tuples_regrouped - seeded.write_tuples_regrouped;
        // One op under a stored course: the tuple holding c1 regroups,
        // the other two are left where they are.
        let (summary, whole) = t.append_batch(&small).unwrap();
        assert!(!whole, "one key of three");
        assert_eq!(summary.inserted, 1);
        assert_eq!(regrouped(), 1);
        // A batch bigger than the table, all under a course nothing
        // stored holds: no stored tuple regroups at all.
        let (summary, whole) = t.append_batch(&big).unwrap();
        assert!(!whole, "12 ops vs 5 rows, and nothing to re-nest");
        assert_eq!(summary.inserted, 12);
        assert_eq!(t.flat_count(), 17);
        assert_eq!(regrouped(), 1);
        // One row under every stored course: every tuple regroups.
        let (summary, whole) = t.append_batch(&every).unwrap();
        assert!(whole, "a batch over every key is the re-nest");
        assert_eq!(summary.inserted, 4);
        let stats = t.stats();
        assert_eq!(
            (
                stats.writes - seeded.writes,
                stats.write_keys - seeded.write_keys
            ),
            (3, 6)
        );
        assert_eq!(regrouped(), 1 + 4);
        assert_eq!(
            stats.write_segments_rebuilt - seeded.write_segments_rebuilt,
            3,
            "one segment, thrice"
        );
        assert!(stats.write_nanos > seeded.write_nanos);
        // The maintained form stays canonical throughout.
        assert!(nf2_core::nest::is_canonical(
            &t.snapshot().canonical(),
            t.order()
        ));
        // WAL replay after reopen reproduces the same relation.
        t.flush_wal(&dir).unwrap();
        let reopened = open(&fs, &dir, "sc").unwrap();
        assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
    }
}

#[test]
fn maintenance_costs_accumulate() {
    let t = sample_table();
    let cost = t.maintenance_cost();
    assert!(cost.recons_calls >= 4, "one recons per insert at least");
}

/// A sharded twin of [`sample_table`] plus extra rows so several
/// shards are populated.
fn sharded_table(shards: usize) -> NfTable {
    let dict = SharedDictionary::new();
    let t = NfTable::create_sharded(
        "sc",
        &["Student", "Course"],
        NestOrder::identity(2),
        ShardSpec::hash(shards).unwrap(),
        dict,
    )
    .unwrap();
    for (s, c) in [
        ("s1", "c1"),
        ("s2", "c1"),
        ("s1", "c2"),
        ("s3", "c3"),
        ("s2", "c4"),
        ("s3", "c5"),
    ] {
        assert!(t.insert_row(&[s, c]).unwrap());
    }
    t
}

#[test]
fn sharded_table_serves_the_global_canonical_form() {
    let sharded = sharded_table(4);
    assert_eq!(sharded.shard_count(), 4);
    // The merged snapshot must equal the canonical form of the same
    // rows on a single-shard table.
    let dict = SharedDictionary::new();
    let plain =
        NfTable::create("sc", &["Student", "Course"], NestOrder::identity(2), dict).unwrap();
    for (s, c) in [
        ("s1", "c1"),
        ("s2", "c1"),
        ("s1", "c2"),
        ("s3", "c3"),
        ("s2", "c4"),
        ("s3", "c5"),
    ] {
        plain.insert_row(&[s, c]).unwrap();
    }
    assert_eq!(sharded.snapshot().canonical(), plain.snapshot().canonical());
    assert_eq!(sharded.flat_count(), 6);
    // The concatenated scan yields every shard's tuples (possibly
    // more than the merged count, never fewer).
    let scanned = sharded.scan().count();
    assert!(scanned >= sharded.tuple_count());
    assert_eq!(
        sharded
            .scan()
            .map(|t| t.as_ref().expansion_count())
            .sum::<u128>(),
        6,
        "same R* through the concatenated stream"
    );
}

#[test]
fn sharded_append_batch_and_deletes_stay_canonical() {
    let t = sharded_table(3);
    let big: Vec<Op> = (0..12)
        .map(|i| {
            Op::Insert(
                t.row_from_strs(&[&format!("x{i}"), &format!("c{}", i % 5)])
                    .unwrap(),
            )
        })
        .collect();
    let (summary, _) = t.append_batch(&big).unwrap();
    assert_eq!(summary.inserted, 12);
    assert!(t.delete_row(&["s1", "c1"]).unwrap());
    assert!(
        nf2_core::nest::is_canonical(&t.snapshot().canonical(), t.order()),
        "the merge tracks every mutation"
    );
    t.sharded().verify().unwrap();
    // Per-shard cost breakdown sums to the total.
    let breakdown = t.maintenance_breakdown();
    let sum: u64 = breakdown.per_shard.iter().map(|c| c.candidate_probes).sum();
    assert_eq!(sum, breakdown.total.candidate_probes);
}

#[test]
fn scan_shards_prunes_and_counts_probes_exactly() {
    let t = sharded_table(4);
    // Routing attribute is Course (P(n−1) under the identity order).
    assert_eq!(t.routing().attr(), Some(1));
    let c1 = t.dict().lookup("c1").unwrap();
    let shard = t.routing().spec().route_value(c1);
    let expected = t.sharded().shard(shard).tuple_count();
    assert!(expected >= 1);

    // The pruned scan yields exactly that shard's tuples and charges
    // exactly that many probes under exactly one lookup.
    let before = t.stats();
    assert_eq!(t.snapshot().scan_shards(&[shard]).count(), expected);
    let after = t.stats();
    assert_eq!(after.units_probed - before.units_probed, expected as u64);
    assert_eq!(after.lookups - before.lookups, 1, "one scan, one counter");

    // Every yielded tuple can actually hold c1 rows' shard-mates.
    for tuple in t.snapshot().scan_shards(&[shard]) {
        for v in tuple.as_ref().component(1).iter() {
            assert_eq!(t.routing().spec().route_value(v), shard);
        }
    }

    // Degenerate sets: nothing scanned, out-of-range ignored.
    assert_eq!(t.snapshot().scan_shards(&[]).count(), 0);
    assert_eq!(t.snapshot().scan_shards(&[99]).count(), 0);

    // A take(1) stopping mid-shard across a multi-shard
    // concatenation charges exactly one probe — per-shard streams
    // must never double-count.
    let before = t.stats();
    {
        let mut scan = t.snapshot().scan_shards(&[0, 1, 2, 3]);
        assert!(scan.next().is_some());
    }
    let after = t.stats();
    assert_eq!(after.units_probed - before.units_probed, 1);
    assert_eq!(after.lookups - before.lookups, 1);

    // scan() over all shards ≡ scan_shards(all).
    let all: Vec<usize> = (0..t.shard_count()).collect();
    assert_eq!(t.scan().count(), t.snapshot().scan_shards(&all).count());

    // The router's value-set API unions, sorts and dedups.
    let vals: Vec<Atom> = ["c1", "c3", "c1"]
        .iter()
        .map(|s| t.dict().lookup(s).unwrap())
        .collect();
    let shards = t.routing().shards_for_values(&vals);
    assert!(shards.windows(2).all(|w| w[0] < w[1]), "{shards:?}");
    assert!(shards.contains(&shard));
}

#[test]
fn merged_cache_refreshes_after_noop_and_compensating_mutations() {
    // A rollback commits the inverses of ops that took effect: an
    // inverse applied to exactly the state it inverts changes it,
    // and the merge of the compensated state is the one before.
    // No-op writes leave the shards and the epoch where they were.
    let t = sharded_table(3);
    let before = t.snapshot().canonical();
    let epoch_before = t.epoch();
    t.insert_row(&["s9", "c9"]).unwrap();
    assert_eq!(t.epoch(), epoch_before + 1, "state change bumps the epoch");
    assert_ne!(t.snapshot().canonical(), before);
    t.delete_row(&["s9", "c9"]).unwrap(); // compensate
    assert_eq!(
        t.snapshot().canonical(),
        before,
        "compensation restores the merge"
    );
    let fresh = nf2_core::nest::canonical_of_flat(&before.expand(), t.order());
    assert_eq!(t.snapshot().canonical(), fresh);
    // No-op duplicate insert / missing delete.
    let epoch = t.epoch();
    assert!(!t.insert_row(&["s1", "c1"]).unwrap());
    assert!(!t.delete_row(&["zz", "zz"]).unwrap());
    assert_eq!(t.epoch(), epoch, "no-ops do not bump the epoch");
    assert_eq!(t.snapshot().canonical(), before);
}

/// [`sharded_table`] over three shards at two tuples per segment,
/// after point writes — each new course a new tuple — that grew,
/// split and shrank segments away from the uniform tiling.
fn drifted_table() -> NfTable {
    let t = sharded_table(3);
    t.set_segment_rows(2);
    for i in 0..24 {
        t.insert_row(&[&format!("p{i}"), &format!("c{i}")]).unwrap();
    }
    for i in (0..24).step_by(3) {
        t.delete_row(&[&format!("p{i}"), &format!("c{i}")]).unwrap();
    }
    let store = t.sharded();
    let drifted = (0..3).any(|s| match store.shard_segments(s).segments().split_last() {
        Some((_, leading)) => leading.iter().any(|seg| seg.rows() != 2),
        None => false,
    });
    assert!(drifted, "point writes moved a segment boundary");
    t
}

#[test]
fn a_checkpoint_is_not_a_state_change() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "ckpt_reads_only");
        let t = drifted_table().with_vfs(fs.clone());
        let epoch = t.epoch();
        let before = t.snapshot();
        t.checkpoint(&dir).unwrap();
        assert_eq!(t.epoch(), epoch);
        let after = t.snapshot();
        for s in 0..3 {
            assert!(
                Arc::ptr_eq(before.version().shard(s), after.version().shard(s)),
                "shard {s}: the checkpoint published no version"
            );
        }
    }
}

#[test]
fn sharded_checkpoint_restores_spec_and_state() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "sharded_ckpt");
        // The checkpoint stores the drifted shards as they are; the
        // reopen rebuilds them at the uniform tiling.
        let t = drifted_table().with_vfs(fs.clone());
        let s9 = t.row_from_strs(&["s9", "c9"]).unwrap();
        t.checkpoint(&dir).unwrap();
        t.sharded().verify().unwrap();
        let checkpointed = open(&fs, &dir, "sc").unwrap();
        assert_eq!(
            checkpointed.snapshot().canonical(),
            t.snapshot().canonical()
        );
        t.insert_atoms(s9).unwrap();
        t.flush_wal(&dir).unwrap();
        let reopened = open(&fs, &dir, "sc").unwrap();
        assert_eq!(reopened.shard_count(), 3, "spec survives the round trip");
        assert_eq!(reopened.shard_spec(), t.shard_spec());
        assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
        reopened.sharded().verify().unwrap();
    }
}

#[test]
fn concurrent_point_writers_commit_on_distinct_shards() {
    let t = sharded_table(4);
    let start = t.flat_count();
    // Four writer threads, each hammering its own set of rows. The
    // lanes let them commit in parallel; the coalescing submit may
    // batch racing publications, so the epoch advances by at most —
    // and usually fewer than — the number of state changes.
    let rounds = 50u32;
    std::thread::scope(|scope| {
        for w in 0..4u32 {
            let t = &t;
            scope.spawn(move || {
                for i in 0..rounds {
                    t.insert_row(&[&format!("w{w}_{i}"), &format!("c{w}x{i}")])
                        .expect("concurrent insert routes cleanly");
                }
            });
        }
    });
    assert_eq!(t.flat_count(), start + u128::from(4 * rounds));
    let inserted = u64::from(4 * rounds);
    assert!(t.epoch() <= inserted + 6, "one bump max per state change");
    assert_eq!(t.stats().inserts, 6 + inserted);
    assert!(
        nf2_core::nest::is_canonical(&t.snapshot().canonical(), t.order()),
        "storm preserves canonical form"
    );
    t.sharded().verify().unwrap();
}

#[test]
fn pinned_snapshots_survive_point_writes_and_new_versions_share_tuples() {
    let t = segmented_table(4, 400);
    let pinned = t.snapshot();
    let original: Vec<NfTuple> = pinned.scan().map(TupleView::into_owned).collect();

    // N point writes, all routed to one shard (one B value).
    let shard = t
        .routing()
        .route_row(&t.row_from_strs(&["x", "b0007"]).unwrap());
    for i in 0..20 {
        assert!(t.insert_row(&[&format!("w{i:02}"), "b0007"]).unwrap());
    }
    for i in (0..20).step_by(2) {
        assert!(t.delete_row(&[&format!("w{i:02}"), "b0007"]).unwrap());
    }

    // The pinned snapshot still scans exactly its original tuples.
    let replay: Vec<NfTuple> = pinned.scan().map(TupleView::into_owned).collect();
    assert_eq!(replay, original);

    // The current version shares what the writes did not touch:
    // other shards by version pointer; in the written shard every
    // tuple but the one the new values composed into is kept.
    let now = t.snapshot();
    assert_eq!(
        now.epoch(),
        pinned.epoch() + 30,
        "one bump per state-changing write"
    );
    for s in 0..4 {
        let (old, new) = (pinned.version().shard(s), now.version().shard(s));
        assert_eq!(Arc::ptr_eq(old, new), s != shard, "shard {s}");
    }
    let (old, new): (Vec<TupleRef<'_>>, Vec<TupleRef<'_>>) = (
        pinned.version().shard(shard).tuples().collect(),
        now.version().shard(shard).tuples().collect(),
    );
    let kept = old.iter().filter(|o| new.contains(o)).count();
    assert_eq!(kept, old.len() - 1, "only the b0007 tuple was rebuilt");
    assert_eq!(new.len(), old.len());
    t.sharded().verify().unwrap();
}

#[test]
fn wal_flushes_count_once_per_write_and_record_group_size() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "group_stats");
        let t = sample_table().with_vfs(fs.clone());
        assert_eq!(t.stats().wal_flushes, 0);
        t.flush_wal(&dir).unwrap();
        assert_eq!(t.stats().wal_flushes, 1, "four entries, one write");
        // Nothing new buffered: the flush is a no-op and must not count.
        t.flush_wal(&dir).unwrap();
        assert_eq!(t.stats().wal_flushes, 1, "already-durable group is free");
        t.insert_row(&["s7", "c7"]).unwrap();
        t.flush_wal(&dir).unwrap();
        assert_eq!(t.stats().wal_flushes, 2);
    }
}

#[test]
fn wal_bytes_are_what_the_log_file_grew_by() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "wal_bytes");
        let t = sample_table().with_vfs(fs.clone());
        t.checkpoint(&dir).unwrap();
        assert_eq!(t.stats().wal_bytes, 0, "a checkpoint is not a flush");
        // Each flush appends its one row: the log file is exactly the
        // sum of the groups, where a whole-log rewrite would have
        // written every growing prefix again.
        for i in 0..5 {
            t.insert_row(&[&format!("w{i}"), "c1"]).unwrap();
            t.flush_wal(&dir).unwrap();
        }
        let stats = t.stats();
        assert_eq!(stats.wal_flushes, 5);
        let file = fs.read(&wal_path(&dir, "sc")).unwrap().len() as u64;
        assert!(file > 0);
        assert_eq!(stats.wal_bytes, file);
    }
}

#[test]
fn torn_wal_tail_recovers_last_durable_prefix() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "torn");
        let t = sample_table().with_vfs(fs.clone());
        let s5 = t.row_from_strs(&["s5", "c5"]).unwrap();
        let s6 = t.row_from_strs(&["s6", "c6"]).unwrap();
        t.checkpoint(&dir).unwrap();
        // Two post-checkpoint entries; remember the byte boundary after
        // the first so we can tear the file inside the second.
        t.insert_atoms(s5).unwrap();
        t.flush_wal(&dir).unwrap();
        let boundary = fs.read(&wal_path(&dir, "sc")).unwrap().len() as u64;
        t.insert_atoms(s6).unwrap();
        t.flush_wal(&dir).unwrap();
        let full = fs.read(&wal_path(&dir, "sc")).unwrap();
        assert!(full.len() > boundary as usize);
        // Crash mid-group: only part of the second entry hit the disk.
        fs.write(&wal_path(&dir, "sc"), &full[..boundary as usize + 1])
            .unwrap();
        let reopened = open(&fs, &dir, "sc").unwrap();
        let s5 = reopened.row_from_strs(&["s5", "c5"]).unwrap();
        assert!(reopened.contains(&s5), "durable prefix replayed");
        assert_eq!(reopened.flat_count(), 5, "torn entry not applied");
    }
}

#[test]
fn a_flush_after_a_torn_tail_lands_after_the_durable_prefix() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "torn_append");
        let t = sample_table().with_vfs(fs.clone());
        let s5 = t.row_from_strs(&["s5", "c5"]).unwrap();
        let s6 = t.row_from_strs(&["s6", "c6"]).unwrap();
        // The reopened table inserts s7 below; its dictionary is the
        // checkpoint's, so the strings are interned before it.
        t.row_from_strs(&["s7", "c7"]).unwrap();
        t.checkpoint(&dir).unwrap();
        t.insert_atoms(s5).unwrap();
        t.flush_wal(&dir).unwrap();
        let boundary = fs.read(&wal_path(&dir, "sc")).unwrap().len() as u64;
        t.insert_atoms(s6).unwrap();
        t.flush_wal(&dir).unwrap();
        drop(t);
        // Crash mid-group: only part of the second entry hit the disk.
        let full = fs.read(&wal_path(&dir, "sc")).unwrap();
        fs.write(&wal_path(&dir, "sc"), &full[..boundary as usize + 1])
            .unwrap();
        // The reopened log cuts the torn byte before it appends; behind
        // it, the new entry would be lost to the next replay.
        let r1 = open(&fs, &dir, "sc").unwrap();
        assert_eq!(r1.flat_count(), 5, "torn entry not applied");
        assert!(r1.insert_row(&["s7", "c7"]).unwrap());
        r1.flush_wal(&dir).unwrap();
        drop(r1);
        let r2 = open(&fs, &dir, "sc").unwrap();
        assert_eq!(r2.flat_count(), 6);
        for row in [["s5", "c5"], ["s7", "c7"]] {
            let atoms = r2.row_from_strs(&row).unwrap();
            assert!(r2.contains(&atoms), "{row:?} replayed");
        }
    }
}

#[test]
fn a_table_logs_to_one_directory() {
    for fs in Vfs::halves() {
        let (dir, other) = (temp_dir(&fs, "bound"), temp_dir(&fs, "bound_other"));
        let t = sample_table().with_vfs(fs.clone());
        t.checkpoint(&dir).unwrap();
        t.insert_row(&["s7", "c7"]).unwrap();
        assert!(matches!(t.flush_wal(&other), Err(StorageError::Io(_))));
        assert!(fs.read(&wal_path(&other, "sc")).is_err(), "no second log");
        t.flush_wal(&dir).unwrap();
        // A reopened table is bound to the directory it replayed.
        let reopened = open(&fs, &dir, "sc").unwrap();
        assert_eq!(reopened.flat_count(), 5);
        reopened.delete_row(&["s7", "c7"]).unwrap();
        assert!(matches!(
            reopened.flush_wal(&other),
            Err(StorageError::Io(_))
        ));
        reopened.flush_wal(&dir).unwrap();
    }
}

#[test]
fn reopened_table_keeps_replayed_wal_across_flushes() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "reseed");
        let t = sample_table().with_vfs(fs.clone());
        let s5 = t.row_from_strs(&["s5", "c5"]).unwrap();
        // The reopened table inserts s6 below; its dictionary is the
        // checkpoint's, so the strings are interned before it.
        t.row_from_strs(&["s6", "c6"]).unwrap();
        t.checkpoint(&dir).unwrap();
        t.insert_atoms(s5).unwrap();
        t.flush_wal(&dir).unwrap();
        // First reopen replays s5 from the WAL; a flush after another
        // insert must keep s5 in the log (the reopened log knows the
        // replayed prefix's length and appends behind it).
        let r1 = open(&fs, &dir, "sc").unwrap();
        r1.insert_row(&["s6", "c6"]).unwrap();
        r1.flush_wal(&dir).unwrap();
        let r2 = open(&fs, &dir, "sc").unwrap();
        assert_eq!(r2.flat_count(), 6);
        let s5 = r2.row_from_strs(&["s5", "c5"]).unwrap();
        assert!(r2.contains(&s5), "replayed entry survives the next flush");
    }
}

/// A bulk-loaded table (fresh segments) with clustered values:
/// `A` ascends with the `B` group so segment zone maps are tight.
fn segmented_table(shards: usize, rows: usize) -> NfTable {
    let dict = SharedDictionary::new();
    let data: Vec<Vec<String>> = (0..rows)
        .map(|i| vec![format!("a{i:05}"), format!("b{:04}", i / 8)])
        .collect();
    let refs: Vec<Vec<&str>> = data
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    let t = NfTable::bulk_load_strs_sharded(
        "t",
        &["A", "B"],
        refs,
        NestOrder::identity(2),
        ShardSpec::hash(shards).unwrap(),
        dict,
    )
    .unwrap();
    t.set_segment_rows(16);
    t
}

#[test]
fn zoned_scan_skips_segments_and_counts_them() {
    let t = segmented_table(1, 400);
    let total_segments = t.sharded().shard_segments(0).segment_count();
    assert!(total_segments > 3, "400 rows at 16/segment tile widely");
    // A tight predicate on the non-routing attribute A: values from
    // one narrow window of the clustered layout.
    let vals = ValueSet::new(vec![t.dict().lookup("a00007").unwrap()])
        .expect("looked-up atoms form a set");
    let zones = vec![(0usize, vals)];
    let before = t.stats();
    let full = t.snapshot().scan_shards(&[0]).count();
    let zoned = t.snapshot().scan_shards_zoned(&[0], &zones).count();
    let after = t.stats();
    assert_eq!(zoned, 1, "A values are unique: one tuple is located");
    // Probe accounting: the zoned scan charged only what it yielded,
    // and tallied every segment that located nothing.
    assert_eq!(
        after.units_probed - before.units_probed,
        (full + zoned) as u64
    );
    let skipped = after.segments_skipped - before.segments_skipped;
    assert_eq!(skipped as usize, total_segments - 1);
    let counts = t.snapshot().zone_skip_counts(&[0], &zones);
    assert_eq!(
        counts,
        vec![ZoneCounts {
            skipped: skipped as usize,
            segments: total_segments,
            located: zoned,
        }]
    );
    // Exactness: the zoned scan yields every actually-matching tuple
    // and nothing else.
    let target = t.dict().lookup("a00007").unwrap();
    let matches_full = t
        .snapshot()
        .scan_shards(&[0])
        .filter(|tp| tp.as_ref().component(0).contains(target))
        .count();
    let zones2 = vec![(
        0usize,
        ValueSet::new(vec![target]).expect("one atom forms a set"),
    )];
    let matches_zoned = t
        .snapshot()
        .scan_shards_zoned(&[0], &zones2)
        .filter(|tp| tp.as_ref().component(0).contains(target))
        .count();
    assert_eq!(matches_full, matches_zoned);
    assert_eq!(matches_zoned, zoned);
}

#[test]
fn point_writes_keep_zone_skipping() {
    let t = segmented_table(1, 200);
    let vals = ValueSet::new(vec![t.dict().lookup("a00003").unwrap()])
        .expect("looked-up atoms form a set");
    let zones = vec![(0usize, vals)];
    let zoned_before = t.snapshot().scan_shards_zoned(&[0], &zones).count();
    assert_eq!(zoned_before, 1);
    // A point insert re-encodes the one segment it lands in (the
    // located tuple's own); every other segment keeps refuting the
    // predicate, and the zoned scan still sees exactly the tuples
    // the full scan would match.
    t.insert_row(&["zz", "b0000"]).unwrap();
    t.sharded().verify().unwrap();
    let before = t.stats().segments_skipped;
    let zoned = t.snapshot().scan_shards_zoned(&[0], &zones).count();
    assert_eq!(zoned, zoned_before, "the new tuple does not hold a00003");
    let skipped = t.stats().segments_skipped - before;
    let counts = t.snapshot().zone_skip_counts(&[0], &zones)[0];
    assert_eq!(skipped as usize, counts.segments - 1);
    assert_eq!((counts.skipped as u64, counts.located), (skipped, zoned));
    let target = t.dict().lookup("a00003").unwrap();
    let hits = |scan: TableScan| {
        scan.filter(|tp| tp.as_ref().component(0).contains(target))
            .count()
    };
    assert_eq!(
        hits(t.snapshot().scan_shards_zoned(&[0], &zones)),
        hits(t.snapshot().scan_shards(&[0]))
    );
}

/// Rewrites `t`'s checkpoint in `dir` from `shards`, re-signed: a
/// tuple file, and a meta whose extents and checksum describe it, so
/// every check `open` makes before the rebuild passes.
fn re_sign(t: &NfTable, dir: &Path, shards: &[Vec<NfTuple>]) {
    let mut tuples = BytesMut::new();
    let extents: Vec<ShardExtent> = shards
        .iter()
        .map(|shard| encode_shard(shard.iter().map(NfTuple::as_ref), &mut tuples))
        .collect();
    let meta = t.encode_meta(&extents, t.lock_all_lanes()[0].segment_rows());
    t.vfs.write(&meta_path(dir, t.name()), &meta).unwrap();
    t.vfs.write(&tuples_path(dir, t.name()), &tuples).unwrap();
}

#[test]
fn a_checkpoint_writes_each_shard_as_its_owned_tuples_encode() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "pinned_bytes");
        // Sets of eight, past the inline capacity; point writes patch
        // chunks in every shard, so carried runs are checkpointed too.
        let t = segmented_table(4, 300).with_vfs(fs.clone());
        for i in 0..12 {
            let (a, b) = (format!("z{i:02}"), format!("b{:04}", 3 * i));
            assert!(t.insert_row(&[&a, &b]).unwrap());
        }
        t.checkpoint(&dir).unwrap();
        let store = t.sharded();
        let mut read_in_place = BytesMut::new();
        for s in 0..4 {
            let owned = store.shard(s);
            let mut from_owned = BytesMut::new();
            for tuple in owned.relation().tuples() {
                encode_nf_tuple(tuple.as_ref(), &mut from_owned);
            }
            let start = read_in_place.len();
            let extent = encode_shard(store.version(s).tuples(), &mut read_in_place);
            assert_eq!(extent.tuples, owned.tuple_count() as u64, "shard {s}");
            assert_eq!(&read_in_place[start..], &from_owned[..], "shard {s}");
        }
        let file = fs.read(&tuples_path(&dir, "t")).unwrap();
        assert_eq!(
            &file[..],
            &read_in_place[..],
            "the checkpoint is those bytes"
        );
        let reopened = open(&fs, &dir, "t").unwrap();
        for s in 0..4 {
            assert!(
                reopened
                    .sharded()
                    .version(s)
                    .tuples()
                    .eq(store.version(s).tuples()),
                "shard {s} reopens as the same tuples"
            );
        }
    }
}

/// Opening `name` in `dir` fails as `Corrupt`, naming `shard`, and
/// leaves the dictionary it was given empty.
fn assert_refused(fs: &Vfs, dir: &Path, name: &str, shard: usize) {
    let dict = SharedDictionary::new();
    let err = NfTable::open_in(fs.clone(), dir, name, dict.clone()).unwrap_err();
    assert!(dict.is_empty(), "a refused open interns nothing");
    let named = format!("shard {shard}:");
    assert!(
        matches!(&err, StorageError::Corrupt(msg) if msg.starts_with(&named)),
        "{err:?}"
    );
}

#[test]
fn open_refuses_a_re_signed_checkpoint_that_misplaces_a_tuple() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "re_signed");
        let t = segmented_table(2, 300).with_vfs(fs.clone());
        t.checkpoint(&dir).unwrap();
        let reopened = open(&fs, &dir, "t").unwrap();
        assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
        for s in 0..2 {
            assert_eq!(
                reopened.sharded().shard_segments(s).segment_count(),
                t.sharded().shard_segments(s).segment_count(),
                "persisted tiling target survives the round trip"
            );
        }
        // Re-signing the shards as the table holds them is a valid
        // checkpoint.
        let store = t.sharded();
        let mut shards: Vec<Vec<NfTuple>> = (0..2)
            .map(|s| store.version(s).tuples().map(|t| t.into_owned()).collect())
            .collect();
        re_sign(&t, &dir, &shards);
        open(&fs, &dir, "t").unwrap();
        // One tuple moves from shard 1's range to the end of shard 0's.
        // Every count, length and digest and the meta checksum describe
        // the file, and the rows are the same; only the rebuild, which
        // routes the tuple back to shard 1, sees it.
        let moved = shards[1].remove(0);
        shards[0].push(moved);
        re_sign(&t, &dir, &shards);
        assert_refused(&fs, &dir, "t", 0);
    }
}

#[test]
fn open_refuses_a_flipped_byte_naming_its_shard() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "flipped_byte");
        let t = segmented_table(4, 300).with_vfs(fs.clone());
        t.checkpoint(&dir).unwrap();
        let path = tuples_path(&dir, "t");
        let good = fs.read(&path).unwrap();
        // A flipped byte inside each shard's range names that shard.
        let meta = read_meta(&fs.read(&meta_path(&dir, "t")).unwrap()).unwrap();
        let mut start = 0;
        for (shard, extent) in meta.shards.iter().enumerate() {
            assert!(extent.bytes > 0, "shard {shard} holds tuples");
            let mut flipped = good.clone();
            flipped[start + extent.bytes as usize / 2] ^= 0x01;
            fs.write(&path, &flipped).unwrap();
            assert_refused(&fs, &dir, "t", shard);
            start += extent.bytes as usize;
        }
        fs.write(&path, &good).unwrap();
        open(&fs, &dir, "t").unwrap();
    }
}

#[test]
fn open_refuses_a_tuple_file_of_the_wrong_length() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "wrong_length");
        let t = segmented_table(4, 300).with_vfs(fs.clone());
        t.checkpoint(&dir).unwrap();
        let path = tuples_path(&dir, "t");
        let good = fs.read(&path).unwrap();
        // A file one byte short or one byte long is refused.
        let longer = [good.as_slice(), &[0]].concat();
        for bytes in [&good[..good.len() - 1], longer.as_slice()] {
            fs.write(&path, bytes).unwrap();
            let err = open(&fs, &dir, "t").unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
        }
        fs.write(&path, &good).unwrap();
        open(&fs, &dir, "t").unwrap();
    }
}

#[test]
fn open_rejects_corrupt_tuple_files() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "corrupt_tuples");
        let t = sample_table().with_vfs(fs.clone());
        t.checkpoint(&dir).unwrap();
        let path = tuples_path(&dir, "sc");
        let good = fs.read(&path).unwrap();
        // The shard digest covers the file's last byte.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        fs.write(&path, &flipped).unwrap();
        assert_refused(&fs, &dir, "sc", 0);
        // A file cut in half, and a missing one, are refused.
        fs.write(&path, &good[..good.len() / 2]).unwrap();
        let err = open(&fs, &dir, "sc").unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
        fs.remove(&path).unwrap();
        assert!(open(&fs, &dir, "sc").is_err());
        fs.write(&path, &good).unwrap();
        let reopened = open(&fs, &dir, "sc").unwrap();
        assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
    }
}

#[test]
fn open_rejects_overlapping_checkpoint_tuples() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "overlap");
        let t = sample_table().with_vfs(fs.clone());
        t.checkpoint(&dir).unwrap();
        // Append a tuple whose expansion repeats a stored row, re-signed
        // so that the shard's re-nest is what refuses it.
        let mut tuples = t.snapshot().canonical().tuples().to_vec();
        let row = t.row_from_strs(&["s1", "c1"]).unwrap();
        tuples.push(NfTuple::from_flat(&row));
        re_sign(&t, &dir, &[tuples]);
        assert_refused(&fs, &dir, "sc", 0);
    }
}

#[test]
fn open_refuses_a_non_canonical_partition() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "non_canonical");
        let t = sample_table().with_vfs(fs.clone());
        t.checkpoint(&dir).unwrap();
        // Split {s1, s2} × {c1} into its two rows: the tuples still
        // partition the same R*, but ν_P(R*) is unique and this is not
        // it.
        let mut tuples = t.snapshot().canonical().tuples().to_vec();
        let at = tuples
            .iter()
            .position(|tuple| tuple.component(0).len() == 2)
            .expect("s1 and s2 share c1");
        let mut rows = RowBlock::with_capacity(t.schema().clone(), 0);
        rows.push_expansion(tuples.remove(at).as_ref()).unwrap();
        for row in rows.rows() {
            tuples.insert(at, NfTuple::from_flat(row));
        }
        re_sign(&t, &dir, &[tuples]);
        assert_refused(&fs, &dir, "sc", 0);
    }
}

#[test]
fn open_refuses_a_dictionary_that_disagrees() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "dict_disagrees");
        let t = sample_table().with_vfs(fs.clone());
        t.checkpoint(&dir).unwrap();
        // The writer's own dictionary holds the checkpoint's strings as a
        // prefix, whatever it interned since: it opens.
        t.dict().intern("interned after the checkpoint");
        let reopened = NfTable::open_in(fs.clone(), &dir, "sc", t.dict().clone()).unwrap();
        assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
        // One whose atom 0 is another string would shift every string
        // the table resolves. The checkpoint's first string sorts before
        // that one: had the refusal interned it, the dictionary would
        // have grown and lost its id order for good.
        let other = SharedDictionary::new();
        other.intern("zz elsewhere");
        assert!(other.is_id_ordered());
        let err = NfTable::open_in(fs.clone(), &dir, "sc", other.clone()).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(msg) if msg.starts_with("atom 0:")),
            "{err:?}"
        );
        assert_eq!(other.len(), 1, "a refused open interns nothing");
        assert!(other.is_id_ordered());
    }
}

#[test]
fn a_tuple_of_any_size_round_trips() {
    for fs in Vfs::halves() {
        // 10 000 students in one course and one club nest into one tuple
        // whose encoding is larger than an 8 KiB page.
        let students: Vec<String> = (0..10_000).map(|i| format!("s{i}")).collect();
        for shards in [1, 4] {
            let dir = temp_dir(&fs, &format!("large_tuple_{shards}"));
            let t = NfTable::bulk_load_strs_sharded(
                "sc",
                &["Student", "Course", "Club"],
                students.iter().map(|s| vec![s.as_str(), "c1", "b1"]),
                NestOrder::identity(3),
                ShardSpec::hash(shards).unwrap(),
                SharedDictionary::new(),
            )
            .unwrap()
            .with_vfs(fs.clone());
            let mut encoded = BytesMut::new();
            encode_nf_tuple(t.snapshot().canonical().tuples()[0].as_ref(), &mut encoded);
            assert_eq!((t.tuple_count(), encoded.len()), (1, 10_006));
            t.checkpoint(&dir).unwrap();
            let reopened = open(&fs, &dir, "sc").unwrap();
            assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
            assert_eq!(reopened.flat_count(), t.flat_count());
        }
    }
}

#[test]
fn a_zero_arity_table_round_trips_its_unit_row() {
    for fs in Vfs::halves() {
        let dir = temp_dir(&fs, "zero_arity");
        let t = NfTable::create("u", &[], NestOrder::identity(0), SharedDictionary::new())
            .unwrap()
            .with_vfs(fs.clone());
        assert!(t.insert_atoms(Vec::new()).unwrap());
        t.checkpoint(&dir).unwrap();
        // The unit tuple encodes to no bytes: only the shard's tuple
        // count tells it from an empty shard.
        assert!(fs.read(&tuples_path(&dir, "u")).unwrap().is_empty());
        let reopened = open(&fs, &dir, "u").unwrap();
        assert_eq!(reopened.flat_count(), 1);
        assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
        // A signed meta claiming more unit tuples than one is refused
        // before the decoder would spin through them.
        let forged = ShardExtent {
            tuples: u64::MAX,
            bytes: 0,
            digest: fnv1a64(&[]),
        };
        let meta = t.encode_meta(&[forged], t.lock_all_lanes()[0].segment_rows());
        fs.write(&meta_path(&dir, "u"), &meta).unwrap();
        assert_refused(&fs, &dir, "u", 0);
    }
}
