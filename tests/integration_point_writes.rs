//! A point write is a write of one op, the same write a batch of one is.
//!
//! The same stream of point writes (`insert_atoms` / `delete_atoms`,
//! no-ops worked in) costs the same §4 work whatever the tiling — what a
//! write probes follows its outer key's slice, not the segment it lands
//! in — and leaves the same tuples, segments, epochs and counters as
//! the same ops sent one at a time through `append_batch`.

use nf2::core::bulk::Op;
use nf2::prelude::*;
use nf2::storage::TableStats;
use nf2::workload;

const SHARDS: usize = 4;

fn table(base: &workload::Workload, segment_rows: usize) -> NfTable {
    let table = NfTable::from_flat_sharded(
        "sc",
        &base.flat,
        NestOrder::identity(3),
        ShardSpec::hash(SHARDS).unwrap(),
        SharedDictionary::new(),
    )
    .unwrap();
    table.set_segment_rows(segment_rows);
    table
}

fn point_write(table: &NfTable, op: &Op) -> bool {
    match op {
        Op::Insert(row) => table.insert_atoms(row.clone()).unwrap(),
        Op::Delete(row) => table.delete_atoms(row).unwrap(),
    }
}

#[test]
fn point_writes_cost_what_batches_of_one_cost_at_any_tiling() {
    let base = workload::university(200, 3, 30, 2, 40, 5);
    let ops = workload::with_noops(workload::op_trace(&base, 160, 40, 11));
    let fine = table(&base, 64);
    let coarse = table(&base, 4096);
    let batched = table(&base, 64);
    for op in &ops {
        let effective = point_write(&fine, op);
        assert_eq!(point_write(&coarse, op), effective, "{op:?}");
        let (summary, _) = batched.append_batch(std::slice::from_ref(op)).unwrap();
        assert_eq!(summary.noops == 0, effective, "{op:?}");
    }

    let cost = fine.maintenance_cost();
    assert!(cost.compositions > 0 && cost.decompositions > 0, "{cost:?}");
    assert_eq!(
        cost,
        coarse.maintenance_cost(),
        "what a write probes does not follow the segment size"
    );
    assert_eq!(cost, batched.maintenance_cost());

    let (fine, coarse, batched) = (fine.sharded(), coarse.sharded(), batched.sharded());
    for s in 0..SHARDS {
        assert!(
            fine.version(s) == batched.version(s),
            "shard {s}: the same tuple vector and the same segments"
        );
        assert_eq!(
            fine.shard(s).relation().tuples(),
            coarse.shard(s).relation().tuples(),
            "shard {s}"
        );
    }
    fine.verify().unwrap();
    coarse.verify().unwrap();
}

#[test]
fn point_writes_publish_and_count_what_batches_of_one_do() {
    let base = workload::university(60, 2, 10, 2, 6, 9);
    let ops = workload::with_noops(workload::op_trace(&base, 60, 40, 3));
    let (points, batched) = (table(&base, 64), table(&base, 64));
    for op in &ops {
        point_write(&points, op);
        batched.append_batch(std::slice::from_ref(op)).unwrap();
    }
    assert_eq!(points.epoch(), batched.epoch(), "one bump per effective op");
    // Every counter agrees, the write series included; only the time
    // each write took differs.
    let untimed = |stats: TableStats| TableStats {
        write_nanos: 0,
        ..stats
    };
    let (p, b) = (points.stats(), batched.stats());
    assert_eq!(untimed(p), untimed(b));
    assert_eq!(p.writes, ops.len() as u64, "one write per op, no-ops too");
    assert_eq!(
        p.epoch_installs,
        p.inserts + p.deletes,
        "one submit per effective op"
    );
}
