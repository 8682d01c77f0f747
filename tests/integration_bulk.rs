//! Integration: update streams across every maintenance path.
//!
//! One generated op trace (workload) is replayed through four engines —
//! §4 incremental batches, the storage-layer `NfTable` op by op and as
//! one keyed `append_batch` over four shards (both WAL-logged), and the
//! re-nest baseline — which must all land on the identical canonical
//! relation.

use nf2::core::bulk::{apply_batch, rebuild_batch, Op};
use nf2::core::maintenance::{CanonicalRelation, CostCounter};
use nf2::core::nest::canonical_of_flat;
use nf2::prelude::*;
use nf2::workload;

fn trace_and_base() -> (workload::Workload, Vec<Op>) {
    let base = workload::university(40, 2, 15, 2, 5, 21);
    let trace = workload::op_trace(&base, 150, 35, 8);
    (base, trace)
}

#[test]
fn four_engines_agree_on_the_final_relation() {
    let (base, trace) = trace_and_base();
    let order = NestOrder::identity(3);

    // Engine 1: incremental batch on CanonicalRelation.
    let mut incremental = CanonicalRelation::from_flat(&base.flat, order.clone()).unwrap();
    let mut cost = CostCounter::new();
    apply_batch(&mut incremental, &trace, &mut cost).unwrap();

    // Engine 2: the storage table's batch path — the whole trace as one
    // keyed batch, fanned out over four shards.
    let batched = NfTable::from_flat_sharded(
        "sc",
        &base.flat,
        order.clone(),
        ShardSpec::hash(4).unwrap(),
        SharedDictionary::new(),
    )
    .unwrap();
    let (summary, _) = batched.append_batch(&trace).unwrap();
    assert_eq!(summary.noops, 0, "op_trace emits effective ops only");

    // Engine 3: the storage table (per-op, WAL-logged).
    let dict = SharedDictionary::new();
    let table = NfTable::from_flat("sc", &base.flat, order.clone(), dict).unwrap();
    for op in &trace {
        match op {
            Op::Insert(row) => {
                table.insert_atoms(row.clone()).unwrap();
            }
            Op::Delete(row) => {
                table.delete_atoms(row).unwrap();
            }
        }
    }

    // Engine 4: the re-nest baseline.
    let baseline = rebuild_batch(
        &CanonicalRelation::from_flat(&base.flat, order.clone()).unwrap(),
        &trace,
    )
    .unwrap();

    assert_eq!(*incremental.relation(), batched.snapshot().canonical());
    batched.sharded().verify().unwrap();
    assert_eq!(*incremental.relation(), table.snapshot().canonical());
    assert_eq!(incremental.relation(), baseline.relation());
    incremental.verify().unwrap();

    // And all of them equal nesting the final flat state from scratch.
    let oracle = canonical_of_flat(&incremental.relation().expand(), &order);
    assert_eq!(incremental.relation(), &oracle);
}

#[test]
fn replayed_trace_survives_checkpoint_and_reopen() {
    let (base, trace) = trace_and_base();
    let order = NestOrder::identity(3);
    let dir = std::env::temp_dir().join("nf2_integration_bulk");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();

    let dict = SharedDictionary::new();
    let table = NfTable::from_flat("sc", &base.flat, order, dict).unwrap();
    // Checkpoint mid-stream; the rest rides the WAL.
    let (first, second) = trace.split_at(trace.len() / 2);
    for op in first {
        match op {
            Op::Insert(row) => table.insert_atoms(row.clone()).unwrap(),
            Op::Delete(row) => table.delete_atoms(row).unwrap(),
        };
    }
    table.checkpoint(&dir).unwrap();
    for op in second {
        match op {
            Op::Insert(row) => table.insert_atoms(row.clone()).unwrap(),
            Op::Delete(row) => table.delete_atoms(row).unwrap(),
        };
    }
    table.flush_wal(&dir).unwrap();
    let expected = table.snapshot().canonical();
    drop(table);

    // The atoms in the second half were interned before the checkpoint
    // wrote the dictionary? No — fresh rows intern new ids. Reopen with a
    // fresh dictionary must still replay by atom id.
    let reopened = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap();
    assert_eq!(reopened.snapshot().canonical(), expected.clone());
}

#[test]
fn maintenance_cost_is_independent_of_history_length() {
    // Theorem A-4 at the stream level: per-op structural cost does not
    // trend upward as the relation absorbs more operations.
    let base = workload::relationship(400, 40, 40, 5, 33);
    let trace = workload::op_trace(&base, 300, 30, 14);
    let order = NestOrder::identity(3);
    let mut canon = CanonicalRelation::from_flat(&base.flat, order).unwrap();

    let mut first_half = CostCounter::new();
    let mut second_half = CostCounter::new();
    let (a, b) = trace.split_at(trace.len() / 2);
    apply_batch(&mut canon, a, &mut first_half).unwrap();
    apply_batch(&mut canon, b, &mut second_half).unwrap();

    let ops_a = first_half.structural_ops().max(1);
    let ops_b = second_half.structural_ops().max(1);
    let ratio = ops_b as f64 / ops_a as f64;
    assert!(
        ratio < 3.0,
        "structural ops per half should stay flat: {ops_a} then {ops_b} (ratio {ratio:.2})"
    );
}
