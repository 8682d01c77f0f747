//! Crash and fault tests on the in-memory half of the storage seam.
//!
//! One script — a load, flushed writes, a checkpoint and more flushed
//! writes — runs once for each file call it makes, with that call
//! failing or short-writing, and the table is then reopened from the
//! same files. A reopen either refuses loudly or holds a prefix of the
//! logged ops that includes every op a flush or checkpoint returned
//! `Ok` for. The cases that refuse, and those whose prefix ends inside
//! a statement, are pinned by name: they are what atomic checkpoints
//! and a statement-grained engine log change.

use std::collections::BTreeSet;
use std::path::Path;
use std::sync::Arc;

use nf2_core::bulk::Op;
use nf2_core::schema::NestOrder;
use nf2_core::shard::ShardSpec;
use nf2_core::value::Atom;

use crate::dictionary::SharedDictionary;
use crate::table::NfTable;
use crate::vfs::{Fault, SimFs, Vfs};

const DIR: &str = "/sim/faults";

/// What one run of the script did.
struct Run {
    /// The rows the load put in.
    loaded: BTreeSet<Vec<Atom>>,
    /// Every op the writes logged, in order.
    ops: Vec<Op>,
    /// The op count at the end of each statement.
    ends: Vec<usize>,
    /// Ops that a flush or checkpoint returning `Ok` covered.
    durable: usize,
}

/// Runs the script on `fs`, going on past every failed call as a
/// caller that retries would.
fn run(fs: &Arc<SimFs>) -> Run {
    let t = NfTable::bulk_load_strs_sharded(
        "t",
        &["A", "B"],
        [["a0", "b0"], ["a1", "b1"], ["a2", "b0"], ["a3", "b1"]].map(Vec::from),
        NestOrder::identity(2),
        ShardSpec::hash(2).unwrap(),
        SharedDictionary::new(),
    )
    .unwrap()
    .with_vfs(Vfs::Sim(Arc::clone(fs)));
    let loaded = rows_of(&t);
    // Every string is interned before the checkpoint: the reopen
    // resolves the log's atoms with the checkpoint's dictionary.
    let row = |a: &str, b: &str| t.row_from_strs(&[a, b]).unwrap();
    let statements = [
        vec![Op::Insert(row("x1", "b0"))],
        vec![Op::Insert(row("x2", "b1")), Op::Delete(row("a0", "b0"))],
        vec![Op::Insert(row("x3", "b0"))],
        vec![Op::Delete(row("x1", "b0")), Op::Insert(row("x4", "b1"))],
    ];
    let dir = Path::new(DIR);
    let mut run = Run {
        loaded,
        ops: Vec::new(),
        ends: Vec::new(),
        durable: 0,
    };
    for (at, statement) in statements.into_iter().enumerate() {
        if at == 2 && t.checkpoint(dir).is_ok() {
            run.durable = run.ops.len();
        }
        t.append_batch(&statement).unwrap();
        run.ops.extend(statement);
        run.ends.push(run.ops.len());
        if t.flush_wal(dir).is_ok() {
            run.durable = run.ops.len();
        }
    }
    run
}

fn rows_of(t: &NfTable) -> BTreeSet<Vec<Atom>> {
    let flat = t.snapshot().canonical().expand();
    flat.rows().map(<[Atom]>::to_vec).collect()
}

/// What reopening a run's files gave.
#[derive(Debug, PartialEq)]
enum Reopen {
    /// `open` refused, with this error.
    Refused(String),
    /// The table holds the loaded rows and the first this many ops.
    Prefix(usize),
}

fn reopen(fs: &Arc<SimFs>, run: &Run) -> Reopen {
    let vfs = Vfs::Sim(Arc::clone(fs));
    let t = match NfTable::open_in(vfs, Path::new(DIR), "t", SharedDictionary::new()) {
        Ok(t) => t,
        Err(e) => return Reopen::Refused(e.to_string()),
    };
    t.sharded().verify().unwrap();
    let held = rows_of(&t);
    let mut state = run.loaded.clone();
    let mut prefixes = vec![state.clone()];
    for op in &run.ops {
        match op {
            Op::Insert(row) => state.insert(row.clone()),
            Op::Delete(row) => state.remove(row),
        };
        prefixes.push(state.clone());
    }
    // The script's states are pairwise distinct, so at most one matches.
    let k = prefixes.iter().position(|p| *p == held);
    Reopen::Prefix(k.expect("the reopened rows are a prefix of the logged ops"))
}

#[test]
fn a_fault_at_any_file_call_reopens_to_a_durable_prefix_or_refuses() {
    let clean = Arc::new(SimFs::default());
    let baseline = run(&clean);
    // The calls the script makes, numbered from 1.
    let calls = clean.trace();
    assert_eq!(
        calls,
        [
            "mkdir faults",
            "open t.wal",
            "append t.wal",
            "append t.wal",
            "mkdir faults",
            "write t.meta",
            "write t.tuples",
            "cut t.wal",
            "append t.wal",
            "append t.wal",
        ]
    );
    assert_eq!(reopen(&clean, &baseline), Reopen::Prefix(6));

    let mut refused = Vec::new();
    let mut torn_statements = Vec::new();
    for call in 1..=calls.len() {
        for fault in [Fault::Fail, Fault::Short] {
            let fs = Arc::new(SimFs::default());
            fs.arm(call, fault);
            let run = run(&fs);
            assert_eq!(run.ops, baseline.ops, "call {call} {fault:?}");
            match reopen(&fs, &run) {
                Reopen::Refused(why) => refused.push((call, fault, why)),
                Reopen::Prefix(k) => {
                    assert!(
                        k >= run.durable,
                        "call {call} {fault:?}: {k} ops held, {} flushed",
                        run.durable
                    );
                    if k > 0 && !run.ends.contains(&k) {
                        torn_statements.push((call, fault, k));
                    }
                }
            }
        }
    }
    // Every refusal, with its reason. A fault before the first
    // checkpoint's files are whole (calls 5 and 6): no meta, or a torn
    // one. A fault between a checkpoint's meta and tuple writes (call 7),
    // the window a non-atomic checkpoint leaves open: the meta describes
    // a tuple file that is missing or short.
    let expected = [
        (5, Fault::Fail, "io error: /sim/faults/t.meta not found"),
        (5, Fault::Short, "io error: /sim/faults/t.meta not found"),
        (6, Fault::Fail, "io error: /sim/faults/t.meta not found"),
        (6, Fault::Short, "corrupt data: meta checksum mismatch"),
        (7, Fault::Fail, "io error: /sim/faults/t.tuples not found"),
        (7, Fault::Short, "corrupt data: the tuple file holds "),
    ];
    assert_eq!(refused.len(), expected.len(), "{refused:#?}");
    for ((call, fault, why), (want_call, want_fault, want_why)) in refused.iter().zip(expected) {
        assert_eq!((*call, *fault), (want_call, want_fault), "{refused:#?}");
        assert!(why.starts_with(want_why), "call {call} {fault:?}: {why}");
    }
    // Replay keeps a prefix of ops, not of statements: a short append of
    // the last two-op statement (call 10) keeps its first op alone.
    assert_eq!(torn_statements, [(10, Fault::Short, 5)]);
}

#[test]
fn a_machine_crash_drops_every_unsynced_byte_and_the_reopen_refuses() {
    let fs = Arc::new(SimFs::default());
    let run = run(&fs);
    let vfs = Vfs::Sim(Arc::clone(&fs));
    let written: usize = ["t.meta", "t.tuples", "t.wal"]
        .iter()
        .map(|file| vfs.read(&Path::new(DIR).join(file)).unwrap().len())
        .sum();
    assert!(written > 0);
    // Nothing syncs yet, so a crash drops every byte written.
    fs.crash();
    assert_eq!(fs.dropped(), written as u64);
    assert_eq!(
        reopen(&fs, &run),
        Reopen::Refused("corrupt data: meta file truncated".into())
    );
}
