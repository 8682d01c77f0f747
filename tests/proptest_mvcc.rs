//! Concurrency property at the outermost boundary: an epoch-pinned
//! snapshot reader sees **exactly** the canonical form its epoch had
//! under a serial execution of the same §4 mutation stream — tuple for
//! tuple, shard for shard — while the writer storms away concurrently.
//!
//! The protocol being tested (see `nf2-core::mvcc`): every
//! state-changing statement — one row or many, on one shard or several
//! — publishes its touched shard versions behind exactly one epoch bump,
//! and no-ops publish nothing. That makes the epoch a perfect index
//! into a serially-replayed history: pin a snapshot at epoch `e`, and
//! its per-shard tuples must equal serial state `e` — no torn
//! multi-shard states, no half statements, no lost updates, no
//! reordering.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use proptest::prelude::*;

use nf2::core::schema::NestOrder;
use nf2::core::shard::ShardSpec;
use nf2::core::tuple::NfTuple;
use nf2::query::Engine;
use nf2::storage::{NfTable, SharedDictionary, TableSnapshot};

/// One random single-row mutation over a tiny value universe (small
/// enough that duplicate inserts and missing deletes — the no-op paths
/// — happen often).
#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u8),
    Delete(u8, u8),
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..4, 0u8..6).prop_map(|(a, b)| Op::Insert(a, b)),
        (0u8..4, 0u8..6).prop_map(|(a, b)| Op::Delete(a, b)),
    ]
}

fn stmt_of(op: &Op) -> String {
    match op {
        Op::Insert(a, b) => format!("INSERT INTO t VALUES ('a{a}','b{b}')"),
        Op::Delete(a, b) => format!("DELETE FROM t WHERE A='a{a}' AND B='b{b}'"),
    }
}

/// One random statement: a single-row op, or one of three multi-row
/// ones — a two-row INSERT, a DELETE of every row holding one `A`, and
/// an UPDATE moving those rows to one `B`. `B` routes the shards, so
/// each of the three may span several.
fn arb_stmt() -> impl Strategy<Value = String> {
    prop_oneof![
        arb_op().prop_map(|op| stmt_of(&op)),
        ((0u8..4, 0u8..6), (0u8..4, 0u8..6)).prop_map(|((a, b), (c, d))| {
            format!("INSERT INTO t VALUES ('a{a}','b{b}'), ('a{c}','b{d}')")
        }),
        (0u8..4).prop_map(|a| format!("DELETE FROM t WHERE A='a{a}'")),
        (0u8..4, 0u8..6).prop_map(|(a, b)| format!("UPDATE t SET B='b{b}' WHERE A='a{a}'")),
    ]
}

/// A 4-shard engine with the whole value universe pre-interned in a
/// fixed order, so the serial oracle engine and the concurrent engine
/// agree atom-for-atom (tuple equality is atom equality).
fn fresh_engine() -> Engine {
    let engine = Engine::builder().shards(4).build().unwrap();
    engine
        .session()
        .run("CREATE TABLE t (A, B) NEST ORDER (A, B)")
        .unwrap();
    for a in 0..4 {
        engine.dict().intern(&format!("a{a}"));
    }
    for b in 0..6 {
        engine.dict().intern(&format!("b{b}"));
    }
    engine
}

/// The full pinned state: each shard's canonical NF² tuples, in shard
/// order.
type ShardTuples = Vec<Vec<NfTuple>>;

fn shard_tuples(snap: &TableSnapshot) -> ShardTuples {
    (0..snap.shard_count())
        .map(|s| {
            snap.version()
                .shard(s)
                .tuples()
                .map(|t| t.into_owned())
                .collect::<Vec<_>>()
        })
        .collect()
}

/// `Arc<Engine>` across threads is the whole point of the subsystem.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
};

proptest! {
    // Each case spawns a thread scope; keep the count modest (CI's
    // threaded leg reduces it further via PROPTEST_CASES).
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn snapshot_readers_see_serial_epochs_under_a_mutation_storm(
        stmts in proptest::collection::vec(arb_stmt(), 1..40),
    ) {
        // Serial oracle: run the statements one at a time, recording
        // the per-shard canonical tuples at every epoch. On the way, pin
        // down the protocol invariant the concurrent check relies on: a
        // statement bumps the epoch by exactly 0 (no-op) or 1.
        let serial = fresh_engine();
        let mut states: Vec<ShardTuples> =
            vec![shard_tuples(&serial.table("t").unwrap().snapshot())];
        {
            let mut session = serial.session();
            for sql in &stmts {
                let before = serial.table("t").unwrap().epoch();
                session.run(sql).unwrap();
                let t = serial.table("t").unwrap();
                let after = t.epoch();
                prop_assert!(
                    after == before || after == before + 1,
                    "{sql} bumped the epoch {before} -> {after}"
                );
                if after == before + 1 {
                    states.push(shard_tuples(&t.snapshot()));
                }
            }
        }

        // Concurrent storm: one writer runs the same statements against
        // a fresh shared engine while readers continuously pin snapshots
        // and hold each one to the serial state of its exact epoch.
        let engine = Arc::new(fresh_engine());
        let done = Arc::new(AtomicBool::new(false));
        let states = Arc::new(states);
        std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for _ in 0..3 {
                let engine = Arc::clone(&engine);
                let done = Arc::clone(&done);
                let states = Arc::clone(&states);
                readers.push(scope.spawn(move || {
                    let mut last = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        let snap = engine.table("t").unwrap().snapshot();
                        let epoch = snap.epoch();
                        assert!(epoch >= last, "epochs are monotone per reader");
                        last = epoch;
                        let idx = epoch as usize;
                        assert!(
                            idx < states.len(),
                            "epoch {epoch} beyond the serial history"
                        );
                        assert_eq!(
                            shard_tuples(&snap),
                            states[idx],
                            "snapshot at epoch {epoch} diverged from the serial oracle"
                        );
                    }
                }));
            }
            let writer = {
                let engine = Arc::clone(&engine);
                let stmts = stmts.clone();
                let done = Arc::clone(&done);
                scope.spawn(move || {
                    let mut session = engine.session();
                    for sql in &stmts {
                        session.run(sql).unwrap();
                    }
                    done.store(true, Ordering::Relaxed);
                })
            };
            writer.join().unwrap();
            for r in readers {
                r.join().unwrap();
            }
        });

        // The storm drained: the live epoch is the last serial state.
        let t = engine.table("t").unwrap();
        prop_assert_eq!(t.epoch() as usize, states.len() - 1);
        prop_assert_eq!(
            shard_tuples(&t.snapshot()),
            states.last().unwrap().clone()
        );
    }

    /// The routed write pipeline: N writers storm N *distinct* shards
    /// concurrently. Ops on different shards commute, so every shard
    /// must march through exactly its own serial state sequence — any
    /// pinned snapshot is, shard for shard, a state from that shard's
    /// serial history, and the drained table is every shard's serial
    /// final state. Concurrent commits may coalesce into one epoch
    /// bump, so the live epoch is bounded by (not equal to) the number
    /// of effective state transitions. And concurrency must not change
    /// what any shard *did*: its §4 maintenance counters (the work inside
    /// the lane's critical section) and the table's insert, delete and
    /// publication tallies equal the serial oracles'.
    #[test]
    fn distinct_shard_writers_match_per_shard_serial_oracles(
        ops in proptest::collection::vec(arb_op(), 4..60),
    ) {
        let engine = Arc::new(fresh_engine());
        let shard_count = {
            let snap = engine.table("t").unwrap().snapshot();
            snap.shard_count()
        };

        // Partition the stream by routed shard: each writer thread owns
        // one shard's ops, so no two writers ever contend on a lane.
        let route = |a: u8, b: u8| -> usize {
            let row = vec![
                engine.dict().lookup(&format!("a{a}")).unwrap(),
                engine.dict().lookup(&format!("b{b}")).unwrap(),
            ];
            engine.table("t").unwrap().routing().route_row(&row)
        };
        let mut per_shard: Vec<Vec<Op>> = vec![Vec::new(); shard_count];
        for op in &ops {
            let (Op::Insert(a, b) | Op::Delete(a, b)) = *op;
            per_shard[route(a, b)].push(op.clone());
        }

        // Serial oracle per shard: replay that shard's ops alone and
        // record every state the shard passes through (consecutive
        // duplicates — the no-op paths — collapse, so transitions count
        // exactly the state-changing ops).
        let mut serial_states: Vec<Vec<Vec<NfTuple>>> = Vec::new();
        let mut serial_work = Vec::new();
        for (s, shard_ops) in per_shard.iter().enumerate() {
            let oracle = fresh_engine();
            let mut session = oracle.session();
            let shard_of = |e: &Engine| {
                e.table("t").unwrap().snapshot().version().shard(s).tuples().map(|t| t.into_owned()).collect::<Vec<_>>()
            };
            let mut states = vec![shard_of(&oracle)];
            for op in shard_ops {
                session.run(&stmt_of(op)).unwrap();
                let st = shard_of(&oracle);
                if Some(&st) != states.last() {
                    states.push(st);
                }
            }
            serial_states.push(states);
            let t = oracle.table("t").unwrap();
            let tally = t.stats();
            prop_assert_eq!(
                t.epoch(),
                tally.epoch_installs,
                "a lone writer never coalesces: one bump per publication"
            );
            serial_work.push((
                t.maintenance_breakdown().per_shard[s],
                [tally.inserts, tally.deletes, tally.epoch_installs],
            ));
        }
        let serial_states = Arc::new(serial_states);

        // Storm: one writer per non-empty shard, readers pinning
        // snapshots throughout and holding every shard to its own
        // serial history — no torn states, no lost updates.
        let done = Arc::new(AtomicBool::new(false));
        std::thread::scope(|scope| {
            let mut readers = Vec::new();
            for _ in 0..2 {
                let engine = Arc::clone(&engine);
                let done = Arc::clone(&done);
                let serial_states = Arc::clone(&serial_states);
                readers.push(scope.spawn(move || {
                    let mut last = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        let snap = engine.table("t").unwrap().snapshot();
                        let epoch = snap.epoch();
                        assert!(epoch >= last, "epochs are monotone per reader");
                        last = epoch;
                        for (s, states) in serial_states.iter().enumerate() {
                            let tuples = snap.version().shard(s).tuples().map(|t| t.into_owned()).collect::<Vec<_>>();
                            assert!(
                                states.contains(&tuples),
                                "shard {s} pinned at epoch {epoch} is not a serial state"
                            );
                        }
                    }
                }));
            }
            let mut writers = Vec::new();
            for shard_ops in per_shard.iter().filter(|v| !v.is_empty()) {
                let engine = Arc::clone(&engine);
                let shard_ops = shard_ops.clone();
                writers.push(scope.spawn(move || {
                    let mut session = engine.session();
                    for op in &shard_ops {
                        session.run(&stmt_of(op)).unwrap();
                    }
                }));
            }
            for w in writers {
                w.join().unwrap();
            }
            done.store(true, Ordering::Relaxed);
            for r in readers {
                r.join().unwrap();
            }
        });

        // Drained: every shard sits at its serial final state, and the
        // epoch respects the coalescing bound (at least one bump when
        // anything changed, never more than the effective transitions).
        let t = engine.table("t").unwrap();
        let snap = t.snapshot();
        for (s, states) in serial_states.iter().enumerate() {
            prop_assert_eq!(
                snap.version().shard(s).tuples().map(|t| t.into_owned()).collect::<Vec<_>>(),
                states.last().unwrap().clone(),
                "shard {} did not drain to its serial final state", s
            );
        }
        let effective: usize = serial_states.iter().map(|s| s.len() - 1).sum();
        let epoch = t.epoch() as usize;
        prop_assert!(epoch <= effective, "epoch {} > {} transitions", epoch, effective);
        prop_assert!(effective == 0 || epoch >= 1, "changes happened but no bump");
        let work = t.maintenance_breakdown().per_shard;
        let mut serial_tally = [0u64; 3];
        for (s, (cost, tally)) in serial_work.iter().enumerate() {
            prop_assert_eq!(work[s], *cost, "shard {} did different §4 work", s);
            for (sum, n) in serial_tally.iter_mut().zip(tally) {
                *sum += n;
            }
        }
        let tally = t.stats();
        prop_assert_eq!(
            [tally.inserts, tally.deletes, tally.epoch_installs],
            serial_tally,
            "inserts, deletes and publications must not depend on writer concurrency"
        );
    }

    /// Per-shard isolation, counted: readers whose predicate prunes to
    /// one shard probe exactly the tuples they probe on a quiet engine —
    /// and get the same answer — while a writer storms the other shards.
    /// Installing a new version of one shard never touches a pinned
    /// version of another.
    #[test]
    fn pruned_readers_probe_the_serial_count_under_a_foreign_shard_storm(
        ops in proptest::collection::vec(arb_op(), 4..60),
        read_b in 0u8..6,
    ) {
        let engine = Arc::new(fresh_engine());
        let table = engine.table("t").unwrap();
        let shard_of = |b: u8| {
            let atom = engine.dict().lookup(&format!("b{b}")).unwrap();
            table.routing().shards_for_values(&[atom])[0]
        };
        // The storm replays the ops that route elsewhere, through the
        // storage API: a SQL DELETE would add its own probe-counted
        // victim scan to the table-wide counter compared below.
        let foreign: Vec<&Op> = ops
            .iter()
            .filter(|op| {
                let (Op::Insert(_, b) | Op::Delete(_, b)) = **op;
                shard_of(b) != shard_of(read_b)
            })
            .collect();
        prop_assume!(!foreign.is_empty());
        {
            let mut session = engine.session();
            for op in &ops {
                session.run(&stmt_of(op)).unwrap();
            }
            session.run(&stmt_of(&Op::Insert(0, read_b))).unwrap();
        }

        const READERS: usize = 2;
        const QUERIES: usize = 40;
        let read_value = format!("b{read_b}");
        let probes_of = |storm: bool| -> (u64, Vec<nf2::query::Output>) {
            let done = AtomicBool::new(false);
            let start = std::sync::Barrier::new(READERS + usize::from(storm));
            let before = table.stats();
            let answers = std::thread::scope(|scope| {
                if storm {
                    scope.spawn(|| {
                        start.wait();
                        // At least one full pass, then on until the
                        // readers are through.
                        loop {
                            for op in &foreign {
                                match op {
                                    Op::Insert(a, b) => {
                                        table.insert_row(&[&format!("a{a}"), &format!("b{b}")])
                                    }
                                    Op::Delete(a, b) => {
                                        table.delete_row(&[&format!("a{a}"), &format!("b{b}")])
                                    }
                                }
                                .unwrap();
                            }
                            if done.load(Ordering::Relaxed) {
                                break;
                            }
                        }
                    });
                }
                let readers: Vec<_> = (0..READERS)
                    .map(|_| {
                        scope.spawn(|| {
                            let mut session = engine.session();
                            let mut stmt = session
                                .prepare("SELECT COUNT(*) FROM t WHERE B = ?")
                                .unwrap();
                            start.wait();
                            (0..QUERIES)
                                .map(|_| {
                                    stmt.execute(&mut session, &[read_value.as_str()]).unwrap()
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                let answers: Vec<_> = readers
                    .into_iter()
                    .flat_map(|r| r.join().unwrap())
                    .collect();
                done.store(true, Ordering::Relaxed);
                answers
            });
            (table.stats().units_probed - before.units_probed, answers)
        };
        let (serial_probes, serial_answers) = probes_of(false);
        let (storm_probes, storm_answers) = probes_of(true);
        prop_assert!(serial_probes >= (READERS * QUERIES) as u64, "the read shard holds the value");
        prop_assert_eq!(storm_probes, serial_probes);
        prop_assert_eq!(storm_answers, serial_answers);
    }
}

proptest! {
    // Crash recovery touches the filesystem on every op: keep the case
    // count low (CI reduces it further via PROPTEST_CASES).
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Group-commit durability: flush after every op, cut the WAL at an
    /// arbitrary byte, and replay. Recovery must land on **exactly** the
    /// state of the largest durable boundary at or below the cut — the
    /// last durably committed prefix — never a torn suffix, never a lost
    /// durable op.
    #[test]
    fn truncated_wal_replays_the_last_durable_prefix(
        ops in proptest::collection::vec(arb_op(), 1..24),
        cut_seed in any::<u64>(),
    ) {
        let dir = std::env::temp_dir().join("nf2_proptest_wal_crash");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        // Pre-intern the whole value universe so the checkpointed meta
        // carries every atom the WAL rows will reference on replay.
        let dict = SharedDictionary::new();
        for a in 0..4 {
            dict.intern(&format!("a{a}"));
        }
        for b in 0..6 {
            dict.intern(&format!("b{b}"));
        }
        let t = NfTable::create_sharded(
            "t",
            &["A", "B"],
            NestOrder::identity(2),
            ShardSpec::hash(4).unwrap(),
            dict,
        )
        .unwrap();
        t.insert_row(&["a0", "b0"]).unwrap();
        t.checkpoint(&dir).unwrap();

        // Apply the stream, flushing after every op and recording each
        // durable boundary: (WAL byte size, the state it pins).
        let wal = dir.join("t.wal");
        let mut boundaries = vec![(0u64, t.snapshot().canonical())];
        for op in &ops {
            match op {
                Op::Insert(a, b) => {
                    t.insert_row(&[&format!("a{a}"), &format!("b{b}")]).unwrap();
                }
                Op::Delete(a, b) => {
                    t.delete_row(&[&format!("a{a}"), &format!("b{b}")]).unwrap();
                }
            }
            t.flush_wal(&dir).unwrap();
            let size = std::fs::metadata(&wal).unwrap().len();
            boundaries.push((size, t.snapshot().canonical()));
        }
        drop(t); // crash

        // Cut the log at an arbitrary byte: everything past the cut —
        // including a torn entry straddling it — must vanish on replay.
        let bytes = std::fs::read(&wal).unwrap();
        let cut = (cut_seed % (bytes.len() as u64 + 1)) as usize;
        std::fs::write(&wal, &bytes[..cut]).unwrap();

        let expected = boundaries
            .iter()
            .rev()
            .find(|(size, _)| *size <= cut as u64)
            .map(|(_, state)| state.clone())
            .unwrap();
        let reopened = NfTable::open(&dir, "t", SharedDictionary::new()).unwrap();
        prop_assert_eq!(reopened.snapshot().canonical(), expected);
    }
}
