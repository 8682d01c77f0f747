//! `bulk_ingest`: cold sharded bulk loads (A), `append_batch` streams in
//! batches of 100 / 1 000 / 5 000 ops (B), then checkpoint, reopen and a
//! full content check (C). Kernel nest, shard fan-out, segment build,
//! interning and the rebuild-vs-incremental policy do the work; the query
//! layer only answers the final `COUNT(*)`.

use std::collections::BTreeMap;

use nf2::core::bulk::Op;
use nf2::core::NestOrder;
use nf2::query::{Engine, Output};
use nf2::storage::{NfTable, SharedDictionary};

use crate::gen::{enrollments, Digest, Names, Row, SplitMix64, CLUBS, COURSES};
use crate::harness::{
    load_enroll, BaseData, Counters, Durability, Env, Probe, Res, ENROLL_ATTRS, SHARDS,
};
use crate::oracle::{Decoder, Model};
use crate::stats;
use crate::sys;
use crate::trace::{now_ns, Tracer};
use crate::workloads::{
    dictionary_probe, end_to_end, run_slices, self_time_note, Outcome, RunCfg, SliceSummary,
    MIN_SLICES,
};

/// Students per cold load (~200 k rows) and in the batch table (~50 k
/// rows): a fifth of the issue's sizes, which is what fits several cycles
/// into a 10 s run. The batch sizes still straddle the point where
/// rebuilding the table beats applying ops one by one.
const LOAD_STUDENTS: usize = 40_000;
const BATCH_TABLE_STUDENTS: usize = 10_000;
const BATCH_SIZES: [usize; 3] = [100, 1_000, 5_000];
const DATA_SETS: u64 = 5;

/// One cycle: a cold load and one round of the three batch sizes.
#[derive(Debug, Default, Clone)]
struct Cycle {
    traced: bool,
    wall_ns: u64,
    load_ns: u64,
    load_rows: u64,
    /// Traced cycles only: the same load on one shard (kernel without
    /// fan-out).
    single_shard_ns: u64,
    /// `(batch size, time, whether a shard rebuilt)`.
    batches: Vec<(usize, u64, bool)>,
    counters: Counters,
    failed: u64,
}

impl Cycle {
    fn batch_ops(&self) -> u64 {
        self.batches.iter().map(|b| b.0 as u64).sum()
    }

    fn batch_ns(&self) -> u64 {
        self.batches.iter().map(|b| b.1).sum()
    }

    fn summary(&self) -> SliceSummary {
        // An op here is one ingest call; its latency is what each of its
        // rows waited, per row.
        let mut per_row_us: Vec<f64> = self
            .batches
            .iter()
            .map(|b| b.1 as f64 / 1e3 / b.0 as f64)
            .collect();
        per_row_us.push(self.load_ns as f64 / 1e3 / self.load_rows as f64);
        SliceSummary {
            throughput_ops_s: (self.load_rows + self.batch_ops()) as f64
                / ((self.load_ns + self.batch_ns()) as f64 / 1e9),
            op_p50_us: stats::percentile(&per_row_us, 50.0),
            op_p99_us: stats::percentile(&per_row_us, 99.0),
        }
    }
}

pub fn bulk_ingest(cfg: &RunCfg) -> Res<Outcome> {
    let started = now_ns();
    let load_students = cfg.scaled(LOAD_STUDENTS, 2_000) as u32;
    let base = BaseData::generate(cfg.seed, cfg.scaled(BATCH_TABLE_STUDENTS, 500) as u32);
    let names = Names::new(load_students);
    let rng = SplitMix64::new(cfg.seed);
    let data_sets: Vec<Vec<Row>> = (0..DATA_SETS)
        .map(|i| enrollments(&mut rng.fork(0xB01D + i), 0..load_students))
        .collect();
    let mut digest = Digest::default();
    for row in data_sets.iter().flatten() {
        digest.u64(u64::from(row.0) << 32 | u64::from(row.1) << 16 | u64::from(row.2));
    }

    // Every cycle gets a freshly set-up batch table (its set-up is one
    // `setup_s` sample), so cycles are replicates: the same table state,
    // the next ops of one seeded stream. What is checkpointed and
    // reopened at the end is then the same however many cycles ran.
    let base_model = Model::from_rows(&base.rows);
    let mut state = State {
        names: &names,
        model: base_model.clone(),
        rng: rng.fork(0xBA7C),
        students: base.students(),
        digest,
        tracer: Tracer::default(),
        seq: 0,
        loaded_tuples: 0,
        first_failure: None,
    };
    let mut env: Option<Env> = None;
    let mut setups = Vec::new();
    let (mut ops_digest, mut done, mut next_set) = (state.digest, 0, 0);
    let cycles = run_slices(
        cfg,
        started,
        |c: &Cycle| c.wall_ns,
        |traced| {
            drop(env.take());
            state.model = base_model.clone();
            let rows = &data_sets[next_set % data_sets.len()];
            next_set += 1;
            let cycle = match Env::build(
                &base,
                Durability::Durable { autoflush: false },
                &mut state.tracer,
            ) {
                Ok(built) => {
                    setups.push(built.setup_s);
                    let cycle = state.cycle(&built, rows, traced);
                    env = Some(built);
                    cycle
                }
                Err(e) => {
                    state.first_failure.get_or_insert(format!("set-up: {e}"));
                    Cycle {
                        traced,
                        failed: 1,
                        ..Cycle::default()
                    }
                }
            };
            done += 1;
            if done == MIN_SLICES {
                ops_digest = state.digest;
            }
            cycle
        },
    );
    let env = env.ok_or("no cycle could set up its table")?;
    let table = env.engine.table("enroll")?;
    let tuples_per_row = state.loaded_tuples as f64 / base.rows.len() as f64;
    let untraced: Vec<&Cycle> = cycles.iter().filter(|c| !c.traced).collect();
    let traced: Vec<&Cycle> = cycles.iter().filter(|c| c.traced).collect();
    let mut attempted: u64 = cycles.iter().map(|c| 1 + c.batches.len() as u64).sum();
    let mut failed: u64 = cycles.iter().map(|c| c.failed).sum();
    let mut first_failure = state.first_failure.take();
    let mut fail = |what: String| {
        failed += 1;
        first_failure.get_or_insert(what);
    };

    // The batch table against the model, then C: checkpoint, reopen in an
    // engine that never saw it, COUNT(*) and the content check again.
    let mut decoder = Decoder::new(env.engine.dict());
    attempted += 3;
    let held: Vec<_> = table.scan().collect();
    if !state.model.diff_table(&mut decoder, &held).is_clean() {
        fail("batch table differs from the model before the checkpoint".into());
    }
    let dir = env.dir.as_ref().expect("built durable").path();
    let io_before = sys::IoCounters::read();
    let c0 = now_ns();
    env.engine.checkpoint()?;
    let c1 = now_ns();
    let checkpoint_io = sys::IoCounters::read().since(io_before);
    let dir_bytes = sys::dir_bytes(dir);
    let fresh = Engine::builder().shards(SHARDS).build()?;
    let o0 = now_ns();
    let reopened = NfTable::open(dir, "enroll", fresh.dict().clone())?;
    let o1 = now_ns();
    let reopened_tuples: Vec<_> = reopened.scan().collect();
    fresh.attach_table(reopened)?;
    let counted = fresh.session().run("SELECT COUNT(*) FROM enroll")?;
    if !matches!(counted, Output::Count(n) if n == state.model.len() as u128) {
        fail(format!(
            "reopened COUNT(*) = {counted}, the model holds {}",
            state.model.len()
        ));
    }
    if !state
        .model
        .diff_table(&mut Decoder::new(fresh.dict()), &reopened_tuples)
        .is_clean()
    {
        fail("reopened table differs from the model".into());
    }
    let o2 = now_ns();
    state
        .tracer
        .root("storage.checkpoint", "", state.seq, c0, c1);
    state.tracer.root("storage.open", "", state.seq, o0, o1);

    let mut notes = vec![format!(
        "{} cycles; checkpoint {:.1} ms, open {:.1} ms, recover (open + checks) {:.3} s",
        cycles.len(),
        (c1 - c0) as f64 / 1e6,
        (o1 - o0) as f64 / 1e6,
        (o2 - o0) as f64 / 1e9
    )];
    let metrics = if cfg.trace {
        let live_bytes: u64 = state.model.rows().map(|r| names.row_bytes(r)).sum();
        let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
        let med = |set: &[&Cycle], f: &dyn Fn(&Cycle) -> f64| {
            stats::median(&set.iter().map(|c| f(c)).collect::<Vec<_>>())
        };
        m.insert(
            "ingest_rows_s",
            med(&untraced, &|c| {
                c.load_rows as f64 / (c.load_ns as f64 / 1e9)
            }),
        );
        m.insert(
            "batch_rows_s",
            med(&untraced, &|c| {
                c.batch_ops() as f64 / (c.batch_ns() as f64 / 1e9)
            }),
        );
        m.insert("checkpoint_s", (c1 - c0) as f64 / 1e9);
        m.insert("storage.checkpoint.ms", (c1 - c0) as f64 / 1e6);
        m.insert("storage.checkpoint.bytes", dir_bytes as f64);
        m.insert("recover_s", (o2 - o0) as f64 / 1e9);
        m.insert("storage.open.ms", (o1 - o0) as f64 / 1e6);
        // Exact counts: over the cycles every run executes.
        let c = Counters::total(cycles[..MIN_SLICES].iter().map(|c| &c.counters));
        // Nothing but the checkpoint writes: bytes it wrote per byte of
        // live user data it made durable.
        m.insert("write_amp", checkpoint_io.wchar as f64 / live_bytes as f64);
        m.insert("space_amp", dir_bytes as f64 / live_bytes as f64);
        m.insert(
            "core.kernel.nest_rows_s",
            med(&traced, &|c| {
                c.load_rows as f64 / (c.single_shard_ns as f64 / 1e9)
            }),
        );
        m.insert(
            "core.shard.fanout_speedup",
            med(&traced, &|c| c.single_shard_ns as f64 / c.load_ns as f64),
        );
        let all_batches: Vec<&(usize, u64, bool)> =
            cycles.iter().flat_map(|c| &c.batches).collect();
        let sure_batches: Vec<&(usize, u64, bool)> = cycles[..MIN_SLICES]
            .iter()
            .flat_map(|c| &c.batches)
            .collect();
        m.insert(
            "core.bulk.rebuild_ratio",
            sure_batches.iter().filter(|b| b.2).count() as f64 / sure_batches.len().max(1) as f64,
        );
        for (size, name) in BATCH_SIZES.iter().zip([
            "core.bulk.us_per_op.100",
            "core.bulk.us_per_op.1000",
            "core.bulk.us_per_op.5000",
        ]) {
            let per_op: Vec<f64> = all_batches
                .iter()
                .filter(|b| b.0 == *size)
                .map(|b| b.1 as f64 / 1e3 / b.0 as f64)
                .collect();
            m.insert(name, stats::median(&per_op));
        }
        m.insert("core.nest.tuples_per_row", tuples_per_row);
        let writes = c.writes.max(1) as f64;
        m.insert(
            "core.maintenance.probes_per_write",
            c.cost.candidate_probes as f64 / writes,
        );
        m.insert(
            "core.maintenance.compositions_per_write",
            c.cost.compositions as f64 / writes,
        );
        m.insert(
            "core.maintenance.decompositions_per_write",
            c.cost.decompositions as f64 / writes,
        );
        m.insert(
            "core.maintenance.recons_per_write",
            c.cost.recons_calls as f64 / writes,
        );
        m.insert(
            "core.mvcc.installs_per_write",
            c.epoch_installs as f64 / writes,
        );
        let (intern_ns, lookup_ns) = dictionary_probe(cfg.scaled(20_000, 1_000));
        m.insert("storage.dictionary.intern_ns", intern_ns);
        m.insert("storage.dictionary.lookup_ns", lookup_ns);
        let sure_traced = &traced[..traced.len().min(MIN_SLICES / 2)];
        let t = Counters::total(sure_traced.iter().map(|c| &c.counters));
        let traced_rows: u64 = sure_traced
            .iter()
            .map(|c| c.load_rows + c.batch_ops())
            .sum();
        m.insert(
            "alloc.count_per_op",
            t.alloc_count as f64 / traced_rows.max(1) as f64,
        );
        m.insert(
            "alloc.bytes_per_op",
            t.alloc_bytes as f64 / traced_rows.max(1) as f64,
        );
        let thr = |set: &[&Cycle]| med(set, &|c| c.summary().throughput_ops_s);
        m.insert("trace.overhead", thr(&untraced) / thr(&traced));
        let (wall, busy) = traced.iter().fold((0, 0), |a, c| {
            (
                a.0 + c.wall_ns,
                a.1 + c.load_ns + c.single_shard_ns + c.batch_ns(),
            )
        });
        m.insert("driver.self_share", 1.0 - busy as f64 / wall as f64);
        m.insert("error_rate", failed as f64 / attempted as f64);
        notes.push(self_time_note(&state.tracer));
        if let Some(path) = &cfg.trace_out {
            state.tracer.write_json(path, "bulk_ingest")?;
        }
        m
    } else {
        let summaries: Vec<SliceSummary> = untraced.iter().map(|c| c.summary()).collect();
        end_to_end(&summaries, &setups, &mut notes)
    };

    Ok(Outcome {
        workload: "bulk_ingest",
        metrics,
        attempted,
        failed,
        first_failure,
        ops_digest: ops_digest.value(),
        notes,
    })
}

struct State<'a> {
    names: &'a Names,
    model: Model,
    rng: SplitMix64,
    /// Batch inserts draw students from `0..students`.
    students: u32,
    digest: Digest,
    tracer: Tracer,
    seq: u64,
    /// NF² tuples in the batch table right after its load.
    loaded_tuples: usize,
    first_failure: Option<String>,
}

impl State<'_> {
    fn cycle(&mut self, env: &Env, rows: &[Row], traced: bool) -> Cycle {
        let table = match env.engine.table("enroll") {
            Ok(table) => table,
            Err(e) => {
                self.first_failure.get_or_insert(format!("set-up: {e}"));
                return Cycle {
                    traced,
                    failed: 1,
                    ..Cycle::default()
                };
            }
        };
        self.loaded_tuples = table.tuple_count();
        let mut cycle = Cycle {
            traced,
            ..Cycle::default()
        };
        let start = now_ns();
        let allocs = sys::alloc_counters();

        // A: a cold load into a dictionary of its own — interning is part
        // of a cold load. The table is dropped before anything else runs.
        sys::set_alloc_counting(traced);
        let t0 = now_ns();
        let loaded = load_enroll(self.names, rows, SHARDS, &SharedDictionary::new());
        cycle.load_ns = now_ns() - t0;
        sys::set_alloc_counting(false);
        cycle.load_rows = rows.len() as u64;
        cycle.counters.user_bytes_acked +=
            rows.iter().map(|&r| self.names.row_bytes(r)).sum::<u64>();
        match loaded {
            Ok(t) if t.flat_count() == rows.len() as u128 => drop(t),
            Ok(t) => self.fail(
                &mut cycle,
                format!(
                    "cold load holds {} rows, {} were loaded",
                    t.flat_count(),
                    rows.len()
                ),
            ),
            Err(e) => self.fail(&mut cycle, format!("cold load: {e}")),
        }
        if traced {
            self.tracer
                .root("core.bulk_load", "", self.seq, t0, t0 + cycle.load_ns);
            let s0 = now_ns();
            let single = NfTable::bulk_load_strs(
                "enroll",
                &ENROLL_ATTRS,
                rows.iter().map(|&r| self.names.enroll_strs(r).to_vec()),
                NestOrder::identity(3),
                SharedDictionary::new(),
            );
            cycle.single_shard_ns = now_ns() - s0;
            if let Err(e) = single {
                self.fail(&mut cycle, format!("single-shard load: {e}"));
            }
        }
        self.seq += 1;

        // B: one round of the three batch sizes on the standing table.
        let before = Probe::take(&table);
        for size in BATCH_SIZES {
            let (ops, inserts, deletes, bytes) = self.batch(&table, size);
            sys::set_alloc_counting(traced);
            let t0 = now_ns();
            let applied = table.append_batch(&ops);
            let ns = now_ns() - t0;
            sys::set_alloc_counting(false);
            if traced {
                self.tracer
                    .root("storage.append_batch", "", self.seq, t0, t0 + ns);
            }
            self.seq += 1;
            cycle.counters.writes += size as u64;
            cycle.counters.user_bytes_acked += bytes;
            match applied {
                Ok((summary, rebuilt)) => {
                    cycle.batches.push((size, ns, rebuilt));
                    if (summary.inserted, summary.deleted, summary.noops) != (inserts, deletes, 0) {
                        self.fail(&mut cycle, format!("batch of {size}: {summary:?}, expected {inserts} inserts and {deletes} deletes"));
                    }
                }
                Err(e) => {
                    cycle.batches.push((size, ns, false));
                    self.fail(&mut cycle, format!("batch of {size}: {e}"));
                }
            }
        }
        let after = Probe::take(&table);
        cycle.counters.absorb(&before, &after);
        if table.flat_count() != self.model.len() as u128 {
            self.fail(
                &mut cycle,
                format!(
                    "table holds {} rows, the model {}",
                    table.flat_count(),
                    self.model.len()
                ),
            );
        }
        let now = sys::alloc_counters();
        cycle.counters.alloc_count = now.0 - allocs.0;
        cycle.counters.alloc_bytes = now.1 - allocs.1;
        cycle.wall_ns = now_ns() - start;
        cycle
    }

    fn fail(&mut self, cycle: &mut Cycle, what: String) {
        cycle.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// `size` ops, 80 % inserts of rows the model lacks and 20 % deletes
    /// of rows it holds, mirrored into the model as they are generated
    /// (so no op in a batch is a no-op). Returns the ops, the expected
    /// insert and delete counts, and the user bytes the ops carry.
    fn batch(&mut self, table: &NfTable, size: usize) -> (Vec<Op>, usize, usize, u64) {
        let mut ops = Vec::with_capacity(size);
        let (mut inserts, mut deletes, mut bytes) = (0, 0, 0);
        while ops.len() < size {
            let student = self.rng.below(u64::from(self.students)) as u32;
            if self.rng.below(5) == 0 {
                let held = self.model.of_student(student).count();
                if held == 0 {
                    continue;
                }
                let nth = self.rng.below(held as u64) as usize;
                let row = self
                    .model
                    .of_student(student)
                    .nth(nth)
                    .expect("counted above");
                self.model.remove(row);
                self.note(1, row, &mut bytes);
                ops.push(Op::Delete(self.atoms(table, row)));
                deletes += 1;
            } else {
                let row = (
                    student,
                    self.rng.below(u64::from(COURSES)) as u32,
                    self.rng.below(u64::from(CLUBS)) as u32,
                );
                if !self.model.insert(row) {
                    continue;
                }
                self.note(0, row, &mut bytes);
                ops.push(Op::Insert(self.atoms(table, row)));
                inserts += 1;
            }
        }
        (ops, inserts, deletes, bytes)
    }

    fn note(&mut self, op: u64, row: Row, bytes: &mut u64) {
        self.digest
            .u64(op << 60 | u64::from(row.0) << 32 | u64::from(row.1) << 16 | u64::from(row.2));
        *bytes += self.names.row_bytes(row);
    }

    fn atoms(&self, table: &NfTable, row: Row) -> Vec<nf2::core::Atom> {
        table
            .row_from_strs(&self.names.enroll_strs(row))
            .expect("three values for three attributes")
    }
}
