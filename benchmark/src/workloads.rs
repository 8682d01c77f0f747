//! The three statement workloads — `read_serving`, `adhoc_mix`,
//! `oltp_durable` — as plans over the shared client, and how their slices
//! turn into metrics. (`bulk_ingest` drives tables, not statements, and
//! lives in `bulk.rs`.)

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Duration;

use nf2::storage::{NfTable, SharedDictionary};

use crate::gen::Digest;
use crate::harness::{
    build_repeatedly, clients2_speedup, median_over, BaseData, Client, ClientCfg, Counters,
    Durability, Kind, Res, Slice, Style,
};
use crate::oracle::Decoder;
use crate::stats;
use crate::sys::{self, ScratchDir};
use crate::trace::{now_ns, Tracer};

/// What one invocation asks for.
#[derive(Debug, Clone)]
pub struct RunCfg {
    pub seed: u64,
    /// How long the timed section measures: slices of a fixed op count
    /// are run until this much has been measured (at least
    /// [`MIN_SLICES`]).
    pub seconds: f64,
    /// Alternate untraced and traced slices and report per-layer metrics
    /// instead of end-to-end ones.
    pub trace: bool,
    /// 1.0 for real runs; `selfcheck` shrinks op counts and tables.
    pub scale: f64,
    /// Where to write the spans of a traced run, if anywhere.
    pub trace_out: Option<PathBuf>,
}

impl RunCfg {
    pub fn scaled(&self, n: usize, floor: usize) -> usize {
        ((n as f64 * self.scale) as usize).max(floor)
    }
}

/// Slices every run executes, however slow the machine. Exact counters
/// and the input digest are taken over these only, so they repeat exactly
/// however many further slices the time budget admits. Slices are short
/// (a few tenths of a second) and many: the sandbox's noise comes in
/// bursts of about a second, which then spoil some slices and leave the
/// median slice alone.
pub const MIN_SLICES: usize = 10;
const MAX_SLICES: usize = 600;
pub const SETUPS: usize = 3;
/// Past this much wall time a run stops adding slices, so that even a
/// machine several times slower ends well inside the driver's limit.
pub const SOFT_DEADLINE: Duration = Duration::from_secs(100);

/// What a workload hands back.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    pub workload: &'static str,
    /// The mode's metrics by declared name.
    pub metrics: BTreeMap<&'static str, f64>,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
    /// Hash of the generated statement/parameter stream.
    pub ops_digest: u64,
    /// `name: median [min … max] over n slices` lines for people.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

struct Plan {
    name: &'static str,
    students: usize,
    min_students: usize,
    durable: bool,
    client: ClientCfg,
    /// Read-only mix for the warm-up (the durable workload takes its
    /// fresh-segment read latency from it, before the first write).
    warmup_mix: &'static [(Kind, u32)],
    /// About 5 % of what a nominal run holds, discarded.
    warmup_ops: usize,
    /// A whole number of mix decks, so every slice has the mix's exact
    /// composition.
    slice_ops: usize,
    /// `clients2.*`: `Some(true)` = two writers, `Some(false)` = two readers.
    clients2: Option<bool>,
    metrics_overhead: bool,
}

const READ_MIX: &[(Kind, u32)] = &[
    (Kind::Point, 700),
    (Kind::Count, 150),
    (Kind::MergeTopk, 120),
    (Kind::ScanEq, 30),
];

const ADHOC_MIX: &[(Kind, u32)] = &[
    (Kind::Point, 400),
    (Kind::Join, 150),
    (Kind::Count, 100),
    (Kind::ScanEq, 80),
    (Kind::MergeTopk, 80),
    (Kind::HeapTopk, 70),
    (Kind::Explain, 50),
    (Kind::Insert, 25),
    (Kind::Delete, 25),
    (Kind::ProjTopk, 20),
];

const ADHOC_WARMUP: &[(Kind, u32)] = &[
    (Kind::Point, 400),
    (Kind::Join, 150),
    (Kind::Count, 100),
    (Kind::ScanEq, 80),
    (Kind::MergeTopk, 80),
    (Kind::HeapTopk, 70),
    (Kind::Explain, 50),
    (Kind::ProjTopk, 20),
];

const OLTP_MIX: &[(Kind, u32)] = &[
    (Kind::Point, 550),
    (Kind::Count, 100),
    (Kind::MergeTopk, 100),
    (Kind::Insert, 120),
    (Kind::Delete, 80),
    (Kind::Update, 50),
];

const OLTP_WARMUP: &[(Kind, u32)] = &[
    (Kind::Point, 550),
    (Kind::Count, 100),
    (Kind::MergeTopk, 100),
];

pub fn read_serving(cfg: &RunCfg) -> Res<Outcome> {
    run(
        cfg,
        Plan {
            name: "read_serving",
            students: 100_000,
            min_students: 2_000,
            durable: false,
            client: ClientCfg {
                style: Style::Prepared,
                mix: READ_MIX,
                new_student_share: 0.0,
                checkpoint_every: None,
                explicit_flush: false,
                paired_writes: false,
            },
            warmup_mix: READ_MIX,
            warmup_ops: 600,
            slice_ops: 300,
            clients2: Some(false),
            metrics_overhead: true,
        },
    )
}

pub fn adhoc_mix(cfg: &RunCfg) -> Res<Outcome> {
    run(
        cfg,
        Plan {
            name: "adhoc_mix",
            students: 400,
            min_students: 400,
            durable: false,
            client: ClientCfg {
                style: Style::AdHoc,
                mix: ADHOC_MIX,
                new_student_share: 0.0,
                checkpoint_every: None,
                explicit_flush: false,
                paired_writes: true,
            },
            warmup_mix: ADHOC_WARMUP,
            warmup_ops: 8_000,
            slice_ops: 2_000,
            clients2: None,
            metrics_overhead: true,
        },
    )
}

pub fn oltp_durable(cfg: &RunCfg) -> Res<Outcome> {
    run(
        cfg,
        Plan {
            name: "oltp_durable",
            students: 20_000,
            min_students: 1_000,
            durable: true,
            client: ClientCfg {
                style: Style::Prepared,
                mix: OLTP_MIX,
                new_student_share: 0.25,
                checkpoint_every: Some(100),
                // Traced runs build the engine with autoflush off and
                // flush by hand, which is what autoflush does.
                explicit_flush: cfg.trace,
                paired_writes: false,
            },
            warmup_mix: OLTP_WARMUP,
            warmup_ops: 100,
            slice_ops: 100,
            clients2: Some(true),
            metrics_overhead: false,
        },
    )
}

/// Runs slices of `ops` ops until `cfg.seconds` have been measured. In a
/// traced run odd slices record spans, even ones are the untraced
/// reference the overhead is taken against.
pub fn run_slices<S>(
    cfg: &RunCfg,
    started_ns: u64,
    wall_ns: impl Fn(&S) -> u64,
    mut one: impl FnMut(bool) -> S,
) -> Vec<S> {
    let mut slices: Vec<S> = Vec::new();
    let mut measured_ns = 0;
    while slices.len() < MAX_SLICES {
        let slice = one(cfg.trace && slices.len() % 2 == 1);
        measured_ns += wall_ns(&slice);
        slices.push(slice);
        let late = now_ns() - started_ns > SOFT_DEADLINE.as_nanos() as u64;
        if slices.len() >= MIN_SLICES && (measured_ns as f64 >= cfg.seconds * 1e9 || late) {
            break;
        }
    }
    slices
}

/// One untraced slice's contribution to the end-to-end metrics.
#[derive(Debug, Clone, Copy)]
pub struct SliceSummary {
    pub throughput_ops_s: f64,
    pub op_p50_us: f64,
    pub op_p99_us: f64,
}

/// The end-to-end metrics every workload reports: each timing is the
/// median of its per-slice (and per-set-up) values, so one preemption
/// burst moves `max`, not the result.
pub fn end_to_end(
    slices: &[SliceSummary],
    setups: &[f64],
    notes: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    let mut put = |name: &'static str, values: Vec<f64>| {
        let s = stats::sliced(&values);
        notes.push(format!(
            "{name}: {:.4} [{:.4} … {:.4}] over {} values",
            s.median,
            s.min,
            s.max,
            values.len()
        ));
        out.insert(name, s.median);
    };
    put("setup_s", setups.to_vec());
    put(
        "throughput_ops_s",
        slices.iter().map(|s| s.throughput_ops_s).collect(),
    );
    put("op_p50_us", slices.iter().map(|s| s.op_p50_us).collect());
    put("op_p99_us", slices.iter().map(|s| s.op_p99_us).collect());
    out.insert("peak_rss_mb", sys::peak_rss_mib());
    out
}

fn run(cfg: &RunCfg, plan: Plan) -> Res<Outcome> {
    let started = now_ns();
    let data = BaseData::generate(
        cfg.seed,
        cfg.scaled(plan.students, plan.min_students) as u32,
    );
    let durability = match plan.durable {
        true => Durability::Durable {
            autoflush: !cfg.trace,
        },
        false => Durability::InMemory,
    };
    let mut tracer = Tracer::default();
    let (env, setups) = build_repeatedly(SETUPS, &data, durability, &mut tracer)?;
    let tuples_per_row = env.engine.table("enroll")?.tuple_count() as f64 / data.rows.len() as f64;
    let mut client = Client::new(
        plan.client.clone(),
        &env,
        &data,
        cfg.seed,
        tracer,
        cfg.trace,
    )?;
    let slice_ops = cfg.scaled(plan.slice_ops, 20);

    client.set_mix(plan.warmup_mix);
    client.slice(cfg.scaled(plan.warmup_ops, 20), false);
    client.set_mix(plan.client.mix);

    // The digest (and the space amplification) are read where the last
    // slice every run executes ends: same seed, same value.
    let (mut digest, mut checkpoints_seen, mut done) = (client.digest, 0, 0);
    let slices = run_slices(
        cfg,
        started,
        |s: &Slice| s.wall_ns,
        |traced| {
            let slice = client.slice(slice_ops, traced);
            done += 1;
            if done == MIN_SLICES {
                digest = client.digest;
                checkpoints_seen = client.durable.checkpoints.len();
            }
            slice
        },
    );
    let untraced: Vec<&Slice> = slices.iter().filter(|s| !s.traced).collect();
    let traced: Vec<&Slice> = slices.iter().filter(|s| s.traced).collect();

    let mut notes = Vec::new();
    let mut metrics = if cfg.trace {
        let mut m = statement_layers(&client, &untraced, &traced, &mut notes);
        m.insert("core.nest.tuples_per_row", tuples_per_row);
        m.insert(
            "query.run_over_prepared",
            client.run_over_prepared(cfg.scaled(400, 40))?,
        );
        m.insert("storage.table.scan_tuples_s", client.scan_tuples_per_s(5)?);
        let (intern_ns, lookup_ns) = dictionary_probe(cfg.scaled(20_000, 1_000));
        m.insert("storage.dictionary.intern_ns", intern_ns);
        m.insert("storage.dictionary.lookup_ns", lookup_ns);
        m
    } else {
        let summaries: Vec<SliceSummary> = untraced
            .iter()
            .map(|s| SliceSummary {
                throughput_ops_s: s.throughput(),
                op_p50_us: s.percentile_us(50.0, |_| true),
                op_p99_us: s.percentile_us(99.0, |_| true),
            })
            .collect();
        end_to_end(&summaries, &setups, &mut notes)
    };
    client.verify_final(true)?;
    if cfg.trace && plan.metrics_overhead {
        // One more slice with the engine's metrics switched off.
        env.engine.obs().set_metrics_enabled(false);
        let quiet = client.slice(slice_ops, false);
        env.engine.obs().set_metrics_enabled(true);
        let default = median_over(&untraced, |s| Some(s.throughput()));
        metrics.insert("obs.metrics_overhead", quiet.throughput() / default);
    }
    if let (true, Some(writers)) = (cfg.trace, plan.clients2) {
        let name = if writers {
            "clients2.write_speedup"
        } else {
            "clients2.read_speedup"
        };
        let per_client = cfg.scaled(if writers { 20 } else { 1_500 }, 10);
        metrics.insert(
            name,
            clients2_speedup(&env.engine, &client.names, cfg.seed, per_client, writers)?,
        );
    }

    // The client borrows the engine; keep what outlives it.
    let mut done = Finished {
        attempted: client.attempted,
        failed: client.failed,
        first_failure: client.first_failure.take(),
        digest,
        durable: std::mem::take(&mut client.durable),
        tracer: std::mem::take(&mut client.tracer),
    };
    let model = std::mem::take(&mut client.model);
    drop(client);

    if plan.durable {
        // Simulated crash: no final checkpoint, the engine is dropped,
        // and a process that never saw it opens a copy of what it left
        // on disk, with a dictionary of its own.
        let nf2_dir = env.dir.expect("durable plans have a data_dir");
        drop(env.engine);
        let crashed = ScratchDir::copy_of(nf2_dir.path(), "crash")?;
        drop(nf2_dir);
        let dict = SharedDictionary::new();
        let t0 = now_ns();
        let reopened = NfTable::open(crashed.path(), "enroll", dict.clone())?;
        let t1 = now_ns();
        let views: Vec<_> = reopened.scan().collect();
        let diff = model.diff_table(&mut Decoder::new(&dict), &views);
        let t2 = now_ns();
        done.tracer.root("storage.open", "", 0, t0, t1);
        // Rows of students first seen after the last checkpoint carry
        // strings the checkpointed dictionary cannot resolve: today's
        // engine logs the atoms but not the strings. Those are counted in
        // `recover_lost_writes` as a finding; anything else missing or
        // extra is a wrong result.
        let excused = diff
            .lost
            .iter()
            .all(|r| r.0 >= done.durable.students_at_checkpoint);
        done.attempted += 1;
        if diff.extra > 0 || !excused {
            done.failed += 1;
            done.first_failure.get_or_insert(format!(
                "recovery: {} rows lost ({} of them written before the last checkpoint's dictionary), {} extra",
                diff.lost.len(),
                diff.lost.iter().filter(|r| r.0 < done.durable.students_at_checkpoint).count(),
                diff.extra
            ));
        }
        notes.push(format!(
            "recovery: {} acknowledged rows not readable as strings after reopen ({} unresolved atoms), open {:.1} ms",
            diff.lost.len(),
            diff.unresolved_atoms,
            (t1 - t0) as f64 / 1e6
        ));
        if cfg.trace {
            let all = Counters::total(slices[..MIN_SLICES].iter().map(|s| &s.counters));
            metrics.insert("recover_s", (t2 - t0) as f64 / 1e9);
            metrics.insert("storage.open.ms", (t1 - t0) as f64 / 1e6);
            metrics.insert("recover_lost_writes", diff.lost.len() as f64);
            metrics.insert(
                "write_amp",
                all.wchar as f64 / all.user_bytes_acked.max(1) as f64,
            );
            // Space is read at the last checkpoint every run reaches.
            let (_, dir_bytes, live_bytes) = done.durable.checkpoints[..checkpoints_seen]
                .last()
                .copied()
                .unwrap_or((0, 0, 1));
            metrics.insert("space_amp", dir_bytes as f64 / live_bytes as f64);
            metrics.insert("storage.checkpoint.bytes", dir_bytes as f64);
            let checkpoint_ns: Vec<f64> = done
                .durable
                .checkpoints
                .iter()
                .map(|c| c.0 as f64)
                .collect();
            metrics.insert("checkpoint_s", stats::median(&checkpoint_ns) / 1e9);
            metrics.insert("storage.checkpoint.ms", stats::median(&checkpoint_ns) / 1e6);
            metrics.insert(
                "storage.wal.flush_growth",
                flush_growth(&done.durable.flushes, 100),
            );
        }
    }

    if cfg.trace {
        let uncovered = done.tracer.worst_uncovered_share();
        done.attempted += 1;
        if uncovered > 0.05 {
            done.failed += 1;
            done.first_failure.get_or_insert(format!(
                "trace: a span's children leave {:.1} % of it uncovered",
                uncovered * 100.0
            ));
        }
        metrics.insert("error_rate", done.failed as f64 / done.attempted as f64);
        if let Some(path) = &cfg.trace_out {
            done.tracer.write_json(path, plan.name)?;
        }
    }

    Ok(Outcome {
        workload: plan.name,
        metrics,
        attempted: done.attempted,
        failed: done.failed,
        first_failure: done.first_failure,
        ops_digest: done.digest.value(),
        notes,
    })
}

struct Finished {
    attempted: u64,
    failed: u64,
    first_failure: Option<String>,
    digest: Digest,
    durable: crate::harness::DurableLog,
    tracer: Tracer,
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Per-layer metrics of a statement workload: spans and exact counts
/// from the traced slices, the split end-to-end quantities and the trace
/// overhead from the untraced ones.
fn statement_layers(
    client: &Client<'_>,
    untraced: &[&Slice],
    traced: &[&Slice],
    notes: &mut Vec<String>,
) -> BTreeMap<&'static str, f64> {
    let mut m = BTreeMap::new();
    let tr = &client.tracer;
    notes.push(self_time_note(tr));
    let span_p50 = |name: &str| stats::median(&tr.durations_us(name));

    let pct = |p: f64, keep: fn(Kind) -> bool| {
        median_over(untraced, |s| {
            let v = s.latencies_us(keep);
            (!v.is_empty()).then(|| stats::percentile_sorted(&v, p))
        })
    };
    m.insert("read_p50_us", pct(50.0, Kind::is_read));
    m.insert("read_p99_us", pct(99.0, Kind::is_read));
    m.insert("write_p50_us", pct(50.0, Kind::is_write));
    m.insert("write_p99_us", pct(99.0, Kind::is_write));

    let parse = span_p50("query.parse");
    let prepare = span_p50("query.prepare");
    m.insert("query.parse_us", parse);
    m.insert("query.prepare_us", prepare);
    // Plan + optimize + verify + compile: what `prepare` does beyond
    // parsing. Ad-hoc statements never call `prepare`; there it is the
    // part of `execute` that a cached plan would save, reported under
    // `query.run_over_prepared` instead.
    m.insert("algebra.plan_us", (prepare - parse).max(0.0));
    m.insert("query.execute_us", span_p50("query.execute"));
    m.insert("query.bind_us", span_p50("query.bind"));
    m.insert("query.drain_us", span_p50("query.drain"));
    m.insert(
        "storage.table.write_apply_us",
        span_p50("storage.write_apply"),
    );
    m.insert("storage.wal.flush_us", span_p50("storage.wal.flush"));

    const KIND_METRICS: [(Kind, &str); 11] = [
        (Kind::Point, "query.kind.point_p50_us"),
        (Kind::Join, "query.kind.join_p50_us"),
        (Kind::Count, "query.kind.count_p50_us"),
        (Kind::ScanEq, "query.kind.scan_eq_p50_us"),
        (Kind::MergeTopk, "query.kind.merge_topk_p50_us"),
        (Kind::HeapTopk, "query.kind.heap_topk_p50_us"),
        (Kind::ProjTopk, "query.kind.proj_topk_p50_us"),
        (Kind::Explain, "query.kind.explain_p50_us"),
        (Kind::Insert, "query.kind.insert_p50_us"),
        (Kind::Delete, "query.kind.delete_p50_us"),
        (Kind::Update, "query.kind.update_p50_us"),
    ];
    let kind_p50 = |set: &[&Slice], kind: Kind| {
        let pooled: Vec<f64> = set
            .iter()
            .flat_map(|s| {
                s.samples
                    .iter()
                    .filter(move |x| x.0 == kind)
                    .map(|x| x.1 as f64 / 1e3)
            })
            .collect();
        (stats::median(&pooled), pooled.len())
    };
    // How far the traced call path sits from the untraced one, per kind
    // (kinds with too few samples to say are left out).
    let mut drift: Vec<String> = Vec::new();
    for (kind, name) in KIND_METRICS {
        let (on, n_on) = kind_p50(traced, kind);
        let (off, n_off) = kind_p50(untraced, kind);
        m.insert(name, on);
        if n_on >= 30 && n_off >= 30 {
            drift.push(format!("{} {:.3}", kind.name(), on / off));
        }
    }
    notes.push(format!(
        "traced ÷ untraced p50 by kind: {}",
        drift.join(", ")
    ));

    // Exact counts: over the traced slices every run executes.
    let sure = &traced[..traced.len().min(MIN_SLICES / 2)];
    let c = Counters::total(sure.iter().map(|s| &s.counters));
    let ops: u64 = sure.iter().map(|s| s.ops()).sum();
    m.insert(
        "query.rows_examined_per_row",
        ratio(c.units_probed, c.rows_returned),
    );
    m.insert(
        "algebra.merge_path_ratio",
        ratio(c.merge_taken, c.merge_ops),
    );
    m.insert(
        "core.shard.probes_per_point_read",
        ratio(c.point_probes, c.point_ops),
    );
    m.insert(
        "core.segment.skipped_per_point_read",
        ratio(c.point_skipped, c.point_ops),
    );
    m.insert(
        "core.segment.examined_fraction",
        ratio(c.point_probes, c.point_ops) / client.table.tuple_count().max(1) as f64,
    );
    m.insert(
        "core.maintenance.probes_per_write",
        ratio(c.cost.candidate_probes, c.writes),
    );
    m.insert(
        "core.maintenance.compositions_per_write",
        ratio(c.cost.compositions, c.writes),
    );
    m.insert(
        "core.maintenance.decompositions_per_write",
        ratio(c.cost.decompositions, c.writes),
    );
    m.insert(
        "core.maintenance.recons_per_write",
        ratio(c.cost.recons_calls, c.writes),
    );
    m.insert(
        "core.mvcc.installs_per_write",
        ratio(c.epoch_installs, c.writes),
    );
    m.insert("core.mvcc.pins_per_read", ratio(c.snapshot_pins, c.reads));
    m.insert("storage.wal.bytes_per_write", ratio(c.wchar, c.writes));
    m.insert("storage.wal.syscalls_per_write", ratio(c.syscw, c.writes));
    m.insert(
        "storage.wal.flushes_per_write",
        ratio(c.wal_flushes, c.writes),
    );
    m.insert("alloc.count_per_op", ratio(c.alloc_count, ops));
    m.insert("alloc.bytes_per_op", ratio(c.alloc_bytes, ops));

    let us = |ns: &[u64]| stats::median(&ns.iter().map(|&n| n as f64 / 1e3).collect::<Vec<_>>());
    let (fresh, stale) = (us(&client.fresh_point_ns), us(&client.stale_point_ns));
    if !client.stale_point_ns.is_empty() {
        m.insert("storage.table.read_fresh_p50_us", fresh);
        m.insert("storage.table.read_stale_p50_us", stale);
        m.insert("storage.table.stale_penalty", stale / fresh);
    }

    let thr = |set: &[&Slice]| median_over(set, |s| Some(s.throughput()));
    m.insert("trace.overhead", thr(untraced) / thr(traced));
    let (wall, busy): (u64, u64) = traced
        .iter()
        .fold((0, 0), |a, s| (a.0 + s.wall_ns, a.1 + s.busy_ns()));
    m.insert("driver.self_share", 1.0 - busy as f64 / wall as f64);
    m
}

/// Where the traced time went: self time (a span minus its children) by
/// span name, as shares of the total.
pub fn self_time_note(tracer: &Tracer) -> String {
    let by_name = tracer.self_by_name_ns();
    let total: u64 = by_name.values().sum();
    let parts: Vec<String> = by_name
        .iter()
        .map(|(name, ns)| format!("{name} {:.1}%", *ns as f64 / total.max(1) as f64 * 100.0))
        .collect();
    format!("self time by span: {}", parts.join(", "))
}

/// Median flush time over the last tenth of a checkpoint interval ÷ over
/// the first tenth: above 1 when a flush costs more the longer the log.
fn flush_growth(flushes: &[(u64, u64)], interval: u64) -> f64 {
    let band = |lo: u64, hi: u64| {
        let v: Vec<f64> = flushes
            .iter()
            .filter(|f| f.0 >= lo && f.0 < hi)
            .map(|f| f.1 as f64)
            .collect();
        stats::median(&v)
    };
    let (first, last) = (
        band(0, interval / 10),
        band(interval - interval / 10, interval),
    );
    if first == 0.0 {
        0.0
    } else {
        last / first
    }
}

/// `storage.dictionary.*`: nanoseconds to intern a string the dictionary
/// has not seen, and to look up one it has.
pub fn dictionary_probe(n: usize) -> (f64, f64) {
    let names: Vec<String> = (0..n).map(|i| format!("probe{i:08}")).collect();
    let dict = SharedDictionary::new();
    let t0 = now_ns();
    for name in &names {
        std::hint::black_box(dict.intern(name));
    }
    let t1 = now_ns();
    for name in &names {
        std::hint::black_box(dict.lookup(name));
    }
    let t2 = now_ns();
    ((t1 - t0) as f64 / n as f64, (t2 - t1) as f64 / n as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flush_growth_compares_the_ends_of_an_interval() {
        let flushes: Vec<(u64, u64)> = (0..100).map(|i| (i, 1000 + i * 10)).collect();
        // first tenth: positions 0..10 → median 1045; last: 90..100 → 1945
        assert!((flush_growth(&flushes, 100) - 1945.0 / 1045.0).abs() < 1e-9);
        assert_eq!(flush_growth(&[], 100), 0.0);
    }

    #[test]
    fn mixes_sum_to_one_thousand() {
        for mix in [READ_MIX, ADHOC_MIX, OLTP_MIX] {
            assert_eq!(mix.iter().map(|m| m.1).sum::<u32>(), 1000);
        }
    }

    #[test]
    fn slices_stop_on_the_budget_but_never_short_of_the_minimum() {
        let cfg = RunCfg {
            seed: 1,
            seconds: 0.0,
            trace: false,
            scale: 1.0,
            trace_out: None,
        };
        let slice = |traced| Slice {
            traced,
            wall_ns: 1,
            ..Slice::default()
        };
        let ran = run_slices(&cfg, now_ns(), |s: &Slice| s.wall_ns, slice);
        assert_eq!(ran.len(), MIN_SLICES);
        let traced_cfg = RunCfg { trace: true, ..cfg };
        let ran = run_slices(&traced_cfg, now_ns(), |s: &Slice| s.wall_ns, slice);
        assert_eq!(ran.iter().filter(|s| s.traced).count(), MIN_SLICES / 2);
        assert_eq!(ran.iter().filter(|s| !s.traced).count(), MIN_SLICES / 2);
    }
}
