//! What the three statement workloads share: the data set, engine set-up,
//! the closed-loop client that generates, times, traces and checks one op
//! at a time, and the per-slice bookkeeping the metrics are computed from.

use std::path::PathBuf;
use std::sync::Arc;

use nf2::core::shard::ShardSpec;
use nf2::core::{CostCounter, NestOrder, TupleView};
use nf2::query::{parse, Engine, Output, Prepared, Session, Statement, NO_PARAMS};
use nf2::storage::{NfTable, TableStats};

use crate::gen::{
    enrollments, prof_of, Digest, KeyChooser, Names, Row, SplitMix64, CLUBS, COURSES, PROFS,
};
use crate::oracle::{Decoded, Decoder, Model, TopOrder};
use crate::stats;
use crate::sys::{self, IoCounters, ScratchDir};
use crate::trace::{now_ns, Tracer};

pub const SHARDS: usize = 4;
pub const ENROLL_ATTRS: [&str; 3] = ["Club", "Course", "Student"];

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Every kind of op a workload issues; per-kind latencies are reported
/// as `query.kind.<name>_p50_us`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    Point,
    Join,
    Count,
    ScanEq,
    MergeTopk,
    HeapTopk,
    ProjTopk,
    Explain,
    Insert,
    Delete,
    Update,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Point => "point",
            Kind::Join => "join",
            Kind::Count => "count",
            Kind::ScanEq => "scan_eq",
            Kind::MergeTopk => "merge_topk",
            Kind::HeapTopk => "heap_topk",
            Kind::ProjTopk => "proj_topk",
            Kind::Explain => "explain",
            Kind::Insert => "insert",
            Kind::Delete => "delete",
            Kind::Update => "update",
        }
    }

    /// The SELECT kinds, pooled into `read_p50_us` / `read_p99_us`.
    pub fn is_read(self) -> bool {
        matches!(
            self,
            Kind::Point
                | Kind::Join
                | Kind::Count
                | Kind::ScanEq
                | Kind::MergeTopk
                | Kind::HeapTopk
                | Kind::ProjTopk
        )
    }

    pub fn is_write(self) -> bool {
        matches!(self, Kind::Insert | Kind::Delete | Kind::Update)
    }
}

/// Exact counts gathered over a slice (or summed over several).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    pub reads: u64,
    pub writes: u64,
    pub rows_returned: u64,
    pub user_bytes_acked: u64,
    pub units_probed: u64,
    pub segments_skipped: u64,
    pub snapshot_pins: u64,
    pub epoch_installs: u64,
    pub wal_flushes: u64,
    pub cost: CostCounter,
    pub wchar: u64,
    pub syscw: u64,
    pub alloc_count: u64,
    pub alloc_bytes: u64,
    pub point_ops: u64,
    pub point_probes: u64,
    pub point_skipped: u64,
    pub merge_ops: u64,
    pub merge_taken: u64,
}

impl Counters {
    pub fn total<'a>(parts: impl IntoIterator<Item = &'a Counters>) -> Counters {
        let mut all = Counters::default();
        for part in parts {
            all.add(part);
        }
        all
    }

    fn add(&mut self, o: &Counters) {
        self.reads += o.reads;
        self.writes += o.writes;
        self.rows_returned += o.rows_returned;
        self.user_bytes_acked += o.user_bytes_acked;
        self.units_probed += o.units_probed;
        self.segments_skipped += o.segments_skipped;
        self.snapshot_pins += o.snapshot_pins;
        self.epoch_installs += o.epoch_installs;
        self.wal_flushes += o.wal_flushes;
        self.cost.accumulate(&o.cost);
        self.wchar += o.wchar;
        self.syscw += o.syscw;
        self.alloc_count += o.alloc_count;
        self.alloc_bytes += o.alloc_bytes;
        self.point_ops += o.point_ops;
        self.point_probes += o.point_probes;
        self.point_skipped += o.point_skipped;
        self.merge_ops += o.merge_ops;
        self.merge_taken += o.merge_taken;
    }

    /// Folds in what the table and the process counted between two
    /// quiescent points.
    pub fn absorb(&mut self, before: &Probe, after: &Probe) {
        self.units_probed += after.stats.units_probed - before.stats.units_probed;
        self.segments_skipped += after.stats.segments_skipped - before.stats.segments_skipped;
        self.snapshot_pins += after.stats.snapshot_pins - before.stats.snapshot_pins;
        self.epoch_installs += after.stats.epoch_installs - before.stats.epoch_installs;
        self.wal_flushes += after.stats.wal_flushes - before.stats.wal_flushes;
        self.cost.compositions += after.cost.compositions - before.cost.compositions;
        self.cost.decompositions += after.cost.decompositions - before.cost.decompositions;
        self.cost.candidate_probes += after.cost.candidate_probes - before.cost.candidate_probes;
        self.cost.recons_calls += after.cost.recons_calls - before.cost.recons_calls;
        let io = after.io.since(before.io);
        self.wchar += io.wchar;
        self.syscw += io.syscw;
    }
}

/// One reading of every program counter the benchmark takes deltas of.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    stats: TableStats,
    cost: CostCounter,
    io: IoCounters,
}

impl Probe {
    pub fn take(table: &NfTable) -> Self {
        Probe {
            stats: table.stats(),
            cost: table.maintenance_cost(),
            io: IoCounters::read(),
        }
    }
}

/// One timed slice: a fixed number of ops, their latencies, and the
/// exact counts over them.
#[derive(Debug, Default, Clone)]
pub struct Slice {
    /// Whether spans were recorded (and the split call path taken).
    pub traced: bool,
    pub samples: Vec<(Kind, u64)>,
    /// Time in calls that are not ops (checkpoints inside the slice).
    pub extra_busy_ns: u64,
    pub wall_ns: u64,
    pub counters: Counters,
}

impl Slice {
    pub fn ops(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn busy_ns(&self) -> u64 {
        self.samples.iter().map(|s| s.1).sum::<u64>() + self.extra_busy_ns
    }

    /// Ops per second of time spent inside the engine: with one client
    /// in a closed loop this is what the client sees, with the driver's
    /// own generator and oracle time left out.
    pub fn throughput(&self) -> f64 {
        self.ops() as f64 / (self.busy_ns() as f64 / 1e9)
    }

    pub fn latencies_us(&self, keep: impl Fn(Kind) -> bool) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| keep(s.0))
            .map(|s| s.1 as f64 / 1e3)
            .collect();
        stats::sort(&mut v);
        v
    }

    pub fn percentile_us(&self, p: f64, keep: impl Fn(Kind) -> bool) -> f64 {
        stats::percentile_sorted(&self.latencies_us(keep), p)
    }
}

/// Median over slices of a per-slice value (slices without a value, e.g.
/// no writes, are left out).
pub fn median_over(slices: &[&Slice], value: impl Fn(&Slice) -> Option<f64>) -> f64 {
    let values: Vec<f64> = slices.iter().filter_map(|s| value(s)).collect();
    stats::median(&values)
}

/// The seed-derived data set a run works on, generated once.
#[derive(Debug, Clone)]
pub struct BaseData {
    pub names: Names,
    pub rows: Vec<Row>,
}

impl BaseData {
    pub fn generate(seed: u64, students: u32) -> Self {
        let mut rng = SplitMix64::new(seed).fork(0xDA7A);
        BaseData {
            names: Names::new(students),
            rows: enrollments(&mut rng, 0..students),
        }
    }

    pub fn students(&self) -> u32 {
        self.names.students.len() as u32
    }
}

pub fn load_enroll(
    names: &Names,
    rows: &[Row],
    shards: usize,
    dict: &nf2::storage::SharedDictionary,
) -> Res<NfTable> {
    Ok(NfTable::bulk_load_strs_sharded(
        "enroll",
        &ENROLL_ATTRS,
        rows.iter().map(|&r| names.enroll_strs(r).to_vec()),
        NestOrder::identity(3),
        ShardSpec::hash(shards)?,
        dict.clone(),
    )?)
}

/// How an engine is made durable, if at all.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    InMemory,
    /// `data_dir` + `group_commit(0)`; `autoflush` as given. Traced runs
    /// switch autoflush off and call `flush_wal` themselves right after
    /// each statement — what autoflush does — so the flush gets a span.
    Durable {
        autoflush: bool,
    },
}

/// A set-up engine: `enroll` bulk-loaded on 4 hash shards beside the
/// 200-row dimension table `cp`, every name pre-interned in sorted order.
#[derive(Debug)]
pub struct Env {
    pub engine: Engine,
    pub dir: Option<ScratchDir>,
    /// Seconds spent in calls into the program (interning, loads,
    /// attach, first checkpoint); generating the data is not in it.
    pub setup_s: f64,
}

impl Env {
    pub fn build(data: &BaseData, durability: Durability, tracer: &mut Tracer) -> Res<Env> {
        let dir = match durability {
            Durability::InMemory => None,
            Durability::Durable { .. } => Some(ScratchDir::new("data")?),
        };
        let t0 = now_ns();
        let mut builder = Engine::builder().shards(SHARDS);
        if let (Durability::Durable { autoflush }, Some(dir)) = (durability, &dir) {
            builder = builder
                .data_dir(dir.path())
                .wal_autoflush(autoflush)
                .group_commit(0);
        }
        let engine = builder.build()?;
        for name in data.names.sorted() {
            engine.dict().intern(name);
        }
        let t1 = now_ns();
        let enroll = load_enroll(&data.names, &data.rows, SHARDS, engine.dict())?;
        let t2 = now_ns();
        tracer.root("core.bulk_load", "", 0, t1, t2);
        engine.attach_table(enroll)?;
        let cp = NfTable::bulk_load_strs_sharded(
            "cp",
            &["Course", "Prof"],
            (0..COURSES).map(|c| {
                vec![
                    data.names.courses[c as usize].as_str(),
                    data.names.profs[prof_of(c) as usize].as_str(),
                ]
            }),
            NestOrder::identity(2),
            ShardSpec::hash(SHARDS)?,
            engine.dict().clone(),
        )?;
        engine.attach_table(cp)?;
        if dir.is_some() {
            let c0 = now_ns();
            engine.checkpoint()?;
            tracer.root("storage.checkpoint", "", 0, c0, now_ns());
        }
        if !engine.dict().is_id_ordered() {
            return Err("dictionary is not id-ordered after pre-interning".into());
        }
        Ok(Env {
            engine,
            dir,
            setup_s: (now_ns() - t0) as f64 / 1e9,
        })
    }

    pub fn dir_path(&self) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.path().to_owned())
    }
}

/// Sets up at least `min_times` (dropping each engine before the next)
/// and keeps the last; a set-up that takes milliseconds is repeated until
/// half a second has gone into set-ups (at most 30 times), because
/// `setup_s` is reported as the median and a median of three 3 ms timings
/// would not be steady.
pub fn build_repeatedly(
    min_times: usize,
    data: &BaseData,
    durability: Durability,
    tracer: &mut Tracer,
) -> Res<(Env, Vec<f64>)> {
    let mut setups = Vec::new();
    loop {
        let env = Env::build(data, durability, tracer)?;
        setups.push(env.setup_s);
        let enough = setups.iter().sum::<f64>() >= 0.5 || setups.len() >= 30;
        if setups.len() >= min_times && enough {
            return Ok((env, setups));
        }
    }
}

pub const POINT_SQL: &str = "SELECT Course, Club FROM enroll WHERE Student = ?";
pub const COUNT_SQL: &str = "SELECT COUNT(*) FROM enroll JOIN cp WHERE Student = ? AND Prof = ?";
pub const JOIN_SQL: &str =
    "SELECT Student, Prof FROM enroll JOIN cp WHERE Student = ? AND Course IN (?, ?, ?)";
pub const SCAN_EQ_SQL: &str = "SELECT Student, Club FROM enroll WHERE Course = ?";
pub const MERGE_TOPK_SQL: &str = "SELECT * FROM enroll ORDER BY Student LIMIT ";
pub const HEAP_TOPK_SQL: &str = "SELECT * FROM enroll ORDER BY Course DESC, Student LIMIT ";
pub const PROJ_TOPK_SQL: &str = "SELECT Student, Course FROM enroll ORDER BY Course LIMIT ";
pub const EXPLAIN_SQL: &str = "EXPLAIN OPTIMIZED SELECT Student FROM enroll JOIN cp WHERE Prof = ?";
pub const INSERT_SQL: &str = "INSERT INTO enroll VALUES (?, ?, ?)";
pub const DELETE_SQL: &str = "DELETE FROM enroll WHERE Club = ? AND Course = ? AND Student = ?";
pub const UPDATE_SQL: &str =
    "UPDATE enroll SET Course = ? WHERE Club = ? AND Course = ? AND Student = ?";
pub const COUNT_ALL_SQL: &str = "SELECT COUNT(*) FROM enroll";
pub const MAX_K: usize = 20;

/// The prepared templates (one per `LIMIT k` for the top-k kind: `LIMIT`
/// takes no parameter).
#[derive(Debug)]
struct Stmts {
    point: Prepared,
    count: Prepared,
    scan_eq: Prepared,
    merge_topk: Vec<Prepared>,
    insert: Prepared,
    delete: Prepared,
    update: Prepared,
}

impl Stmts {
    /// Prepares every template; in a traced run each `Session::prepare`
    /// gets a span, and `nf2::query::parse` of the same text another.
    fn prepare(session: &Session<'_>, mut tracer: Option<&mut Tracer>) -> Res<Stmts> {
        let mut prepare = |sql: &str| -> Res<Prepared> {
            if let Some(tr) = tracer.as_deref_mut() {
                let p0 = now_ns();
                std::hint::black_box(parse(sql)?);
                tr.root("query.parse", "", 0, p0, now_ns());
            }
            let t0 = now_ns();
            let stmt = session.prepare(sql)?;
            if let Some(tr) = tracer.as_deref_mut() {
                tr.root("query.prepare", "", 0, t0, now_ns());
            }
            Ok(stmt)
        };
        Ok(Stmts {
            point: prepare(POINT_SQL)?,
            count: prepare(COUNT_SQL)?,
            scan_eq: prepare(SCAN_EQ_SQL)?,
            merge_topk: (1..=MAX_K)
                .map(|k| prepare(&format!("{MERGE_TOPK_SQL}{k}")))
                .collect::<Res<_>>()?,
            insert: prepare(INSERT_SQL)?,
            delete: prepare(DELETE_SQL)?,
            update: prepare(UPDATE_SQL)?,
        })
    }
}

/// Prepared statements (parse and plan paid once) or a fresh SQL text per
/// statement through `Session::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Style {
    Prepared,
    AdHoc,
}

#[derive(Debug, Clone)]
pub struct ClientCfg {
    pub style: Style,
    /// Op mix in per-mille.
    pub mix: &'static [(Kind, u32)],
    /// Share of inserts that bring a brand-new student string.
    pub new_student_share: f64,
    /// `Engine::checkpoint()` after this many writes.
    pub checkpoint_every: Option<u64>,
    /// Call `flush_wal` after each write (the engine was built with
    /// autoflush off so the flush can be timed on its own).
    pub explicit_flush: bool,
    /// Deletes undo the previous insert, so the table keeps its size.
    pub paired_writes: bool,
}

#[derive(Debug, Clone)]
enum Op {
    Point { student: u32 },
    Join { student: u32, courses: [u32; 3] },
    Count { student: u32, prof: u32 },
    ScanEq { course: u32 },
    TopK { kind: Kind, k: usize },
    Explain { prof: u32 },
    Insert(Row),
    Delete(Row),
    Update { row: Row, course: u32 },
}

impl Op {
    fn kind(&self) -> Kind {
        match self {
            Op::Point { .. } => Kind::Point,
            Op::Join { .. } => Kind::Join,
            Op::Count { .. } => Kind::Count,
            Op::ScanEq { .. } => Kind::ScanEq,
            Op::TopK { kind, .. } => *kind,
            Op::Explain { .. } => Kind::Explain,
            Op::Insert(_) => Kind::Insert,
            Op::Delete(_) => Kind::Delete,
            Op::Update { .. } => Kind::Update,
        }
    }
}

/// What an op handed back, kept for the oracle (checked after the clock
/// stops).
enum Reply {
    Views(Vec<TupleView<'static>>),
    Output(Output),
}

/// One executed op: when it started and ended, where its first child
/// call ended if it made two, and what came back.
struct Executed {
    t0: u64,
    mid: Option<u64>,
    t2: u64,
    reply: Res<Reply>,
}

/// What the durable workload learns along the way.
#[derive(Debug, Default, Clone)]
pub struct DurableLog {
    /// Per checkpoint: `(time, data_dir bytes, live user bytes)`.
    pub checkpoints: Vec<(u64, u64, u64)>,
    /// `(writes since the last checkpoint, flush time)` per write.
    pub flushes: Vec<(u64, u64)>,
    /// Students that existed at the last checkpoint: rows of later ones
    /// carry strings the checkpointed dictionary does not hold.
    pub students_at_checkpoint: u32,
    pub writes_since_checkpoint: u64,
}

/// One closed-loop client: one `Session` on one engine, one thread.
pub struct Client<'e> {
    pub cfg: ClientCfg,
    pub engine: &'e Engine,
    session: Session<'e>,
    pub table: Arc<NfTable>,
    dir: Option<PathBuf>,
    stmts: Option<Stmts>,
    pub names: Names,
    pub model: Model,
    keys: KeyChooser,
    rng: SplitMix64,
    decoder: Decoder,
    pub digest: Digest,
    pub tracer: Tracer,
    op_seq: u64,
    /// Kinds still to be dealt from the current deck (see `next_kind`).
    deck: Vec<Kind>,
    /// Rows inserted by `paired_writes` and not yet deleted again.
    pending: Vec<Row>,
    /// SELECTs sent down a path that feeds the engine's own
    /// `stmt.select.us` histogram (`run` / `execute`, not cursors).
    pub selects_through_histogram: u64,
    pub durable: DurableLog,
    /// `point` latencies (ns) before the first write and after it.
    pub fresh_point_ns: Vec<u64>,
    pub stale_point_ns: Vec<u64>,
    wrote: bool,
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl<'e> Client<'e> {
    /// `tracer` arrives holding the set-up spans; `trace_setup` adds
    /// the `prepare` spans to it.
    pub fn new(
        cfg: ClientCfg,
        env: &'e Env,
        data: &BaseData,
        seed: u64,
        mut tracer: Tracer,
        trace_setup: bool,
    ) -> Res<Client<'e>> {
        let engine = &env.engine;
        let session = engine.session();
        let stmts = match cfg.style {
            Style::Prepared => Some(Stmts::prepare(
                &session,
                trace_setup.then_some(&mut tracer),
            )?),
            Style::AdHoc => None,
        };
        let rng = SplitMix64::new(seed).fork(0xC11E);
        let keys = KeyChooser::new(data.students() as usize);
        Ok(Client {
            table: engine.table("enroll")?,
            dir: env.dir_path(),
            session,
            stmts,
            names: data.names.clone(),
            model: Model::from_rows(&data.rows),
            keys,
            rng,
            decoder: Decoder::new(engine.dict()),
            digest: Digest::default(),
            tracer,
            op_seq: 0,
            deck: Vec::new(),
            pending: Vec::new(),
            selects_through_histogram: 0,
            durable: DurableLog {
                students_at_checkpoint: data.students(),
                ..DurableLog::default()
            },
            fresh_point_ns: Vec::new(),
            stale_point_ns: Vec::new(),
            wrote: false,
            attempted: 0,
            failed: 0,
            first_failure: None,
            cfg,
            engine,
        })
    }

    /// Switches the op mix (warm-up → timed), starting a new deck.
    pub fn set_mix(&mut self, mix: &'static [(Kind, u32)]) {
        self.cfg.mix = mix;
        self.deck.clear();
    }

    /// Runs `ops` ops as one slice. Nothing is printed in here.
    pub fn slice(&mut self, ops: usize, traced: bool) -> Slice {
        let mut slice = Slice {
            traced,
            samples: Vec::with_capacity(ops),
            ..Slice::default()
        };
        if traced {
            self.tracer.reserve(ops * 3 + 8);
        }
        let before = Probe::take(&self.table);
        let start = now_ns();
        for _ in 0..ops {
            self.step(traced, &mut slice);
        }
        slice.wall_ns = now_ns() - start;
        slice.counters.absorb(&before, &Probe::take(&self.table));
        slice
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.first_failure.get_or_insert(what);
    }

    /// The next op's kind, dealt from a shuffled deck that holds each
    /// kind exactly in proportion to the mix. A slice whose op count is a
    /// multiple of the deck size therefore has exactly the mix's
    /// composition: with kinds three orders of magnitude apart in cost,
    /// drawing each op's kind independently would make slice times vary
    /// by their composition, not by the engine.
    fn next_kind(&mut self) -> Kind {
        if self.deck.is_empty() {
            let unit = self.cfg.mix.iter().fold(0, |g, m| gcd(g, m.1));
            for &(kind, weight) in self.cfg.mix {
                self.deck
                    .extend(std::iter::repeat_n(kind, (weight / unit) as usize));
            }
            for i in (1..self.deck.len()).rev() {
                let j = self.rng.below(i as u64 + 1) as usize;
                self.deck.swap(i, j);
            }
        }
        self.deck.pop().expect("refilled above")
    }

    fn pick_op(&mut self) -> Op {
        let kind = self.next_kind();
        match kind {
            Kind::Point => Op::Point {
                student: self.keys.pick(&mut self.rng),
            },
            Kind::Count => {
                let student = self.keys.pick(&mut self.rng);
                // Mostly a professor the student really has, so the count
                // is not trivially zero.
                let own = self.model.of_student(student).next().map(|r| prof_of(r.1));
                let prof = match own {
                    Some(p) if self.rng.below(5) > 0 => p,
                    _ => self.rng.below(u64::from(PROFS)) as u32,
                };
                Op::Count { student, prof }
            }
            Kind::Join => {
                let student = self.keys.pick(&mut self.rng);
                let own = self.model.of_student(student).next().map(|r| r.1);
                let mut any = || self.rng.below(u64::from(COURSES)) as u32;
                let courses = [own.unwrap_or_else(&mut any), any(), any()];
                Op::Join { student, courses }
            }
            Kind::ScanEq => Op::ScanEq {
                course: self.rng.below(u64::from(COURSES)) as u32,
            },
            Kind::MergeTopk | Kind::HeapTopk | Kind::ProjTopk => Op::TopK {
                kind,
                k: self.rng.between(1, MAX_K as u64) as usize,
            },
            Kind::Explain => Op::Explain {
                prof: self.rng.below(u64::from(PROFS)) as u32,
            },
            Kind::Insert => self.pick_insert(),
            Kind::Delete if self.cfg.paired_writes => match self.pending.pop() {
                Some(row) => Op::Delete(row),
                None => self.pick_insert(),
            },
            Kind::Delete => match self.pick_held_row() {
                Some(row) => Op::Delete(row),
                None => self.pick_insert(),
            },
            Kind::Update => {
                let target = self.pick_held_row().and_then(|row| {
                    (0..8)
                        .map(|_| self.rng.below(u64::from(COURSES)) as u32)
                        .find(|&c| !self.model.contains((row.0, c, row.2)))
                        .map(|course| Op::Update { row, course })
                });
                target.unwrap_or_else(|| self.pick_insert())
            }
        }
    }

    /// A row the model does not hold yet: for an existing (skewed)
    /// student, or — `new_student_share` of the time — a brand-new one.
    fn pick_insert(&mut self) -> Op {
        let fresh = self.rng.unit() < self.cfg.new_student_share;
        for _ in 0..8 {
            if fresh {
                break;
            }
            let row = (
                self.keys.pick(&mut self.rng),
                self.rng.below(u64::from(COURSES)) as u32,
                self.rng.below(u64::from(CLUBS)) as u32,
            );
            if !self.model.contains(row) {
                if self.cfg.paired_writes {
                    self.pending.push(row);
                }
                return Op::Insert(row);
            }
        }
        let row = (
            self.names.add_student(),
            self.rng.below(u64::from(COURSES)) as u32,
            self.rng.below(u64::from(CLUBS)) as u32,
        );
        if self.cfg.paired_writes {
            self.pending.push(row);
        }
        Op::Insert(row)
    }

    /// A row the shadow model holds, of a skewed student.
    fn pick_held_row(&mut self) -> Option<Row> {
        for _ in 0..8 {
            let student = self.keys.pick(&mut self.rng);
            let n = self.model.of_student(student).count();
            if n > 0 {
                let nth = self.rng.below(n as u64) as usize;
                return self.model.of_student(student).nth(nth);
            }
        }
        None
    }

    /// The op's template and parameters (top-k carries its `k` in the
    /// text).
    fn render<'n>(n: &'n Names, op: &Op) -> (String, Vec<&'n str>) {
        let student = |s: u32| n.students[s as usize].as_str();
        let course = |c: u32| n.courses[c as usize].as_str();
        match op {
            Op::Point { student: s } => (POINT_SQL.into(), vec![student(*s)]),
            Op::Join {
                student: s,
                courses: c,
            } => (
                JOIN_SQL.into(),
                vec![student(*s), course(c[0]), course(c[1]), course(c[2])],
            ),
            Op::Count { student: s, prof } => (
                COUNT_SQL.into(),
                vec![student(*s), n.profs[*prof as usize].as_str()],
            ),
            Op::ScanEq { course: c } => (SCAN_EQ_SQL.into(), vec![course(*c)]),
            Op::TopK { kind, k } => {
                let head = match kind {
                    Kind::MergeTopk => MERGE_TOPK_SQL,
                    Kind::HeapTopk => HEAP_TOPK_SQL,
                    _ => PROJ_TOPK_SQL,
                };
                (format!("{head}{k}"), vec![])
            }
            Op::Explain { prof } => (EXPLAIN_SQL.into(), vec![n.profs[*prof as usize].as_str()]),
            Op::Insert(row) => (INSERT_SQL.into(), n.enroll_strs(*row).to_vec()),
            Op::Delete(row) => (DELETE_SQL.into(), n.enroll_strs(*row).to_vec()),
            Op::Update { row, course: c } => {
                let [club, old, st] = n.enroll_strs(*row);
                (UPDATE_SQL.into(), vec![course(*c), club, old, st])
            }
        }
    }

    fn step(&mut self, traced: bool, slice: &mut Slice) {
        let op = self.pick_op();
        let kind = op.kind();
        let seq = self.op_seq;
        self.op_seq += 1;
        self.attempted += 1;
        let (template, params) = Self::render(&self.names, &op);
        self.digest.str(&template);
        for p in &params {
            self.digest.str(p);
        }
        // A fresh text per ad-hoc statement: the literals are spliced in
        // here, outside the clock.
        let text = match self.cfg.style {
            Style::AdHoc => splice(&template, &params),
            Style::Prepared => String::new(),
        };
        let params: Vec<String> = params.into_iter().map(str::to_owned).collect();
        let before = traced.then(|| self.table.stats());
        let allocs = traced.then(sys::alloc_counters);
        sys::set_alloc_counting(traced);
        let Executed { t0, mid, t2, reply } = self.execute(&op, &text, &params, traced);
        sys::set_alloc_counting(false);
        slice.samples.push((kind, t2 - t0));
        if let Some((count, bytes)) = allocs {
            let now = sys::alloc_counters();
            slice.counters.alloc_count += now.0 - count;
            slice.counters.alloc_bytes += now.1 - bytes;
        }
        if traced {
            let root = self.tracer.root("op", kind.name(), seq, t0, t2);
            let (first, second) = self.child_names(kind);
            match mid {
                Some(t1) => {
                    self.tracer.child(root, first, t0, t1);
                    self.tracer.child(root, second, t1, t2);
                }
                None => {
                    self.tracer.child(root, first, t0, t2);
                }
            }
        }
        if let (Some(t1), true) = (mid, kind.is_write() && self.dir.is_some()) {
            self.durable
                .flushes
                .push((self.durable.writes_since_checkpoint, t2 - t1));
        }
        if kind == Kind::Point {
            let bucket = if self.wrote {
                &mut self.stale_point_ns
            } else {
                &mut self.fresh_point_ns
            };
            bucket.push(t2 - t0);
        }
        let reply = match reply {
            Ok(reply) => reply,
            Err(e) => return self.fail(format!("{} #{seq}: {e}", kind.name())),
        };
        let rows = match self.check(&op, &reply) {
            Some(rows) => rows,
            None => {
                return self.fail(format!(
                    "{} #{seq}: result does not match the shadow model",
                    kind.name()
                ))
            }
        };
        if kind.is_read() {
            slice.counters.reads += 1;
            slice.counters.rows_returned += rows;
        }
        if let Some(before) = before {
            let after = self.table.stats();
            let probes = after.units_probed - before.units_probed;
            if kind == Kind::Point {
                slice.counters.point_ops += 1;
                slice.counters.point_probes += probes;
                slice.counters.point_skipped += after.segments_skipped - before.segments_skipped;
            }
            if let Op::TopK {
                kind: Kind::MergeTopk,
                k,
            } = op
            {
                slice.counters.merge_ops += 1;
                // The k-way merge touches at most one tuple per shard
                // beyond the k it returns; the heap fallback scans all.
                slice.counters.merge_taken += u64::from(probes <= (k + SHARDS) as u64);
            }
        }
        if kind.is_write() {
            self.wrote = true;
            slice.counters.writes += 1;
            slice.counters.user_bytes_acked += self.apply_to_model(&op);
            self.durable.writes_since_checkpoint += 1;
            if self.cfg.checkpoint_every == Some(self.durable.writes_since_checkpoint) {
                if let Err(e) = self.checkpoint(traced, slice) {
                    self.fail(format!("checkpoint: {e}"));
                }
            }
        }
    }

    fn child_names(&self, kind: Kind) -> (&'static str, &'static str) {
        match (self.cfg.style, kind) {
            (Style::AdHoc, k) if k.is_write() => ("query.parse", "storage.write_apply"),
            (Style::AdHoc, _) => ("query.parse", "query.execute"),
            (Style::Prepared, k) if k.is_write() => ("storage.write_apply", "storage.wal.flush"),
            (Style::Prepared, Kind::Count) => ("query.execute", ""),
            (Style::Prepared, _) => ("query.bind", "query.drain"),
        }
    }

    /// Runs one op, taking the clock readings around the calls it makes.
    fn execute(&mut self, op: &Op, text: &str, params: &[String], traced: bool) -> Executed {
        let kind = op.kind();
        if kind.is_read() && !(self.cfg.style == Style::Prepared && kind != Kind::Count) {
            self.selects_through_histogram += 1;
        }
        match (&mut self.stmts, self.cfg.style) {
            (_, Style::AdHoc) if traced => {
                // The split path: what `Session::run` does, in two calls.
                let t0 = now_ns();
                let stmt: Result<Statement, _> = parse(text);
                let t1 = now_ns();
                match stmt {
                    Ok(stmt) => {
                        let out = self.session.execute(stmt);
                        let t2 = now_ns();
                        Executed {
                            t0,
                            mid: Some(t1),
                            t2,
                            reply: out.map(Reply::Output).map_err(Into::into),
                        }
                    }
                    Err(e) => Executed {
                        t0,
                        mid: Some(t1),
                        t2: t1,
                        reply: Err(e.into()),
                    },
                }
            }
            (_, Style::AdHoc) => {
                let t0 = now_ns();
                let out = self.session.run(text);
                let t2 = now_ns();
                Executed {
                    t0,
                    mid: None,
                    t2,
                    reply: out.map(Reply::Output).map_err(Into::into),
                }
            }
            (Some(stmts), Style::Prepared) => {
                let stmt = match op {
                    Op::Point { .. } => &mut stmts.point,
                    Op::Count { .. } => &mut stmts.count,
                    Op::ScanEq { .. } => &mut stmts.scan_eq,
                    Op::TopK { k, .. } => &mut stmts.merge_topk[k - 1],
                    Op::Insert(_) => &mut stmts.insert,
                    Op::Delete(_) => &mut stmts.delete,
                    Op::Update { .. } => &mut stmts.update,
                    Op::Join { .. } | Op::Explain { .. } => unreachable!("ad-hoc kinds"),
                };
                if kind.is_write() {
                    let t0 = now_ns();
                    let out = stmt.execute(&mut self.session, params);
                    let t1 = now_ns();
                    let flushed = match (&self.dir, self.cfg.explicit_flush) {
                        (Some(dir), true) => self.table.flush_wal(dir),
                        _ => Ok(()),
                    };
                    let t2 = now_ns();
                    let mid = self.cfg.explicit_flush.then_some(t1);
                    let reply = out.map_err(Into::into).and_then(|o| {
                        flushed?;
                        Ok(Reply::Output(o))
                    });
                    Executed { t0, mid, t2, reply }
                } else if kind == Kind::Count {
                    let t0 = now_ns();
                    let out = stmt.execute(&mut self.session, params);
                    let t2 = now_ns();
                    Executed {
                        t0,
                        mid: None,
                        t2,
                        reply: out.map(Reply::Output).map_err(Into::into),
                    }
                } else {
                    let t0 = now_ns();
                    let cursor = stmt.query(&self.session, params);
                    let t1 = now_ns();
                    match cursor {
                        Ok(cursor) => {
                            let views: Vec<TupleView<'static>> = cursor.collect();
                            let t2 = now_ns();
                            Executed {
                                t0,
                                mid: Some(t1),
                                t2,
                                reply: Ok(Reply::Views(views)),
                            }
                        }
                        Err(e) => Executed {
                            t0,
                            mid: Some(t1),
                            t2: t1,
                            reply: Err(e.into()),
                        },
                    }
                }
            }
            (None, Style::Prepared) => unreachable!("prepared clients hold their statements"),
        }
    }

    /// Holds the reply against the shadow model; `Some(flat rows
    /// returned)` when it is right.
    fn check(&mut self, op: &Op, reply: &Reply) -> Option<u64> {
        let decoded: Vec<Decoded> = match reply {
            Reply::Views(views) => self.decoder.tuples(views.iter().map(TupleView::as_tuple))?,
            Reply::Output(Output::Relation { relation, .. }) => {
                self.decoder.tuples(relation.tuples())?
            }
            Reply::Output(_) => Vec::new(),
        };
        let rows: u64 = decoded.iter().map(Decoded::flat_rows).sum();
        let ok = match (op, reply) {
            (Op::Point { student }, _) => self.model.check_point(*student, &decoded),
            (Op::Join { student, courses }, _) => {
                self.model.check_join(*student, courses, &decoded)
            }
            (Op::Count { student, prof }, Reply::Output(Output::Count(n))) => {
                return (*n == self.model.count_join(*student, *prof)).then_some(1);
            }
            (Op::ScanEq { course }, _) => self.model.check_scan_eq(*course, &decoded),
            (Op::TopK { kind, k }, _) => {
                let order = match kind {
                    Kind::MergeTopk => TopOrder::ByStudent,
                    Kind::HeapTopk => TopOrder::ByCourseDescThenStudent,
                    _ => TopOrder::ProjectedByCourse,
                };
                self.model.check_topk(order, *k, &decoded)
            }
            (Op::Explain { .. }, Reply::Output(out)) => out.to_text().contains("plan"),
            (
                Op::Insert(_) | Op::Delete(_) | Op::Update { .. },
                Reply::Output(Output::Affected(n)),
            ) => *n == 1,
            _ => false,
        };
        ok.then_some(rows)
    }

    /// Mirrors an acknowledged write; returns the user bytes it carried.
    fn apply_to_model(&mut self, op: &Op) -> u64 {
        match *op {
            Op::Insert(row) => {
                self.model.insert(row);
                self.names.row_bytes(row)
            }
            Op::Delete(row) => {
                self.model.remove(row);
                self.names.row_bytes(row)
            }
            Op::Update { row, course } => {
                self.model.remove(row);
                self.model.insert((row.0, course, row.2));
                self.names.row_bytes(row)
            }
            _ => 0,
        }
    }

    fn checkpoint(&mut self, traced: bool, slice: &mut Slice) -> Res<()> {
        let t0 = now_ns();
        self.engine.checkpoint()?;
        let t1 = now_ns();
        slice.extra_busy_ns += t1 - t0;
        if traced {
            self.tracer
                .root("storage.checkpoint", "", self.op_seq, t0, t1);
        }
        self.durable.writes_since_checkpoint = 0;
        self.durable.students_at_checkpoint = self.names.students.len() as u32;
        let dir_bytes = self.dir.as_deref().map_or(0, sys::dir_bytes);
        let live_bytes = self.model.rows().map(|r| self.names.row_bytes(r)).sum();
        self.durable
            .checkpoints
            .push((t1 - t0, dir_bytes, live_bytes));
        Ok(())
    }

    /// The whole table against the whole model, and the engine's own
    /// SELECT count against the driver's. Counts a mismatch as a failed
    /// op.
    pub fn verify_final(&mut self, check_histogram: bool) -> Res<()> {
        let views: Vec<TupleView<'static>> = self.table.scan().collect();
        let diff = self.model.diff_table(&mut self.decoder, &views);
        self.attempted += 1;
        if !diff.is_clean() {
            self.failed += 1;
            self.first_failure.get_or_insert(format!(
                "final table differs from the model: {} lost, {} extra, {} unresolved atoms",
                diff.lost.len(),
                diff.extra,
                diff.unresolved_atoms
            ));
        }
        if check_histogram {
            let seen = self
                .engine
                .metrics()
                .histograms
                .iter()
                .find(|(name, _)| name == "stmt.select.us")
                .map_or(0, |(_, h)| h.count);
            self.attempted += 1;
            if seen != self.selects_through_histogram {
                self.failed += 1;
                self.first_failure.get_or_insert(format!(
                    "engine counted {seen} SELECTs in stmt.select.us, the driver issued {}",
                    self.selects_through_histogram
                ));
            }
        }
        Ok(())
    }

    /// `query.run_over_prepared`: the point statement through
    /// `Session::run` (fresh text) over `Prepared::execute`, medians of
    /// `n` each on the same keys.
    pub fn run_over_prepared(&mut self, n: usize) -> Res<f64> {
        let mut prepared = self.session.prepare(POINT_SQL)?;
        let (mut via_run, mut via_prepared) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..n {
            let student = self.names.students[self.keys.pick(&mut self.rng) as usize].clone();
            let text = splice(POINT_SQL, &[&student]);
            let t0 = now_ns();
            std::hint::black_box(self.session.run(&text)?);
            let t1 = now_ns();
            std::hint::black_box(prepared.execute(&mut self.session, &[&student])?);
            let t2 = now_ns();
            self.selects_through_histogram += 2;
            via_run.push((t1 - t0) as f64);
            via_prepared.push((t2 - t1) as f64);
        }
        Ok(stats::median(&via_run) / stats::median(&via_prepared))
    }

    /// `storage.table.scan_tuples_s`: NF² tuples per second draining
    /// `SELECT COUNT(*) FROM enroll`.
    pub fn scan_tuples_per_s(&mut self, n: usize) -> Res<f64> {
        let mut count_all = self.session.prepare(COUNT_ALL_SQL)?;
        let mut rates = Vec::with_capacity(n);
        for _ in 0..n {
            let t0 = now_ns();
            let out = count_all.execute(&mut self.session, NO_PARAMS)?;
            let ns = now_ns() - t0;
            self.selects_through_histogram += 1;
            if !matches!(out, Output::Count(c) if c == self.model.len() as u128) {
                return Err(
                    format!("COUNT(*) read {out}, the model holds {}", self.model.len()).into(),
                );
            }
            rates.push(self.table.tuple_count() as f64 / (ns as f64 / 1e9));
        }
        Ok(stats::median(&rates))
    }
}

fn gcd(a: u32, b: u32) -> u32 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// Replaces each `?` with the next parameter as a quoted literal.
pub fn splice(template: &str, params: &[&str]) -> String {
    let mut out = String::with_capacity(template.len() + params.len() * 12);
    let mut params = params.iter();
    for c in template.chars() {
        match c {
            '?' => {
                out.push('\'');
                out.push_str(params.next().expect("one parameter per placeholder"));
                out.push('\'');
            }
            c => out.push(c),
        }
    }
    out
}

/// `clients2.*`: two sessions on one engine, each doing `per_client`
/// point reads (or single-row insert+delete pairs on students of
/// different shards), against one client doing the same alone. 2.0 is a
/// perfect second core, 1.0 is none. Informational: the sandbox's second
/// core is not dependable.
pub fn clients2_speedup(
    engine: &Engine,
    names: &Names,
    seed: u64,
    per_client: usize,
    writes: bool,
) -> Res<f64> {
    let table = engine.table("enroll")?;
    // For writers: one student per client, on different shards.
    let mut owned: Vec<u32> = Vec::new();
    if writes {
        let mut shards_seen = Vec::new();
        for s in 0..names.students.len() as u32 {
            let atoms = table.row_from_strs(&names.enroll_strs((s, 0, 0)))?;
            let shard = table.routing().route_row(&atoms);
            if !shards_seen.contains(&shard) {
                shards_seen.push(shard);
                owned.push(s);
            }
            if owned.len() == 2 {
                break;
            }
        }
        if owned.len() < 2 {
            return Err("could not find students on two shards".into());
        }
    }
    let work = |client: usize| -> Result<u64, String> {
        let mut session = engine.session();
        let mut rng = SplitMix64::new(seed).fork(0xC2 + client as u64);
        let t0 = now_ns();
        if writes {
            let mut insert = session.prepare(INSERT_SQL).map_err(|e| e.to_string())?;
            let mut delete = session.prepare(DELETE_SQL).map_err(|e| e.to_string())?;
            // A (course, club) pair no generated row uses for this
            // student is not guaranteed, so each pair is insert-if-absent
            // then delete: the table ends as it began either way.
            for _ in 0..per_client {
                let row = (
                    owned[client],
                    rng.below(u64::from(COURSES)) as u32,
                    rng.below(u64::from(CLUBS)) as u32,
                );
                let strs = names.enroll_strs(row);
                let added = insert
                    .execute(&mut session, &strs)
                    .map_err(|e| e.to_string())?;
                if matches!(added, Output::Affected(1)) {
                    delete
                        .execute(&mut session, &strs)
                        .map_err(|e| e.to_string())?;
                }
            }
        } else {
            let mut point = session.prepare(POINT_SQL).map_err(|e| e.to_string())?;
            for _ in 0..per_client {
                let s = rng.below(names.students.len() as u64) as usize;
                let cursor = point
                    .query(&session, &[names.students[s].as_str()])
                    .map_err(|e| e.to_string())?;
                std::hint::black_box(cursor.count());
            }
        }
        Ok(now_ns() - t0)
    };
    let alone = work(0)? as f64;
    let t0 = now_ns();
    let both: Vec<Result<u64, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2).map(|c| scope.spawn(move || work(c))).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let together = (now_ns() - t0) as f64;
    for r in both {
        r?;
    }
    Ok(2.0 * alone / together)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIX: &[(Kind, u32)] = &[
        (Kind::Point, 500),
        (Kind::Count, 100),
        (Kind::ScanEq, 100),
        (Kind::MergeTopk, 100),
        (Kind::Insert, 100),
        (Kind::Delete, 50),
        (Kind::Update, 50),
    ];

    fn cfg(style: Style) -> ClientCfg {
        ClientCfg {
            style,
            mix: MIX,
            new_student_share: 0.25,
            checkpoint_every: None,
            explicit_flush: false,
            paired_writes: false,
        }
    }

    #[test]
    fn splice_quotes_parameters_in_order() {
        assert_eq!(
            splice("a = ? AND b IN (?, ?)", &["x", "y", "z"]),
            "a = 'x' AND b IN ('y', 'z')"
        );
        assert_eq!(splice("no parameters", &[]), "no parameters");
    }

    #[test]
    fn a_slice_has_the_mix_exactly_and_every_result_checks_out() {
        let data = BaseData::generate(3, 300);
        for style in [Style::Prepared, Style::AdHoc] {
            let env = Env::build(&data, Durability::InMemory, &mut Tracer::default()).unwrap();
            let mut client =
                Client::new(cfg(style), &env, &data, 3, Tracer::default(), true).unwrap();
            // Two decks of 20 cards; the second slice records spans.
            let plain = client.slice(20, false);
            let traced = client.slice(20, true);
            assert_eq!(client.first_failure, None);
            for slice in [&plain, &traced] {
                let count = |k: Kind| slice.samples.iter().filter(|s| s.0 == k).count();
                assert_eq!(count(Kind::Point), 10);
                assert_eq!(
                    count(Kind::Insert) + count(Kind::Delete) + count(Kind::Update),
                    4
                );
                assert_eq!(slice.counters.writes, 4);
            }
            assert!(traced.counters.point_probes > 0 && traced.counters.alloc_count > 0);
            assert_eq!(client.tracer.worst_uncovered_share(), 0.0);
            client.verify_final(true).unwrap();
            assert_eq!(client.first_failure, None);
        }
    }

    #[test]
    fn a_wrong_result_is_counted_as_a_failed_op() {
        let data = BaseData::generate(4, 200);
        let env = Env::build(&data, Durability::InMemory, &mut Tracer::default()).unwrap();
        let mut client = Client::new(
            cfg(Style::Prepared),
            &env,
            &data,
            4,
            Tracer::default(),
            false,
        )
        .unwrap();
        // The model forgets a row the table holds: every read of that
        // student must now fail its check.
        let victim = client.model.of_student(0).next().unwrap();
        client.model.remove(victim);
        client.verify_final(false).unwrap();
        assert_eq!(client.failed, 1);
        assert!(client.first_failure.as_deref().unwrap().contains("1 extra"));
    }
}
