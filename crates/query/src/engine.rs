//! The embedded engine and its sessions.
//!
//! The public surface is three-staged, separating what the paper's
//! operator algebra leaves implicit — *how* relations are consumed:
//!
//! 1. [`Engine`] owns the durable state: the shared dictionary, the
//!    catalog of [`NfTable`]s, and the persistence configuration
//!    (set through [`Engine::builder`]).
//! 2. [`Session`] issues statements against one engine. Each INSERT,
//!    DELETE or UPDATE is one write ([`NfTable::append_batch`]): its
//!    flat-row ops land together, behind one epoch bump, or — when the
//!    statement fails — not at all. The session carries the
//!    transaction state (the ops that took effect since BEGIN, which
//!    ROLLBACK inverts) and hands out [`crate::Prepared`] statements and
//!    streaming cursors ([`crate::Cursor`]).
//! 3. [`crate::Prepared`] re-executes a parsed + optimized plan
//!    with `?` parameters bound per call — no re-lex, no re-parse, no
//!    re-optimize.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use nf2_algebra::stream::SelectProject;
use nf2_algebra::Expr;
use nf2_core::bulk::{BatchSummary, Op};
use nf2_core::chunk::{ChunkBuilder, Rewrite};
use nf2_core::relation::{NfRelation, RowBlock};
use nf2_core::schema::NestOrder;
use nf2_core::tuple::ValueSet;
use nf2_core::value::Atom;
use nf2_obs::{Counter, Histogram, MetricsSnapshot, Obs, Stopwatch, Subscriber};
use nf2_storage::{NfTable, SharedDictionary};

use crate::ast::{Predicate, Statement};
use crate::cursor::Cursor;
use crate::exec::{Output, QueryError};
use crate::prepare::{execute_select, Param, PlanCache, Prepared, SelectPlan};
use crate::token::{self, Shape};

/// Configures and builds an [`Engine`].
///
/// ```
/// use nf2_query::Engine;
///
/// let engine = Engine::builder()
///     .wal_autoflush(false)
///     .build()
///     .expect("valid configuration");
/// assert_eq!(engine.ddl_epoch(), 0);
/// ```
#[derive(Debug, Default, Clone)]
pub struct EngineBuilder {
    data_dir: Option<PathBuf>,
    wal_autoflush: bool,
    shards: Option<usize>,
    subscriber: Option<Arc<dyn Subscriber>>,
    slow_statement_us: Option<u64>,
    group_commit_us: Option<u64>,
}

impl EngineBuilder {
    /// Directory for checkpoints and write-ahead logs. Without one the
    /// engine is purely in-memory ([`Engine::checkpoint`] errors).
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.data_dir = Some(dir.into());
        self
    }

    /// Number of shards `CREATE TABLE` partitions new tables into
    /// (hash-partitioned on the outermost nest attribute). Overrides the
    /// `NF2_SHARDS` environment variable; defaults to 1 (unsharded).
    ///
    /// The count is validated by [`build`](Self::build): `shards(0)` is
    /// an [`NfError::InvalidShardSpec`](nf2_core::NfError::InvalidShardSpec)
    /// there, not a silent clamp (and not a panic later inside the shard
    /// router).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = Some(shards);
        self
    }

    /// Flush each table's WAL to the data directory after every mutating
    /// statement (default: off — WALs are written on checkpoint only).
    pub fn wal_autoflush(mut self, on: bool) -> Self {
        self.wal_autoflush = on;
        self
    }

    /// Installs a tracing subscriber on the engine's [`Obs`] hub
    /// (default: none — spans and events cost one relaxed load and
    /// nothing else). The same hub is reachable later through
    /// [`Engine::obs`], so a subscriber can also be attached or swapped
    /// after construction.
    pub fn subscriber(mut self, sub: Arc<dyn Subscriber>) -> Self {
        self.subscriber = Some(sub);
        self
    }

    /// Slow-statement threshold in microseconds: any statement whose
    /// execution takes at least this long is counted in the
    /// `stmt.slow.count` metric and logged — as a `stmt.slow` event when
    /// a subscriber is installed, to stderr otherwise. Overrides the
    /// `NF2_SLOW_US` environment variable; default: no slow log.
    pub fn slow_statement_threshold(mut self, us: u64) -> Self {
        self.slow_statement_us = Some(us);
        self
    }

    /// Group-commit window in microseconds: how long an elected WAL
    /// flush leader dwells before it appends the group in one `write`
    /// to the log file it holds open (no fsync yet), letting
    /// concurrent writers' commits ride in the same group. Overrides
    /// the `NF2_GROUP_COMMIT_US` environment variable; default 0
    /// (flush immediately — correct, just one write per flush call
    /// under contention-free load).
    pub fn group_commit(mut self, us: u64) -> Self {
        self.group_commit_us = Some(us);
        self
    }

    /// Builds the engine, validating the configuration.
    ///
    /// # Errors
    ///
    /// An explicit [`shards(0)`](Self::shards), or an `NF2_SHARDS`
    /// environment value that is `0` or not a number, surfaces as
    /// [`NfError::InvalidShardSpec`](nf2_core::NfError::InvalidShardSpec)
    /// here — at configuration time, where it is actionable — instead of
    /// being clamped or panicking inside `ShardRouter` at the first
    /// `CREATE TABLE`.
    pub fn build(self) -> Result<Engine, QueryError> {
        static NEXT_ID: AtomicU64 = AtomicU64::new(0);
        let shards = match self.shards {
            Some(n) => n,
            None => parse_shards_env(std::env::var("NF2_SHARDS").ok().as_deref())?,
        };
        // Validate through the spec constructor itself, so builder-time
        // and storage-time shard rules cannot drift apart.
        nf2_core::shard::ShardSpec::hash(shards)?;
        let slow_statement_us = match self.slow_statement_us {
            Some(us) => Some(us),
            None => parse_slow_env(std::env::var("NF2_SLOW_US").ok().as_deref())?,
        };
        let group_commit_us = match self.group_commit_us {
            Some(us) => us,
            None => parse_group_commit_env(std::env::var("NF2_GROUP_COMMIT_US").ok().as_deref())?,
        };
        // Each engine gets a private hub and registry, so embedded
        // engines and tests stay hermetic; share one by installing the
        // same subscriber, or read `nf2_obs::global()` series alongside.
        let obs = Arc::new(Obs::new());
        if let Some(sub) = self.subscriber {
            obs.set_subscriber(Some(sub));
        }
        let stmt_metrics = StmtMetrics::new(&obs);
        let plan_cache = PlanCache::new(&obs);
        Ok(Engine {
            dict: SharedDictionary::new(),
            tables: RwLock::new(BTreeMap::new()),
            instance_id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            ddl_epoch: AtomicU64::new(0),
            data_dir: self.data_dir,
            wal_autoflush: self.wal_autoflush,
            default_shards: shards,
            obs,
            stmt_metrics,
            plan_cache,
            slow_statement_us,
            group_commit_us,
        })
    }
}

/// Parses the `NF2_SHARDS` default shard count. `None` (unset) means 1;
/// anything set must be a positive integer — garbage and `0` are
/// configuration errors, not silent fallbacks.
fn parse_shards_env(raw: Option<&str>) -> Result<usize, QueryError> {
    let Some(raw) = raw else { return Ok(1) };
    match raw.trim().parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        Ok(n) => Err(QueryError::Model(nf2_core::NfError::InvalidShardSpec(
            format!("NF2_SHARDS={n}: shard count must be at least 1"),
        ))),
        Err(_) => Err(QueryError::Model(nf2_core::NfError::InvalidShardSpec(
            format!("NF2_SHARDS={raw:?} is not a shard count"),
        ))),
    }
}

/// Parses the `NF2_SLOW_US` slow-statement threshold. `None` (unset)
/// disables the slow log; anything set must be a non-negative integer
/// number of microseconds (`0` logs every statement) — garbage is a
/// configuration error, not a silent fallback.
fn parse_slow_env(raw: Option<&str>) -> Result<Option<u64>, QueryError> {
    let Some(raw) = raw else { return Ok(None) };
    match raw.trim().parse::<u64>() {
        Ok(us) => Ok(Some(us)),
        Err(_) => Err(QueryError::Semantic(format!(
            "NF2_SLOW_US={raw:?} is not a microsecond threshold"
        ))),
    }
}

/// Parses the `NF2_GROUP_COMMIT_US` group-commit window. `None`
/// (unset) means 0 — flush immediately; anything set must be a
/// non-negative integer number of microseconds — garbage is a
/// configuration error, not a silent fallback.
fn parse_group_commit_env(raw: Option<&str>) -> Result<u64, QueryError> {
    let Some(raw) = raw else { return Ok(0) };
    match raw.trim().parse::<u64>() {
        Ok(us) => Ok(us),
        Err(_) => Err(QueryError::Semantic(format!(
            "NF2_GROUP_COMMIT_US={raw:?} is not a microsecond window"
        ))),
    }
}

/// Pre-resolved metric handles for the statement hot path: one
/// histogram per statement kind plus the planning-phase histograms and
/// the slow-statement counter, looked up once at engine construction so
/// recording a statement never takes the registry lock.
#[derive(Debug, Clone)]
pub(crate) struct StmtMetrics {
    select: Histogram,
    insert: Histogram,
    delete: Histogram,
    update: Histogram,
    ddl: Histogram,
    other: Histogram,
    pub(crate) parse: Histogram,
    pub(crate) plan_build: Histogram,
    pub(crate) plan_optimize: Histogram,
    pub(crate) plan_verify: Histogram,
    pub(crate) plan_compile: Histogram,
    slow: Counter,
}

impl StmtMetrics {
    fn new(obs: &Obs) -> Self {
        let reg = obs.registry();
        StmtMetrics {
            select: reg.histogram("stmt.select.us"),
            insert: reg.histogram("stmt.insert.us"),
            delete: reg.histogram("stmt.delete.us"),
            update: reg.histogram("stmt.update.us"),
            ddl: reg.histogram("stmt.ddl.us"),
            other: reg.histogram("stmt.other.us"),
            parse: reg.histogram("stmt.parse.us"),
            plan_build: reg.histogram("plan.build.us"),
            plan_optimize: reg.histogram("plan.optimize.us"),
            plan_verify: reg.histogram("plan.verify.us"),
            plan_compile: reg.histogram("plan.compile.us"),
            slow: reg.counter("stmt.slow.count"),
        }
    }

    fn for_kind(&self, kind: &'static str) -> &Histogram {
        match kind {
            "select" => &self.select,
            "insert" => &self.insert,
            "delete" => &self.delete,
            "update" => &self.update,
            "ddl" => &self.ddl,
            _ => &self.other,
        }
    }
}

/// The statement-kind label used for latency series and slow-log events.
fn stmt_kind(stmt: &Statement) -> &'static str {
    match stmt {
        Statement::Select { .. } => "select",
        Statement::Insert { .. } => "insert",
        Statement::Delete { .. } => "delete",
        Statement::Update { .. } => "update",
        Statement::CreateTable { .. } | Statement::DropTable { .. } => "ddl",
        _ => "other",
    }
}

/// The embedded NF² engine: dictionary + table catalog + persistence
/// configuration. Create sessions with [`Engine::session`] to run
/// statements.
///
/// # Concurrency
///
/// Every method takes `&self`: an `Engine` can be shared as
/// `Arc<Engine>` across threads, with one session per thread. The
/// catalog map sits behind a [`RwLock`] held only for lookups and DDL;
/// the tables themselves are internally synchronized — readers pin
/// shard-snapshot versions (see [`nf2_core::mvcc`]) and never block on
/// writers, while each table serializes its own writers.
#[derive(Debug)]
pub struct Engine {
    dict: SharedDictionary,
    tables: RwLock<BTreeMap<String, Arc<NfTable>>>,
    /// Process-unique identity, so prepared handles can tell engines
    /// apart (a plan compiled on one engine must not execute its cached
    /// attribute ids against another's tables).
    instance_id: u64,
    /// Bumped by every DDL statement; prepared plans check it to know
    /// when to re-plan. `Relaxed` ordering is enough: the epoch is a
    /// staleness hint, and the catalog lock provides the real ordering
    /// for the table map itself.
    ddl_epoch: AtomicU64,
    data_dir: Option<PathBuf>,
    wal_autoflush: bool,
    /// Shard count `CREATE TABLE` partitions new tables into.
    default_shards: usize,
    /// The observability hub: tracing subscriber plus private metrics
    /// registry (see [`EngineBuilder::subscriber`]).
    obs: Arc<Obs>,
    /// Statement-path metric handles, resolved once at construction.
    stmt_metrics: StmtMetrics,
    /// The plans of ad-hoc SELECTs, one per literal-lifted shape.
    plan_cache: PlanCache,
    /// Slow-statement threshold (µs); `None` disables the slow log.
    slow_statement_us: Option<u64>,
    /// Group-commit window (µs) applied to every table this engine
    /// registers; 0 = flush immediately.
    group_commit_us: u64,
}

impl Default for Engine {
    /// Same as [`Engine::new`], panics included.
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    /// An in-memory engine with default configuration.
    ///
    /// # Panics
    ///
    /// If an environment variable the builder reads holds an invalid
    /// value: `NF2_SHARDS` (`0` or not a number), `NF2_SLOW_US` or
    /// `NF2_GROUP_COMMIT_US` (not a number of microseconds). Use
    /// `Engine::builder().build()` to handle that configuration error as
    /// a `Result` instead.
    pub fn new() -> Self {
        Engine::builder().build().expect(
            "NF2_SHARDS must be a positive shard count, NF2_SLOW_US and \
             NF2_GROUP_COMMIT_US non-negative microsecond counts",
        )
    }

    /// Starts configuring an engine.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Opens a session. Sessions borrow the engine shared — any number
    /// can be open at once (one per thread under `Arc<Engine>`); each
    /// carries only its own transaction state.
    pub fn session(&self) -> Session<'_> {
        Session {
            engine: self,
            txn: None,
        }
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &SharedDictionary {
        &self.dict
    }

    /// `relation` as an output, named through this engine's dictionary.
    pub(crate) fn output(&self, relation: NfRelation) -> Output {
        let dict = self.dict.clone();
        Output::Relation { relation, dict }
    }

    /// The DDL epoch: incremented by CREATE/DROP TABLE and
    /// [`attach_table`](Self::attach_table). Prepared statements compare
    /// it to decide whether their cached plan is stale.
    pub fn ddl_epoch(&self) -> u64 {
        self.ddl_epoch.load(Ordering::Relaxed)
    }

    /// This engine's process-unique identity (prepared handles re-plan
    /// when moved across engines).
    pub fn instance_id(&self) -> u64 {
        self.instance_id
    }

    /// The shard count new tables are created with (see
    /// [`EngineBuilder::shards`]).
    pub fn default_shards(&self) -> usize {
        self.default_shards
    }

    /// The engine's observability hub: install or swap a
    /// [`Subscriber`], toggle the metrics kill switch, or reach the
    /// private [`nf2_obs::MetricsRegistry`].
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The slow-statement threshold in microseconds, if configured
    /// ([`EngineBuilder::slow_statement_threshold`] / `NF2_SLOW_US`).
    pub fn slow_statement_us(&self) -> Option<u64> {
        self.slow_statement_us
    }

    /// The group-commit window in microseconds
    /// ([`EngineBuilder::group_commit`] / `NF2_GROUP_COMMIT_US`).
    pub fn group_commit_us(&self) -> u64 {
        self.group_commit_us
    }

    /// Points a freshly built table at this engine's configuration:
    /// the group-commit window, and registry-backed histograms for
    /// lane lock waits (`table.<name>.lock_wait.us`) and WAL group
    /// sizes (`wal.group.size`, shared across tables) so
    /// [`metrics`](Self::metrics) exports them automatically. Runs
    /// before the table is shared (`&mut` proves exclusivity).
    pub(crate) fn configure_table(&self, table: &mut NfTable) {
        table.set_group_commit_us(self.group_commit_us);
        let reg = self.obs.registry();
        table.set_write_metrics(
            reg.histogram(&format!("table.{}.lock_wait.us", table.name())),
            reg.histogram("wal.group.size"),
        );
    }

    /// One point-in-time export of everything this engine counts: the
    /// registry's statement/planning series merged with the dictionary's
    /// size (`dict.values`, `dict.bytes` — see
    /// [`Dictionary::bytes`](nf2_core::value::Dictionary::bytes) — and
    /// `dict.interns`, the new names issued) and each table's storage
    /// counters as `table.<name>.<counter>` series. Render with
    /// [`MetricsSnapshot::to_text`] or [`MetricsSnapshot::to_json`].
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut snap = self.obs.registry().snapshot();
        snap.push_counter("dict.values", self.dict.len() as u64);
        snap.push_counter("dict.bytes", self.dict.bytes() as u64);
        snap.push_counter("dict.interns", self.dict.interns());
        for (name, t) in self.tables() {
            let s = t.stats();
            snap.push_counter(format!("table.{name}.lookups"), s.lookups);
            snap.push_counter(format!("table.{name}.units_probed"), s.units_probed);
            snap.push_counter(format!("table.{name}.inserts"), s.inserts);
            snap.push_counter(format!("table.{name}.deletes"), s.deletes);
            snap.push_counter(format!("table.{name}.segments_skipped"), s.segments_skipped);
            snap.push_counter(
                format!("table.{name}.scan.segments_searched"),
                s.segments_searched,
            );
            snap.push_counter(
                format!("table.{name}.scan.rows_read_ahead"),
                s.scan_rows_read_ahead,
            );
            snap.push_counter(format!("table.{name}.epoch_installs"), s.epoch_installs);
            snap.push_counter(format!("table.{name}.snapshot_pins"), s.snapshot_pins);
            snap.push_counter(format!("table.{name}.wal_flushes"), s.wal_flushes);
            snap.push_counter(format!("table.{name}.wal_bytes"), s.wal_bytes);
            snap.push_counter(format!("table.{name}.write.count"), s.writes);
            snap.push_counter(format!("table.{name}.write.nanos"), s.write_nanos);
            snap.push_counter(format!("table.{name}.write.keys"), s.write_keys);
            snap.push_counter(
                format!("table.{name}.write.tuples_regrouped"),
                s.write_tuples_regrouped,
            );
            snap.push_counter(
                format!("table.{name}.write.tuples_copied"),
                s.write_tuples_copied,
            );
            snap.push_counter(
                format!("table.{name}.write.segments_rebuilt"),
                s.write_segments_rebuilt,
            );
            snap.push_counter(
                format!("table.{name}.write.codes_rewritten"),
                s.write_codes_rewritten,
            );
            snap.push_counter(format!("table.{name}.merges"), s.merges);
            let mem = t.memory();
            snap.push_counter(format!("table.{name}.mem.chunk_bytes"), mem.chunk_bytes);
            snap.push_counter(format!("table.{name}.mem.column_bytes"), mem.column_bytes);
            snap.push_counter(format!("table.{name}.mem.filter_bytes"), mem.filter_bytes);
            snap.push_counter(
                format!("table.{name}.mem.bytes_per_flat_row"),
                mem.bytes_per_flat_row(),
            );
        }
        snap
    }

    /// Statement-path metric handles (internal hot-path plumbing).
    pub(crate) fn stmt_metrics(&self) -> &StmtMetrics {
        &self.stmt_metrics
    }

    /// Runs `f`, one statement of `kind`, and settles it against the
    /// metric and slow-log surfaces: records the latency histogram for
    /// `kind`, emits a `stmt.execute` event, and applies the
    /// slow-statement threshold. The clock runs only if something
    /// consumes the reading — metrics on, a subscriber installed, or a
    /// slow-statement threshold configured; otherwise the statement
    /// path pays two relaxed loads and no clock calls at all. A text
    /// that fails to parse ran no statement and is not settled.
    pub(crate) fn timed(
        &self,
        kind: &'static str,
        f: impl FnOnce() -> Result<Output, QueryError>,
    ) -> Result<Output, QueryError> {
        let clocked =
            self.obs.metrics_enabled() || self.obs.enabled() || self.slow_statement_us.is_some();
        let clock = clocked.then(Stopwatch::start);
        let result = f();
        let Some(sw) = clock.filter(|_| !matches!(result, Err(QueryError::Parse(_)))) else {
            return result;
        };
        let us = sw.elapsed_us();
        if self.obs.metrics_enabled() {
            self.stmt_metrics.for_kind(kind).record(us);
        }
        self.obs.event("stmt.execute", || {
            vec![("kind", kind.into()), ("us", us.into())]
        });
        if let Some(limit) = self.slow_statement_us {
            if us >= limit {
                self.stmt_metrics.slow.incr();
                if self.obs.enabled() {
                    self.obs.event("stmt.slow", || {
                        vec![
                            ("kind", kind.into()),
                            ("us", us.into()),
                            ("threshold_us", limit.into()),
                        ]
                    });
                } else {
                    eprintln!(
                        "[nf2] slow statement: kind={kind} took {us}us (threshold {limit}us)"
                    );
                }
            }
        }
        result
    }

    /// Parses one statement under the `stmt.parse` span/histogram.
    pub(crate) fn parse_traced(&self, sql: &str) -> Result<Statement, QueryError> {
        let _span = self
            .obs
            .span("stmt.parse")
            .observe(&self.stmt_metrics.parse);
        Ok(crate::parser::parse(sql)?)
    }

    /// The plan of the SELECT `text` of shape `shape`. Only a miss
    /// parses, and it parses `text`, so its errors are the parser's.
    fn plan_shape(&self, text: &str, shape: &Shape<'_>) -> Result<Arc<SelectPlan>, QueryError> {
        self.plan_cache.plan(self, &shape.key, || {
            let (lifted, literals) = self.parse_traced(text)?.lift_literals();
            debug_assert_eq!(literals, shape.literals, "one scanner finds the literals");
            Ok(lifted)
        })
    }

    /// Shared access to a table. The returned `Arc` is a stable handle:
    /// it keeps working (and keeps the table alive) even if the table is
    /// dropped from the catalog concurrently.
    pub fn table(&self, name: &str) -> Result<Arc<NfTable>, QueryError> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| QueryError::NoSuchTable(name.to_owned()))
    }

    /// A point-in-time snapshot of the catalog in name order. (A
    /// borrowing iterator cannot escape the catalog lock, so this
    /// clones the `Arc` handles — the tables themselves are shared.)
    pub fn tables(&self) -> Vec<(String, Arc<NfTable>)> {
        self.tables
            .read()
            .iter()
            .map(|(n, t)| (n.clone(), Arc::clone(t)))
            .collect()
    }

    /// Registers a table built outside the DML (e.g. via
    /// [`NfTable::bulk_load_strs`]). The table must share this engine's
    /// dictionary for query literals to resolve against its values.
    /// Counts as DDL: bumps the epoch.
    pub fn attach_table(&self, mut table: NfTable) -> Result<(), QueryError> {
        self.configure_table(&mut table);
        let name = table.name().to_owned();
        let mut tables = self.tables.write();
        if tables.contains_key(&name) {
            return Err(QueryError::TableExists(name));
        }
        tables.insert(name, Arc::new(table));
        self.ddl_epoch.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Checkpoints every table (a tuple file and a meta file each,
    /// truncating its WAL) into the configured data directory.
    pub fn checkpoint(&self) -> Result<(), QueryError> {
        let dir = self.data_dir.clone().ok_or_else(|| {
            QueryError::Semantic("no data_dir configured (Engine::builder().data_dir(…))".into())
        })?;
        for (_, table) in self.tables() {
            table.checkpoint(&dir)?;
        }
        Ok(())
    }

    /// Flushes `table`'s WAL if autoflush is configured.
    fn autoflush(&self, table: &NfTable) -> Result<(), QueryError> {
        if let (true, Some(dir)) = (self.wal_autoflush, &self.data_dir) {
            table.flush_wal(dir)?;
        }
        Ok(())
    }
}

/// A statement-issuing handle on an [`Engine`].
///
/// Sessions hold the transaction state: between `BEGIN` and
/// `COMMIT`/`ROLLBACK`, each statement's table and the ops of it that
/// took effect are recorded here, not in the engine. Prepared
/// statements are created through [`Session::prepare`] and owned by the
/// caller — they stay valid across sessions of the same engine
/// (re-planning themselves when DDL changes the catalog underneath).
#[derive(Debug)]
pub struct Session<'e> {
    engine: &'e Engine,
    /// The open transaction, if any: per statement, in commit order, the
    /// table it wrote and the ops that took effect there.
    txn: Option<Vec<(String, Vec<Op>)>>,
}

impl<'e> Session<'e> {
    /// The underlying engine.
    pub fn engine(&self) -> &Engine {
        self.engine
    }

    /// Whether a transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn.is_some()
    }

    /// Parses and executes a whole script, returning one output per
    /// statement. The batch parse records under `stmt.parse` like the
    /// single-statement path (one histogram sample for the whole script).
    pub fn run_script(&mut self, script: &str) -> Result<Vec<Output>, QueryError> {
        let stmts = {
            let _span = self
                .engine
                .obs()
                .span("stmt.parse")
                .observe(&self.engine.stmt_metrics().parse);
            crate::parser::parse_script(script)?
        };
        stmts.into_iter().map(|s| self.execute(s)).collect()
    }

    /// Parses and executes a single statement. A SELECT is planned once
    /// per *shape* — its text with the literals lifted to `?`
    /// parameters ([`shape`](crate::token::shape)) — and the engine
    /// keeps the plan until DDL changes the catalog, so `… WHERE
    /// Student = 's1'` and `… = 's2'` share one plan
    /// (`plan_cache.{hits,misses,clears}` in [`Engine::metrics`]). A
    /// SELECT whose shape is cached is not parsed: it runs the plan
    /// with the literals its shape scanned. EXPLAIN is planned afresh
    /// each time.
    pub fn run(&mut self, statement: &str) -> Result<Output, QueryError> {
        let engine = self.engine;
        let Some(shape) = token::shape(statement) else {
            return self.execute(engine.parse_traced(statement)?);
        };
        engine.timed("select", || {
            let plan = engine.plan_shape(statement, &shape)?;
            execute_select(engine, &plan, &shape.literals)
        })
    }

    /// Compiles a statement into a [`Prepared`] handle: parsed once,
    /// SELECTs planned and optimized once, executed many times with
    /// `?` parameters bound per call.
    pub fn prepare(&self, sql: &str) -> Result<Prepared, QueryError> {
        Prepared::compile(self.engine, sql)
    }

    /// Parses and streams a one-shot SELECT: returns a [`Cursor`] that
    /// yields NF² tuples as the scan progresses instead of materializing
    /// the result relation. The cursor owns pinned table snapshots, so
    /// it outlives the session and keeps streaming statement-start state
    /// under concurrent mutations. Only SELECT statements (without `?`
    /// parameters) are accepted; use [`Session::prepare`] for parameters.
    /// The plan is shared per shape, as in [`Session::run`], and a
    /// cached shape is not parsed.
    pub fn query(&self, sql: &str) -> Result<Cursor<'static>, QueryError> {
        let Some(shape) = token::shape(sql) else {
            // Not a SELECT, one with `?` parameters, or text that does
            // not lex.
            return Err(match self.engine.parse_traced(sql)?.param_count() {
                0 => QueryError::Semantic(
                    "query() accepts SELECT statements only; use run() for the rest".into(),
                ),
                count => QueryError::Unbound { count },
            });
        };
        let plan = self.engine.plan_shape(sql, &shape)?;
        plan.cursor(self.engine, &shape.literals)
    }

    /// Executes a parsed statement. The statement must be fully bound
    /// (no `?` placeholders).
    pub fn execute(&mut self, stmt: Statement) -> Result<Output, QueryError> {
        let unbound = stmt.param_count();
        if unbound > 0 {
            return Err(QueryError::Unbound { count: unbound });
        }
        let engine = self.engine;
        engine.timed(stmt_kind(&stmt), || self.execute_inner(stmt))
    }

    fn execute_inner(&mut self, stmt: Statement) -> Result<Output, QueryError> {
        match stmt {
            Statement::CreateTable {
                name,
                attrs,
                nest_order,
            } => {
                if self.txn.is_some() {
                    return Err(QueryError::Semantic(
                        "DDL inside a transaction is not supported".into(),
                    ));
                }
                let attr_refs: Vec<&str> = attrs.iter().map(String::as_str).collect();
                let schema = nf2_core::Schema::new(name.clone(), &attr_refs)?;
                let order = match nest_order {
                    Some(names) => {
                        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                        NestOrder::from_names(&schema, &refs)?
                    }
                    None => NestOrder::identity(attrs.len()),
                };
                let spec = nf2_core::shard::ShardSpec::hash(self.engine.default_shards)
                    .expect("build() validated the shard count");
                let mut table = NfTable::create_sharded(
                    &name,
                    &attr_refs,
                    order,
                    spec,
                    self.engine.dict.clone(),
                )?;
                self.engine.configure_table(&mut table);
                // Existence is checked under the write lock, so two
                // concurrent CREATEs of the same name cannot both win.
                let mut tables = self.engine.tables.write();
                if tables.contains_key(&name) {
                    return Err(QueryError::TableExists(name));
                }
                tables.insert(name.clone(), Arc::new(table));
                drop(tables);
                self.engine.ddl_epoch.fetch_add(1, Ordering::Relaxed);
                Ok(Output::Message(format!("created table {name}")))
            }
            Statement::DropTable { name } => {
                if self.txn.is_some() {
                    return Err(QueryError::Semantic(
                        "DDL inside a transaction is not supported".into(),
                    ));
                }
                if self.engine.tables.write().remove(&name).is_none() {
                    return Err(QueryError::NoSuchTable(name));
                }
                self.engine.ddl_epoch.fetch_add(1, Ordering::Relaxed);
                Ok(Output::Message(format!("dropped table {name}")))
            }
            // The three row-mutation arms build the statement's ops in
            // full — every check that can fail runs there — and commit
            // them as one write, so a statement that fails changes
            // nothing.
            Statement::Insert { table, rows } => {
                let t = self.engine.table(&table)?;
                let ops = insert_ops(&t, &rows)?;
                Ok(Output::Affected(self.commit(&t, ops)?.inserted))
            }
            Statement::Delete { table, predicates } => {
                let t = self.engine.table(&table)?;
                let ops = delete_ops(self.engine, &t, &predicates)?;
                Ok(Output::Affected(self.commit(&t, ops)?.deleted))
            }
            // An UPDATE affects the rows it rewrote: those it deleted.
            Statement::Update {
                table,
                assignments,
                predicates,
            } => {
                let t = self.engine.table(&table)?;
                let ops = update_ops(self.engine, &t, &assignments, &predicates)?;
                Ok(Output::Affected(self.commit(&t, ops)?.deleted))
            }
            stmt @ Statement::Select { .. } => {
                // Kept under the text of the lifted statement, which
                // parses back to it.
                let (lifted, literals) = stmt.lift_literals();
                let key = lifted.to_string();
                let plan = self
                    .engine
                    .plan_cache
                    .plan(self.engine, &key, || Ok(lifted))?;
                execute_select(self.engine, &plan, &literals)
            }
            Statement::Explain {
                inner,
                optimized,
                verify,
                analyze,
            } => {
                let plan = SelectPlan::of(self.engine, &inner)?.ok_or_else(|| {
                    QueryError::Semantic("EXPLAIN supports SELECT statements only".into())
                })?;
                let text = if analyze {
                    plan.explain_analyze::<Param>(self.engine, &[], optimized, verify)?
                } else {
                    plan.explain::<Param>(self.engine, &[], optimized, verify)?
                };
                let Some(text) = text else {
                    return Ok(Output::Message(
                        "plan: <empty result — predicate value never interned>".to_owned(),
                    ));
                };
                Ok(Output::Message(text))
            }
            Statement::Nest { table, attr } => {
                let t = self.engine.table(&table)?;
                let id = t.schema().attr_id(&attr)?;
                // Ad-hoc ν over one attribute through the interning nest
                // kernel (tuple-identical to `nest::nest`, which stays as
                // the Def. 4 reference).
                let relation =
                    nf2_core::kernel::NestKernel::new().nest_once(&t.snapshot().canonical(), id);
                Ok(self.engine.output(relation))
            }
            Statement::Unnest { table, attr } => {
                let t = self.engine.table(&table)?;
                let id = t.schema().attr_id(&attr)?;
                let relation = nf2_core::nest::unnest(&t.snapshot().canonical(), id);
                Ok(self.engine.output(relation))
            }
            Statement::Show { table, flat } => {
                let rel = self.engine.table(&table)?.snapshot().canonical();
                let relation = if flat {
                    NfRelation::from_flat(&rel.expand())
                } else {
                    rel
                };
                Ok(self.engine.output(relation))
            }
            Statement::Begin => {
                if self.txn.is_some() {
                    return Err(QueryError::Semantic(
                        "a transaction is already open (nested BEGIN is not supported)".into(),
                    ));
                }
                self.txn = Some(Vec::new());
                Ok(Output::Message("transaction started".into()))
            }
            Statement::Commit => match self.txn.take() {
                Some(log) => Ok(Output::Message(format!(
                    "committed ({} row mutation(s))",
                    log.iter().map(|(_, ops)| ops.len()).sum::<usize>()
                ))),
                None => Err(QueryError::Semantic("no open transaction to COMMIT".into())),
            },
            Statement::Rollback => {
                let Some(log) = self.txn.take() else {
                    return Err(QueryError::Semantic(
                        "no open transaction to ROLLBACK".into(),
                    ));
                };
                // Each table's inverses, newest first, as one write.
                let mut undo: BTreeMap<String, Vec<Op>> = BTreeMap::new();
                for (table, ops) in log.into_iter().rev() {
                    undo.entry(table)
                        .or_default()
                        .extend(ops.into_iter().rev().map(|op| match op {
                            Op::Insert(row) => Op::Delete(row),
                            Op::Delete(row) => Op::Insert(row),
                        }));
                }
                let mut n = 0;
                for (table, ops) in &undo {
                    let t = self.engine.table(table)?;
                    t.append_batch(ops)?;
                    n += ops.len();
                    // The inverses are WAL entries like any others:
                    // persist them, or a crash would replay the
                    // rolled-back half of the log only.
                    self.engine.autoflush(&t)?;
                }
                Ok(Output::Message(format!("rolled back {n} row mutation(s)")))
            }
            Statement::Stats { table } => {
                let t = self.engine.table(&table)?;
                let snapshot = t.snapshot();
                let tuples = snapshot.tuple_count();
                let flats = snapshot.flat_count();
                let ratio = if tuples == 0 {
                    1.0
                } else {
                    flats as f64 / tuples as f64
                };
                let cost = t.maintenance_cost();
                let stats = t.stats();
                Ok(Output::Message(format!(
                    "table {table}: {tuples} nf-tuples / {flats} flat rows (compression {ratio:.2}x)\n\
                     nest order: {}\n\
                     maintenance: {} compositions, {} decompositions, {} candidate probes, {} recons calls\n\
                     access: {} lookups probing {} units; {} inserts, {} deletes",
                    t.order(),
                    cost.compositions,
                    cost.decompositions,
                    cost.candidate_probes,
                    cost.recons_calls,
                    stats.lookups,
                    stats.units_probed,
                    stats.inserts,
                    stats.deletes,
                )))
            }
            Statement::Tables => {
                let mut lines: Vec<String> = Vec::new();
                for (name, t) in self.engine.tables() {
                    let snapshot = t.snapshot();
                    lines.push(format!(
                        "{name}: {} nf-tuples / {} flat rows, order {}",
                        snapshot.tuple_count(),
                        snapshot.flat_count(),
                        t.order()
                    ));
                }
                if lines.is_empty() {
                    lines.push("(no tables)".into());
                }
                Ok(Output::Message(lines.join("\n")))
            }
        }
    }

    /// Commits one statement's `ops` on `table` as one write, records
    /// the ops that took effect in the open transaction, and autoflushes
    /// the table's WAL.
    fn commit(&mut self, table: &NfTable, ops: Vec<Op>) -> Result<BatchSummary, QueryError> {
        let (summary, _) = table.append_batch(&ops)?;
        if let Some(log) = self.txn.as_mut() {
            let noops = &summary.noop_positions;
            let effective = ops
                .into_iter()
                .enumerate()
                .filter(|(at, _)| noops.binary_search(at).is_err())
                .map(|(_, op)| op)
                .collect();
            log.push((table.name().to_owned(), effective));
        }
        self.engine.autoflush(table)?;
        Ok(summary)
    }
}

/// An INSERT's ops: one per literal row, each row checked against the
/// table's arity before any lands.
fn insert_ops(table: &NfTable, rows: &[Vec<crate::ast::Value>]) -> Result<Vec<Op>, QueryError> {
    rows.iter()
        .map(|row| {
            let refs: Vec<&str> = row
                .iter()
                .map(|v| v.as_lit().expect("statement checked bound"))
                .collect();
            Ok(Op::Insert(table.row_from_strs(&refs)?))
        })
        .collect()
}

/// A DELETE's ops: one per flat row matching the conjunction.
fn delete_ops(
    engine: &Engine,
    table: &NfTable,
    predicates: &[Predicate],
) -> Result<Vec<Op>, QueryError> {
    // A predicate with no known value matches nothing.
    let Some(bound) = resolve_bound(table, &engine.dict, predicates)? else {
        return Ok(Vec::new());
    };
    Ok(matching_rows(table, &bound)
        .rows()
        .map(|row| Op::Delete(row.to_vec()))
        .collect())
}

/// An UPDATE's ops: every matching flat row the assignments change, as
/// its delete followed by the rewritten row's insert. A rewritten row
/// that collides with a stored one is absorbed by set semantics: its
/// insert is a no-op.
fn update_ops(
    engine: &Engine,
    table: &NfTable,
    assignments: &[crate::ast::EqPredicate],
    predicates: &[Predicate],
) -> Result<Vec<Op>, QueryError> {
    let dict = &engine.dict;
    // Resolve assignment targets (values are interned on use).
    let mut sets: Vec<(usize, Atom)> = Vec::new();
    for a in assignments {
        let attr = table.schema().attr_id(&a.attr)?;
        let lit = a.value.as_lit().expect("statement checked bound");
        sets.push((attr, dict.intern(lit)));
    }
    // Resolve the selection; unknown values match nothing.
    let Some(bound) = resolve_bound(table, dict, predicates)? else {
        return Ok(Vec::new());
    };
    let mut ops = Vec::new();
    for row in matching_rows(table, &bound).rows() {
        let mut updated = row.to_vec();
        for &(attr, v) in &sets {
            updated[attr] = v;
        }
        if updated != row {
            ops.push(Op::Delete(row.to_vec()));
            ops.push(Op::Insert(updated));
        }
    }
    Ok(ops)
}

/// Resolves WHERE predicates to `(attr id, allowed atoms)` pairs against
/// one table. Every attribute is resolved first, so an unknown one is
/// refused; then `None` when some predicate has no known value (nothing
/// can match).
fn resolve_bound(
    table: &NfTable,
    dict: &SharedDictionary,
    predicates: &[Predicate],
) -> Result<Option<Vec<(usize, ValueSet)>>, QueryError> {
    let (mut bound, mut known) = (Vec::with_capacity(predicates.len()), true);
    for p in predicates {
        let attr = table.schema().attr_id(p.attr())?;
        let atoms: Vec<Atom> = p.values().iter().filter_map(|v| dict.lookup(v)).collect();
        match ValueSet::new(atoms) {
            Some(atoms) => bound.push((attr, atoms)),
            None => known = false,
        }
    }
    Ok(known.then_some(bound))
}

/// The flat rows of `table` inside the predicate box `bound`, found the
/// way a SELECT finds them: one pinned snapshot, shards pruned by the
/// conjuncts on the routing attribute, the matching tuples located in
/// their segments, and σ's rule run on each located tuple where it is
/// stored — its intersection with the box written into one scratch
/// block that each tuple reuses, then expanded — so a full-key
/// predicate probes one tuple and expands one row, not the table, and
/// no victim is built as a tuple of its own.
fn matching_rows(table: &NfTable, bound: &[(usize, ValueSet)]) -> RowBlock {
    let snapshot = table.snapshot();
    let routing = snapshot.routing();
    let shards = routing.shards_for_conjuncts(
        bound
            .iter()
            .filter(|(attr, _)| Some(*attr) == routing.attr())
            .map(|(_, values)| values.as_slice()),
    );
    let arity = snapshot.arity();
    let rule = SelectProject::new(bound.to_vec(), None, arity);
    let mut scan = snapshot.scan_shards_zoned(&shards, bound);
    let mut narrowed = ChunkBuilder::empty(arity);
    let mut rows = RowBlock::with_capacity(table.schema().clone(), 0);
    while let Some(t) = scan.next_ref() {
        narrowed.clear();
        narrowed.reserve(1, t.atom_count());
        let kept = match rule.write(t, &mut narrowed) {
            Rewrite::Rejected => continue,
            Rewrite::Unchanged => t,
            Rewrite::Appended => narrowed.tuple(0),
        };
        rows.push_expansion(kept)
            .expect("a stored tuple has its table's arity");
    }
    rows
}

/// Renders an algebra expression as an indented plan tree for EXPLAIN.
/// `fmt_value` controls how selection atoms print (prepared plans show
/// `?` and literals; bound plans show raw atoms).
pub(crate) fn explain_expr(
    expr: &Expr,
    depth: usize,
    fmt_value: &dyn Fn(Atom) -> String,
) -> String {
    let pad = "  ".repeat(depth);
    match expr {
        Expr::Rel(name) => format!("{pad}scan {name}"),
        Expr::SelectBox { input, constraints } => {
            let preds: Vec<String> = constraints
                .iter()
                .map(|(a, vs)| {
                    let rendered: Vec<String> = vs.iter().map(|&v| fmt_value(v)).collect();
                    format!("{a} IN [{}]", rendered.join(", "))
                })
                .collect();
            format!(
                "{pad}select [{}]\n{}",
                preds.join(" AND "),
                explain_expr(input, depth + 1, fmt_value)
            )
        }
        Expr::Project { input, attrs } => {
            format!(
                "{pad}project [{}]\n{}",
                attrs.join(", "),
                explain_expr(input, depth + 1, fmt_value)
            )
        }
        Expr::Join(l, r) => format!(
            "{pad}natural-join\n{}\n{}",
            explain_expr(l, depth + 1, fmt_value),
            explain_expr(r, depth + 1, fmt_value)
        ),
        Expr::Union(l, r) => format!(
            "{pad}union\n{}\n{}",
            explain_expr(l, depth + 1, fmt_value),
            explain_expr(r, depth + 1, fmt_value)
        ),
        Expr::Difference(l, r) => format!(
            "{pad}difference\n{}\n{}",
            explain_expr(l, depth + 1, fmt_value),
            explain_expr(r, depth + 1, fmt_value)
        ),
        Expr::Intersect(l, r) => format!(
            "{pad}intersect\n{}\n{}",
            explain_expr(l, depth + 1, fmt_value),
            explain_expr(r, depth + 1, fmt_value)
        ),
        Expr::Nest { input, attr } => {
            format!(
                "{pad}nest [{attr}]\n{}",
                explain_expr(input, depth + 1, fmt_value)
            )
        }
        Expr::Unnest { input, attr } => {
            format!(
                "{pad}unnest [{attr}]\n{}",
                explain_expr(input, depth + 1, fmt_value)
            )
        }
        Expr::Canonicalize { input, order } => {
            format!(
                "{pad}canonicalize [{}]\n{}",
                order.join(" -> "),
                explain_expr(input, depth + 1, fmt_value)
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded_engine() -> Engine {
        let engine = Engine::new();
        engine
            .session()
            .run_script(
                "CREATE TABLE sc (Student, Course) NEST ORDER (Student, Course);
                 INSERT INTO sc VALUES ('s1','c1'), ('s2','c1'), ('s1','c2');",
            )
            .unwrap();
        engine
    }

    #[test]
    fn builder_configures_engine() {
        let engine = Engine::builder().wal_autoflush(true).build().unwrap();
        assert_eq!(engine.ddl_epoch(), 0);
        assert!(engine.table("sc").is_err());
    }

    #[test]
    fn builder_shards_partition_created_tables() {
        let engine = Engine::builder().shards(4).build().unwrap();
        assert_eq!(engine.default_shards(), 4);
        let mut session = engine.session();
        session
            .run_script(
                "CREATE TABLE sc (Student, Course);
                 INSERT INTO sc VALUES ('s1','c1'), ('s2','c1'), ('s1','c2'), ('s3','c3');",
            )
            .unwrap();
        let table = session.engine().table("sc").unwrap();
        assert_eq!(table.shard_count(), 4);
        // `R*` and every count over it do not depend on the shard count,
        // but a listing of NF² tuples, and `LIMIT k` over it, may differ
        // until the regroup decision lands.
        match session.run("SELECT COUNT(*) FROM sc").unwrap() {
            Output::Count(n) => assert_eq!(n, 4),
            other => panic!("unexpected {other:?}"),
        }
        match session
            .run("SELECT Course FROM sc WHERE Student = 's1'")
            .unwrap()
        {
            Output::Relation { relation, .. } => assert_eq!(relation.flat_count(), 2),
            other => panic!("unexpected {other:?}"),
        }
        // The merged snapshot is the exact canonical form: identical to an
        // unsharded engine fed the same script.
        let plain = Engine::builder().shards(1).build().unwrap();
        plain
            .session()
            .run_script(
                "CREATE TABLE sc (Student, Course);
                 INSERT INTO sc VALUES ('s1','c1'), ('s2','c1'), ('s1','c2'), ('s3','c3');",
            )
            .unwrap();
        assert_eq!(
            session.engine().table("sc").unwrap().snapshot().canonical(),
            plain.table("sc").unwrap().snapshot().canonical()
        );
    }

    #[test]
    fn zero_shards_is_a_builder_error_not_a_clamp() {
        // shards(0) used to clamp to 1 silently; it must surface the
        // shard subsystem's own error at configuration time.
        match Engine::builder().shards(0).build() {
            Err(QueryError::Model(nf2_core::NfError::InvalidShardSpec(_))) => {}
            other => panic!("expected InvalidShardSpec, got {other:?}"),
        }
        assert!(Engine::builder().shards(1).build().is_ok());
        assert!(Engine::builder().shards(7).build().is_ok());
    }

    #[test]
    fn nf2_shards_env_values_are_validated() {
        // Hermetic: the parser is exercised with explicit strings so the
        // test never mutates the process environment other tests read.
        assert_eq!(super::parse_shards_env(None).unwrap(), 1);
        assert_eq!(super::parse_shards_env(Some("4")).unwrap(), 4);
        assert_eq!(super::parse_shards_env(Some(" 2 ")).unwrap(), 2, "trimmed");
        for garbage in ["0", "", "abc", "-3", "1.5", "4x"] {
            match super::parse_shards_env(Some(garbage)) {
                Err(QueryError::Model(nf2_core::NfError::InvalidShardSpec(msg))) => {
                    assert!(msg.contains("NF2_SHARDS"), "{msg}");
                }
                other => panic!("NF2_SHARDS={garbage:?} must error, got {other:?}"),
            }
        }
        // An explicit builder count wins over whatever the env says —
        // the validated path is the one that reads the env.
        assert_eq!(
            Engine::builder()
                .shards(3)
                .build()
                .unwrap()
                .default_shards(),
            3
        );
    }

    #[test]
    fn nf2_slow_us_env_values_are_validated() {
        // Hermetic: the parser is exercised with explicit strings so the
        // test never mutates the process environment other tests read.
        assert_eq!(super::parse_slow_env(None).unwrap(), None);
        assert_eq!(super::parse_slow_env(Some("250")).unwrap(), Some(250));
        assert_eq!(super::parse_slow_env(Some(" 0 ")).unwrap(), Some(0));
        for garbage in ["", "abc", "-3", "1.5", "4x"] {
            match super::parse_slow_env(Some(garbage)) {
                Err(QueryError::Semantic(msg)) => assert!(msg.contains("NF2_SLOW_US"), "{msg}"),
                other => panic!("NF2_SLOW_US={garbage:?} must error, got {other:?}"),
            }
        }
        // An explicit builder threshold wins over whatever the env says.
        assert_eq!(
            Engine::builder()
                .slow_statement_threshold(9)
                .build()
                .unwrap()
                .slow_statement_us(),
            Some(9)
        );
    }

    #[test]
    fn nf2_group_commit_env_values_are_validated() {
        // Hermetic: the parser is exercised with explicit strings so the
        // test never mutates the process environment other tests read.
        assert_eq!(super::parse_group_commit_env(None).unwrap(), 0);
        assert_eq!(super::parse_group_commit_env(Some("150")).unwrap(), 150);
        assert_eq!(super::parse_group_commit_env(Some(" 0 ")).unwrap(), 0);
        for garbage in ["", "abc", "-3", "1.5", "4x"] {
            match super::parse_group_commit_env(Some(garbage)) {
                Err(QueryError::Semantic(msg)) => {
                    assert!(msg.contains("NF2_GROUP_COMMIT_US"), "{msg}")
                }
                other => panic!("NF2_GROUP_COMMIT_US={garbage:?} must error, got {other:?}"),
            }
        }
        // An explicit builder window wins over whatever the env says.
        let engine = Engine::builder().group_commit(75).build().unwrap();
        assert_eq!(engine.group_commit_us(), 75);
        // Tables created through the engine inherit the window — both
        // the DDL path and attach_table.
        engine
            .session()
            .run("CREATE TABLE sc (Student, Course)")
            .unwrap();
        assert_eq!(engine.table("sc").unwrap().group_commit_us(), 75);
        let bulk = NfTable::bulk_load_strs(
            "bk",
            &["A", "B"],
            vec![vec!["a", "b"]],
            nf2_core::NestOrder::identity(2),
            engine.dict().clone(),
        )
        .unwrap();
        engine.attach_table(bulk).unwrap();
        assert_eq!(engine.table("bk").unwrap().group_commit_us(), 75);
    }

    #[test]
    fn write_path_histograms_surface_in_engine_metrics() {
        let dir = std::env::temp_dir().join("nf2_engine_write_metrics");
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::builder()
            .data_dir(&dir)
            .wal_autoflush(true)
            .build()
            .unwrap();
        let mut session = engine.session();
        session
            .run_script(
                "CREATE TABLE sc (Student, Course);
                 INSERT INTO sc VALUES ('s1','c1'), ('s2','c1');",
            )
            .unwrap();
        let snap = engine.metrics();
        let hist = |name: &str| {
            snap.histograms
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, h)| *h)
        };
        let group = hist("wal.group.size").expect("group-size histogram registered");
        assert!(group.count >= 1, "autoflush recorded at least one group");
        assert!(group.sum >= 2, "both inserted rows became durable");
        let waits = hist("table.sc.lock_wait.us").expect("lock-wait histogram registered");
        // Single-threaded writers never contend, so the series exists
        // but records nothing — exactly the uncontended fast path.
        assert_eq!(waits.count, 0, "no contention, no recorded waits");
    }

    #[test]
    fn metrics_export_merges_statement_and_table_series() {
        let engine = seeded_engine();
        engine.session().run("SELECT COUNT(*) FROM sc").unwrap();
        // SHOW merges the shards once; the SELECT merged nothing.
        engine.session().run("SHOW sc").unwrap();
        // One batch: a new student under both stored courses.
        let sc = engine.table("sc").unwrap();
        let batch: Vec<nf2_core::bulk::Op> = ["c1", "c2"]
            .iter()
            .map(|c| nf2_core::bulk::Op::Insert(sc.row_from_strs(&["s3", c]).unwrap()))
            .collect();
        sc.append_batch(&batch).unwrap();
        // A located scan: s3 is in both stored tuples.
        engine
            .session()
            .run("SELECT Course FROM sc WHERE Student = 's3'")
            .unwrap();
        // One flush of everything logged so far: the seeding INSERT's
        // three rows and the batch's two, in one write.
        let dir = std::env::temp_dir().join("nf2_engine_metrics_export");
        let _ = std::fs::remove_dir_all(&dir);
        sc.flush_wal(&dir).unwrap();
        let logged = std::fs::metadata(dir.join("sc.wal")).unwrap().len();
        let snap = engine.metrics();
        let counter = |name: &str| {
            snap.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
        };
        let hist = |name: &str| snap.histograms.iter().find(|(n, _)| n == name);
        // Statement latency series by kind, fed by Session::execute.
        let (_, select) = hist("stmt.select.us").expect("select histogram");
        assert!(select.count >= 1, "the COUNT(*) select was recorded");
        let (_, insert) = hist("stmt.insert.us").expect("insert histogram");
        assert!(insert.count >= 1, "the seeding INSERT was recorded");
        assert!(hist("stmt.parse.us").is_some());
        assert!(hist("plan.build.us").is_some());
        // Table series from the storage counters.
        assert_eq!(counter("table.sc.inserts"), Some(5));
        assert!(counter("table.sc.epoch_installs").unwrap_or(0) >= 1);
        assert!(counter("table.sc.snapshot_pins").unwrap_or(0) >= 1);
        assert_eq!(counter("table.sc.wal_flushes"), Some(1));
        assert_eq!(counter("table.sc.merges"), Some(1));
        assert!(logged > 0);
        assert_eq!(counter("table.sc.wal_bytes"), Some(logged));
        // The write series: the seeding INSERT is one write, the batch
        // another, each over the two courses. Only the batch finds
        // stored tuples to regroup: both.
        assert_eq!(counter("table.sc.write.count"), Some(2));
        assert_eq!(counter("table.sc.write.keys"), Some(4));
        assert_eq!(counter("table.sc.write.tuples_regrouped"), Some(2));
        assert!(counter("table.sc.write.nanos").unwrap_or(0) > 0);
        // Each write rebuilds the segment each course lands in and
        // copies its whole new chunk: one two-tuple segment, or — where
        // NF2_SHARDS routes c1 and c2 apart — one one-tuple segment per
        // shard. The seeding INSERT encodes its first segments afresh
        // and counts every code: {s1, s2} and {c1, c2} (4), or
        // {s1, s2} × {c1} and {s1} × {c2} (3 + 2). The batch patches
        // and counts the codes its leaving and entering tuples hold:
        // s1–s3 and c1–c2 (5), or s1–s3 × c1 and s1, s3 × c2 (4 + 3).
        // The located scan reads ahead both tuples when one shard holds
        // them, and nothing when each shard holds one; COUNT(*) is a
        // full scan and reads nothing ahead.
        let written = (
            counter("table.sc.write.segments_rebuilt"),
            counter("table.sc.write.tuples_copied"),
            counter("table.sc.write.codes_rewritten"),
            counter("table.sc.scan.rows_read_ahead"),
        );
        assert!(
            matches!(
                written,
                (Some(2), Some(4), Some(9), Some(2)) | (Some(4), Some(4), Some(12), Some(0))
            ),
            "{written:?}"
        );
        // The memory gauges, from the segments of an uncounted pin: the
        // chunks hold 4 B per stored atom and per offset, one offset per
        // tuple and attribute plus one per chunk.
        let (mut atoms, mut offsets, mut flat) = (0u64, 0u64, 0u128);
        for shard in sc.snapshot().version().shards().iter() {
            for seg in shard.segments().segments() {
                offsets += 1;
                for t in seg.tuples() {
                    atoms += t.components().map(|c| c.len() as u64).sum::<u64>();
                    offsets += t.arity() as u64;
                }
                flat += seg.flat_count();
            }
        }
        assert_eq!(
            counter("table.sc.mem.chunk_bytes"),
            Some(4 * (atoms + offsets))
        );
        let columns = counter("table.sc.mem.column_bytes").unwrap();
        assert!(columns > 0);
        let per_row = (4 * (atoms + offsets) + columns) as f64 / flat as f64;
        assert_eq!(
            counter("table.sc.mem.bytes_per_flat_row"),
            Some(per_row.round() as u64)
        );
        // Both render paths accept the merged snapshot.
        assert!(snap.to_text().contains("table.sc.inserts = 5"));
        assert!(snap.to_json().contains("\"table.sc.inserts\":5"));
    }

    #[test]
    fn subscriber_sees_lifecycle_and_slow_events() {
        let ring = Arc::new(nf2_obs::RingBufferSink::new(256));
        let engine = Engine::builder()
            .subscriber(ring.clone())
            .slow_statement_threshold(0) // everything is "slow"
            .build()
            .unwrap();
        let mut session = engine.session();
        session
            .run_script(
                "CREATE TABLE sc (Student, Course);
                 INSERT INTO sc VALUES ('s1','c1'), ('s2','c1'), ('s1','c2');
                 CREATE TABLE cp (Course, Prof);
                 INSERT INTO cp VALUES ('c1','p1'), ('c2','p2');",
            )
            .unwrap();
        // The Prof conjunct is pushable below the join, so the optimizer
        // must apply (and report) at least one rule.
        session
            .run("SELECT Student FROM sc JOIN cp WHERE Prof = 'p1'")
            .unwrap();
        let events = ring.events().join("\n");
        assert!(events.contains("stmt.parse{"), "{events}");
        assert!(events.contains("plan.build{"), "{events}");
        assert!(events.contains("plan.optimize{"), "{events}");
        assert!(events.contains("plan.compile{"), "{events}");
        assert!(
            events.contains("optimizer.rule{rule="),
            "the projected+filtered select must fire at least one rule: {events}"
        );
        assert!(events.contains("work_delta="), "{events}");
        assert!(events.contains("stmt.execute{kind=select"), "{events}");
        assert!(events.contains("stmt.slow{kind=select"), "{events}");
        // The slow counter advanced (threshold 0 catches every statement).
        let snap = engine.metrics();
        let slow = snap
            .counters
            .iter()
            .find(|(n, _)| n == "stmt.slow.count")
            .map(|&(_, v)| v)
            .unwrap_or(0);
        assert!(slow >= 5, "2 CREATEs + 2 INSERTs + SELECT, got {slow}");
    }

    #[test]
    fn metrics_kill_switch_stops_statement_series() {
        let engine = seeded_engine();
        engine.obs().set_metrics_enabled(false);
        let before = engine
            .metrics()
            .histograms
            .iter()
            .find(|(n, _)| n == "stmt.select.us")
            .map(|(_, h)| h.count)
            .unwrap_or(0);
        engine.session().run("SELECT COUNT(*) FROM sc").unwrap();
        let after = engine
            .metrics()
            .histograms
            .iter()
            .find(|(n, _)| n == "stmt.select.us")
            .map(|(_, h)| h.count)
            .unwrap_or(0);
        assert_eq!(before, after, "disabled metrics must not record");
    }

    #[test]
    fn ddl_bumps_epoch() {
        let engine = seeded_engine();
        let epoch = engine.ddl_epoch();
        engine.session().run("CREATE TABLE t2 (A)").unwrap();
        assert_eq!(engine.ddl_epoch(), epoch + 1);
        engine.session().run("DROP TABLE t2").unwrap();
        assert_eq!(engine.ddl_epoch(), epoch + 2);
        // Mutations do not.
        engine
            .session()
            .run("INSERT INTO sc VALUES ('s9','c9')")
            .unwrap();
        assert_eq!(engine.ddl_epoch(), epoch + 2);
    }

    #[test]
    fn sessions_share_engine_state() {
        let engine = seeded_engine();
        engine
            .session()
            .run("INSERT INTO sc VALUES ('s3','c3')")
            .unwrap();
        let mut s2 = engine.session();
        match s2.run("SELECT COUNT(*) FROM sc").unwrap() {
            Output::Count(n) => assert_eq!(n, 4),
            other => panic!("unexpected {other:?}"),
        }
        assert!(!s2.in_transaction());
    }

    #[test]
    fn attach_table_registers_bulk_loads() {
        let engine = Engine::new();
        let table = NfTable::bulk_load_strs(
            "bulk",
            &["A", "B"],
            vec![vec!["a1", "b1"], vec!["a2", "b1"]],
            NestOrder::identity(2),
            engine.dict().clone(),
        )
        .unwrap();
        engine.attach_table(table).unwrap();
        assert_eq!(engine.ddl_epoch(), 1);
        let mut session = engine.session();
        match session.run("SELECT COUNT(*) FROM bulk").unwrap() {
            Output::Count(n) => assert_eq!(n, 2),
            other => panic!("unexpected {other:?}"),
        }
        // Duplicate names are rejected.
        let dup = NfTable::create(
            "bulk",
            &["A"],
            NestOrder::identity(1),
            engine.dict().clone(),
        )
        .unwrap();
        assert!(matches!(
            engine.attach_table(dup),
            Err(QueryError::TableExists(_))
        ));
    }

    #[test]
    fn executing_unbound_statements_is_rejected() {
        let engine = seeded_engine();
        let mut session = engine.session();
        let err = session.run("SELECT * FROM sc WHERE Student = ?");
        assert!(matches!(err, Err(QueryError::Unbound { count: 1 })));
        assert!(session.run("INSERT INTO sc VALUES (?, 'c9')").is_err());
    }

    #[test]
    fn session_query_streams_selects_only() {
        let engine = seeded_engine();
        let session = engine.session();
        let cursor = session
            .query("SELECT * FROM sc WHERE Student = 's1'")
            .unwrap();
        let tuples: Vec<_> = cursor.collect();
        assert_eq!(
            tuples
                .iter()
                .map(|t| t.as_ref().expansion_count())
                .sum::<u128>(),
            2
        );
        assert!(session.query("SHOW sc").is_err());
        assert!(session.query("SELECT * FROM ghost").is_err());
        // Placeholders are rejected with the dedicated variant, pointing
        // the caller at prepare().
        assert!(matches!(
            session.query("SELECT * FROM sc WHERE Student = ?"),
            Err(QueryError::Unbound { count: 1 })
        ));
    }

    #[test]
    fn rollback_restores_the_exact_canonical_form() {
        // On a multi-shard table, the inverse write a ROLLBACK commits
        // must bring the merged canonical form back to the one before
        // the transaction, however much the transaction moved it.
        let engine = Engine::builder().shards(4).build().unwrap();
        let mut session = engine.session();
        session
            .run_script(
                "CREATE TABLE sc (Student, Course);
                 INSERT INTO sc VALUES ('s1','c1'), ('s2','c1'), ('s1','c2'), ('s3','c3');",
            )
            .unwrap();
        let before = session.engine().table("sc").unwrap().snapshot().canonical();
        session.run("BEGIN").unwrap();
        session
            .run("INSERT INTO sc VALUES ('s9','c9'), ('s9','c1')")
            .unwrap();
        session
            .run("UPDATE sc SET Course = 'c7' WHERE Student = 's1'")
            .unwrap();
        session.run("DELETE FROM sc WHERE Student = 's2'").unwrap();
        let inside = session.engine().table("sc").unwrap().snapshot().canonical();
        assert_ne!(inside, before, "txn state visible inside the txn");
        session.run("ROLLBACK").unwrap();
        let t = session.engine().table("sc").unwrap();
        assert_eq!(
            t.snapshot().canonical(),
            before,
            "ROLLBACK restores the state before BEGIN"
        );
        // And the served form is the exact canonical form of its rows.
        assert!(nf2_core::nest::is_canonical(
            &t.snapshot().canonical(),
            t.order()
        ));
    }

    #[test]
    fn checkpoint_requires_data_dir() {
        let engine = seeded_engine();
        assert!(matches!(engine.checkpoint(), Err(QueryError::Semantic(_))));
    }

    #[test]
    fn a_failed_statement_changes_nothing() {
        let engine = seeded_engine();
        let mut session = engine.session();
        let t = session.engine().table("sc").unwrap();
        let (before, epoch) = (t.snapshot().canonical(), t.epoch());
        session.run("BEGIN").unwrap();
        // Row 2 fails the arity check, so row 1 does not land either.
        let err = session.run("INSERT INTO sc VALUES ('x9','y9'), ('only-one')");
        assert!(err.is_err());
        assert_eq!(t.flat_count(), before.flat_count(), "no row landed");
        assert_eq!(t.epoch(), epoch, "nothing was published");
        // There is nothing for ROLLBACK to invert.
        let out = session.run("ROLLBACK").unwrap();
        assert!(out.to_text().contains("rolled back 0"), "{}", out.to_text());
        assert_eq!(t.snapshot().canonical(), before);
    }

    #[test]
    fn rollback_autoflushes_compensating_mutations() {
        let dir = std::env::temp_dir().join("nf2_engine_rollback_wal");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::builder()
            .data_dir(&dir)
            .wal_autoflush(true)
            .build()
            .unwrap();
        let mut session = engine.session();
        session.run("CREATE TABLE t (A, B)").unwrap();
        session.run("BEGIN").unwrap();
        session.run("INSERT INTO t VALUES ('a','b')").unwrap();
        let after_insert = std::fs::metadata(dir.join("t.wal")).unwrap().len();
        assert!(after_insert > 0, "autoflush persisted the insert");
        session.run("ROLLBACK").unwrap();
        let after_rollback = std::fs::metadata(dir.join("t.wal")).unwrap().len();
        assert!(
            after_rollback > after_insert,
            "the compensating delete must reach the on-disk WAL \
             ({after_insert} -> {after_rollback} bytes), or a crash would \
             replay only the rolled-back insert"
        );
    }

    #[test]
    fn data_dir_checkpoint_and_autoflush_roundtrip() {
        let dir = std::env::temp_dir().join("nf2_engine_ckpt");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let engine = Engine::builder()
            .data_dir(&dir)
            .wal_autoflush(true)
            .build()
            .unwrap();
        {
            let mut session = engine.session();
            session
                .run_script(
                    "CREATE TABLE sc (Student, Course);
                     INSERT INTO sc VALUES ('s1','c1'), ('s2','c1');",
                )
                .unwrap();
        }
        engine.checkpoint().unwrap();
        {
            let mut session = engine.session();
            // Autoflush writes the WAL after each mutation.
            session.run("INSERT INTO sc VALUES ('s3','c2')").unwrap();
        }
        let wal = std::fs::read(dir.join("sc.wal")).unwrap();
        assert!(
            !wal.is_empty(),
            "autoflush persisted the post-checkpoint op"
        );
    }
}
