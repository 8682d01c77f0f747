//! Storage-backed tables: the NF² engine.
//!
//! [`NfTable`] is the paper's *realization view* (§2): the NFR is the
//! physical representation. Updates run the §4 incremental canonical
//! maintenance; durability follows the classic recipe — a write-ahead log
//! of flat-row operations plus checkpoints of the NF² tuples. Scans
//! count probes so the "reduction of logical search space" claim (§2, §5)
//! is measurable (E9 sets it against a 1NF fixture in `nf2-bench`).
//!
//! ## Checkpoints: the form held is the form stored
//!
//! A checkpoint writes each shard's tuples exactly as its chunks hold
//! them — shard 0 first, each in kernel order, each tuple in the
//! [`codec`](crate::codec) encoding, back to back with nothing between
//! them — into one tuple file, so a tuple is as large as its sets make
//! it. A meta file holds, beside the schema, order, dictionary, shard
//! spec and tiling target, each shard's extent: its tuple count, its
//! byte length and FNV-1a over those bytes. The checkpoint reads the
//! store without changing it. A reopen refuses (`StorageError::Corrupt`,
//! naming the shard) a tuple file that misses an extent before it
//! decodes a byte, then rebuilds one shard at a time: a stored row
//! routed to another shard is refused, and so is a shard whose kernel
//! re-nest of its own rows differs from its decoded tuples (`ν_P(R*_s)`
//! is unique, Theorem 2). The shards are the table's only whole-table
//! state: the global `ν_P(R*)` is derived on demand
//! ([`TableSnapshot::canonical`], never cached).
//!
//! ## Write path: one write procedure, routed per shard
//!
//! Writers do not serialize on one table lock. Each shard's writer
//! state ([`nf2_core::shard::ShardWriter`]) sits behind its own mutex
//! (a *lane*). There is one way the table changes: a *write* — an SQL
//! statement's flat-row ops, an [`NfTable::append_batch`], a point
//! [`insert_atoms`](NfTable::insert_atoms) /
//! [`delete_atoms`](NfTable::delete_atoms) (a write of one op) or a
//! `ROLLBACK`'s inverses. A write routes its ops in one pass, locks the
//! lanes they touch once, in **ascending shard index order**, applies
//! each shard's share as one keyed batch ([`nf2_core::bulk`]: §4 on
//! each outer key's slice, one regroup, one ordered merge), appends
//! exactly the ops that took effect to the shared sequenced commit log
//! (`crate::wal`) in one extend, and publishes every touched shard
//! through one [`VersionCell::submit`] — one epoch bump, whose short
//! table-level critical section also coalesces racing writes on other
//! shards. So a reader pins a whole write or none of it. The ordering
//! discipline lives only in this module (`lock_lane`/`lock_lanes` are
//! private to it) and is what makes the pipeline deadlock-free;
//! checkpoints and inspection views take every lane the same way.
//!
//! A shard's tuples live in the chunks of its segments, so the merge
//! builds a new chunk and patched columns only for the segments a write
//! touches and shares every other segment, chunk and all, with the
//! predecessor by `Arc`: publishing a write, and later dropping the
//! version it replaced, costs what the write touched, not what the
//! shard holds. The `write_*` series of [`TableStats`] count that work.
//! [`NfTable::open`] replays the WAL as one batch. Zone-map skipping and
//! the ordered k-way merge hold across writes, with no stale state to
//! fall back from.
//!
//! ## Scans
//!
//! A scan pins the snapshot's shard versions, asks each shard's segments
//! which of its tuples to yield ([`ShardVersion::locate`]), and yields
//! them straight out of the chunks as [`TupleView::Shared`] views, each
//! pinning the one segment its tuple lives in. Located tuples lie
//! scattered over the chunks, so a located scan reads ahead: it touches
//! its next few positions' offsets, then their atoms, before it yields
//! them, and their cache misses overlap ([`TableScan`]). It still
//! probe-counts only what it yields.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bytes::{BufMut, BytesMut};
use parking_lot::Mutex;

use nf2_core::bulk::{BatchSummary, Op};
use nf2_core::maintenance::CostCounter;
use nf2_core::mvcc::{ShardVersion, TableVersion, VersionCell};
use nf2_core::relation::{FlatRelation, NfRelation, RowBlock};
use nf2_core::schema::{AttrId, NestOrder, Schema};
use nf2_core::segment::{Conjunct, Rows, Segment, ShardSegments};
use nf2_core::shard::{
    apply_sub_batches, merge_shards, merged_tuple_count, BatchReport, MaintenanceCost, ShardRouter,
    ShardSpec, ShardWriter, ShardedCanonical,
};
use nf2_core::tuple::{FlatTuple, NfTuple, SetRef, TupleRef, TupleStore, TupleView, ValueSet};
use nf2_core::value::Atom;
use nf2_obs::Histogram;

use crate::codec::{decode_nf_tuple, encode_nf_tuple, fnv1a64, get_varint, put_varint};
use crate::dictionary::SharedDictionary;
use crate::error::{Result, StorageError};
use crate::wal::{decode_prefix, CommitLog};

/// The bytes one version of a table holds in its segments
/// ([`NfTable::memory`]), beside the flat rows they represent.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TableMemory {
    /// Chunk bytes: every stored atom and every chunk offset, 4 B each.
    pub chunk_bytes: u64,
    /// Value-major column bytes: codes, offsets and row lists, 4 B each.
    pub column_bytes: u64,
    /// Flat rows (`|R*|`) the segments represent.
    pub flat_rows: u128,
}

impl TableMemory {
    /// Chunk and column bytes per flat row, rounded to the nearest byte
    /// (0 for an empty table).
    pub fn bytes_per_flat_row(&self) -> u64 {
        let bytes = u128::from(self.chunk_bytes + self.column_bytes);
        match self.flat_rows {
            0 => 0,
            rows => ((bytes + rows / 2) / rows) as u64,
        }
    }
}

/// Probe and operation counters for the search-space experiments (E9) —
/// a point-in-time snapshot of [`SharedTableStats`].
///
/// # Tearing semantics
///
/// A snapshot is **not** an atomic cut across counters: each field is a
/// separate `Relaxed` load, so a snapshot taken while another thread is
/// mid-operation can mix counters from before and after that operation
/// (e.g. a scan's `lookups` bump without its `units_probed` settle).
/// Each individual counter is still exact and monotonic. Code that
/// reasons about *deltas* must therefore diff two whole snapshots taken
/// at quiescent points (`after.units_probed - before.units_probed`),
/// never re-load individual fields mid-measurement — the MVCC and
/// analyze proptests follow this discipline.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TableStats {
    /// Number of lookup calls.
    pub lookups: u64,
    /// Logical units examined by lookups (NF² tuples or flat rows).
    pub units_probed: u64,
    /// Rows inserted since creation.
    pub inserts: u64,
    /// Rows deleted since creation.
    pub deletes: u64,
    /// Segments in which a zoned scan
    /// ([`TableSnapshot::scan_shards_zoned`]) located no tuple — none of
    /// their tuples was probed, so they are *not* in `units_probed`.
    pub segments_skipped: u64,
    /// Located tuples a zoned scan touched ahead of yielding them (its
    /// read-ahead, [`TableScan`]): what it read early, not what it
    /// probed — a tuple read ahead is still probed only when yielded.
    /// Full scans and scans locating one tuple add nothing.
    pub scan_rows_read_ahead: u64,
    /// Version publications submitted by writers. Concurrent
    /// submissions may coalesce into fewer epoch bumps (the install
    /// leader drains racing shards under one bump), so this counts
    /// committed operations, not epochs — `epoch() <= epoch_installs`.
    pub epoch_installs: u64,
    /// MVCC snapshots pinned ([`NfTable::snapshot`]).
    pub snapshot_pins: u64,
    /// WAL flushes that reached the data directory: one per `write` of
    /// a group to the log file (no fsync yet), however many writers'
    /// entries rode in the group (a flush finding its group already
    /// written counts zero).
    pub wal_flushes: u64,
    /// Bytes those flushes handed the OS: each flush appends only its
    /// group, so after a checkpoint this grows by what the log file
    /// grows by.
    pub wal_bytes: u64,
    /// Writes that reached a shard — statements, batches, point writes
    /// and rollbacks alike, each one write (see the module docs).
    pub writes: u64,
    /// Wall time those writes spent applying their ops to the shards
    /// (routing, the WAL and publication excluded), in nanoseconds.
    pub write_nanos: u64,
    /// Distinct outer (`P(n−1)`) keys the writes addressed, counted
    /// per write.
    pub write_keys: u64,
    /// Stored tuples the writes sent through a regroup: those that
    /// lost a key and those a gained tuple merged with.
    pub write_tuples_regrouped: u64,
    /// Tuples the writes copied into the new chunks of the segments they
    /// rebuilt. Untouched segments share their chunks and add nothing.
    pub write_tuples_copied: u64,
    /// Segments the writes rebuilt (patched from their postings or
    /// encoded afresh), each touched segment once per write.
    pub write_segments_rebuilt: u64,
    /// Codes whose row list those rebuilds rewrote one by one: the codes
    /// a patched segment's leaving and entering tuples hold, and every
    /// code of a segment encoded afresh. A code carried over in an
    /// untouched run adds nothing, so a point write adds what its own
    /// tuples hold, whatever the segment size.
    pub write_codes_rewritten: u64,
    /// Whole-table merge passes: one per [`TableSnapshot::canonical`]
    /// call, which builds the merge, and one per `tuple_count` call
    /// ([`NfTable`]'s or [`TableSnapshot`]'s), which counts its tuples.
    /// A routed read or write makes none.
    pub merges: u64,
}

/// The live, concurrently-updated counters behind [`TableStats`].
///
/// Scan and lookup paths run lock-free under MVCC, so the counters are
/// atomics. Every access is `Relaxed`: these are statistical tallies —
/// monotonic counters with no cross-counter invariant readers could
/// rely on — so no ordering stronger than atomicity is needed.
#[derive(Debug, Default)]
pub struct SharedTableStats {
    lookups: AtomicU64,
    units_probed: AtomicU64,
    inserts: AtomicU64,
    deletes: AtomicU64,
    segments_skipped: AtomicU64,
    scan_rows_read_ahead: AtomicU64,
    epoch_installs: AtomicU64,
    snapshot_pins: AtomicU64,
    wal_flushes: AtomicU64,
    wal_bytes: AtomicU64,
    writes: AtomicU64,
    write_nanos: AtomicU64,
    write_keys: AtomicU64,
    write_tuples_regrouped: AtomicU64,
    write_tuples_copied: AtomicU64,
    write_segments_rebuilt: AtomicU64,
    write_codes_rewritten: AtomicU64,
    merges: AtomicU64,
}

impl SharedTableStats {
    fn with(stats: TableStats) -> Self {
        Self {
            lookups: AtomicU64::new(stats.lookups),
            units_probed: AtomicU64::new(stats.units_probed),
            inserts: AtomicU64::new(stats.inserts),
            deletes: AtomicU64::new(stats.deletes),
            segments_skipped: AtomicU64::new(stats.segments_skipped),
            scan_rows_read_ahead: AtomicU64::new(stats.scan_rows_read_ahead),
            epoch_installs: AtomicU64::new(stats.epoch_installs),
            snapshot_pins: AtomicU64::new(stats.snapshot_pins),
            wal_flushes: AtomicU64::new(stats.wal_flushes),
            wal_bytes: AtomicU64::new(stats.wal_bytes),
            writes: AtomicU64::new(stats.writes),
            write_nanos: AtomicU64::new(stats.write_nanos),
            write_keys: AtomicU64::new(stats.write_keys),
            write_tuples_regrouped: AtomicU64::new(stats.write_tuples_regrouped),
            write_tuples_copied: AtomicU64::new(stats.write_tuples_copied),
            write_segments_rebuilt: AtomicU64::new(stats.write_segments_rebuilt),
            write_codes_rewritten: AtomicU64::new(stats.write_codes_rewritten),
            merges: AtomicU64::new(stats.merges),
        }
    }

    /// A point-in-time copy. Counters are read individually (`Relaxed`),
    /// so a snapshot taken during a concurrent scan may be mid-settle —
    /// each counter is still exact once the scans it observed finish.
    /// See [`TableStats`] for the tearing semantics and the
    /// whole-snapshot-delta discipline this implies.
    pub fn snapshot(&self) -> TableStats {
        TableStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            units_probed: self.units_probed.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            deletes: self.deletes.load(Ordering::Relaxed),
            segments_skipped: self.segments_skipped.load(Ordering::Relaxed),
            scan_rows_read_ahead: self.scan_rows_read_ahead.load(Ordering::Relaxed),
            epoch_installs: self.epoch_installs.load(Ordering::Relaxed),
            snapshot_pins: self.snapshot_pins.load(Ordering::Relaxed),
            wal_flushes: self.wal_flushes.load(Ordering::Relaxed),
            wal_bytes: self.wal_bytes.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            write_nanos: self.write_nanos.load(Ordering::Relaxed),
            write_keys: self.write_keys.load(Ordering::Relaxed),
            write_tuples_regrouped: self.write_tuples_regrouped.load(Ordering::Relaxed),
            write_tuples_copied: self.write_tuples_copied.load(Ordering::Relaxed),
            write_segments_rebuilt: self.write_segments_rebuilt.load(Ordering::Relaxed),
            write_codes_rewritten: self.write_codes_rewritten.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
        }
    }

    /// Folds one write's report, and the nanoseconds it took, into the
    /// write series and the insert and delete tallies.
    fn settle_write(&self, report: &BatchReport, nanos: u64) {
        let count = |series: &AtomicU64, n: usize| series.fetch_add(n as u64, Ordering::Relaxed);
        count(&self.writes, 1);
        self.write_nanos.fetch_add(nanos, Ordering::Relaxed);
        count(&self.write_keys, report.keys);
        count(&self.write_tuples_regrouped, report.tuples_regrouped);
        count(&self.write_tuples_copied, report.tuples_copied);
        count(&self.write_segments_rebuilt, report.segments_reencoded);
        count(&self.write_codes_rewritten, report.codes_rewritten);
        count(&self.inserts, report.summary.inserted);
        count(&self.deletes, report.summary.deleted);
    }

    fn settle_scan(&self, yielded: u64, skipped: u64, read_ahead: u64) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.units_probed.fetch_add(yielded, Ordering::Relaxed);
        self.segments_skipped.fetch_add(skipped, Ordering::Relaxed);
        self.scan_rows_read_ahead
            .fetch_add(read_ahead, Ordering::Relaxed);
    }
}

/// An NF² table: canonical NFR as the physical representation — its
/// shards, partitioned on the outermost nest attribute (one shard by
/// default), each holding `ν_P` of its own rows — with WAL + checkpoint
/// durability.
///
/// With more than one shard, a write routes each op to a single shard
/// and runs the shards it touches side by side,
/// [`scan`](NfTable::scan) concatenates the per-shard tuple streams,
/// and [`TableSnapshot::canonical`] merges a pinned snapshot's shards
/// into the exact global canonical form, afresh on every call.
///
/// ## Concurrency (shard-snapshot MVCC, per-shard writer lanes)
///
/// The table is fully shareable (`&self` for every operation, including
/// mutations): the writer state is split into per-shard *lanes* — one
/// [`ShardWriter`] behind its own [`Mutex`] per shard — and every
/// committed state is *published* into a [`VersionCell`] as immutable
/// `Arc`-held [`ShardVersion`]s. Readers pin a [`TableSnapshot`] once
/// per statement and stream scans without taking any lock. A write
/// locks only the lanes its ops route to, so writers on disjoint
/// shards build their replacement versions fully in parallel;
/// publication goes through [`VersionCell::submit`], whose table-level
/// critical section is just the pointer install — racing commits from
/// different shards coalesce there into a single epoch bump, preserving
/// the bump-by-{0,1} snapshot protocol pinned readers rely on.
///
/// Deadlock freedom: every path acquires lanes in ascending
/// shard-index order through `lock_lanes`. The lane guards are held
/// across the whole write (mutate → WAL append → submit), so each shard
/// has at most one in-flight commit and its WAL entries appear in
/// serial mutation order.
#[derive(Debug)]
pub struct NfTable {
    name: String,
    dict: SharedDictionary,
    /// Immutable table metadata, copied out of the canonical store at
    /// construction so reads never lock for it.
    schema: Arc<Schema>,
    order: NestOrder,
    routing: ShardRouter,
    /// The published MVCC state: readers pin, writers install.
    versions: VersionCell,
    /// Per-shard writer lanes, indexed by shard id. Lock through
    /// `lock_lane`/`lock_lanes` only — ascending order is the
    /// deadlock-freedom contract.
    lanes: Vec<Mutex<ShardWriter>>,
    /// The sequenced group-commit WAL shared by all lanes.
    wal: CommitLog,
    /// Group-commit window in microseconds (leader dwell before the
    /// group's write); 0 = flush immediately. Engine-configurable.
    group_commit_us: AtomicU64,
    /// Microseconds writers spent blocked on contended lane locks
    /// (uncontended acquisitions record nothing).
    lock_wait_us: Histogram,
    /// Entries made durable per WAL group flush.
    wal_group_size: Histogram,
    stats: Arc<SharedTableStats>,
}

impl NfTable {
    /// Creates an empty single-shard table.
    pub fn create(
        name: &str,
        attr_names: &[&str],
        order: NestOrder,
        dict: SharedDictionary,
    ) -> Result<Self> {
        Self::create_sharded(name, attr_names, order, ShardSpec::single(), dict)
    }

    /// Creates an empty table partitioned by `spec` on the outermost
    /// nest attribute.
    pub fn create_sharded(
        name: &str,
        attr_names: &[&str],
        order: NestOrder,
        spec: ShardSpec,
        dict: SharedDictionary,
    ) -> Result<Self> {
        let schema = Schema::new(name, attr_names)?;
        let canon = ShardedCanonical::new(schema, order, spec)?;
        Ok(Self::wrap(
            name,
            dict,
            canon,
            TableStats::default(),
            CommitLog::new(),
        ))
    }

    /// Builds a single-shard table from an existing 1NF relation by
    /// nesting from scratch.
    pub fn from_flat(
        name: &str,
        flat: &FlatRelation,
        order: NestOrder,
        dict: SharedDictionary,
    ) -> Result<Self> {
        Self::from_flat_sharded(name, flat, order, ShardSpec::single(), dict)
    }

    /// Builds a sharded table from an existing 1NF relation: rows are
    /// routed, then every shard nests its own rows (in parallel).
    pub fn from_flat_sharded(
        name: &str,
        flat: &FlatRelation,
        order: NestOrder,
        spec: ShardSpec,
        dict: SharedDictionary,
    ) -> Result<Self> {
        let canon = ShardedCanonical::from_flat(flat, order, spec)?;
        Ok(Self::wrap(
            name,
            dict,
            canon,
            TableStats::default(),
            CommitLog::new(),
        ))
    }

    /// Bulk-loads rows of atoms through the single-pass nest kernel: one
    /// sort-group pass per shard instead of per-row §4 maintenance. The
    /// fast path for cold loads; the benchmark's `bulk_ingest` workload
    /// measures it against batch appends.
    pub fn bulk_load_atoms<I>(
        name: &str,
        attr_names: &[&str],
        rows: I,
        order: NestOrder,
        dict: SharedDictionary,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = FlatTuple>,
    {
        Self::bulk_load_atoms_sharded(name, attr_names, rows, order, ShardSpec::single(), dict)
    }

    /// [`bulk_load_atoms`](Self::bulk_load_atoms) into a sharded table.
    /// The rows are copied into one row-major block of atoms
    /// ([`RowBlock`]); the block is routed into one block per shard in
    /// one pass, and each shard's kernel sorts its block, drops repeated
    /// rows and folds, the shards side by side on at most one thread per
    /// core ([`ShardedCanonical::from_rows`]). No set of rows is built:
    /// a cold load costs one sort and one fold per shard. Repeated rows
    /// count once, in the shards and in [`TableStats::inserts`]; a row of
    /// the wrong arity is [`nf2_core::error::NfError::ArityMismatch`] and
    /// loads nothing.
    pub fn bulk_load_atoms_sharded<I>(
        name: &str,
        attr_names: &[&str],
        rows: I,
        order: NestOrder,
        spec: ShardSpec,
        dict: SharedDictionary,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = FlatTuple>,
    {
        let schema = Schema::new(name, attr_names)?;
        let block = RowBlock::from_rows(schema, rows).map_err(StorageError::Model)?;
        Self::load_block(name, block, order, spec, dict)
    }

    /// Bulk-loads rows of string values, interning every value into the
    /// shared dictionary first — query literals, WAL rows and bulk-loaded
    /// rows all resolve in one value space end-to-end.
    pub fn bulk_load_strs<'a, I>(
        name: &str,
        attr_names: &[&str],
        rows: I,
        order: NestOrder,
        dict: SharedDictionary,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = Vec<&'a str>>,
    {
        Self::bulk_load_strs_sharded(name, attr_names, rows, order, ShardSpec::single(), dict)
    }

    /// [`bulk_load_strs`](Self::bulk_load_strs) into a sharded table:
    /// each value is interned straight into the load's block of atoms,
    /// row by row and attribute by attribute — the atoms
    /// [`SharedDictionary::intern_row`] would give, with no `Vec` per
    /// row — and the block is built as
    /// [`bulk_load_atoms_sharded`](Self::bulk_load_atoms_sharded) builds
    /// its own. A row of the wrong arity stops the load there: its values
    /// are interned, later rows' are not, and nothing is loaded.
    pub fn bulk_load_strs_sharded<'a, I>(
        name: &str,
        attr_names: &[&str],
        rows: I,
        order: NestOrder,
        spec: ShardSpec,
        dict: SharedDictionary,
    ) -> Result<Self>
    where
        I: IntoIterator<Item = Vec<&'a str>>,
    {
        let schema = Schema::new(name, attr_names)?;
        let rows = rows.into_iter();
        let mut block = RowBlock::with_capacity(schema, rows.size_hint().0);
        for row in rows {
            block
                .push_row_from(row.iter().map(|value| dict.intern(value)))
                .map_err(StorageError::Model)?;
        }
        Self::load_block(name, block, order, spec, dict)
    }

    /// The cold build behind both bulk loads: the shards nested from
    /// `block`, and a table counting each distinct row as one insert.
    fn load_block(
        name: &str,
        block: RowBlock,
        order: NestOrder,
        spec: ShardSpec,
        dict: SharedDictionary,
    ) -> Result<Self> {
        let canon = ShardedCanonical::from_rows(block, order, spec)?;
        // A shard holds each of its distinct rows once.
        let loaded = canon.flat_count() as u64;
        Ok(Self::wrap(
            name,
            dict,
            canon,
            TableStats {
                inserts: loaded,
                ..TableStats::default()
            },
            CommitLog::new(),
        ))
    }

    /// Assembles a table around a sharded canonical relation — split
    /// into per-shard writer lanes — and publishes its initial versions
    /// at epoch 0.
    fn wrap(
        name: &str,
        dict: SharedDictionary,
        canon: ShardedCanonical,
        stats: TableStats,
        wal: CommitLog,
    ) -> Self {
        Self {
            name: name.to_owned(),
            dict,
            schema: canon.schema().clone(),
            order: canon.order().clone(),
            routing: canon.router().clone(),
            versions: VersionCell::new(canon.versions()),
            lanes: canon.into_writers().into_iter().map(Mutex::new).collect(),
            wal,
            group_commit_us: AtomicU64::new(0),
            lock_wait_us: Histogram::new(),
            wal_group_size: Histogram::new(),
            stats: Arc::new(SharedTableStats::with(stats)),
        }
    }

    /// Locks one shard's writer lane — the single per-shard lock
    /// acquisition point. Contended acquisitions (another writer holds
    /// the lane) record their wait in the `lock_wait_us` histogram;
    /// the uncontended fast path costs one `try_lock`.
    fn lock_lane(&self, shard: usize) -> std::sync::MutexGuard<'_, ShardWriter> {
        if let Some(guard) = self.lanes[shard].try_lock() {
            return guard;
        }
        let sw = nf2_obs::Stopwatch::start();
        let guard = self.lanes[shard].lock();
        self.lock_wait_us.record(sw.elapsed_us());
        guard
    }

    /// Locks the given lanes in **ascending shard-index order** — the
    /// deadlock-freedom discipline every multi-shard path follows.
    /// `shards` must be sorted and deduplicated.
    fn lock_lanes(&self, shards: &[usize]) -> Vec<std::sync::MutexGuard<'_, ShardWriter>> {
        debug_assert!(
            shards.windows(2).all(|w| w[0] < w[1]),
            "lanes must be acquired in ascending shard order"
        );
        shards.iter().map(|&s| self.lock_lane(s)).collect()
    }

    /// Locks every lane (ascending), quiescing all writers — the
    /// whole-table critical section for checkpoints and inspection.
    fn lock_all_lanes(&self) -> Vec<std::sync::MutexGuard<'_, ShardWriter>> {
        let all: Vec<usize> = (0..self.lanes.len()).collect();
        self.lock_lanes(&all)
    }

    /// Publishes already-locked lanes' current versions through the
    /// coalescing submit protocol. Callers must hold the lane guards
    /// they pass in (that is what bounds each shard to one in-flight
    /// commit).
    fn submit_lanes(&self, lanes: &[(usize, &ShardWriter)]) {
        let versions = lanes
            .iter()
            .map(|&(shard, lane)| (shard, Arc::clone(lane.version())))
            .collect();
        self.versions.submit(versions);
        self.stats.epoch_installs.fetch_add(1, Ordering::Relaxed);
    }

    /// Applies a batch of flat-row operations as one write (module
    /// docs): each shard's share by the keyed batch procedure
    /// ([`nf2_core::bulk`]: every outer key's ops replayed on that key's
    /// slice, one regroup and one ordered merge per shard, the shards
    /// side by side on scoped threads), the ops that took effect logged
    /// to the WAL, one epoch bump. Returns the batch summary — which
    /// names the no-ops by their position in `ops` — and whether some
    /// shard regrouped every tuple it held: the batch amounted to a
    /// re-nest there. On `Err` (an op of the wrong arity) nothing
    /// changed.
    pub fn append_batch(&self, ops: &[Op]) -> Result<(BatchSummary, bool)> {
        self.commit(ops)
    }

    /// The one write procedure (module docs). Routing validates the
    /// whole batch up front: arity errors are the only failure mode
    /// below, so rejecting them there keeps the write atomic (on `Err`
    /// the relation and the WAL are both untouched).
    fn commit(&self, ops: &[Op]) -> Result<(BatchSummary, bool)> {
        let per_shard = self.routing.partition_ops(ops)?;
        let touched: Vec<usize> = (0..per_shard.len())
            .filter(|&s| !per_shard[s].is_empty())
            .collect();
        if touched.is_empty() {
            return Ok((BatchSummary::default(), false));
        }
        let mut lanes = self.lock_lanes(&touched);
        let sw = nf2_obs::Stopwatch::start();
        let report = apply_sub_batches(
            lanes
                .iter_mut()
                .zip(&touched)
                .map(|(lane, &shard)| (&mut **lane, per_shard[shard].as_slice())),
        )?;
        self.stats.settle_write(&report, sw.elapsed_nanos());
        let summary = report.summary;
        if summary.inserted + summary.deleted > 0 {
            // Logged while the lanes are still held, so no racing write
            // can interleave inside this one's log footprint on any
            // touched shard.
            let noops = &summary.noop_positions;
            self.wal.extend(
                ops.iter()
                    .enumerate()
                    .filter(|(at, _)| noops.binary_search(at).is_err())
                    .map(|(_, op)| op),
            );
            // Publish every shard the write routed to through one
            // submit. A shard whose share turned out to be all no-ops
            // re-installs its existing Arc — pointer-identical, so
            // pinned and pruned readers are untouched. A write with no
            // state change at all skips the bump entirely.
            let locked: Vec<(usize, &ShardWriter)> = touched
                .iter()
                .zip(lanes.iter())
                .map(|(&shard, lane)| (shard, &**lane))
                .collect();
            self.submit_lanes(&locked);
        }
        Ok((summary, report.shards_regrouped_whole > 0))
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The nest order the table is canonical for.
    pub fn order(&self) -> &NestOrder {
        &self.order
    }

    /// The shard specification the table is partitioned by.
    pub fn shard_spec(&self) -> &ShardSpec {
        self.routing.spec()
    }

    /// Number of shards (1 unless created through a `_sharded`
    /// constructor).
    pub fn shard_count(&self) -> usize {
        self.routing.shard_count()
    }

    /// An assembled copy of the table's sharded canonical store.
    ///
    /// Quiesces writers momentarily (every lane locked in ascending
    /// order), snapshots each lane's version, and reassembles a
    /// [`ShardedCanonical`] around them — an inspection/verification
    /// surface, not a fast path. The copy is owned (its shard versions
    /// are `Arc` snapshots): the lanes are released before it is handed
    /// back, so holding it blocks nothing.
    pub fn sharded(&self) -> ShardedCanonical {
        let lanes = self.lock_all_lanes();
        let versions = lanes.iter().map(|l| Arc::clone(l.version())).collect();
        let segment_rows = lanes[0].segment_rows();
        drop(lanes);
        ShardedCanonical::from_versions(
            self.schema.clone(),
            self.order.clone(),
            self.routing.spec().clone(),
            versions,
            segment_rows,
        )
        .expect("lane versions always match the table's own shard spec")
    }

    /// The shared dictionary.
    pub fn dict(&self) -> &SharedDictionary {
        &self.dict
    }

    /// Pins the current MVCC snapshot: the epoch and every shard's
    /// published version, grabbed atomically. All statement-level reads
    /// go through a snapshot so one statement sees one table state.
    pub fn snapshot(&self) -> TableSnapshot {
        self.stats.snapshot_pins.fetch_add(1, Ordering::Relaxed);
        TableSnapshot {
            version: self.versions.pin(),
            routing: self.routing.clone(),
            stats: Arc::clone(&self.stats),
        }
    }

    /// The current epoch: bumped exactly once per state-changing
    /// statement or batch. Epoch 0 is the freshly created/loaded state.
    pub fn epoch(&self) -> u64 {
        self.versions.epoch()
    }

    /// NF² tuple count of the global canonical form (the logical search
    /// space size): [`TableSnapshot::tuple_count`] of an uncounted pin.
    pub fn tuple_count(&self) -> usize {
        self.stats.merges.fetch_add(1, Ordering::Relaxed);
        let pin = self.versions.pin();
        merged_tuple_count(&self.routing, pin.shards().iter().map(|s| &**s))
    }

    /// Flat row count (`|R*|`).
    pub fn flat_count(&self) -> u128 {
        self.versions.pin().flat_count()
    }

    /// The bytes the current version's segments hold, summed over an
    /// uncounted pin: exact, and computed only when asked, so nothing
    /// on the read or write path counts them.
    pub fn memory(&self) -> TableMemory {
        let pin = self.versions.pin();
        let segments = pin.shards().iter().flat_map(|s| s.segments().segments());
        let mut mem = TableMemory::default();
        for seg in segments {
            mem.chunk_bytes += seg.chunk_bytes() as u64;
            mem.column_bytes += seg.column_bytes() as u64;
            mem.flat_rows += seg.flat_count();
        }
        mem
    }

    /// Point-in-time stats.
    pub fn stats(&self) -> TableStats {
        self.stats.snapshot()
    }

    /// Accumulated §4 maintenance cost over the table's lifetime
    /// (summed across shards).
    pub fn maintenance_cost(&self) -> CostCounter {
        self.maintenance_breakdown().total
    }

    /// The per-shard maintenance-cost breakdown, aggregated from the
    /// per-lane counters under a whole-table quiesce.
    pub fn maintenance_breakdown(&self) -> MaintenanceCost {
        MaintenanceCost::of_lanes(self.lock_all_lanes().iter().map(|lane| &**lane))
    }

    /// Interns string values into a flat row for this schema.
    pub fn row_from_strs(&self, values: &[&str]) -> Result<FlatTuple> {
        if values.len() != self.schema().arity() {
            return Err(StorageError::Model(nf2_core::NfError::ArityMismatch {
                expected: self.schema().arity(),
                got: values.len(),
            }));
        }
        Ok(self.dict.intern_row(values))
    }

    /// Inserts a row of string values. Returns `true` if new.
    pub fn insert_row(&self, values: &[&str]) -> Result<bool> {
        let row = self.row_from_strs(values)?;
        self.insert_atoms(row)
    }

    /// Inserts a flat row of atoms — a write of one op, logged to the
    /// WAL. Returns `true` if the row was new; only then is a version
    /// published and the epoch bumped. A no-op duplicate leaves the
    /// shards and the epoch untouched.
    pub fn insert_atoms(&self, row: FlatTuple) -> Result<bool> {
        Ok(self.commit(&[Op::Insert(row)])?.0.noops == 0)
    }

    /// Deletes a row of string values. Returns `true` if it existed.
    pub fn delete_row(&self, values: &[&str]) -> Result<bool> {
        let row = self.row_from_strs(values)?;
        self.delete_atoms(&row)
    }

    /// Deletes a flat row of atoms — a write of one op, logged to the
    /// WAL. Returns `true` (and bumps the epoch) if the row was present.
    pub fn delete_atoms(&self, row: &[Atom]) -> Result<bool> {
        Ok(self.commit(&[Op::Delete(row.to_vec())])?.0.noops == 0)
    }

    /// Whether the table contains the flat row (`searcht` against
    /// exactly one shard of the current snapshot); a row of the wrong
    /// arity is contained in nothing.
    pub fn contains(&self, row: &[Atom]) -> bool {
        let pin = self.versions.pin();
        self.routing.contains(row, |shard| pin.shard(shard))
    }

    /// A zero-copy, probe-counted scan over the stored NF² tuples — the
    /// per-shard tuple streams of the *current snapshot*, concatenated
    /// in shard order.
    ///
    /// The iterator yields [`TupleView`]s straight out of the pinned
    /// shard versions' segment chunks — no clone, no merge, no lock held
    /// while streaming — and counts every yielded tuple, flushing the total
    /// into [`stats`](Self::stats) (`lookups += 1`, `units_probed +=
    /// yielded`) when dropped. Streaming query cursors ride on this: a
    /// cursor that stops after the first tuple is charged one probe,
    /// not a full relation's worth — which is also how tests assert
    /// that a cursor did *not* materialize its input.
    ///
    /// On a multi-shard table a global canonical tuple whose outermost
    /// set spans shards streams as one tuple per shard; the concatenation
    /// is a valid NFR with the same `R*`. `R*` and every count over it do
    /// not depend on the shard count, but a listing of NF² tuples, and
    /// `LIMIT k` over it, may differ until the regroup decision lands.
    pub fn scan(&self) -> TableScan {
        self.snapshot().scan()
    }

    /// Changes the target tuples-per-segment on the backing store,
    /// re-tiles every shard and publishes the re-tiled versions.
    /// Test and experiment knob.
    pub fn set_segment_rows(&self, rows: usize) {
        let mut lanes = self.lock_all_lanes();
        for lane in lanes.iter_mut() {
            lane.set_segment_rows(rows);
        }
        // Holding every lane means no submit is in flight, so the
        // whole-table install cannot race a coalescing leader.
        self.versions
            .install_all(lanes.iter().map(|l| Arc::clone(l.version())).collect());
    }

    /// The value router the table's shards are partitioned by — what a
    /// query planner asks to turn an outer-attribute predicate into a
    /// shard set for [`TableSnapshot::scan_shards`].
    pub fn routing(&self) -> &nf2_core::shard::ShardRouter {
        &self.routing
    }

    /// Checkpoints to `dir`: a tuple file of each shard's NF² tuples,
    /// shard 0 first, each exactly as its chunks hold them (kernel
    /// order), encoded back to back; and a meta file holding each
    /// shard's extent in it (tuple count, byte length, digest);
    /// cuts the WAL to empty, binding the table's log to `dir` as
    /// [`flush_wal`](Self::flush_wal) does.
    ///
    /// The checkpoint reads the store and changes nothing in it: no
    /// version is published, and the epoch stays where it was. It holds
    /// every lane lock (ascending) throughout so the tuples, meta and
    /// WAL truncation describe one consistent state (every mutation
    /// publishes before releasing its lane).
    pub fn checkpoint(&self, dir: &Path) -> Result<()> {
        std::fs::create_dir_all(dir)?;
        let lanes = self.lock_all_lanes();
        let mut tuples = BytesMut::new();
        let extents: Vec<ShardExtent> = lanes
            .iter()
            .map(|lane| encode_shard(lane.version().tuples(), &mut tuples))
            .collect();
        let meta = self.encode_meta(&extents, lanes[0].segment_rows());
        std::fs::write(meta_path(dir, &self.name), &meta)?;
        std::fs::write(tuples_path(dir, &self.name), &tuples)?;
        self.wal.truncate(&wal_path(dir, &self.name))?;
        drop(lanes);
        Ok(())
    }

    /// Makes buffered WAL entries durable without checkpointing, via
    /// the group-commit protocol: concurrent flushers elect one leader
    /// per group, and the leader appends the group in one `write` to
    /// the log file it holds open — no fsync yet. The first flush or
    /// checkpoint binds the table's log to `dir` (a reopened table is
    /// bound to the directory it was opened from); naming another
    /// directory later is [`StorageError::Io`]. `wal_flushes` counts
    /// actual writes — a flush whose group a racing leader already
    /// wrote counts zero — `wal_bytes` their bytes, and each group's
    /// size is recorded in the `wal.group.size` histogram.
    pub fn flush_wal(&self, dir: &Path) -> Result<()> {
        let window = self.group_commit_us.load(Ordering::Relaxed);
        if let Some(group) = self.wal.flush_to(&wal_path(dir, &self.name), window)? {
            self.stats.wal_flushes.fetch_add(1, Ordering::Relaxed);
            self.stats
                .wal_bytes
                .fetch_add(group.bytes, Ordering::Relaxed);
            self.wal_group_size.record(group.entries);
        }
        Ok(())
    }

    /// Sets the group-commit window: how long an elected flush leader
    /// dwells (microseconds) before its group's write, letting
    /// concurrent writers' entries join the group. 0 flushes
    /// immediately. Engine wiring (`EngineBuilder::group_commit`).
    pub fn set_group_commit_us(&self, us: u64) {
        self.group_commit_us.store(us, Ordering::Relaxed);
    }

    /// The configured group-commit window in microseconds.
    pub fn group_commit_us(&self) -> u64 {
        self.group_commit_us.load(Ordering::Relaxed)
    }

    /// Replaces the write-path histogram handles with shared ones —
    /// registry-backed clones, so the engine's metrics snapshot exports
    /// lane lock waits and WAL group sizes without polling the table.
    /// Called at table registration, before the table is shared.
    pub fn set_write_metrics(&mut self, lock_wait_us: Histogram, wal_group_size: Histogram) {
        self.lock_wait_us = lock_wait_us;
        self.wal_group_size = wal_group_size;
    }

    /// Opens a table from `dir`: rebuilds the checkpoint's shards one at
    /// a time, under the persisted shard spec and tiling target, then
    /// replays the WAL as one batch
    /// ([`append_batch`](Self::append_batch)'s procedure).
    ///
    /// `dict` must intern the checkpoint's atom `i` as atom `i` (a fresh
    /// one does, and so does one holding the checkpoint's strings as a
    /// prefix); any other is [`StorageError::Corrupt`], naming the first
    /// atom that disagrees.
    ///
    /// Before it decodes anything, the tuple file's length must be the
    /// sum of the meta's shard lengths and each shard's bytes must hash
    /// to its digest; it then decodes exactly each shard's tuple count
    /// from exactly its bytes. Every row a shard's tuples expand to must
    /// route to that shard, and the kernel's nest of those rows must
    /// equal the decoded tuples, in order, whatever the WAL holds. Shard
    /// `s` holds `ν_P(R*_s)`, which is unique (Theorem 2), so that one
    /// equality refuses a changed, dropped, added, overlapping or
    /// non-canonical tuple. Each mismatch is [`StorageError::Corrupt`]
    /// naming the shard.
    ///
    /// Replay is prefix-tolerant: a crash in the middle of a group
    /// flush leaves a torn byte tail, and because the group-commit log
    /// only appends whole groups between checkpoints, any byte prefix
    /// decodes to an entry prefix — replay stops at the first torn
    /// entry, which is exactly the last durably committed prefix. The
    /// reopened table's log is bound to this file and remembers only
    /// that prefix's length: its first flush cuts the torn tail off
    /// before it appends, so new entries land right behind the replayed
    /// ones. A missing log file replays nothing; a log that exists but
    /// cannot be read is [`StorageError::Io`].
    pub fn open(dir: &Path, name: &str, dict: SharedDictionary) -> Result<Self> {
        let meta = read_meta(&meta_path(dir, name))?;
        // Atom ids are dense from 0, in the checkpoint's order.
        for (id, entry) in meta.dict_entries.iter().enumerate() {
            let atom = dict.intern(entry);
            if atom != Atom(id as u32) {
                return Err(StorageError::Corrupt(format!(
                    "atom {id}: the checkpoint's {entry:?} is atom {} in the given dictionary",
                    atom.id()
                )));
            }
        }
        let refs: Vec<&str> = meta.attr_names.iter().map(String::as_str).collect();
        let schema = Schema::new(name, &refs)?;
        let arity = schema.arity();
        let order = NestOrder::new(meta.order, arity).map_err(StorageError::Model)?;
        let mut canon = ShardedCanonical::new(schema.clone(), order, meta.spec)?;
        canon.set_segment_rows(meta.segment_rows);
        let bytes = std::fs::read(tuples_path(dir, name))?;
        // The checks below are on the checkpoint, not checkpoint plus
        // log, so they run before replay moves the shards on.
        for (shard, (mut slice, extent)) in shard_ranges(&bytes, &meta.shards)?
            .into_iter()
            .zip(&meta.shards)
            .enumerate()
        {
            let stored = (0..extent.tuples)
                .map(|_| decode_nf_tuple(&mut slice, arity))
                .collect::<Result<Vec<NfTuple>>>()?;
            if !slice.is_empty() {
                return Err(shard_corrupt(shard, "bytes past its last tuple"));
            }
            let mut rows = RowBlock::with_capacity(schema.clone(), 0);
            for tuple in &stored {
                let start = rows.len();
                rows.push_expansion(tuple.as_ref())?;
                if rows
                    .rows_from(start)
                    .any(|row| canon.router().route_row(row) != shard)
                {
                    return Err(shard_corrupt(shard, "a stored row routes to another shard"));
                }
            }
            if !canon
                .nest_shard(shard, &rows)?
                .tuples()
                .eq(stored.iter().map(NfTuple::as_ref))
            {
                return Err(shard_corrupt(shard, "its tuples are not their rows' nest"));
            }
        }
        // A first checkpoint can crash before the log file exists.
        let wal = wal_path(dir, name);
        let wal_bytes = match std::fs::read(&wal) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        // Replay the WAL up to the first torn entry (see above), as one
        // batch.
        let (replay, intact) = decode_prefix(&wal_bytes, arity);
        canon.apply_batch(&replay)?;
        // Recovery is not maintenance: a reopened table starts its
        // lifetime's cost accounting at zero.
        canon.reset_maintenance_cost();
        Ok(Self::wrap(
            name,
            dict,
            canon,
            TableStats::default(),
            CommitLog::with_durable(wal, intact as u64),
        ))
    }

    /// A checkpoint's meta file: a checksum, then schema, nest order,
    /// dictionary, shard spec, tiling target and, one per shard, the
    /// `extents` of the tuple file it describes.
    fn encode_meta(&self, extents: &[ShardExtent], segment_rows: usize) -> BytesMut {
        let mut buf = BytesMut::new();
        let schema = self.schema();
        put_varint(&mut buf, schema.arity() as u64);
        for name in schema.attr_names() {
            put_varint(&mut buf, name.len() as u64);
            buf.extend_from_slice(name.as_bytes());
        }
        for &a in self.order.as_slice() {
            put_varint(&mut buf, a as u64);
        }
        // Dictionary contents in atom order.
        let snap = self.dict.snapshot();
        put_varint(&mut buf, snap.len() as u64);
        for id in 0..snap.len() as u32 {
            let name = snap.resolve(Atom(id)).expect("dense atom ids");
            put_varint(&mut buf, name.len() as u64);
            buf.extend_from_slice(name.as_bytes());
        }
        // Shard spec: tag byte, then the spec parameters.
        match self.shard_spec() {
            ShardSpec::Hash { shards } => {
                buf.put_u8(0);
                put_varint(&mut buf, *shards as u64);
            }
            ShardSpec::Range { boundaries } => {
                buf.put_u8(1);
                put_varint(&mut buf, boundaries.len() as u64);
                for b in boundaries {
                    put_varint(&mut buf, u64::from(b.id()));
                }
            }
        }
        // Target tuples-per-segment, then each shard's extent (shard
        // count from the spec).
        put_varint(&mut buf, segment_rows as u64);
        for extent in extents {
            put_varint(&mut buf, extent.tuples);
            put_varint(&mut buf, extent.bytes);
            buf.put_u64(extent.digest);
        }
        let mut out = BytesMut::with_capacity(buf.len() + 8);
        out.put_u64(fnv1a64(&buf));
        out.extend_from_slice(&buf);
        out
    }
}

/// A pinned, immutable view of one table at one epoch — the reader half
/// of the MVCC protocol.
///
/// A snapshot is pinned once per statement ([`NfTable::snapshot`]) and
/// every scan the statement runs goes against it: concurrent writers
/// install new versions without disturbing it, so one statement sees
/// one table state no matter how long its cursor streams. Dropping the
/// snapshot releases the pinned shard versions.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    version: Arc<TableVersion>,
    routing: ShardRouter,
    stats: Arc<SharedTableStats>,
}

impl TableSnapshot {
    /// The epoch this snapshot was pinned at.
    pub fn epoch(&self) -> u64 {
        self.version.epoch()
    }

    /// The pinned per-shard versions.
    pub fn version(&self) -> &Arc<TableVersion> {
        &self.version
    }

    /// The value router (shard pruning resolves against the same
    /// routing the pinned versions were partitioned by).
    pub fn routing(&self) -> &ShardRouter {
        &self.routing
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.version.shard_count()
    }

    /// One pinned shard's segments.
    pub fn shard_segments(&self, shard: usize) -> &ShardSegments {
        self.version.shard(shard).segments()
    }

    /// NF² tuple count of [`canonical`](Self::canonical), counted
    /// without building it ([`merged_tuple_count`]); one of
    /// [`TableStats::merges`].
    pub fn tuple_count(&self) -> usize {
        self.stats.merges.fetch_add(1, Ordering::Relaxed);
        merged_tuple_count(&self.routing, self.version.shards().iter().map(|s| &**s))
    }

    /// Flat row count (`|R*|`) of the pinned state.
    pub fn flat_count(&self) -> u128 {
        self.version.flat_count()
    }

    /// Whether the pinned state contains the flat row; a row of the
    /// wrong arity is contained in nothing.
    pub fn contains(&self, row: &[Atom]) -> bool {
        self.routing
            .contains(row, |shard| self.version.shard(shard))
    }

    /// The exact global canonical form `ν_P(R*)` of the pinned state,
    /// whatever the shard count: one [`merge_shards`] over the pinned
    /// shards, built on every call and never cached, and counted in
    /// [`TableStats::merges`].
    pub fn canonical(&self) -> NfRelation {
        self.stats.merges.fetch_add(1, Ordering::Relaxed);
        merge_shards(&self.routing, self.version.shards().iter().map(|s| &**s))
    }

    /// A zero-copy, probe-counted scan over every pinned shard in shard
    /// order — see [`NfTable::scan`] for semantics and probe
    /// accounting.
    pub fn scan(&self) -> TableScan {
        let all: Vec<usize> = (0..self.shard_count()).collect();
        self.scan_shards(&all)
    }

    /// A zero-copy, probe-counted scan restricted to the given shards
    /// (out-of-range ids are ignored). This is the storage half of
    /// **shard pruning**: a selection that fixes the outermost nest
    /// attribute resolves its shard set through
    /// [`routing`](Self::routing) and scans only those shards — the
    /// skipped shards' tuples are never yielded, so they never show up
    /// in the table's stats either.
    ///
    /// Probe accounting uses **one** counter across all selected
    /// shards, settled once on drop — concatenating shard streams must
    /// never double-count, even when a downstream `take(n)` stops
    /// mid-shard.
    pub fn scan_shards(&self, shards: &[usize]) -> TableScan {
        self.scan_shards_zoned(shards, &[])
    }

    /// A zero-copy, probe-counted scan over `shards` that yields exactly
    /// the tuples their segments locate for the `zones` conjuncts —
    /// `(attr, values)` pairs meaning "the `attr` component must
    /// intersect `values`" ([`ShardVersion::locate`]: binary search and
    /// list intersection in the value-major columns, no tuple touched).
    /// Only located tuples are yielded and probe-counted; a segment that
    /// holds none is tallied in [`TableStats::segments_skipped`].
    ///
    /// A located tuple *intersects* every conjunct; its components are
    /// not narrowed to them, so callers still apply the real predicate
    /// (`filter_box`) downstream.
    pub fn scan_shards_zoned(&self, shards: &[usize], zones: &[(AttrId, ValueSet)]) -> TableScan {
        let conjuncts = conjuncts_of(zones);
        let mut parts: Vec<(Arc<ShardVersion>, Rows)> = Vec::new();
        let mut skipped = 0u64;
        for &i in shards {
            let Some(v) = self.version.shards().get(i) else {
                continue;
            };
            let located = v.locate(&conjuncts);
            skipped += located.skipped as u64;
            parts.push((Arc::clone(v), located.rows));
        }
        TableScan {
            parts,
            part: 0,
            segment: 0,
            segment_start: 0,
            window: if conjuncts.is_empty() { 0 } else { 2 },
            warm: 0,
            stats: Arc::clone(&self.stats),
            yielded: 0,
            skipped,
            read_ahead: 0,
        }
    }

    /// What [`scan_shards_zoned`](Self::scan_shards_zoned) would do on
    /// each listed shard, from the same [`ShardVersion::locate`] call and
    /// without yielding a tuple: in the order given, how many of the
    /// shard's segments hold no located tuple and how many tuples are
    /// located. This is EXPLAIN's pruning report; the execution side's
    /// [`TableStats::segments_skipped`] and `units_probed` tallies agree
    /// with the sums reported here.
    pub fn zone_skip_counts(
        &self,
        shards: &[usize],
        zones: &[(AttrId, ValueSet)],
    ) -> Vec<ZoneCounts> {
        let conjuncts = conjuncts_of(zones);
        shards
            .iter()
            .filter_map(|&i| self.version.shards().get(i))
            .map(|v| {
                let located = v.locate(&conjuncts);
                ZoneCounts {
                    skipped: located.skipped,
                    segments: v.segments().segment_count(),
                    located: located.rows.len(),
                }
            })
            .collect()
    }
}

/// The zone conjuncts of a scan as the segments take them.
fn conjuncts_of(zones: &[(AttrId, ValueSet)]) -> Vec<Conjunct<'_>> {
    zones.iter().map(|(a, vs)| (*a, vs.as_slice())).collect()
}

/// One shard's share of a zoned scan's pruning effect
/// ([`TableSnapshot::zone_skip_counts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneCounts {
    /// Segments holding no located tuple.
    pub skipped: usize,
    /// Segments in the shard.
    pub segments: usize,
    /// Tuples located (what a scan yields and probe-counts).
    pub located: usize,
}

/// What a meta file holds. There is one format: a meta that ends
/// early or runs on past its last field is corrupt.
struct Meta {
    attr_names: Vec<String>,
    order: Vec<usize>,
    dict_entries: Vec<String>,
    spec: ShardSpec,
    /// The tiling target the shards are rebuilt at.
    segment_rows: usize,
    /// Each shard's extent in the tuple file, in shard order.
    shards: Vec<ShardExtent>,
}

/// Where one shard's tuples sit in a checkpoint's tuple file, as the
/// meta records it ([`encode_shard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShardExtent {
    /// Tuples stored. A zero-arity tuple encodes to no bytes, so the
    /// length alone cannot tell the unit row from an empty shard.
    tuples: u64,
    /// Bytes those tuples occupy.
    bytes: u64,
    /// FNV-1a over those bytes.
    digest: u64,
}

fn read_meta(path: &Path) -> Result<Meta> {
    let bytes = std::fs::read(path)?;
    if bytes.len() < 8 {
        return Err(StorageError::Corrupt("meta file truncated".into()));
    }
    let stored = u64::from_be_bytes(bytes[..8].try_into().expect("length checked above"));
    let body = &bytes[8..];
    if fnv1a64(body) != stored {
        return Err(StorageError::Corrupt("meta checksum mismatch".into()));
    }
    /// Splits the next `len` bytes off `slice`.
    fn take<'a>(slice: &mut &'a [u8], len: usize) -> Result<&'a [u8]> {
        if slice.len() < len {
            return Err(StorageError::Corrupt("meta file truncated".into()));
        }
        let (head, rest) = slice.split_at(len);
        *slice = rest;
        Ok(head)
    }
    let mut slice = body;
    let read_string = |slice: &mut &[u8]| -> Result<String> {
        let len = get_varint(slice)? as usize;
        String::from_utf8(take(slice, len)?.to_vec())
            .map_err(|_| StorageError::Corrupt("meta string not utf8".into()))
    };
    let arity = get_varint(&mut slice)? as usize;
    let mut attr_names = Vec::with_capacity(arity);
    for _ in 0..arity {
        attr_names.push(read_string(&mut slice)?);
    }
    let mut order = Vec::with_capacity(arity);
    for _ in 0..arity {
        order.push(get_varint(&mut slice)? as usize);
    }
    let dict_len = get_varint(&mut slice)? as usize;
    let mut dict_entries = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        dict_entries.push(read_string(&mut slice)?);
    }
    let spec = match take(&mut slice, 1)?[0] {
        0 => ShardSpec::hash(get_varint(&mut slice)? as usize),
        1 => {
            let len = get_varint(&mut slice)? as usize;
            let mut boundaries = Vec::with_capacity(len);
            for _ in 0..len {
                boundaries.push(Atom(get_varint(&mut slice)? as u32));
            }
            ShardSpec::range(boundaries)
        }
        t => {
            return Err(StorageError::Corrupt(format!("unknown shard spec tag {t}")));
        }
    }
    .map_err(StorageError::Model)?;
    let segment_rows = get_varint(&mut slice)? as usize;
    let shards = (0..spec.shard_count())
        .map(|_| {
            let tuples = get_varint(&mut slice)?;
            let bytes = get_varint(&mut slice)?;
            let digest = take(&mut slice, 8)?
                .try_into()
                .expect("take returns the eight bytes asked for");
            Ok(ShardExtent {
                tuples,
                bytes,
                digest: u64::from_be_bytes(digest),
            })
        })
        .collect::<Result<Vec<ShardExtent>>>()?;
    if !slice.is_empty() {
        return Err(StorageError::Corrupt(format!(
            "meta file has {} trailing bytes",
            slice.len()
        )));
    }
    Ok(Meta {
        attr_names,
        order,
        dict_entries,
        spec,
        segment_rows,
        shards,
    })
}

/// Appends a shard's `tuples` to `out`, each in the tuple codec, back to
/// back (the encoding is self-delimiting, so the concatenation is
/// unambiguous), and returns their extent.
fn encode_shard<'a>(tuples: impl Iterator<Item = TupleRef<'a>>, out: &mut BytesMut) -> ShardExtent {
    let start = out.len();
    let mut count = 0;
    for tuple in tuples {
        encode_nf_tuple(tuple, out);
        count += 1;
    }
    ShardExtent {
        tuples: count,
        bytes: (out.len() - start) as u64,
        digest: fnv1a64(&out[start..]),
    }
}

/// Splits a checkpoint's tuple file into its shards' byte ranges. A file
/// whose length is not the extents' sum, a range that misses its digest
/// or one claiming more tuples than a shard can hold is corrupt, so no
/// corrupt byte reaches the decoder.
fn shard_ranges<'a>(bytes: &'a [u8], extents: &[ShardExtent]) -> Result<Vec<&'a [u8]>> {
    let total: u128 = extents.iter().map(|e| u128::from(e.bytes)).sum();
    if total != bytes.len() as u128 {
        return Err(StorageError::Corrupt(format!(
            "the tuple file holds {} bytes, its meta's shards {total}",
            bytes.len()
        )));
    }
    let mut rest = bytes;
    let mut ranges = Vec::with_capacity(extents.len());
    for (shard, extent) in extents.iter().enumerate() {
        let (range, tail) = rest.split_at(extent.bytes as usize);
        rest = tail;
        if fnv1a64(range) != extent.digest {
            return Err(shard_corrupt(shard, "its bytes miss the shard digest"));
        }
        // A tuple of positive arity takes at least two bytes; only the
        // zero-arity unit tuple takes none, and a shard holds at most
        // one of those.
        if extent.tuples > extent.bytes.max(1) {
            return Err(shard_corrupt(shard, "more tuples than bytes"));
        }
        ranges.push(range);
    }
    Ok(ranges)
}

/// A checkpoint defect located in one shard.
fn shard_corrupt(shard: usize, what: &str) -> StorageError {
    StorageError::Corrupt(format!("shard {shard}: {what}"))
}

/// The most located tuples a scan reads ahead at once: its window
/// starts at 2 and doubles up to this.
const READ_AHEAD_CAP: usize = 32;

/// A lazy, owning scan over a pinned table snapshot — the located
/// positions of `Arc`-held shard versions, streamed back-to-back out of
/// their segments' chunks; see [`NfTable::scan`].
///
/// The scan holds its own pins, so it stays valid (and keeps yielding
/// exactly the pinned state) however long it lives and whatever
/// concurrent writers install in the meantime. Items are
/// [`TupleView::Shared`] — zero-copy views that pin the one segment
/// their tuple lives in, so downstream operators can hold or outlive the
/// scan freely without keeping the rest of the shard alive.
///
/// A located scan (one with zone conjuncts) **reads ahead**. Its tuples
/// lie scattered over the chunks, and each costs two dependent cache
/// misses in its chunk's two arrays: its offsets, then the atoms they
/// point into. So whenever the tuples it has read ahead run out, the
/// scan takes the next *W* positions of its part ([`Rows::ahead`]) and
/// touches them in two tight passes — every tuple's offsets, then every
/// tuple's atoms — so their misses overlap instead of queueing one
/// pair per pulled tuple. *W* starts at 2 and doubles
/// up to `READ_AHEAD_CAP`, so a `LIMIT` reads ahead little more than it
/// takes. A part with one located tuple left is not read ahead, and a
/// full scan never is: its tuples are consecutive already. Reading
/// ahead allocates nothing and changes neither what the scan yields nor
/// what it counts as probed.
///
/// Probe accounting is batched: the scan keeps local counters and
/// settles them into the table's shared stats exactly once, on drop, so
/// the per-tuple hot path takes no lock and updates no shared counter.
#[derive(Debug)]
pub struct TableScan {
    /// Pinned shard versions with the positions (in the version's chunks
    /// back to back) still to stream from each, in shard order.
    parts: Vec<(Arc<ShardVersion>, Rows)>,
    /// Current part index.
    part: usize,
    /// The current part's segment holding the last position streamed,
    /// and the position that segment starts at: positions ascend, so
    /// the cursor only moves forward.
    segment: usize,
    segment_start: usize,
    /// Positions the next read-ahead touches (0: the scan never reads
    /// ahead).
    window: usize,
    /// Positions of the current part to stream before the next
    /// read-ahead: those read ahead and not yet streamed, or
    /// `usize::MAX` where there is none to make.
    warm: usize,
    stats: Arc<SharedTableStats>,
    yielded: u64,
    /// Segments that held no located tuple (settled on drop).
    skipped: u64,
    /// Positions read ahead (settled on drop).
    read_ahead: u64,
}

impl Iterator for TableScan {
    type Item = TupleView<'static>;

    fn next(&mut self) -> Option<TupleView<'static>> {
        loop {
            let (version, rows) = self.parts.get_mut(self.part)?;
            let segments = version.segments().segments();
            if self.warm == 0 {
                self.warm = if self.window == 0 || rows.len() < 2 {
                    usize::MAX
                } else {
                    let ahead = rows.ahead().take(self.window);
                    let touched = read_ahead(segments, ahead, self.segment, self.segment_start);
                    self.read_ahead += touched as u64;
                    self.window = (2 * self.window).min(READ_AHEAD_CAP);
                    touched
                };
            }
            if let Some(at) = rows.next() {
                while at >= self.segment_start + segments[self.segment].rows() {
                    self.segment_start += segments[self.segment].rows();
                    self.segment += 1;
                }
                self.warm -= 1;
                self.yielded += 1;
                let store: Arc<dyn TupleStore> = segments[self.segment].clone();
                return Some(TupleView::shared(store, at - self.segment_start));
            }
            self.part += 1;
            (self.segment, self.segment_start, self.warm) = (0, 0, 0);
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining: usize = self
            .parts
            .get(self.part..)
            .unwrap_or_default()
            .iter()
            .map(|(_, rows)| rows.len())
            .sum();
        (remaining, Some(remaining))
    }
}

/// Touches the tuples at `positions` (ascending, at most
/// `READ_AHEAD_CAP`, none before the position `start` at which
/// `segments[segment]` begins) so their cache misses overlap. A stored
/// tuple is its offsets in one array of its chunk and its atoms in the
/// other, and where its atoms lie is read from its offsets; so this
/// takes two tight passes — every tuple's offsets (where its first set
/// starts and its last ends), then every tuple's first and last atom —
/// and
/// each pass's misses are independent of one another. Returns how many
/// it touched. Allocates nothing. Kept out of line: it runs once per
/// window, and inlined it slows every scan's per-tuple step.
#[inline(never)]
fn read_ahead(
    segments: &[Arc<Segment>],
    positions: impl Iterator<Item = usize>,
    mut segment: usize,
    mut start: usize,
) -> usize {
    let mut tuples: [Option<TupleRef<'_>>; READ_AHEAD_CAP] = [None; READ_AHEAD_CAP];
    let (mut touched, mut widths) = (0, 0);
    for (slot, at) in tuples.iter_mut().zip(positions) {
        while at >= start + segments[segment].rows() {
            start += segments[segment].rows();
            segment += 1;
        }
        let tuple = segments[segment].tuple(at - start);
        widths += tuple.components().next_back().map_or(0, SetRef::len);
        *slot = Some(tuple);
        touched += 1;
    }
    let members: u64 = tuples[..touched]
        .iter()
        .flatten()
        .map(|tuple| {
            let mut sets = tuple.components();
            let first = sets.next().map_or(0, |set| set.as_slice()[0].id());
            let last = sets
                .next_back()
                .map_or(0, |set| set.as_slice()[set.len() - 1].id());
            u64::from(first) + u64::from(last)
        })
        .sum();
    std::hint::black_box(widths as u64 + members);
    touched
}

impl Drop for TableScan {
    fn drop(&mut self) {
        self.stats
            .settle_scan(self.yielded, self.skipped, self.read_ahead);
    }
}

fn meta_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.meta"))
}
fn tuples_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.tuples"))
}
fn wal_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.wal"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf2_core::tuple::NfTuple;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nf2_table_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_table() -> NfTable {
        let dict = SharedDictionary::new();
        let t =
            NfTable::create("sc", &["Student", "Course"], NestOrder::identity(2), dict).unwrap();
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
        let dir = temp_dir("ckpt");
        let t = sample_table();
        t.checkpoint(&dir).unwrap();
        let reopened = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap();
        assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
        assert_eq!(reopened.flat_count(), 4);
        // Dictionary restored: names resolve.
        let row = reopened.row_from_strs(&["s1", "c1"]).unwrap();
        assert!(reopened.contains(&row));
    }

    #[test]
    fn wal_replay_recovers_unflushed_updates() {
        let dir = temp_dir("wal");
        let t = sample_table();
        // The WAL logs atoms, so the checkpoint's dictionary must already
        // hold every string the post-checkpoint updates use.
        let s4 = t.row_from_strs(&["s4", "c1"]).unwrap();
        t.checkpoint(&dir).unwrap();
        // Post-checkpoint updates, flushed to WAL only.
        t.insert_atoms(s4).unwrap();
        t.delete_row(&["s3", "c3"]).unwrap();
        t.flush_wal(&dir).unwrap();
        let reopened = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap();
        assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
        assert_eq!(reopened.flat_count(), 4);
        assert_eq!(
            reopened.maintenance_cost(),
            CostCounter::new(),
            "WAL replay is recovery, not maintenance"
        );
    }

    #[test]
    fn an_unreadable_wal_is_an_error_and_a_missing_one_is_empty() {
        let dir = temp_dir("wal_unreadable");
        let t = sample_table();
        let s4 = t.row_from_strs(&["s4", "c1"]).unwrap();
        t.checkpoint(&dir).unwrap();
        t.insert_atoms(s4).unwrap();
        t.flush_wal(&dir).unwrap();
        assert_eq!(t.flat_count(), 5);
        // A log that cannot be read must not replay as an empty one.
        let wal = wal_path(&dir, "sc");
        std::fs::remove_file(&wal).unwrap();
        std::fs::create_dir(&wal).unwrap();
        match NfTable::open(&dir, "sc", SharedDictionary::new()) {
            Err(StorageError::Io(_)) => {}
            Err(e) => panic!("expected an I/O error, got {e}"),
            Ok(t) => panic!("opened without its log: {} rows", t.flat_count()),
        }
        // A log that was never written is: the checkpoint alone opens.
        std::fs::remove_dir(&wal).unwrap();
        let reopened = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap();
        assert_eq!(reopened.flat_count(), 4);
    }

    #[test]
    fn open_rejects_corrupt_meta() {
        let dir = temp_dir("badmeta");
        let t = sample_table();
        t.checkpoint(&dir).unwrap();
        let meta = meta_path(&dir, "sc");
        let good = std::fs::read(&meta).unwrap();
        let mut bytes = good.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&meta, &bytes).unwrap();
        assert!(NfTable::open(&dir, "sc", SharedDictionary::new()).is_err());
        // One format: a body cut short, or run on past its last field,
        // is corrupt even under a valid checksum.
        let body = &good[8..];
        let longer = [body, &[0]].concat();
        for body in [&body[..body.len() - 1], longer.as_slice()] {
            let mut bytes = crate::codec::fnv1a64(body).to_be_bytes().to_vec();
            bytes.extend_from_slice(body);
            std::fs::write(&meta, &bytes).unwrap();
            let err = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
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
        let dir = temp_dir("append");
        let t = sample_table();
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
        let reopened = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap();
        assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
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
        // must never double-count (satellite: concat accounting).
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
        let dir = temp_dir("ckpt_reads_only");
        let t = drifted_table();
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

    #[test]
    fn sharded_checkpoint_restores_spec_and_state() {
        let dir = temp_dir("sharded_ckpt");
        // The checkpoint stores the drifted shards as they are; the
        // reopen rebuilds them at the uniform tiling.
        let t = drifted_table();
        let s9 = t.row_from_strs(&["s9", "c9"]).unwrap();
        t.checkpoint(&dir).unwrap();
        t.sharded().verify().unwrap();
        let checkpointed = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap();
        assert_eq!(
            checkpointed.snapshot().canonical(),
            t.snapshot().canonical()
        );
        t.insert_atoms(s9).unwrap();
        t.flush_wal(&dir).unwrap();
        let reopened = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap();
        assert_eq!(reopened.shard_count(), 3, "spec survives the round trip");
        assert_eq!(reopened.shard_spec(), t.shard_spec());
        assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
        reopened.sharded().verify().unwrap();
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
        let dir = temp_dir("group_stats");
        let t = sample_table();
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

    #[test]
    fn wal_bytes_are_what_the_log_file_grew_by() {
        let dir = temp_dir("wal_bytes");
        let t = sample_table();
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
        let file = std::fs::metadata(wal_path(&dir, "sc")).unwrap().len();
        assert!(file > 0);
        assert_eq!(stats.wal_bytes, file);
    }

    #[test]
    fn torn_wal_tail_recovers_last_durable_prefix() {
        let dir = temp_dir("torn");
        let t = sample_table();
        let s5 = t.row_from_strs(&["s5", "c5"]).unwrap();
        let s6 = t.row_from_strs(&["s6", "c6"]).unwrap();
        t.checkpoint(&dir).unwrap();
        // Two post-checkpoint entries; remember the byte boundary after
        // the first so we can tear the file inside the second.
        t.insert_atoms(s5).unwrap();
        t.flush_wal(&dir).unwrap();
        let boundary = std::fs::metadata(wal_path(&dir, "sc")).unwrap().len();
        t.insert_atoms(s6).unwrap();
        t.flush_wal(&dir).unwrap();
        let full = std::fs::read(wal_path(&dir, "sc")).unwrap();
        assert!(full.len() > boundary as usize);
        // Crash mid-group: only part of the second entry hit the disk.
        std::fs::write(wal_path(&dir, "sc"), &full[..boundary as usize + 1]).unwrap();
        let reopened = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap();
        let s5 = reopened.row_from_strs(&["s5", "c5"]).unwrap();
        assert!(reopened.contains(&s5), "durable prefix replayed");
        assert_eq!(reopened.flat_count(), 5, "torn entry not applied");
    }

    #[test]
    fn a_flush_after_a_torn_tail_lands_after_the_durable_prefix() {
        let dir = temp_dir("torn_append");
        let t = sample_table();
        let s5 = t.row_from_strs(&["s5", "c5"]).unwrap();
        let s6 = t.row_from_strs(&["s6", "c6"]).unwrap();
        // The reopened table inserts s7 below; its dictionary is the
        // checkpoint's, so the strings are interned before it.
        t.row_from_strs(&["s7", "c7"]).unwrap();
        t.checkpoint(&dir).unwrap();
        t.insert_atoms(s5).unwrap();
        t.flush_wal(&dir).unwrap();
        let boundary = std::fs::metadata(wal_path(&dir, "sc")).unwrap().len();
        t.insert_atoms(s6).unwrap();
        t.flush_wal(&dir).unwrap();
        drop(t);
        // Crash mid-group: only part of the second entry hit the disk.
        let full = std::fs::read(wal_path(&dir, "sc")).unwrap();
        std::fs::write(wal_path(&dir, "sc"), &full[..boundary as usize + 1]).unwrap();
        // The reopened log cuts the torn byte before it appends; behind
        // it, the new entry would be lost to the next replay.
        let r1 = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap();
        assert_eq!(r1.flat_count(), 5, "torn entry not applied");
        assert!(r1.insert_row(&["s7", "c7"]).unwrap());
        r1.flush_wal(&dir).unwrap();
        drop(r1);
        let r2 = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap();
        assert_eq!(r2.flat_count(), 6);
        for row in [["s5", "c5"], ["s7", "c7"]] {
            let atoms = r2.row_from_strs(&row).unwrap();
            assert!(r2.contains(&atoms), "{row:?} replayed");
        }
    }

    #[test]
    fn a_table_logs_to_one_directory() {
        let (dir, other) = (temp_dir("bound"), temp_dir("bound_other"));
        let t = sample_table();
        t.checkpoint(&dir).unwrap();
        t.insert_row(&["s7", "c7"]).unwrap();
        assert!(matches!(t.flush_wal(&other), Err(StorageError::Io(_))));
        assert!(!wal_path(&other, "sc").exists(), "no second log");
        t.flush_wal(&dir).unwrap();
        // A reopened table is bound to the directory it replayed.
        let reopened = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap();
        assert_eq!(reopened.flat_count(), 5);
        reopened.delete_row(&["s7", "c7"]).unwrap();
        assert!(matches!(
            reopened.flush_wal(&other),
            Err(StorageError::Io(_))
        ));
        reopened.flush_wal(&dir).unwrap();
    }

    #[test]
    fn reopened_table_keeps_replayed_wal_across_flushes() {
        let dir = temp_dir("reseed");
        let t = sample_table();
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
        let r1 = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap();
        r1.insert_row(&["s6", "c6"]).unwrap();
        r1.flush_wal(&dir).unwrap();
        let r2 = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap();
        assert_eq!(r2.flat_count(), 6);
        let s5 = r2.row_from_strs(&["s5", "c5"]).unwrap();
        assert!(r2.contains(&s5), "replayed entry survives the next flush");
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
        let meta = t.encode_meta(&extents, t.lock_lane(0).segment_rows());
        std::fs::write(meta_path(dir, t.name()), &meta).unwrap();
        std::fs::write(tuples_path(dir, t.name()), &tuples).unwrap();
    }

    #[test]
    fn a_checkpoint_writes_each_shard_as_its_owned_tuples_encode() {
        let dir = temp_dir("pinned_bytes");
        // Sets of eight, past the inline capacity; point writes patch
        // chunks in every shard, so carried runs are checkpointed too.
        let t = segmented_table(4, 300);
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
        let file = std::fs::read(tuples_path(&dir, "t")).unwrap();
        assert_eq!(
            &file[..],
            &read_in_place[..],
            "the checkpoint is those bytes"
        );
        let reopened = NfTable::open(&dir, "t", SharedDictionary::new()).unwrap();
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

    /// Opening `name` in `dir` fails as `Corrupt`, naming `shard`.
    fn assert_refused(dir: &Path, name: &str, shard: usize) {
        let err = NfTable::open(dir, name, SharedDictionary::new()).unwrap_err();
        let named = format!("shard {shard}:");
        assert!(
            matches!(&err, StorageError::Corrupt(msg) if msg.starts_with(&named)),
            "{err:?}"
        );
    }

    #[test]
    fn open_refuses_a_re_signed_checkpoint_that_misplaces_a_tuple() {
        let dir = temp_dir("re_signed");
        let t = segmented_table(2, 300);
        t.checkpoint(&dir).unwrap();
        let reopened = NfTable::open(&dir, "t", SharedDictionary::new()).unwrap();
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
        NfTable::open(&dir, "t", SharedDictionary::new()).unwrap();
        // One tuple moves from shard 1's range to the end of shard 0's.
        // Every count, length and digest and the meta checksum describe
        // the file, and the rows are the same; only the rebuild, which
        // routes the tuple back to shard 1, sees it.
        let moved = shards[1].remove(0);
        shards[0].push(moved);
        re_sign(&t, &dir, &shards);
        assert_refused(&dir, "t", 0);
    }

    #[test]
    fn open_refuses_a_flipped_byte_naming_its_shard() {
        let dir = temp_dir("flipped_byte");
        let t = segmented_table(4, 300);
        t.checkpoint(&dir).unwrap();
        let path = tuples_path(&dir, "t");
        let good = std::fs::read(&path).unwrap();
        // A flipped byte inside each shard's range names that shard.
        let meta = read_meta(&meta_path(&dir, "t")).unwrap();
        let mut start = 0;
        for (shard, extent) in meta.shards.iter().enumerate() {
            assert!(extent.bytes > 0, "shard {shard} holds tuples");
            let mut flipped = good.clone();
            flipped[start + extent.bytes as usize / 2] ^= 0x01;
            std::fs::write(&path, &flipped).unwrap();
            assert_refused(&dir, "t", shard);
            start += extent.bytes as usize;
        }
        std::fs::write(&path, &good).unwrap();
        NfTable::open(&dir, "t", SharedDictionary::new()).unwrap();
    }

    #[test]
    fn open_refuses_a_tuple_file_of_the_wrong_length() {
        let dir = temp_dir("wrong_length");
        let t = segmented_table(4, 300);
        t.checkpoint(&dir).unwrap();
        let path = tuples_path(&dir, "t");
        let good = std::fs::read(&path).unwrap();
        // A file one byte short or one byte long is refused.
        let longer = [good.as_slice(), &[0]].concat();
        for bytes in [&good[..good.len() - 1], longer.as_slice()] {
            std::fs::write(&path, bytes).unwrap();
            let err = NfTable::open(&dir, "t", SharedDictionary::new()).unwrap_err();
            assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
        }
        std::fs::write(&path, &good).unwrap();
        NfTable::open(&dir, "t", SharedDictionary::new()).unwrap();
    }

    #[test]
    fn open_rejects_corrupt_tuple_files() {
        let dir = temp_dir("corrupt_tuples");
        let t = sample_table();
        t.checkpoint(&dir).unwrap();
        let path = tuples_path(&dir, "sc");
        let good = std::fs::read(&path).unwrap();
        // The shard digest covers the file's last byte.
        let mut flipped = good.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        std::fs::write(&path, &flipped).unwrap();
        assert_refused(&dir, "sc", 0);
        // A file cut in half, and a missing one, are refused.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        let err = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap_err();
        assert!(matches!(err, StorageError::Corrupt(_)), "{err:?}");
        std::fs::remove_file(&path).unwrap();
        assert!(NfTable::open(&dir, "sc", SharedDictionary::new()).is_err());
        std::fs::write(&path, &good).unwrap();
        let reopened = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap();
        assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
    }

    #[test]
    fn open_rejects_overlapping_checkpoint_tuples() {
        let dir = temp_dir("overlap");
        let t = sample_table();
        t.checkpoint(&dir).unwrap();
        // Append a tuple whose expansion repeats a stored row, re-signed
        // so that the shard's re-nest is what refuses it.
        let mut tuples = t.snapshot().canonical().tuples().to_vec();
        let row = t.row_from_strs(&["s1", "c1"]).unwrap();
        tuples.push(NfTuple::from_flat(&row));
        re_sign(&t, &dir, &[tuples]);
        assert_refused(&dir, "sc", 0);
    }

    #[test]
    fn open_refuses_a_non_canonical_partition() {
        let dir = temp_dir("non_canonical");
        let t = sample_table();
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
        assert_refused(&dir, "sc", 0);
    }

    #[test]
    fn open_refuses_a_dictionary_that_disagrees() {
        let dir = temp_dir("dict_disagrees");
        let t = sample_table();
        t.checkpoint(&dir).unwrap();
        // The writer's own dictionary holds the checkpoint's strings as a
        // prefix, whatever it interned since: it opens.
        t.dict().intern("interned after the checkpoint");
        let reopened = NfTable::open(&dir, "sc", t.dict().clone()).unwrap();
        assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
        // One whose atom 0 is another string would shift every string
        // the table resolves.
        let other = SharedDictionary::new();
        other.intern("elsewhere");
        let err = NfTable::open(&dir, "sc", other).unwrap_err();
        assert!(
            matches!(&err, StorageError::Corrupt(msg) if msg.starts_with("atom 0:")),
            "{err:?}"
        );
    }

    #[test]
    fn a_tuple_of_any_size_round_trips() {
        // 10 000 students in one course and one club nest into one tuple
        // whose encoding is larger than an 8 KiB page.
        let students: Vec<String> = (0..10_000).map(|i| format!("s{i}")).collect();
        for shards in [1, 4] {
            let dir = temp_dir(&format!("large_tuple_{shards}"));
            let t = NfTable::bulk_load_strs_sharded(
                "sc",
                &["Student", "Course", "Club"],
                students.iter().map(|s| vec![s.as_str(), "c1", "b1"]),
                NestOrder::identity(3),
                ShardSpec::hash(shards).unwrap(),
                SharedDictionary::new(),
            )
            .unwrap();
            let mut encoded = BytesMut::new();
            encode_nf_tuple(t.snapshot().canonical().tuples()[0].as_ref(), &mut encoded);
            assert_eq!((t.tuple_count(), encoded.len()), (1, 10_006));
            t.checkpoint(&dir).unwrap();
            let reopened = NfTable::open(&dir, "sc", SharedDictionary::new()).unwrap();
            assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
            assert_eq!(reopened.flat_count(), t.flat_count());
        }
    }

    #[test]
    fn a_zero_arity_table_round_trips_its_unit_row() {
        let dir = temp_dir("zero_arity");
        let t = NfTable::create("u", &[], NestOrder::identity(0), SharedDictionary::new()).unwrap();
        assert!(t.insert_atoms(Vec::new()).unwrap());
        t.checkpoint(&dir).unwrap();
        // The unit tuple encodes to no bytes: only the shard's tuple
        // count tells it from an empty shard.
        assert!(std::fs::read(tuples_path(&dir, "u")).unwrap().is_empty());
        let reopened = NfTable::open(&dir, "u", SharedDictionary::new()).unwrap();
        assert_eq!(reopened.flat_count(), 1);
        assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
        // A signed meta claiming more unit tuples than one is refused
        // before the decoder would spin through them.
        let forged = ShardExtent {
            tuples: u64::MAX,
            bytes: 0,
            digest: fnv1a64(&[]),
        };
        let meta = t.encode_meta(&[forged], t.lock_lane(0).segment_rows());
        std::fs::write(meta_path(&dir, "u"), &meta).unwrap();
        assert_refused(&dir, "u", 0);
    }
}
