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
//! which of its tuples to yield
//! ([`ShardVersion::locate`](nf2_core::mvcc::ShardVersion::locate)), and
//! yields them straight out of the chunks as
//! [`TupleView::Shared`](nf2_core::tuple::TupleView::Shared) views, each
//! pinning the one segment its tuple lives in. Located tuples lie
//! scattered over the chunks, so a located scan reads ahead: it touches
//! its next few positions' offsets, then their atoms, before it yields
//! them, and their cache misses overlap ([`TableScan`]). It still
//! probe-counts only what it yields.
//!
//! ## Layout
//!
//! This file holds the type, its constructors and accessors, and the
//! stats types. `read.rs` holds the reader half ([`TableSnapshot`],
//! [`TableScan`] and its read-ahead), `write.rs` the lanes, the one
//! write procedure and the settling of write stats, and `persist.rs`
//! checkpoints, WAL flushes, `open`, the meta and shard encodings and
//! the file paths. Every file call goes through the crate's storage seam
//! (`crate::vfs`), the only code that touches files.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use nf2_core::error::NfError;
use nf2_core::maintenance::CostCounter;
use nf2_core::mvcc::VersionCell;
use nf2_core::relation::{FlatRelation, RowBlock};
use nf2_core::schema::{NestOrder, Schema};
use nf2_core::shard::{
    merged_tuple_count, MaintenanceCost, ShardRouter, ShardSpec, ShardWriter, ShardedCanonical,
};
use nf2_core::tuple::FlatTuple;
use nf2_core::value::Atom;
use nf2_obs::Histogram;

use crate::dictionary::SharedDictionary;
use crate::error::{Result, StorageError};
use crate::vfs::Vfs;
use crate::wal::CommitLog;

/// How many rows a string load interns under one write lock of the
/// dictionary: enough to pay for the lock, few enough that a reader
/// waits little.
const INTERN_CHUNK_ROWS: usize = 1024;

mod persist;
mod read;
mod write;

pub use read::{Located, TableScan, TableSnapshot, ZoneCounts};

#[cfg(test)]
mod tests;

/// The bytes one version of a table holds in its segments
/// ([`NfTable::memory`]), beside the flat rows they represent.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct TableMemory {
    /// Chunk bytes: every stored atom and every chunk offset, 4 B each.
    pub chunk_bytes: u64,
    /// Value-major column bytes: codes, offsets and row lists, 4 B each.
    pub column_bytes: u64,
    /// Bytes of the segments' membership filters on the routing
    /// attribute: [`KEY_FILTER_BYTES`](nf2_core::segment::KEY_FILTER_BYTES)
    /// per segment that has one. Not in
    /// [`bytes_per_flat_row`](Self::bytes_per_flat_row).
    pub filter_bytes: u64,
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
    /// Segments whose codes a zoned scan searched: those its filter and
    /// zone tests did not refute. Settled with `segments_skipped`; a
    /// point read on the routing attribute searches about one.
    pub segments_searched: u64,
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
    segments_searched: AtomicU64,
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
            segments_searched: AtomicU64::new(stats.segments_searched),
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
            segments_searched: self.segments_searched.load(Ordering::Relaxed),
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
/// `Arc`-held [`ShardVersion`](nf2_core::mvcc::ShardVersion)s. Readers
/// pin a [`TableSnapshot`] once per statement and stream scans without
/// taking any lock. A write locks only the lanes its ops route to, so
/// writers on disjoint shards build their replacement versions fully in
/// parallel; publication goes through [`VersionCell::submit`], whose table-level
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
    /// Where checkpoints and the WAL go: the real file system, or in
    /// tests an in-memory one.
    vfs: Vfs,
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
    /// the rows are interned 1 024 at a time, each chunk
    /// under one write lock (`SharedDictionary::intern_into`) and
    /// gathered before it, so `rows` never runs under the lock. The atoms
    /// are those [`SharedDictionary::intern`] would give value by value,
    /// row by row and attribute by attribute; they go straight into the
    /// load's block, with no `Vec` per row, and the block is built as
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
        let arity = schema.arity();
        let mut rows = rows.into_iter().fuse();
        let mut block = RowBlock::with_capacity(schema, rows.size_hint().0);
        let mut names: Vec<&str> = Vec::with_capacity(INTERN_CHUNK_ROWS * arity);
        let mut atoms = Vec::with_capacity(INTERN_CHUNK_ROWS * arity);
        loop {
            names.clear();
            atoms.clear();
            // The chunk's rows of the right arity, then the length of the
            // first row that is not, whose values are interned too.
            let (mut whole, mut refused) = (0, None);
            for row in rows.by_ref() {
                names.extend_from_slice(&row);
                if row.len() != arity {
                    refused = Some(row.len());
                    break;
                }
                whole += 1;
                if whole == INTERN_CHUNK_ROWS {
                    break;
                }
            }
            if whole == 0 && refused.is_none() {
                break;
            }
            dict.intern_into(&names, &mut atoms);
            for row in 0..whole {
                block
                    .push_row(&atoms[row * arity..(row + 1) * arity])
                    .map_err(StorageError::Model)?;
            }
            if let Some(got) = refused {
                return Err(StorageError::Model(NfError::ArityMismatch {
                    expected: arity,
                    got,
                }));
            }
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
            vfs: Vfs::default(),
        }
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
            mem.filter_bytes += seg.filter_bytes() as u64;
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

    /// Whether the table contains the flat row (`searcht` against
    /// exactly one shard of the current snapshot); a row of the wrong
    /// arity is contained in nothing.
    pub fn contains(&self, row: &[Atom]) -> bool {
        let pin = self.versions.pin();
        self.routing.contains(row, |shard| pin.shard(shard))
    }

    /// The value router the table's shards are partitioned by — what a
    /// query planner asks to turn an outer-attribute predicate into a
    /// shard set for [`TableSnapshot::scan_shards`].
    pub fn routing(&self) -> &nf2_core::shard::ShardRouter {
        &self.routing
    }

    /// Replaces the write-path histogram handles with shared ones —
    /// registry-backed clones, so the engine's metrics snapshot exports
    /// lane lock waits and WAL group sizes without polling the table.
    /// Called at table registration, before the table is shared.
    pub fn set_write_metrics(&mut self, lock_wait_us: Histogram, wal_group_size: Histogram) {
        self.lock_wait_us = lock_wait_us;
        self.wal_group_size = wal_group_size;
    }
}
