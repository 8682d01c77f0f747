//! The writer half: the per-shard lanes, the one write procedure
//! (`commit`) every write goes through, and the settling of its stats.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nf2_core::bulk::{BatchSummary, Op};
use nf2_core::shard::{apply_sub_batches, BatchReport, ShardWriter};
use nf2_core::tuple::FlatTuple;
use nf2_core::value::Atom;

use super::{NfTable, SharedTableStats};
use crate::error::Result;

impl SharedTableStats {
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
}

impl NfTable {
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
    pub(super) fn lock_all_lanes(&self) -> Vec<std::sync::MutexGuard<'_, ShardWriter>> {
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
}
