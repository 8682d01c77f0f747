//! Shard-snapshot MVCC: immutable shard versions behind an epoch cell.
//!
//! The concurrency model of the engine is *publish, don't mutate*: each
//! shard's canonical form lives in an immutable [`ShardVersion`] — its
//! list of `Arc`-held segments, each owning one chunk of the shard's
//! tuples beside the value-major columns that locate them — published
//! by `Arc`. A table's current state is one [`TableVersion`] — an epoch
//! number plus one `Arc<ShardVersion>` per shard — held in a
//! [`VersionCell`].
//!
//! * **Readers** call [`VersionCell::pin`] once at statement start; the
//!   returned `Arc<TableVersion>` is a stable snapshot that stays alive
//!   (and valid) for as long as the reader holds it, no matter how many
//!   writes are installed after. Streaming a cursor takes no locks, and
//!   a tuple it hands out pins only the segment it lives in.
//! * **Writers** build replacement `ShardVersion`s off to the side —
//!   a statement is one write, and each shard it routes to changes by
//!   one `ShardVersion::apply_batch` (a keyed batch of the statement's
//!   ops there), run through the shard's
//!   [`crate::shard::ShardWriter`], whose result shares every segment
//!   the write does not touch, chunk and all, with its predecessor —
//!   carrying one over is a reference-count bump, so building a version
//!   and later dropping the one it replaced cost what the write touched,
//!   not what the shard holds — and swap them in with
//!   [`VersionCell::submit`] — one write-lock acquisition and a single
//!   epoch bump per statement, touching only the shards the statement
//!   routed to. A write routed to shard 3 never invalidates, copies, or
//!   stalls a pruned read on shard 0: shard 0's `Arc` is carried into
//!   the next version untouched. Concurrent writers on *different*
//!   shards coalesce there: racing commits share one epoch bump while
//!   each writer's observed bump stays in {0, 1}.
//!
//! The epoch is the table's logical clock: it increments exactly once
//! per installed state change, so downstream state (prepared-plan
//! revalidation) keys on it instead of guessing at invalidation.
//!
//! This module is the only place in the workspace allowed to use
//! non-`Relaxed` atomic orderings (enforced by `cargo xtask lint`);
//! here the synchronization is delegated entirely to [`RwLock`] and
//! `Arc`, which provide the needed acquire/release edges.

use std::sync::{Arc, Mutex, RwLock};

use crate::bulk::{keyed_batch, replay, KeyedBatch, Op};
use crate::error::Result;
use crate::kernel::NestKernel;
use crate::maintenance::{kernel_cmp, CanonicalRelation, CostCounter};
use crate::relation::NfRelation;
use crate::schema::{NestOrder, Schema};
use crate::segment::{AsConjunct, Conjunct, Located, ShardSegments, Tiling};
use crate::shard::BatchReport;
use crate::tuple::{NfTuple, TupleRef};
use crate::value::Atom;

/// One shard's immutable state: its segments — the shard's tuples, cut
/// into chunks in kernel order, each beside the value-major columns
/// that locate its tuples — plus the schema and nest order they are
/// canonical for. There is no shard-wide tuple vector: the chunks back
/// to back are the shard.
///
/// A `ShardVersion` is never mutated after publication — writers build
/// its replacement beside it and publish that. A chunk and its columns
/// live in one segment, so readers can never observe columns that
/// describe other tuples than the ones they scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardVersion {
    pub(crate) schema: Arc<Schema>,
    pub(crate) order: NestOrder,
    pub(crate) segments: ShardSegments,
}

impl ShardVersion {
    /// The version holding `canon`, its tuples moved into chunks of the
    /// tiling's target size.
    pub fn new(canon: CanonicalRelation, tiling: Tiling) -> Self {
        let order = canon.order().clone();
        let rel = canon.into_relation();
        Self {
            schema: rel.schema().clone(),
            order,
            segments: ShardSegments::tile(rel.tuples(), tiling),
        }
    }

    /// The tuples stored in this version, in kernel order: the segments'
    /// chunks back to back.
    pub fn tuples(&self) -> impl Iterator<Item = TupleRef<'_>> + '_ {
        self.segments.segments().iter().flat_map(|seg| seg.tuples())
    }

    /// The segments holding this version's tuples.
    pub fn segments(&self) -> &ShardSegments {
        &self.segments
    }

    /// Number of NF² tuples in this version.
    pub fn tuple_count(&self) -> usize {
        self.segments.covered_rows()
    }

    /// Number of flat rows this version represents: the sum of the
    /// counts its segments cached when they were built.
    pub fn flat_count(&self) -> u128 {
        let segments = self.segments.segments();
        segments.iter().map(|seg| seg.flat_count()).sum()
    }

    /// The tuples, chunk by chunk, copied out into one vector.
    pub(crate) fn to_vec(&self) -> Vec<NfTuple> {
        self.tuples().map(TupleRef::into_owned).collect()
    }

    /// A materialised copy of this version as the §4 reference type —
    /// for `ShardedCanonical::shard` and replay on a zero-arity shard.
    pub(crate) fn canonical(&self) -> CanonicalRelation {
        CanonicalRelation::from_canonical_tuples(
            self.schema.clone(),
            self.order.clone(),
            self.to_vec(),
        )
    }

    /// The tuples of this version intersecting every conjunct, by
    /// position ([`ShardSegments::locate`]).
    pub fn locate<C: AsConjunct>(&self, conjuncts: &[C]) -> Located {
        self.segments.locate(conjuncts)
    }

    /// Whether the flat tuple is represented in this version — `searcht`
    /// answered from the segments: a tuple holding `flat`'s value on
    /// every attribute contains it.
    pub fn contains(&self, flat: &[Atom]) -> bool {
        let conjuncts: Vec<Conjunct<'_>> = flat
            .iter()
            .enumerate()
            .map(|(attr, v)| (attr, std::slice::from_ref(v)))
            .collect();
        let hit = self.locate(&conjuncts).rows.next().is_some();
        debug_assert_eq!(hit, self.tuples().any(|t| t.contains_flat(flat)));
        hit
    }

    /// Applies a sub-batch by the keyed batch procedure
    /// ([`crate::bulk`]) — after the shard is built, the only way it
    /// changes (a re-tile aside). Each op comes beside its position in
    /// the caller's batch, and the report's summary names the no-ops by
    /// those positions. The
    /// read phase runs against this version as it stands, its postings
    /// clean, and decides which tuples leave and which enter; only a
    /// batch that changes something builds the replacement version: one
    /// ordered merge, the entering tuples placed in one forward pass
    /// (`ShardSegments::places`), applied to
    /// the segments in one sweep so each touched segment gets one new
    /// chunk and is rebuilt once — patched from its own postings
    /// wherever it has any — and every other is shared. `None` means
    /// every op was a no-op (or the ops cancelled out) and this version
    /// stands.
    pub(crate) fn apply_batch(
        &self,
        kernel: &mut NestKernel,
        batch: &[(usize, &Op)],
        cost: &mut CostCounter,
        tiling: Tiling,
    ) -> Result<(BatchReport, Option<ShardVersion>)> {
        let Some(outer) = tiling.outer_attr else {
            // No routing attribute: the relation is `{}` or `{()}`, and
            // §4 replay on it is the whole job.
            let mut canon = self.canonical();
            let summary = replay(&mut canon, batch.iter().copied(), cost)?;
            let report = BatchReport {
                summary,
                ..BatchReport::default()
            };
            let changed = canon.tuple_count() != self.tuple_count();
            return Ok((report, changed.then(|| ShardVersion::new(canon, tiling))));
        };
        let KeyedBatch {
            summary,
            keys,
            removed,
            fresh,
        } = keyed_batch(self, outer, kernel, batch, cost)?;
        let mut report = BatchReport {
            summary,
            keys,
            ..BatchReport::default()
        };
        if removed.is_empty() && fresh.is_empty() {
            return Ok((report, None));
        }
        let entered = self
            .segments
            .places(&fresh, |s, t| kernel_cmp(&self.order, s, t).is_lt());
        let segments = self
            .segments
            .splice(&removed, &entered, &fresh, tiling, &mut report);
        report.tuples_regrouped = removed.len();
        report.shards_regrouped_whole =
            usize::from(!removed.is_empty() && removed.len() == self.tuple_count());
        let next = ShardVersion {
            schema: self.schema.clone(),
            order: self.order.clone(),
            segments,
        };
        next.debug_assert_canonical_order();
        Ok((report, Some(next)))
    }

    /// Debug builds: the chunks back to back strictly ascend in kernel
    /// key and form a valid NFR — what a merge must leave behind.
    fn debug_assert_canonical_order(&self) {
        if cfg!(debug_assertions) {
            let tuples = self.to_vec();
            assert!(
                tuples
                    .windows(2)
                    .all(|w| kernel_cmp(&self.order, w[0].as_ref(), w[1].as_ref()).is_lt()),
                "the merged tuples must strictly ascend in kernel key"
            );
            assert!(
                NfRelation::from_tuples(self.schema.clone(), tuples).is_ok(),
                "the merged tuples must form a valid NFR"
            );
        }
    }

    /// Re-emits uniformly tiled segments over the current tuples.
    pub(crate) fn retile(&mut self, tiling: Tiling) {
        self.segments.rebuild(tiling);
    }
}

/// A table's published state at one epoch: an `Arc` per shard.
///
/// Snapshots are cheap — pinning clones one outer `Arc`; the shard
/// vector itself is shared between consecutive versions except for the
/// shards a write actually touched.
#[derive(Debug, Clone)]
pub struct TableVersion {
    epoch: u64,
    shards: Vec<Arc<ShardVersion>>,
}

impl TableVersion {
    /// A fresh version at epoch 0.
    pub fn new(shards: Vec<Arc<ShardVersion>>) -> Self {
        Self { epoch: 0, shards }
    }

    /// The epoch this version was installed at. Epoch 0 is the state
    /// the table was created (or loaded) with.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The per-shard versions.
    pub fn shards(&self) -> &[Arc<ShardVersion>] {
        &self.shards
    }

    /// One shard's version.
    pub fn shard(&self, idx: usize) -> &Arc<ShardVersion> {
        &self.shards[idx]
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Total flat rows across all shards: a sum of the counts each
    /// segment cached when it was built, so O(segments), not O(tuples).
    pub fn flat_count(&self) -> u128 {
        self.shards.iter().map(|s| s.flat_count()).sum()
    }
}

/// The mutable cell holding a table's current [`TableVersion`].
///
/// The `RwLock` protects only the `Arc` swap — readers hold it for the
/// nanoseconds it takes to clone the `Arc`, never while scanning.
/// *Per-shard* writer mutual exclusion is not this cell's job (the
/// storage layer holds one lock per shard while building a replacement
/// version); what the cell does arbitrate is the final publication
/// step. Per-shard commits go through [`submit`](Self::submit), which
/// coalesces racing commits from different shards into one epoch bump;
/// a path holding every shard replaces them all with
/// [`install_all`](Self::install_all).
#[derive(Debug)]
pub struct VersionCell {
    inner: RwLock<Arc<TableVersion>>,
    /// Shard commits handed over by writers but not yet folded into a
    /// published `TableVersion`. Drained in full by whichever submitter
    /// wins the write lock next (the install leader).
    pending: Mutex<Vec<(usize, Arc<ShardVersion>)>>,
}

impl VersionCell {
    /// A cell starting at epoch 0 with the given shard versions.
    pub fn new(shards: Vec<Arc<ShardVersion>>) -> Self {
        Self {
            inner: RwLock::new(Arc::new(TableVersion::new(shards))),
            pending: Mutex::new(Vec::new()),
        }
    }

    /// Pins the current version. The returned snapshot is immutable and
    /// stays valid for as long as the caller holds it.
    pub fn pin(&self) -> Arc<TableVersion> {
        Arc::clone(
            &self
                .inner
                .read()
                .expect("version cell poisoned: install never panics while holding the lock"),
        )
    }

    /// The current epoch without pinning.
    pub fn epoch(&self) -> u64 {
        self.inner
            .read()
            .expect("version cell poisoned: install never panics while holding the lock")
            .epoch
    }

    /// Submits shard commits for publication, coalescing with any
    /// concurrent submitters, and returns the epoch at which the
    /// entries are visible.
    ///
    /// Untouched shards carry their existing `Arc`s into the new
    /// version unchanged, so concurrent readers pruned to those shards
    /// are completely unaffected. Out-of-range shard indices are a
    /// caller bug and panic.
    ///
    /// Protocol: the submitter first enqueues its `(shard, version)`
    /// entries, then contends for the cell's write lock. Whoever wins
    /// the lock becomes the install leader and drains *everything*
    /// pending — its own entries plus any that raced in — behind one
    /// epoch bump. A submitter that acquires the lock and finds the
    /// queue empty learns its entries were already installed by an
    /// earlier leader and observes a bump of zero. Either way, by the
    /// time `submit` returns the caller's entries are published, so the
    /// epoch moves by exactly {0, 1} per submitter and PR 8's snapshot
    /// protocol is preserved under concurrent writers.
    ///
    /// Callers MUST hold their per-shard writer lock across the whole
    /// call: at most one in-flight commit may exist per shard, so the
    /// pending queue never holds two entries for the same shard and
    /// drain order within the queue is irrelevant.
    pub fn submit(&self, touched: Vec<(usize, Arc<ShardVersion>)>) -> u64 {
        self.pending
            .lock()
            .expect("pending queue poisoned: enqueue never panics while holding the lock")
            .extend(touched);
        let mut guard = self
            .inner
            .write()
            .expect("version cell poisoned: install never panics while holding the lock");
        let drained = std::mem::take(
            &mut *self
                .pending
                .lock()
                .expect("pending queue poisoned: drain never panics while holding the lock"),
        );
        if drained.is_empty() {
            // A racing leader already published our entries.
            return guard.epoch;
        }
        let mut next = TableVersion {
            epoch: guard.epoch + 1,
            shards: guard.shards.clone(),
        };
        for (idx, version) in drained {
            next.shards[idx] = version;
        }
        let epoch = next.epoch;
        *guard = Arc::new(next);
        epoch
    }

    /// Installs a full replacement shard vector (all shards touched —
    /// bulk rebuilds, re-tiling) behind a single epoch bump.
    pub fn install_all(&self, shards: Vec<Arc<ShardVersion>>) -> u64 {
        let mut guard = self
            .inner
            .write()
            .expect("version cell poisoned: install never panics while holding the lock");
        let next = TableVersion {
            epoch: guard.epoch + 1,
            shards,
        };
        let epoch = next.epoch;
        *guard = Arc::new(next);
        epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::FlatRelation;
    use crate::segment::{Segment, DEFAULT_SEGMENT_ROWS};
    use crate::shard::{ShardSpec, ShardedCanonical};
    use crate::tuple::{TupleStore, TupleView};

    fn version_of(rows: &[[u32; 2]]) -> Arc<ShardVersion> {
        let schema = Schema::new("T", &["A", "B"]).unwrap();
        let flat =
            FlatRelation::from_rows(schema, rows.iter().map(|r| vec![Atom(r[0]), Atom(r[1])]))
                .unwrap();
        let canon = CanonicalRelation::from_flat(&flat, NestOrder::identity(2)).unwrap();
        let tiling = Tiling {
            outer_attr: Some(1),
            target_rows: DEFAULT_SEGMENT_ROWS,
        };
        Arc::new(ShardVersion::new(canon, tiling))
    }

    #[test]
    fn pinned_snapshots_survive_installs() {
        let v0 = version_of(&[[1, 10], [2, 10]]);
        let cell = VersionCell::new(vec![Arc::clone(&v0)]);
        let pinned = cell.pin();
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.flat_count(), 2);

        let v1 = version_of(&[[1, 10], [2, 10], [3, 11]]);
        let e = cell.submit(vec![(0, v1)]);
        assert_eq!(e, 1);
        assert_eq!(cell.epoch(), 1);

        // The old pin still reads the old state.
        assert_eq!(pinned.epoch(), 0);
        assert_eq!(pinned.flat_count(), 2);
        assert_eq!(cell.pin().flat_count(), 3);
    }

    #[test]
    fn install_leaves_untouched_shards_shared() {
        let a = version_of(&[[1, 10]]);
        let b = version_of(&[[2, 11]]);
        let cell = VersionCell::new(vec![Arc::clone(&a), Arc::clone(&b)]);
        let before = cell.pin();
        cell.submit(vec![(1, version_of(&[[2, 11], [3, 11]]))]);
        let after = cell.pin();
        assert!(
            Arc::ptr_eq(before.shard(0), after.shard(0)),
            "shard 0 carried over by pointer identity"
        );
        assert!(!Arc::ptr_eq(before.shard(1), after.shard(1)));
    }

    #[test]
    fn install_all_replaces_every_shard() {
        let cell = VersionCell::new(vec![version_of(&[[1, 10]]), version_of(&[[2, 11]])]);
        let e = cell.install_all(vec![version_of(&[[5, 5]]), version_of(&[[6, 6]])]);
        assert_eq!(e, 1);
        let v = cell.pin();
        assert_eq!(v.shard_count(), 2);
        assert_eq!(v.flat_count(), 2);
    }

    #[test]
    fn shard_version_exposes_store_views() {
        let v = version_of(&[[1, 10], [1, 11]]);
        assert_eq!(v.tuple_count(), 1, "both B values nest under A=1");
        assert_eq!(v.flat_count(), 2);
        assert!(v.contains(&[Atom(1), Atom(10)]));
        let stored = v.tuples().next().unwrap();
        let store: Arc<dyn TupleStore> = v.segments().segments()[0].clone();
        assert_eq!(store.tuple_count(), 1);
        let view = TupleView::shared(store, 0);
        assert!(view.is_zero_copy());
        assert!(!view.is_borrowed());
        assert_eq!(view.as_ref(), stored);
        assert_eq!(view.as_tuple(), &stored.into_owned());
        assert_eq!(view.clone().into_owned(), stored);
    }

    #[test]
    fn a_point_write_shares_every_untouched_segment_and_old_views_outlive_it() {
        // One tuple per row, `(i, 100 + i)` at position i, four per
        // segment: ten segments, position 21 in the sixth.
        let schema = Schema::new("T", &["A", "B"]).unwrap();
        let rows = (0..40u32).map(|i| vec![Atom(i), Atom(100 + i)]);
        let flat = FlatRelation::from_rows(schema, rows).unwrap();
        let mut sharded =
            ShardedCanonical::from_flat(&flat, NestOrder::identity(2), ShardSpec::single())
                .unwrap();
        sharded.set_segment_rows(4);
        let cell = VersionCell::new(sharded.versions());
        let pinned = cell.pin();
        let old: Vec<Arc<Segment>> = pinned.shard(0).segments().segments().to_vec();
        let store: Arc<dyn TupleStore> = old[5].clone();
        let view = TupleView::shared(store, 1);
        assert_eq!(view.as_ref().to_flat(), Some(vec![Atom(21), Atom(121)]));

        // (77, 121) composes with the tuple at 21: it leaves, and
        // ({21, 77}, {121}) takes its place in the same segment.
        assert!(sharded.insert(vec![Atom(77), Atom(121)]).unwrap());
        cell.submit(vec![(0, Arc::clone(sharded.version(0)))]);
        let now = cell.pin();
        let new = now.shard(0).segments().segments();
        assert_eq!(new.len(), old.len());
        for (i, (was, is)) in old.iter().zip(new).enumerate() {
            assert_eq!(Arc::ptr_eq(was, is), i != 5, "segment {i}");
        }
        assert_eq!(
            new[5].tuple(1).component(0).as_slice(),
            [Atom(21), Atom(77)]
        );

        // The cell has moved on and the old snapshot is gone; the view
        // pinned its segment, so it still reads the tuple it was given.
        drop((pinned, old));
        assert_eq!(view.as_ref().to_flat(), Some(vec![Atom(21), Atom(121)]));
    }

    #[test]
    fn submit_publishes_with_single_bump_when_uncontended() {
        let cell = VersionCell::new(vec![version_of(&[[1, 10]]), version_of(&[[2, 11]])]);
        let e = cell.submit(vec![(0, version_of(&[[1, 10], [3, 10]]))]);
        assert_eq!(e, 1, "an uncontended submit bumps the epoch once");
        assert_eq!(cell.pin().flat_count(), 3);
        let e2 = cell.submit(vec![(1, version_of(&[[2, 11], [4, 11]]))]);
        assert_eq!(e2, 2);
        assert_eq!(cell.pin().flat_count(), 4);
    }

    #[test]
    fn concurrent_submits_coalesce_without_losing_commits() {
        // 4 submitters, each owning a distinct shard, race 100 rounds.
        // Every round every shard's commit must land, and the total
        // epoch advance can never exceed the number of submit calls.
        let shards = 4usize;
        let cell = Arc::new(VersionCell::new(
            (0..shards)
                .map(|s| version_of(&[[s as u32, 0]]))
                .collect::<Vec<_>>(),
        ));
        let rounds = 100u32;
        std::thread::scope(|scope| {
            for s in 0..shards {
                let c = Arc::clone(&cell);
                scope.spawn(move || {
                    let mut last = 0;
                    for n in 1..=rounds {
                        let e = c.submit(vec![(s, version_of(&[[s as u32, n]]))]);
                        assert!(e >= last, "observed epochs are monotone per submitter");
                        last = e;
                    }
                });
            }
        });
        let v = cell.pin();
        for s in 0..shards {
            assert!(
                v.shard(s).contains(&[Atom(s as u32), Atom(rounds)]),
                "every submitter's final commit is published"
            );
        }
        assert!(
            v.epoch() <= (shards as u64) * u64::from(rounds),
            "epoch advances at most once per submit call"
        );
        assert!(v.epoch() > 0, "commits actually bumped the epoch");
    }

    #[test]
    fn concurrent_pins_and_installs_are_consistent() {
        let cell = Arc::new(VersionCell::new(vec![version_of(&[[1, 10]])]));
        std::thread::scope(|s| {
            let c = Arc::clone(&cell);
            s.spawn(move || {
                for n in 0..50u32 {
                    c.submit(vec![(0, version_of(&[[1, 10], [2, 10 + n]]))]);
                }
            });
            for _ in 0..4 {
                let c = Arc::clone(&cell);
                s.spawn(move || {
                    let mut last = 0;
                    for _ in 0..200 {
                        let v = c.pin();
                        assert!(v.epoch() >= last, "epochs are monotone");
                        last = v.epoch();
                        // A pinned version is internally consistent.
                        assert_eq!(v.shard_count(), 1);
                        let _ = v.flat_count();
                    }
                });
            }
        });
        assert_eq!(cell.epoch(), 50);
    }
}
