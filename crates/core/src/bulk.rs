//! Batch maintenance: applying *streams* of updates to a canonical NFR.
//!
//! §4 gives per-tuple insertion and deletion; real workloads arrive in
//! batches. Three procedures with identical semantics live here, each
//! with one job, property-tested against each other tuple for tuple:
//!
//! * [`apply_batch`] — **the reference**: the paper's §4 `insert` /
//!   `delete`, one op after the other, against the whole relation.
//! * [`rebuild_batch`] — **the oracle**: apply the ops to `R*` and
//!   re-nest from scratch through the kernel. (Experiment E14 times the
//!   two against each other across batch sizes.)
//! * the **keyed batch** (crate-private `keyed_batch`, reached through
//!   [`ShardWriter::apply_batch`](crate::shard::ShardWriter::apply_batch))
//!   — **what the engine runs**. Def. 4 makes every nest before the
//!   last group only rows that agree on the last-nested attribute, so
//!   `ν_P = ν_{P(n−1)} ∘ W` with `W` acting on each `σ_{P(n−1)=k}(R*)`
//!   on its own. A batch therefore replays each outer key's ops, by the
//!   same §4 procedures, on that key's *slice* — the handful of stored
//!   tuples whose `P(n−1)` set holds `k`, with that set narrowed to
//!   `{k}`: itself a canonical relation for `P`, never expanded — and
//!   regroups once on `P(n−1)`: the tuples that lost a key, the stored
//!   tuples set-equal on the rest to a tuple some slice gained, and the
//!   gained tuples go through one [`NestKernel::nest_once`] and one
//!   ordered merge back into the untouched remainder. Theorem 2 makes
//!   the regrouping order irrelevant. Cost is O(batch + touched); a
//!   batch that touches every key *is* the full re-nest, so there is no
//!   threshold and no second arm.

use std::collections::BTreeSet;

use crate::error::Result;
use crate::kernel::NestKernel;
use crate::maintenance::{kernel_cmp, CanonicalRelation, CostCounter};
use crate::mvcc::ShardVersion;
use crate::relation::{FlatRelation, NfRelation};
use crate::schema::AttrId;
use crate::segment::Conjunct;
use crate::tuple::{FlatTuple, NfTuple, TupleRef, ValueSet};
use crate::value::Atom;

/// One flat-row mutation in an update stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Insert a flat tuple (no-op if present).
    Insert(FlatTuple),
    /// Delete a flat tuple (no-op if absent).
    Delete(FlatTuple),
}

impl Op {
    /// The affected row.
    pub fn row(&self) -> &FlatTuple {
        match self {
            Op::Insert(r) | Op::Delete(r) => r,
        }
    }
}

/// Counts of effective operations in a batch, and which ops were not.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BatchSummary {
    /// Inserts that added a new row.
    pub inserted: usize,
    /// Deletes that removed an existing row.
    pub deleted: usize,
    /// Operations that were no-ops (duplicate insert / absent delete).
    pub noops: usize,
    /// Where those no-ops sit in the batch, ascending: every other op
    /// took effect, so a caller can log or invert exactly those.
    pub noop_positions: Vec<usize>,
}

impl std::ops::AddAssign for BatchSummary {
    /// Sums the summaries of two disjoint parts of one batch. Both name
    /// positions in that batch, so the positions concatenate; whoever
    /// sums the parts sorts them.
    fn add_assign(&mut self, other: Self) {
        self.inserted += other.inserted;
        self.deleted += other.deleted;
        self.noops += other.noops;
        self.noop_positions.extend(other.noop_positions);
    }
}

/// Applies `ops` in order through §4 incremental maintenance,
/// accumulating structural costs into `cost`.
pub fn apply_batch(
    canon: &mut CanonicalRelation,
    ops: &[Op],
    cost: &mut CostCounter,
) -> Result<BatchSummary> {
    replay(canon, ops.iter().enumerate(), cost)
}

/// [`apply_batch`] over any stream of borrowed ops, each beside its
/// position in the batch it came from — the position a no-op is
/// reported at.
pub(crate) fn replay<'a>(
    canon: &mut CanonicalRelation,
    ops: impl IntoIterator<Item = (usize, &'a Op)>,
    cost: &mut CostCounter,
) -> Result<BatchSummary> {
    let mut summary = BatchSummary::default();
    for (at, op) in ops {
        let (effective, counter) = match op {
            Op::Insert(row) => (canon.insert_counted(row, cost)?, &mut summary.inserted),
            Op::Delete(row) => (canon.delete_counted(row, cost)?, &mut summary.deleted),
        };
        if effective {
            *counter += 1;
        } else {
            summary.noops += 1;
            summary.noop_positions.push(at);
        }
    }
    Ok(summary)
}

/// The re-nest oracle: applies `ops` to `R*` and rebuilds the canonical
/// form from scratch through the single-pass nest kernel. Semantically
/// identical to [`apply_batch`] (ops are order-sensitive only through
/// set semantics, which a `BTreeSet` of rows reproduces exactly).
pub fn rebuild_batch(canon: &CanonicalRelation, ops: &[Op]) -> Result<CanonicalRelation> {
    let rel = canon.relation();
    let mut rows: BTreeSet<FlatTuple> = rel.expand().rows().map(<[Atom]>::to_vec).collect();
    for op in ops {
        match op {
            Op::Insert(row) => rows.insert(row.clone()),
            Op::Delete(row) => rows.remove(row),
        };
    }
    let flat = FlatRelation::from_rows(rel.schema().clone(), rows)?;
    CanonicalRelation::from_flat(&flat, canon.order().clone())
}

/// What the read phase of a keyed batch decided, in positions of the
/// shard version it read (its chunks back to back).
#[derive(Debug, Default)]
pub(crate) struct KeyedBatch {
    /// What the ops did, counted as §4 replay counts it.
    pub(crate) summary: BatchSummary,
    /// Distinct outer keys the ops addressed.
    pub(crate) keys: usize,
    /// Ascending positions of the stored tuples that leave: those that
    /// lose a key (*touched*) and those a gained tuple merges with
    /// (*pulled*).
    pub(crate) removed: Vec<usize>,
    /// The regrouped tuples that enter, in kernel order.
    pub(crate) fresh: Vec<NfTuple>,
}

/// The keyed batch procedure (module docs) against one shard version,
/// which it does not change: every search is a
/// [`ShardSegments::locate`](crate::segment::ShardSegments::locate)
/// against postings no edit has touched, and every position it reads or
/// reports counts through the version's chunks back to back. `ops` (all of
/// the shard's arity, each beside its position in the caller's batch)
/// keep their order within each outer key; across keys order is
/// immaterial, as they touch disjoint rows.
pub(crate) fn keyed_batch(
    version: &ShardVersion,
    outer: AttrId,
    kernel: &mut NestKernel,
    ops: &[(usize, &Op)],
    cost: &mut CostCounter,
) -> Result<KeyedBatch> {
    let (schema, order, segments) = (&version.schema, &version.order, &version.segments);
    let mut batch = KeyedBatch::default();
    // `(position, key, tuple)`: the stored tuple there loses that key.
    let mut splits: Vec<(usize, Atom, TupleRef<'_>)> = Vec::new();
    let mut gained: Vec<NfTuple> = Vec::new();

    let mut by_key = ops.to_vec();
    by_key.sort_by_key(|(_, op)| op.row()[outer]); // stable: op order survives within a key
    for run in by_key.chunk_by(|(_, a), (_, b)| a.row()[outer] == b.row()[outer]) {
        batch.keys += 1;
        let key = run[0].1.row()[outer];
        // The key's slice of the shard, in kernel order, with the
        // position and the stored tuple each was cut from.
        let holders = segments.locate(&[(outer, std::slice::from_ref(&key))]).rows;
        cost.candidate_probes += holders.len() as u64;
        let mut slice: Vec<(NfTuple, (usize, TupleRef<'_>))> = segments
            .tuples_at(holders)
            .map(|(at, held)| {
                let cut = if held.component(outer).is_singleton() {
                    held.into_owned()
                } else {
                    held.with_component(outer, ValueSet::singleton(key))
                };
                (cut, (at, held))
            })
            .collect();
        slice.sort_by(|a, b| kernel_cmp(order, a.0.as_ref(), b.0.as_ref()));
        let mut replayed = CanonicalRelation::from_canonical_tuples(
            schema.clone(),
            order.clone(),
            slice.iter().map(|(cut, _)| cut.clone()).collect(),
        );
        batch.summary += replay(&mut replayed, run.iter().copied(), cost)?;

        // Both vectors ascend in kernel key and equal tuples have equal
        // keys, so one walk tells what the slice lost and gained.
        let after = replayed.relation().tuples();
        let (mut i, mut j) = (0usize, 0usize);
        while i < slice.len() || j < after.len() {
            let side = match (slice.get(i), after.get(j)) {
                (Some((was, _)), Some(now)) if was == now => {
                    i += 1;
                    j += 1;
                    continue;
                }
                (Some((was, _)), Some(now)) => kernel_cmp(order, was.as_ref(), now.as_ref()),
                (Some(_), None) => std::cmp::Ordering::Less,
                _ => std::cmp::Ordering::Greater,
            };
            if side.is_le() {
                let (at, held) = slice[i].1;
                splits.push((at, key, held));
                i += 1;
            }
            if side.is_ge() {
                gained.push(after[j].clone());
                j += 1;
            }
        }
    }
    batch.summary.noop_positions.sort_unstable();
    if splits.is_empty() && gained.is_empty() {
        return Ok(batch);
    }

    // The stored tuple with the rest of each gained tuple, if any (rests
    // are unique in a canonical relation), joins the regroup.
    let mut pulled: Vec<(usize, TupleRef<'_>)> = Vec::new();
    for new in &gained {
        let minima: Vec<Conjunct<'_>> = (0..new.arity())
            .filter(|&attr| attr != outer)
            .map(|attr| (attr, &new.component(attr).as_slice()[..1]))
            .collect();
        for (at, held) in segments.tuples_at(segments.locate(&minima).rows) {
            cost.candidate_probes += 1;
            if held.agrees_except(new.as_ref(), outer) {
                pulled.push((at, held));
                break;
            }
        }
    }

    // The loose set: touched tuples without the keys they lost (dropped
    // when none is left), pulled tuples as they are, gained tuples.
    splits.sort_unstable_by_key(|&(at, key, _)| (at, key));
    let mut loose = gained;
    for lost in splits.chunk_by(|a, b| a.0 == b.0) {
        let (at, _, held) = lost[0];
        let keys: Vec<Atom> = lost.iter().map(|&(_, key, _)| key).collect();
        let keys = ValueSet::of_sorted(keys);
        if let Some(left) = held.component(outer).difference(&keys) {
            cost.decompositions += keys.len() as u64;
            loose.push(held.with_component(outer, left));
        }
        batch.removed.push(at);
    }
    pulled.sort_unstable_by_key(|&(at, _)| at);
    pulled.dedup_by_key(|&mut (at, _)| at);
    pulled.retain(|(at, _)| batch.removed.binary_search(at).is_err());
    loose.extend(pulled.iter().map(|&(_, held)| held.into_owned()));
    batch.removed.extend(pulled.iter().map(|&(at, _)| at));
    batch.removed.sort_unstable();

    // One ν over P(n−1): tuples with equal rests leave as one.
    let entering = loose.len();
    let loose = NfRelation::from_tuples_unchecked(schema.clone(), loose);
    batch.fresh = kernel.nest_once(&loose, outer).into_tuples();
    cost.compositions += (entering - batch.fresh.len()) as u64;
    batch
        .fresh
        .sort_by(|a, b| kernel_cmp(order, a.as_ref(), b.as_ref()));
    Ok(batch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mvcc::ShardVersion;
    use crate::schema::{NestOrder, Schema};
    use crate::segment::Tiling;
    use crate::shard::{BatchReport, ShardSpec, ShardedCanonical};
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Schema::new("R", &["A", "B"]).unwrap()
    }

    fn row(vals: &[u32]) -> FlatTuple {
        vals.iter().map(|&v| Atom(v)).collect()
    }

    fn seeded() -> CanonicalRelation {
        let flat = FlatRelation::from_rows(
            schema(),
            [&[1u32, 11], &[2, 11], &[2, 12], &[3, 12]]
                .iter()
                .map(|r| row(*r)),
        )
        .unwrap();
        CanonicalRelation::from_flat(&flat, NestOrder::identity(2)).unwrap()
    }

    fn mixed_ops() -> Vec<Op> {
        vec![
            Op::Insert(row(&[4, 11])),
            Op::Delete(row(&[2, 12])),
            Op::Insert(row(&[1, 11])), // duplicate: no-op
            Op::Delete(row(&[9, 99])), // absent: no-op
            Op::Insert(row(&[4, 12])),
        ]
    }

    #[test]
    fn batch_counts_effective_operations() {
        let mut canon = seeded();
        let mut cost = CostCounter::new();
        let summary = apply_batch(&mut canon, &mixed_ops(), &mut cost).unwrap();
        assert_eq!(
            summary,
            BatchSummary {
                inserted: 2,
                deleted: 1,
                noops: 2,
                noop_positions: vec![2, 3],
            }
        );
        assert_eq!(canon.flat_count(), 5);
        canon.verify().unwrap();
        assert!(cost.recons_calls > 0);
    }

    #[test]
    fn batch_equals_rebuild() {
        let base = seeded();
        let mut incremental = base.clone();
        let mut cost = CostCounter::new();
        apply_batch(&mut incremental, &mixed_ops(), &mut cost).unwrap();
        let rebuilt = rebuild_batch(&base, &mixed_ops()).unwrap();
        assert_eq!(incremental.relation(), rebuilt.relation());
    }

    #[test]
    fn batch_equals_rebuild_for_all_orders() {
        for order in NestOrder::all(2) {
            let flat = FlatRelation::from_rows(
                schema(),
                [&[1u32, 11], &[2, 11], &[2, 12]].iter().map(|r| row(*r)),
            )
            .unwrap();
            let base = CanonicalRelation::from_flat(&flat, order).unwrap();
            let mut inc = base.clone();
            let mut cost = CostCounter::new();
            apply_batch(&mut inc, &mixed_ops(), &mut cost).unwrap();
            let rebuilt = rebuild_batch(&base, &mixed_ops()).unwrap();
            assert_eq!(inc.relation(), rebuilt.relation());
            inc.verify().unwrap();
        }
    }

    #[test]
    fn insert_then_delete_of_same_row_cancels() {
        let mut canon = seeded();
        let before = canon.relation().clone();
        let ops = vec![Op::Insert(row(&[7, 70])), Op::Delete(row(&[7, 70]))];
        let mut cost = CostCounter::new();
        let summary = apply_batch(&mut canon, &ops, &mut cost).unwrap();
        assert_eq!(summary.inserted, 1);
        assert_eq!(summary.deleted, 1);
        assert_eq!(canon.relation(), &before);
    }

    /// `base` in one shard (so postings exist), segments of two tuples.
    fn one_shard(base: &CanonicalRelation) -> ShardedCanonical {
        let tiling = Tiling {
            outer_attr: base.order().as_slice().last().copied(),
            target_rows: 2,
        };
        let version = ShardVersion::new(base.clone(), tiling);
        ShardedCanonical::from_versions(
            base.relation().schema().clone(),
            base.order().clone(),
            ShardSpec::single(),
            vec![Arc::new(version)],
            2,
        )
        .unwrap()
    }

    /// Applies `ops` to `base` by the keyed procedure and by §4 replay,
    /// and checks the two agree — the vector tuple for tuple, the
    /// summary field for field, the segments an exact tiling. Neither
    /// side expands anything.
    fn keyed(base: &CanonicalRelation, ops: &[Op]) -> (ShardedCanonical, BatchReport) {
        let mut reference = base.clone();
        let summary = apply_batch(&mut reference, ops, &mut CostCounter::new()).unwrap();
        let mut sharded = one_shard(base);
        let report = sharded.apply_batch(ops).unwrap();
        assert_eq!(report.summary, summary);
        assert_eq!(
            sharded.shard(0).relation().tuples(),
            reference.relation().tuples(),
            "keyed ≡ §4 replay, as vectors"
        );
        for seg in sharded.version(0).segments().segments() {
            assert!(seg.decode().into_iter().eq(seg.tuples()));
        }
        (sharded, report)
    }

    fn canon_of(attrs: &[&str], order: NestOrder, rows: &[&[u32]]) -> CanonicalRelation {
        let flat = FlatRelation::from_rows(
            Schema::new("R", attrs).unwrap(),
            rows.iter().map(|r| row(r)),
        )
        .unwrap();
        CanonicalRelation::from_flat(&flat, order).unwrap()
    }

    fn sets(t: &NfTuple) -> Vec<Vec<u32>> {
        t.components()
            .iter()
            .map(|c| c.iter().map(|a| a.id()).collect())
            .collect()
    }

    #[test]
    fn a_batch_over_every_key_regroups_the_whole_shard() {
        // Every stored key (11, 12) gains a row under A = 1..3, the rests
        // every stored tuple has a part in: all of them regroup.
        let ops: Vec<Op> = [[1, 12], [3, 11], [9, 11], [9, 12]]
            .iter()
            .map(|r| Op::Insert(row(r)))
            .collect();
        let (sharded, report) = keyed(&seeded(), &ops);
        assert_eq!(report.summary.inserted, 4);
        assert_eq!(report.keys, 2);
        assert_eq!(report.tuples_regrouped, seeded().tuple_count());
        assert_eq!(report.shards_regrouped_whole, 1);
        sharded.verify().unwrap();
    }

    #[test]
    fn a_small_batch_regroups_only_its_neighbourhood() {
        let base = canon_of(
            &["A", "B"],
            NestOrder::identity(2),
            &[&[1, 11], &[2, 12], &[3, 13], &[4, 14], &[5, 15]],
        );
        let mut sharded = one_shard(&base);
        let old = Arc::clone(sharded.version(0));
        let report = sharded.apply_batch(&[Op::Insert(row(&[9, 13]))]).unwrap();
        assert_eq!(report.summary.inserted, 1);
        assert_eq!(
            (
                report.keys,
                report.tuples_regrouped,
                report.segments_reencoded
            ),
            (1, 1, 1),
            "one key, the one tuple that holds it, the one segment that holds that"
        );
        assert_eq!(report.shards_regrouped_whole, 0);
        let new = sharded.version(0);
        let kept = |a: &TupleRef<'_>| new.tuples().any(|b| b == *a);
        assert_eq!(
            old.tuples().filter(kept).count(),
            4,
            "the other four tuples are carried over, not rebuilt"
        );
        assert!(Arc::ptr_eq(
            &old.segments().segments()[0],
            &new.segments().segments()[0]
        ));
        assert!(Arc::ptr_eq(
            &old.segments().segments()[2],
            &new.segments().segments()[2]
        ));
        sharded.verify().unwrap();
    }

    #[test]
    fn keyed_summary_matches_the_sequential_summary() {
        // The batch twice over: the second pass meets the state the
        // first left, so it is part no-op, part undo-and-redo.
        let twice: Vec<Op> = mixed_ops().into_iter().cycle().take(10).collect();
        let (sharded, report) = keyed(&seeded(), &twice);
        assert_eq!(
            report.summary,
            BatchSummary {
                inserted: 2,
                deleted: 1,
                noops: 7,
                noop_positions: vec![2, 3, 5, 6, 7, 8, 9],
            }
        );
        sharded.verify().unwrap();
    }

    #[test]
    fn keys_that_end_with_equal_rests_leave_as_one_tuple() {
        // B = 20 and B = 21 both end up holding exactly A = {1, 2}: two
        // slices, two gained tuples, one tuple out of the regroup.
        let base = canon_of(&["A", "B"], NestOrder::identity(2), &[&[1, 20], &[7, 30]]);
        let ops = [
            Op::Insert(row(&[2, 20])),
            Op::Insert(row(&[1, 21])),
            Op::Insert(row(&[2, 21])),
        ];
        let (sharded, report) = keyed(&base, &ops);
        assert_eq!(report.keys, 2);
        let shard = sharded.shard(0);
        let tuples = shard.relation().tuples();
        assert_eq!(sets(&tuples[0]), vec![vec![1, 2], vec![20, 21]]);
        assert_eq!(tuples.len(), 2);
        sharded.verify().unwrap();
    }

    #[test]
    fn a_gained_tuple_pulls_the_untouched_tuple_with_its_rest() {
        // Nothing stored holds B = 21, so nothing is touched; but the
        // slice gains ({1,2}, {21}), and ({1,2}, {20}) has that rest.
        let base = canon_of(
            &["A", "B"],
            NestOrder::identity(2),
            &[&[1, 20], &[2, 20], &[7, 30]],
        );
        let ops = [Op::Insert(row(&[1, 21])), Op::Insert(row(&[2, 21]))];
        let (sharded, report) = keyed(&base, &ops);
        assert_eq!(report.tuples_regrouped, 1, "the pulled tuple alone");
        let shard = sharded.shard(0);
        let tuples = shard.relation().tuples();
        assert_eq!(sets(&tuples[0]), vec![vec![1, 2], vec![20, 21]]);
        assert_eq!(sets(&tuples[1]), vec![vec![7], vec![30]]);
        let cost = sharded.maintenance_cost().total;
        assert_eq!(cost.compositions, 2, "one in the slice, one in the regroup");
        sharded.verify().unwrap();
    }

    #[test]
    fn losing_its_minimum_key_moves_a_tuple_in_kernel_order() {
        let base = canon_of(
            &["A", "B"],
            NestOrder::identity(2),
            &[&[1, 10], &[1, 12], &[2, 11]],
        );
        let first = |c: &CanonicalRelation| sets(&c.relation().tuples()[0]);
        assert_eq!(first(&base), vec![vec![1], vec![10, 12]]);
        let (sharded, _) = keyed(&base, &[Op::Delete(row(&[1, 10]))]);
        let shard = sharded.shard(0);
        let tuples = shard.relation().tuples();
        assert_eq!(sets(&tuples[0]), vec![vec![2], vec![11]]);
        assert_eq!(sets(&tuples[1]), vec![vec![1], vec![12]]);
        let cost = sharded.maintenance_cost().total;
        assert_eq!(cost.decompositions, 1, "key 10 split off a surviving tuple");
        sharded.verify().unwrap();
    }

    #[test]
    fn a_key_losing_every_row_leaves_every_tuple_that_held_it() {
        // Key 11 sits in a tuple of its own and in one it shares with
        // key 12: the first is dropped, the second survives without it.
        let base = canon_of(
            &["A", "B"],
            NestOrder::identity(2),
            &[&[1, 11], &[2, 11], &[2, 12], &[3, 13]],
        );
        assert_eq!(base.tuple_count(), 3);
        let ops = [Op::Delete(row(&[1, 11])), Op::Delete(row(&[2, 11]))];
        let (sharded, report) = keyed(&base, &ops);
        assert_eq!(report.summary.deleted, 2);
        let shard = sharded.shard(0);
        let tuples = shard.relation().tuples();
        assert_eq!(tuples.len(), 2);
        assert_eq!(sets(&tuples[0]), vec![vec![2], vec![12]]);
        assert!(!sharded.contains(&row(&[2, 11])));
        sharded.verify().unwrap();
    }

    #[test]
    fn a_fat_slice_is_never_expanded() {
        // Key 7's slice is one rectangle of 2 000³ = 8·10⁹ flat rows.
        // Cutting a row out of it and adding one beside it are set
        // operations on three 2 000-value components; anything that
        // expanded the slice would not return.
        let span: Vec<Atom> = (0..2_000).map(Atom).collect();
        let fat: NfTuple = [&span[..], &span[..], &span[..], &[Atom(7)][..]]
            .iter()
            .map(|vals| ValueSet::of_sorted(*vals))
            .collect();
        let base = CanonicalRelation::from_canonical_tuples(
            Schema::new("R", &["A", "B", "C", "D"]).unwrap(),
            NestOrder::identity(4),
            vec![fat],
        );
        let ops = [
            Op::Delete(row(&[3, 4, 5, 7])),
            Op::Insert(row(&[5_000, 4, 5, 7])),
            Op::Insert(row(&[3, 4, 5, 8])),
        ];
        let (sharded, report) = keyed(&base, &ops);
        assert_eq!((report.summary.inserted, report.summary.deleted), (2, 1));
        assert_eq!(sharded.flat_count(), 8_000_000_000 - 1 + 2);
        sharded.shard(0).relation().validate().unwrap();
    }

    #[test]
    fn arity_one_regroups_into_one_tuple() {
        // No rest to differ on: every key's slice is `({k})` or empty and
        // the regroup folds whatever is left into a single tuple.
        let base = canon_of(&["A"], NestOrder::identity(1), &[&[3], &[5]]);
        let ops = [
            Op::Insert(row(&[4])),
            Op::Delete(row(&[3])),
            Op::Insert(row(&[5])),
            Op::Delete(row(&[9])),
        ];
        let (sharded, report) = keyed(&base, &ops);
        assert_eq!(report.summary.noops, 2);
        let shard = sharded.shard(0);
        let tuples = shard.relation().tuples();
        assert_eq!(tuples.len(), 1);
        assert_eq!(sets(&tuples[0]), vec![vec![4, 5]]);
        let (emptied, _) = keyed(
            &sharded.shard(0),
            &[Op::Delete(row(&[4])), Op::Delete(row(&[5]))],
        );
        assert!(emptied.is_empty());
        assert_eq!(emptied.shard_segments(0).segment_count(), 0);
    }

    #[test]
    fn arity_zero_has_no_key_and_at_most_one_row() {
        let base = canon_of(&[], NestOrder::identity(0), &[]);
        let unit = || row(&[]);
        let (sharded, report) = keyed(
            &base,
            &[Op::Insert(unit()), Op::Insert(unit()), Op::Delete(unit())],
        );
        assert_eq!(
            report.summary,
            BatchSummary {
                inserted: 1,
                deleted: 1,
                noops: 1,
                noop_positions: vec![1],
            }
        );
        assert_eq!(report.keys, 0, "no routing attribute, no keyed path");
        assert!(sharded.is_empty());
        let (sharded, _) = keyed(&base, &[Op::Insert(unit())]);
        assert_eq!(sharded.flat_count(), 1);
        assert_eq!(
            sharded.shard_segments(0).segment_count(),
            1,
            "the unit tuple's chunk, without columns"
        );
    }

    /// Deterministic randomized agreement between the three procedures
    /// on longer op streams (the proptest suite widens this further).
    #[test]
    fn random_streams_agree_across_strategies() {
        let mut state = 0xfeedu64;
        let mut ops = Vec::new();
        for _ in 0..120 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let r = row(&[(state >> 16) as u32 % 6, 10 + (state >> 40) as u32 % 5]);
            if state.is_multiple_of(3) {
                ops.push(Op::Delete(r));
            } else {
                ops.push(Op::Insert(r));
            }
        }
        let base = seeded();
        let mut inc = base.clone();
        let mut cost = CostCounter::new();
        apply_batch(&mut inc, &ops, &mut cost).unwrap();
        let rebuilt = rebuild_batch(&base, &ops).unwrap();
        assert_eq!(inc.relation().tuples(), rebuilt.relation().tuples());
        let (sharded, _) = keyed(&base, &ops);
        sharded.verify().unwrap();
    }
}
