//! Batch maintenance: applying *streams* of updates to a canonical NFR.
//!
//! §4 gives per-tuple insertion and deletion. Real workloads arrive in
//! batches, and the interesting engineering question the paper leaves
//! open is when incremental maintenance (one `recons` cascade per
//! operation) beats re-nesting from scratch (one `ν_P` over the updated
//! `R*`). This module provides both paths with identical semantics —
//! property-tested against each other — plus the delete+insert `modify`
//! the paper's Fig. 2 scenario performs, and a crossover heuristic the
//! E10 experiment calibrates.

use crate::error::Result;
use crate::kernel::NestKernel;
use crate::maintenance::{CanonicalRelation, CostCounter, TupleEdits};
use crate::relation::FlatRelation;
use crate::tuple::FlatTuple;

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

/// Counts of effective operations in a batch.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct BatchSummary {
    /// Inserts that added a new row.
    pub inserted: usize,
    /// Deletes that removed an existing row.
    pub deleted: usize,
    /// Operations that were no-ops (duplicate insert / absent delete).
    pub noops: usize,
}

/// Applies `ops` in order through §4 incremental maintenance,
/// accumulating structural costs into `cost`.
pub fn apply_batch(
    canon: &mut CanonicalRelation,
    ops: &[Op],
    cost: &mut CostCounter,
) -> Result<BatchSummary> {
    apply_batch_tracked(canon, ops, cost, &mut ())
}

/// [`apply_batch`] reporting every tuple-vector edit to `edits`.
fn apply_batch_tracked(
    canon: &mut CanonicalRelation,
    ops: &[Op],
    cost: &mut CostCounter,
    edits: &mut impl TupleEdits,
) -> Result<BatchSummary> {
    let mut summary = BatchSummary::default();
    for op in ops {
        let effective = match op {
            Op::Insert(row) => {
                let hit = canon.insert_tracked(row.clone(), cost, edits)?;
                if hit {
                    summary.inserted += 1;
                }
                hit
            }
            Op::Delete(row) => {
                let hit = canon.delete_tracked(row, cost, edits)?;
                if hit {
                    summary.deleted += 1;
                }
                hit
            }
        };
        if !effective {
            summary.noops += 1;
        }
    }
    Ok(summary)
}

/// The re-nest baseline: applies `ops` to `R*` and rebuilds the
/// canonical form from scratch through the single-pass nest kernel.
/// Semantically identical to [`apply_batch`] (ops are order-sensitive
/// only through set semantics, which `FlatRelation` reproduces exactly).
pub fn rebuild_batch(canon: &CanonicalRelation, ops: &[Op]) -> Result<CanonicalRelation> {
    rebuild_batch_with(&mut NestKernel::new(), canon, ops)
}

/// [`rebuild_batch`] reusing a caller-provided kernel across calls.
pub fn rebuild_batch_with(
    kernel: &mut NestKernel,
    canon: &CanonicalRelation,
    ops: &[Op],
) -> Result<CanonicalRelation> {
    rebuild_summarized(kernel, canon, ops).map(|(rebuilt, _)| rebuilt)
}

/// The rebuild body proper: expands `canon` to `R*`, applies `ops` to it
/// (counting each op's effect against the state it met, for an honest
/// summary), and re-nests the result through `kernel`.
fn rebuild_summarized(
    kernel: &mut NestKernel,
    canon: &CanonicalRelation,
    ops: &[Op],
) -> Result<(CanonicalRelation, BatchSummary)> {
    let mut summary = BatchSummary::default();
    let mut flat: FlatRelation = canon.relation().expand();
    for op in ops {
        let (effective, counter) = match op {
            Op::Insert(row) => (flat.insert(row.clone())?, &mut summary.inserted),
            Op::Delete(row) => (flat.remove(row), &mut summary.deleted),
        };
        if effective {
            *counter += 1;
        } else {
            summary.noops += 1;
        }
    }
    let rebuilt = CanonicalRelation::from_flat_with(kernel, &flat, canon.order().clone())?;
    Ok((rebuilt, summary))
}

/// Whether a batch of `ops_len` operations against a relation of
/// `flat_count` rows should rebuild rather than maintain incrementally.
///
/// Incremental cost is `O(ops · f(n))` (Theorem A-4: independent of the
/// relation size but with a candidate-search scan per recons); the
/// rebuild costs one expansion plus one `ν_P` over `flat_count ± ops`
/// rows. The breakeven is workload-dependent; the default threshold
/// (batch ≥ half the relation) is calibrated by experiment E10 and is
/// deliberately conservative — incremental wins on everything smaller.
pub fn should_rebuild(ops_len: usize, flat_count: u128) -> bool {
    ops_len as u128 * 2 >= flat_count.max(1)
}

/// Applies a batch by whichever strategy [`should_rebuild`] selects.
/// Returns the summary and whether the rebuild path ran.
pub fn apply_batch_auto(
    canon: &mut CanonicalRelation,
    ops: &[Op],
    cost: &mut CostCounter,
) -> Result<(BatchSummary, bool)> {
    apply_batch_auto_with(&mut NestKernel::new(), canon, ops, cost)
}

/// [`apply_batch_auto`] reusing a caller-provided kernel, so a stream of
/// batches (`NfTable::append_batch` in `nf2-storage`) pays the rebuild
/// arm's sort/intern allocations once.
pub fn apply_batch_auto_with(
    kernel: &mut NestKernel,
    canon: &mut CanonicalRelation,
    ops: &[Op],
    cost: &mut CostCounter,
) -> Result<(BatchSummary, bool)> {
    apply_batch_auto_tracked(kernel, canon, ops, cost, &mut ())
}

/// [`apply_batch_auto_with`] reporting the incremental arm's
/// tuple-vector edits to `edits` (the rebuild arm replaces the whole
/// vector and reports nothing).
pub(crate) fn apply_batch_auto_tracked(
    kernel: &mut NestKernel,
    canon: &mut CanonicalRelation,
    ops: &[Op],
    cost: &mut CostCounter,
    edits: &mut impl TupleEdits,
) -> Result<(BatchSummary, bool)> {
    if should_rebuild(ops.len(), canon.flat_count()) {
        let (rebuilt, summary) = rebuild_summarized(kernel, canon, ops)?;
        *canon = rebuilt;
        Ok((summary, true))
    } else {
        apply_batch_tracked(canon, ops, cost, edits).map(|s| (s, false))
    }
}

/// Rewrites one flat row (the paper's Fig. 2 "student stops taking a
/// course" scenario is a delete; a correction is delete + insert).
///
/// Returns `false` (and leaves the relation untouched) when `old` is
/// absent. When `new` already exists, the net effect is just the delete
/// — set semantics absorb the insert.
pub fn modify(
    canon: &mut CanonicalRelation,
    old: &[crate::value::Atom],
    new: FlatTuple,
    cost: &mut CostCounter,
) -> Result<bool> {
    if !canon.contains(old) {
        return Ok(false);
    }
    canon.delete_counted(old, cost)?;
    canon.insert_counted(new, cost)?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{NestOrder, Schema};
    use crate::value::Atom;
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
                noops: 2
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

    #[test]
    fn auto_strategy_picks_rebuild_for_large_batches() {
        let mut canon = seeded(); // 4 rows
        let ops: Vec<Op> = (0..8).map(|i| Op::Insert(row(&[10 + i, 30]))).collect();
        let mut cost = CostCounter::new();
        let (summary, rebuilt) = apply_batch_auto(&mut canon, &ops, &mut cost).unwrap();
        assert!(rebuilt, "8 ops vs 4 rows must rebuild");
        assert_eq!(summary.inserted, 8);
        canon.verify().unwrap();
    }

    #[test]
    fn auto_strategy_picks_incremental_for_small_batches() {
        let mut canon = seeded();
        let ops = vec![Op::Insert(row(&[9, 11]))];
        let mut cost = CostCounter::new();
        let (summary, rebuilt) = apply_batch_auto(&mut canon, &ops, &mut cost).unwrap();
        assert!(!rebuilt);
        assert_eq!(summary.inserted, 1);
        assert!(cost.recons_calls >= 1, "incremental path was exercised");
    }

    #[test]
    fn auto_rebuild_summary_matches_incremental_summary() {
        let base = seeded();
        let ops = mixed_ops();
        let mut a = base.clone();
        let mut cost = CostCounter::new();
        let incremental = apply_batch(&mut a, &ops, &mut cost).unwrap();
        let mut b = base.clone();
        // Force the rebuild path by repeating the batch until the
        // threshold trips; the second cycle is pure no-ops.
        let big: Vec<Op> = ops.iter().cloned().cycle().take(10).collect();
        let (via_rebuild, rebuilt) = apply_batch_auto(&mut b, &big, &mut cost).unwrap();
        assert!(rebuilt);
        assert_eq!(via_rebuild.inserted, incremental.inserted);
        assert_eq!(via_rebuild.deleted, incremental.deleted);
        assert_eq!(via_rebuild.noops, incremental.noops + ops.len());
        assert_eq!(a.relation(), b.relation());
    }

    #[test]
    fn modify_rewrites_one_row() {
        let mut canon = seeded();
        let mut cost = CostCounter::new();
        assert!(modify(&mut canon, &row(&[1, 11]), row(&[1, 13]), &mut cost).unwrap());
        assert!(!canon.contains(&row(&[1, 11])));
        assert!(canon.contains(&row(&[1, 13])));
        assert_eq!(canon.flat_count(), 4);
        canon.verify().unwrap();
    }

    #[test]
    fn modify_of_absent_row_is_untouched_noop() {
        let mut canon = seeded();
        let before = canon.relation().clone();
        let mut cost = CostCounter::new();
        assert!(!modify(&mut canon, &row(&[9, 99]), row(&[1, 13]), &mut cost).unwrap());
        assert_eq!(canon.relation(), &before);
    }

    #[test]
    fn modify_onto_existing_row_collapses() {
        let mut canon = seeded();
        let mut cost = CostCounter::new();
        // (2,12) → (2,11), which already exists: net row count drops.
        assert!(modify(&mut canon, &row(&[2, 12]), row(&[2, 11]), &mut cost).unwrap());
        assert_eq!(canon.flat_count(), 3);
        canon.verify().unwrap();
    }

    #[test]
    fn should_rebuild_threshold() {
        assert!(should_rebuild(50, 100));
        assert!(!should_rebuild(49, 100));
        assert!(should_rebuild(1, 0), "empty relation: rebuild is free");
    }

    /// Deterministic randomized agreement between the two strategies on
    /// longer op streams (the proptest suite widens this further).
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
        assert_eq!(inc.relation(), rebuilt.relation());
        assert_eq!(ops[0].row(), ops[0].row());
    }
}
