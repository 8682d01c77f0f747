//! Incremental canonical maintenance (§4 and the Appendix).
//!
//! The update problem: apply an insertion or deletion of a flat tuple `t`
//! directly to the NFR `R` — never to `R*` — such that the result equals
//! `ν_P(R* ± t)`, with a number of compositions that does not depend on the
//! number of tuples in `R` (Theorem A-4).
//!
//! The implementation follows the paper's procedures:
//!
//! * `candt` — find the *candidate tuple* and the minimal composition
//!   position `m` (Lemma A-1: at most one candidate exists);
//! * `recons` — decompose the candidate until composable with `t`
//!   (Lemma A-2), compose, and recursively reconstruct remainders and the
//!   composed tuple (Lemma A-3);
//! * `insertion` / `deletion` — §4.2 / §4.3 drivers;
//! * `searcht` — locate the unique tuple containing a flat tuple
//!   ([`NfRelation::find_containing`]).
//!
//! Positions are indices into the [`NestOrder`] (position 0 = first-nested
//! attribute = the paper's `E1`); see DESIGN.md D2/D4 for the notation
//! mapping.
//!
//! `searcht` and `candt` are linear, as the paper writes them: they test
//! every tuple of the relation they run on. The engine never runs them
//! on a whole shard. A keyed batch ([`crate::bulk`]) runs them on one
//! outer key's *slice* — the few tuples whose last-nested set holds that
//! key — and a point write is a keyed batch of one.
//!
//! [`CanonicalRelation`] is the §4 *reference*, not the engine's store:
//! the per-key slice a keyed batch replays, the replay and re-nest
//! oracles ([`crate::bulk::apply_batch`], [`crate::bulk::rebuild_batch`])
//! and the paper experiments run on it. A shard keeps its tuples in the
//! chunks of its segments ([`crate::segment`]) and hands out a
//! `CanonicalRelation` only as a materialised copy for tests.
//!
//! ## Ordered maintenance
//!
//! The nest kernel emits `ν_P(R*)` sorted by each tuple's
//! componentwise-minimum representative, last-nested attribute first —
//! `(min P(n−1), min P(n−2), …, min P(0))`. Expansions are pairwise
//! disjoint, so that key is unique per tuple and the canonical *vector*
//! is as unique as the canonical *set*. `recons`/`delete` keep it: a
//! tuple leaves by an ordered `remove` and enters by an ordered `insert`
//! at the binary-searched position of its key. The maintained vector is
//! therefore always exactly what a rebuild would emit, which is what
//! lets a keyed batch compare a slice before and after by one walk.

use crate::compose::{compose, decompose_set};
use crate::error::{NfError, Result};
use crate::relation::{FlatRelation, NfRelation};
use crate::schema::{NestOrder, Schema};
use crate::tuple::{FlatTuple, NfTuple, TupleRef, ValueSet};
use crate::value::Atom;
use std::sync::Arc;

/// Operation counters for the complexity analysis (Appendix).
///
/// The paper measures update cost as the **number of compositions**; we
/// additionally count decompositions, candidate probes (tuple × position
/// checks inside `candt`) and `recons` invocations.
///
/// On a [`CanonicalRelation`] these are the paper's procedures' own
/// counts. A shard counts every write the same way, because every
/// write is a keyed batch (`ShardWriter::apply_batch`, see
/// [`crate::bulk`]) — a point write is a batch of one. Each outer key's
/// ops are replayed by the §4 procedures on that key's slice, so every
/// field first receives the slices' own §4 counts. On top of those:
/// `candidate_probes` gains one per stored tuple found holding a batch
/// key and one per stored tuple tested for a rest set-equal to a tuple
/// some slice gained; `decompositions` gains one per key split off a
/// stored tuple that survives the split; `compositions` gains one per
/// merge the final `ν_{P(n−1)}` regroup performs. `recons_calls` is the
/// slices' alone.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CostCounter {
    /// Def. 1 compositions performed.
    pub compositions: u64,
    /// Def. 2 decompositions that actually split a tuple.
    pub decompositions: u64,
    /// Tuple-per-position candidate checks inside `candt`: one per
    /// tuple the position's predicate was run on.
    pub candidate_probes: u64,
    /// Invocations of the `recons` procedure.
    pub recons_calls: u64,
}

impl CostCounter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total structural operations (compositions + decompositions) — the
    /// quantity Theorem A-4 bounds by a function of the degree alone.
    pub fn structural_ops(&self) -> u64 {
        self.compositions + self.decompositions
    }

    /// Adds another counter's totals into this one (used by batch drivers
    /// and the sharded [`MaintenanceCost`](crate::shard::MaintenanceCost)
    /// aggregation).
    pub fn accumulate(&mut self, other: &CostCounter) {
        self.compositions += other.compositions;
        self.decompositions += other.decompositions;
        self.candidate_probes += other.candidate_probes;
        self.recons_calls += other.recons_calls;
    }
}

/// The kernel's order on canonical tuples: by componentwise-minimum
/// representative, last-nested attribute first (module docs).
/// Expansions of a relation's tuples are pairwise disjoint, so within
/// one relation no two tuples compare equal.
pub(crate) fn kernel_cmp(
    order: &NestOrder,
    s: TupleRef<'_>,
    t: TupleRef<'_>,
) -> std::cmp::Ordering {
    let min = |u: TupleRef<'_>, attr: usize| u.component(attr).as_slice()[0];
    order
        .as_slice()
        .iter()
        .rev()
        .map(|&attr| min(s, attr).cmp(&min(t, attr)))
        .find(|o| o.is_ne())
        .unwrap_or(std::cmp::Ordering::Equal)
}

/// An NFR kept permanently in canonical form `ν_P(R*)` for a fixed nest
/// order, supporting incremental insertion and deletion of flat tuples.
///
/// Invariant: `self.relation().tuples()` equals
/// [`canonical_of_flat`](crate::nest::canonical_of_flat)`(R*, order)` **as
/// a vector** — same tuples, same (kernel) order — at every
/// public-method boundary (checked exhaustively by property tests).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CanonicalRelation {
    rel: NfRelation,
    order: NestOrder,
}

impl CanonicalRelation {
    /// An empty canonical relation.
    pub fn new(schema: Arc<Schema>, order: NestOrder) -> Result<Self> {
        if order.arity() != schema.arity() {
            return Err(NfError::InvalidNestOrder(format!(
                "order covers {} attributes, schema has {}",
                order.arity(),
                schema.arity()
            )));
        }
        Ok(Self {
            rel: NfRelation::new(schema),
            order,
        })
    }

    /// Builds the canonical form of an existing 1NF relation by nesting
    /// from scratch (the §3.3 path; used as the baseline in benchmarks).
    /// Runs the single-pass nest kernel on a throwaway scratch instance;
    /// use [`from_rows_with`](Self::from_rows_with) to amortize scratch
    /// across repeated rebuilds.
    pub fn from_flat(flat: &FlatRelation, order: NestOrder) -> Result<Self> {
        Self::from_rows_with(&mut crate::kernel::NestKernel::new(), flat.block(), order)
    }

    /// The canonical form of the rows a block holds (a repeated row
    /// counts once), nested by a caller-provided kernel, so a shard's
    /// cold build uses the intern buffers its batches' regroups keep warm.
    pub fn from_rows_with(
        kernel: &mut crate::kernel::NestKernel,
        rows: &crate::relation::RowBlock,
        order: NestOrder,
    ) -> Result<Self> {
        if order.arity() != rows.arity() {
            return Err(NfError::InvalidNestOrder(format!(
                "order covers {} attributes, schema has {}",
                order.arity(),
                rows.arity()
            )));
        }
        let rel = kernel.canonical_of_rows(rows, &order);
        Ok(Self { rel, order })
    }

    /// The maintained NFR.
    pub fn relation(&self) -> &NfRelation {
        &self.rel
    }

    /// The nest order the relation is canonical for.
    pub fn order(&self) -> &NestOrder {
        &self.order
    }

    /// Number of NF² tuples.
    pub fn tuple_count(&self) -> usize {
        self.rel.tuple_count()
    }

    /// Number of flat tuples (`|R*|`).
    pub fn flat_count(&self) -> u128 {
        self.rel.flat_count()
    }

    /// Whether `R*` contains `flat` (`searcht` returning a hit).
    pub fn contains(&self, flat: &[Atom]) -> bool {
        self.rel.contains_flat(flat)
    }

    /// Consumes self, yielding the relation.
    pub fn into_relation(self) -> NfRelation {
        self.rel
    }

    /// §4.2 — inserts a flat tuple, maintaining canonicity. Returns `true`
    /// if the tuple was new, `false` if it was already present.
    pub fn insert(&mut self, flat: FlatTuple) -> Result<bool> {
        let mut cost = CostCounter::new();
        self.insert_counted(&flat, &mut cost)
    }

    /// [`insert`](Self::insert) with operation counting.
    pub fn insert_counted(&mut self, flat: &[Atom], cost: &mut CostCounter) -> Result<bool> {
        self.check_arity(flat)?;
        if self.rel.find_containing(flat).is_some() {
            return Ok(false);
        }
        let t = NfTuple::from_flat(flat);
        self.recons(t, cost);
        debug_assert!(self.rel.validate().is_ok());
        Ok(true)
    }

    /// §4.3 — deletes a flat tuple, maintaining canonicity. Returns `true`
    /// if the tuple was present.
    pub fn delete(&mut self, flat: &[Atom]) -> Result<bool> {
        let mut cost = CostCounter::new();
        self.delete_counted(flat, &mut cost)
    }

    /// [`delete`](Self::delete) with operation counting.
    pub fn delete_counted(&mut self, flat: &[Atom], cost: &mut CostCounter) -> Result<bool> {
        self.check_arity(flat)?;
        let Some(idx) = self.rel.find_containing(flat) else {
            return Ok(false);
        };
        let mut q = self.rel.remove(idx);
        // Peel positions from the last-nested down to the first (the
        // paper's `i := n` downto 1), isolating `flat` and reconstructing
        // every remainder.
        for pos in (0..self.order.arity()).rev() {
            let attr = self.order.attr_at(pos);
            let split = decompose_set(&q, attr, &ValueSet::singleton(flat[attr]))
                .expect("searcht guarantees membership on every attribute");
            if let Some(rem) = split.remainder {
                cost.decompositions += 1;
                self.recons(rem, cost);
            }
            q = split.isolated;
        }
        debug_assert_eq!(q.to_flat().as_deref(), Some(flat));
        // deletet(q): q is now exactly the flat tuple; drop it.
        debug_assert!(self.rel.validate().is_ok());
        Ok(true)
    }

    fn check_arity(&self, flat: &[Atom]) -> Result<()> {
        if flat.len() != self.rel.arity() {
            return Err(NfError::ArityMismatch {
                expected: self.rel.arity(),
                got: flat.len(),
            });
        }
        Ok(())
    }

    /// The paper's `candt`: returns `(tuple index, position m)` of the
    /// candidate tuple of `t`, if any.
    ///
    /// The candidate at position `m` is a tuple `s` with
    /// `s.E(k) = t.E(k)` (set equality) at every position `k < m` and
    /// `t.E(k) ⊆ s.E(k)` at every position `k > m`; `m` is minimal over
    /// all tuples. At most one candidate exists at the minimal `m`
    /// (Lemma A-1) — asserted in debug builds.
    // Out of line: `recons` recurses, and with the search loop inlined
    // into it `bulk_ingest`'s 1 000- and 5 000-op batches ran ~10 %
    // slower per op.
    #[inline(never)]
    fn candt(&self, t: &NfTuple, cost: &mut CostCounter) -> Option<(usize, usize)> {
        let tuples = self.rel.tuples();
        for m in 0..self.order.arity() {
            let found = tuples.iter().position(|s| self.is_candidate_at(s, t, m));
            cost.candidate_probes += found.map_or(tuples.len(), |idx| idx + 1) as u64;
            debug_assert!(
                found.is_none_or(|idx| !tuples[idx + 1..]
                    .iter()
                    .any(|s| self.is_candidate_at(s, t, m))),
                "Lemma A-1: at most one candidate tuple at minimal position {m}"
            );
            if let Some(idx) = found {
                return Some((idx, m));
            }
        }
        None
    }

    /// The position-`m` candidate predicate (see [`candt`](Self::candt)).
    fn is_candidate_at(&self, s: &NfTuple, t: &NfTuple, m: usize) -> bool {
        let n = self.order.arity();
        for k in 0..n {
            let attr = self.order.attr_at(k);
            let (sc, tc) = (s.component(attr), t.component(attr));
            if k < m {
                if sc != tc {
                    return false;
                }
            } else if k > m && !tc.is_subset_of(sc) {
                return false;
            }
        }
        true
    }

    /// The paper's `recons`: re-establishes canonicity after introducing
    /// the tuple `t` (whose expansion is disjoint from the relation).
    ///
    /// Selects the candidate `p`, unnests it from position `n` down to
    /// `m+1` isolating `t`'s values (recursively reconstructing each
    /// remainder), composes over position `m`, then reconstructs the
    /// composed tuple. Without a candidate, `t` enters the relation as a
    /// new tuple (the pseudocode's implicit else-branch).
    fn recons(&mut self, t: NfTuple, cost: &mut CostCounter) {
        cost.recons_calls += 1;
        match self.candt(&t, cost) {
            None => {
                let idx = self.position_of(&t);
                self.rel.insert_at(idx, t);
            }
            Some((idx, m)) => {
                let mut p = self.rel.remove(idx);
                let n = self.order.arity();
                // while j > m do unnest(Ej(ej), p, pe, pr); recons(pr)
                for pos in ((m + 1)..n).rev() {
                    let attr = self.order.attr_at(pos);
                    let split = decompose_set(&p, attr, t.component(attr))
                        .expect("candidate predicate guarantees t.E(k) ⊆ p.E(k) for k > m");
                    if let Some(rem) = split.remainder {
                        cost.decompositions += 1;
                        self.recons(rem, cost);
                    }
                    p = split.isolated;
                }
                // Lemma A-2: p is now composable with t over position m.
                let attr_m = self.order.attr_at(m);
                let w = compose(&p, &t, attr_m)
                    .expect("Lemma A-2: the unnested candidate is composable with t");
                cost.compositions += 1;
                // Lemma A-3: the composed tuple may itself have a candidate.
                self.recons(w, cost);
            }
        }
    }

    /// Where `t` belongs in the kernel's order ([`kernel_cmp`]): the
    /// number of stored tuples whose key is below `t`'s. A tuple whose
    /// expansion is disjoint from every stored tuple's has a key none
    /// of them has.
    fn position_of(&self, t: &NfTuple) -> usize {
        self.rel
            .tuples()
            .partition_point(|s| kernel_cmp(&self.order, s.as_ref(), t.as_ref()).is_lt())
    }

    /// The canonical relation made of `tuples`, which the caller knows
    /// to be `ν_P` of their own expansion and hands over in kernel
    /// order — a shard's chunks back to back, or a keyed batch's per-key
    /// slice of them. The shard's writes validated those tuples; debug
    /// builds check the keys strictly ascend.
    pub(crate) fn from_canonical_tuples(
        schema: Arc<Schema>,
        order: NestOrder,
        tuples: Vec<NfTuple>,
    ) -> Self {
        let canon = Self {
            rel: NfRelation::from_valid_tuples(schema, tuples),
            order,
        };
        canon.debug_assert_kernel_order();
        canon
    }

    /// Debug builds: the vector strictly ascends in kernel key.
    fn debug_assert_kernel_order(&self) {
        debug_assert!(
            self.rel.tuples().windows(2).all(|w| kernel_cmp(
                &self.order,
                w[0].as_ref(),
                w[1].as_ref()
            )
            .is_lt()),
            "the tuple vector must strictly ascend in kernel key"
        );
    }

    /// Re-derives the canonical form from scratch and checks the
    /// maintained relation matches it tuple for tuple, in the kernel's
    /// order. Costs one [`NfRelation::validate`], one expansion to `R*`
    /// and one re-nest of it. Test/diagnostic helper.
    pub fn verify(&self) -> Result<()> {
        self.rel.validate()?;
        let fresh = crate::nest::canonical_of_flat(&self.rel.expand(), &self.order);
        if fresh.tuples() == self.rel.tuples() {
            Ok(())
        } else {
            Err(NfError::InvalidNestOrder(
                "maintained relation is not the canonical vector for its order".into(),
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::canonical_of_flat;
    use std::collections::BTreeSet;

    fn schema(attrs: &[&str]) -> Arc<Schema> {
        Schema::new("R", attrs).unwrap()
    }

    fn row(vals: &[u32]) -> FlatTuple {
        vals.iter().map(|&v| Atom(v)).collect()
    }

    fn flat_rel(s: Arc<Schema>, rows: &[&[u32]]) -> FlatRelation {
        FlatRelation::from_rows(s, rows.iter().map(|r| row(r))).unwrap()
    }

    /// The re-nest oracle over a set of rows.
    fn oracle(s: &Arc<Schema>, rows: &BTreeSet<FlatTuple>, order: &NestOrder) -> NfRelation {
        let flat = FlatRelation::from_rows(s.clone(), rows.iter().cloned()).unwrap();
        canonical_of_flat(&flat, order)
    }

    /// Inserting every row one by one must equal nesting from scratch.
    fn check_incremental_build(attrs: &[&str], rows: &[&[u32]], order: NestOrder) {
        let s = schema(attrs);
        let mut canon = CanonicalRelation::new(s.clone(), order.clone()).unwrap();
        let mut flat = BTreeSet::new();
        for r in rows {
            assert!(canon.insert(row(r)).unwrap());
            flat.insert(row(r));
            assert_eq!(
                canon.relation().tuples(),
                oracle(&s, &flat, &order).tuples(),
                "after inserting {r:?} with order {order}"
            );
        }
    }

    /// Deleting every row one by one must equal nesting from scratch.
    fn check_incremental_teardown(attrs: &[&str], rows: &[&[u32]], order: NestOrder) {
        let s = schema(attrs);
        let mut canon =
            CanonicalRelation::from_flat(&flat_rel(s.clone(), rows), order.clone()).unwrap();
        let mut flat: BTreeSet<FlatTuple> = rows.iter().map(|r| row(r)).collect();
        for r in rows {
            assert!(canon.delete(&row(r)).unwrap());
            flat.remove(&row(r));
            assert_eq!(
                canon.relation().tuples(),
                oracle(&s, &flat, &order).tuples(),
                "after deleting {r:?} with order {order}"
            );
        }
        assert!(canon.relation().is_empty());
    }

    #[test]
    fn insert_builds_canonical_2attr_all_orders() {
        let rows: &[&[u32]] = &[&[1, 11], &[2, 11], &[2, 12], &[3, 12], &[1, 12], &[3, 11]];
        for order in NestOrder::all(2) {
            check_incremental_build(&["A", "B"], rows, order);
        }
    }

    #[test]
    fn insert_builds_canonical_3attr_all_orders() {
        let rows: &[&[u32]] = &[
            &[1, 11, 21],
            &[1, 12, 21],
            &[2, 11, 21],
            &[2, 12, 22],
            &[1, 11, 22],
            &[2, 11, 22],
            &[1, 12, 22],
        ];
        for order in NestOrder::all(3) {
            check_incremental_build(&["A", "B", "C"], rows, order);
        }
    }

    #[test]
    fn delete_maintains_canonical_2attr_all_orders() {
        let rows: &[&[u32]] = &[&[1, 11], &[2, 11], &[2, 12], &[3, 12], &[1, 12]];
        for order in NestOrder::all(2) {
            check_incremental_teardown(&["A", "B"], rows, order);
        }
    }

    #[test]
    fn delete_maintains_canonical_3attr_all_orders() {
        let rows: &[&[u32]] = &[
            &[1, 11, 21],
            &[1, 12, 21],
            &[2, 11, 21],
            &[2, 12, 22],
            &[1, 11, 22],
        ];
        for order in NestOrder::all(3) {
            check_incremental_teardown(&["A", "B", "C"], rows, order);
        }
    }

    #[test]
    fn insert_duplicate_is_noop() {
        let s = schema(&["A", "B"]);
        let mut canon = CanonicalRelation::new(s, NestOrder::identity(2)).unwrap();
        assert!(canon.insert(row(&[1, 11])).unwrap());
        assert!(!canon.insert(row(&[1, 11])).unwrap());
        assert_eq!(canon.flat_count(), 1);
    }

    #[test]
    fn delete_missing_is_noop() {
        let s = schema(&["A", "B"]);
        let mut canon = CanonicalRelation::new(s, NestOrder::identity(2)).unwrap();
        canon.insert(row(&[1, 11])).unwrap();
        assert!(!canon.delete(&row(&[9, 99])).unwrap());
        assert_eq!(canon.flat_count(), 1);
    }

    #[test]
    fn arity_mismatch_is_rejected() {
        let s = schema(&["A", "B"]);
        let mut canon = CanonicalRelation::new(s, NestOrder::identity(2)).unwrap();
        assert!(canon.insert(row(&[1])).is_err());
        assert!(canon.delete(&row(&[1, 2, 3])).is_err());
    }

    #[test]
    fn mismatched_order_arity_is_rejected() {
        let s = schema(&["A", "B"]);
        assert!(CanonicalRelation::new(s.clone(), NestOrder::identity(3)).is_err());
        let f = FlatRelation::new(s);
        assert!(CanonicalRelation::from_flat(&f, NestOrder::identity(3)).is_err());
    }

    #[test]
    fn insert_splits_groups_when_needed() {
        // Order B-first, A-last: canonical groups a's by equal course
        // sets. Adding (a1,b3) must split a1 out of the {a1,a2} group.
        let s = schema(&["A", "B"]);
        let f = flat_rel(s, &[&[1, 11], &[1, 12], &[2, 11], &[2, 12]]);
        let order = NestOrder::new(vec![1, 0], 2).unwrap();
        let mut canon = CanonicalRelation::from_flat(&f, order.clone()).unwrap();
        assert_eq!(canon.tuple_count(), 1);
        canon.insert(row(&[1, 13])).unwrap();
        canon.verify().unwrap();
        assert_eq!(canon.tuple_count(), 2);
    }

    #[test]
    fn costs_are_counted() {
        let s = schema(&["A", "B"]);
        let mut canon = CanonicalRelation::new(s, NestOrder::identity(2)).unwrap();
        let mut cost = CostCounter::new();
        canon.insert_counted(&row(&[1, 11]), &mut cost).unwrap();
        canon.insert_counted(&row(&[2, 11]), &mut cost).unwrap();
        assert!(cost.compositions >= 1, "second insert composes over A");
        assert!(cost.recons_calls >= 2);
        assert_eq!(
            cost.structural_ops(),
            cost.compositions + cost.decompositions
        );
    }

    #[test]
    fn random_mixed_workload_matches_oracle() {
        // Deterministic pseudo-random insert/delete stream over a small
        // universe, checked against re-nesting after every operation, for
        // several orders.
        let s = schema(&["A", "B", "C"]);
        for order in [
            NestOrder::identity(3),
            NestOrder::new(vec![2, 0, 1], 3).unwrap(),
            NestOrder::new(vec![1, 2, 0], 3).unwrap(),
        ] {
            let mut canon = CanonicalRelation::new(s.clone(), order.clone()).unwrap();
            let mut flat = BTreeSet::new();
            let mut state = 0xdeadbeefu64;
            for step in 0..300 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let a = (state >> 13) % 4;
                let b = 10 + (state >> 29) % 4;
                let c = 20 + (state >> 47) % 3;
                let r = row(&[a as u32, b as u32, c as u32]);
                if state.is_multiple_of(3) {
                    let expected = flat.contains(&r);
                    assert_eq!(canon.delete(&r).unwrap(), expected);
                    flat.remove(&r);
                } else {
                    let expected = !flat.contains(&r);
                    assert_eq!(canon.insert(r.clone()).unwrap(), expected);
                    flat.insert(r);
                }
                if step % 10 == 0 {
                    assert_eq!(
                        canon.relation().tuples(),
                        oracle(&s, &flat, &order).tuples(),
                        "the maintained vector is the kernel's vector"
                    );
                }
            }
            assert_eq!(
                canon.relation().tuples(),
                oracle(&s, &flat, &order).tuples()
            );
        }
    }

    #[test]
    fn theorem_a4_cost_does_not_grow_with_relation_size() {
        // Build canonical relations of growing size over a fixed degree
        // and check the per-insert composition count stays bounded.
        let s = schema(&["A", "B", "C"]);
        let order = NestOrder::identity(3);
        let mut max_ops = Vec::new();
        for size in [50u32, 200, 800] {
            let mut canon = CanonicalRelation::new(s.clone(), order.clone()).unwrap();
            let mut state = 42u64;
            for _ in 0..size {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let r = row(&[
                    (state >> 10) as u32 % 40,
                    100 + (state >> 30) as u32 % 40,
                    200 + (state >> 50) as u32 % 10,
                ]);
                let _ = canon.insert(r);
            }
            // Measure a probe insertion on the grown relation.
            let mut cost = CostCounter::new();
            let _ = canon
                .insert_counted(&row(&[41, 141, 211]), &mut cost)
                .unwrap();
            max_ops.push(cost.structural_ops());
        }
        // Structural ops for a fresh value combination must not scale with
        // the relation size (they are 0 or tiny regardless).
        let spread = max_ops.iter().max().unwrap() - max_ops.iter().min().unwrap();
        assert!(
            spread <= 4,
            "structural op counts should be size-independent: {max_ops:?}"
        );
    }
}
