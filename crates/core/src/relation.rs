//! Flat (1NF) and NF² relations, and the `R ↔ R*` correspondence
//! (Theorem 1).
//!
//! An [`NfRelation`] is a set of NF² tuples whose expansions are pairwise
//! disjoint — exactly the class of relations reachable from a 1NF relation
//! by compositions and decompositions (DESIGN.md D1). Its underlying 1NF
//! relation `R*` is therefore unique (Theorem 1): [`NfRelation::expand`]
//! computes it, and [`NfRelation::from_flat`] embeds a 1NF relation as the
//! all-singleton NFR.
//!
//! Flat rows have one representation, the [`RowBlock`] (a multiset in
//! arrival order); a [`FlatRelation`] is one kept sorted with each row
//! once. A tuple expands only through [`RowBlock::push_expansion`].

use std::sync::Arc;

use crate::error::{NfError, Result};
use crate::schema::Schema;
use crate::segment::partition_point;
use crate::tuple::{FlatTuple, NfTuple, TupleRef};
use crate::value::Atom;

/// A first-normal-form relation: a *set* of flat tuples over a schema,
/// held as one [`RowBlock`] sorted lexicographically (attribute 0
/// outermost), each row once.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatRelation {
    rows: RowBlock,
}

impl FlatRelation {
    /// An empty 1NF relation.
    pub fn new(schema: Arc<Schema>) -> Self {
        Self {
            rows: RowBlock::with_capacity(schema, 0),
        }
    }

    /// Builds from rows, validating arity. Duplicate rows collapse (set
    /// semantics).
    pub fn from_rows<I>(schema: Arc<Schema>, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = FlatTuple>,
    {
        Ok(Self::from_block(&RowBlock::from_rows(schema, rows)?))
    }

    /// The set of rows `block` holds: sorted, each row once.
    pub(crate) fn from_block(block: &RowBlock) -> Self {
        let mut order: Vec<usize> = (0..block.len()).collect();
        order.sort_unstable_by(|&a, &b| block.row(a).cmp(block.row(b)));
        order.dedup_by(|a, b| block.row(*a) == block.row(*b));
        let mut rows = RowBlock::with_capacity(block.schema().clone(), order.len());
        for idx in order {
            rows.atoms.extend_from_slice(block.row(idx));
            rows.rows += 1;
        }
        Self { rows }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        self.rows.schema()
    }

    /// The rows as a block, in their sorted order.
    pub(crate) fn block(&self) -> &RowBlock {
        &self.rows
    }

    /// Membership test: a binary search of the sorted rows. A row of the
    /// wrong arity is in no relation.
    pub fn contains(&self, row: &[Atom]) -> bool {
        let at = partition_point(self.len(), |idx| self.rows.row(idx) < row);
        at < self.len() && self.rows.row(at) == row
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the relation has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates rows in lexicographic order.
    pub fn rows(&self) -> impl Iterator<Item = &[Atom]> {
        self.rows.rows()
    }
}

/// Flat rows as one row-major block of atoms: `arity` atoms per row, row
/// after row, with the row count kept beside them (a zero-arity row holds
/// no atoms). Unlike a [`FlatRelation`] it is a multiset in arrival
/// order — a repeated row stays until the kernel's sort drops it
/// ([`NestKernel::canonical_of_rows`]). It is how a cold load carries
/// `R*` from the dictionary to the kernel, and how an expansion reaches
/// a re-nest: one allocation, no `Vec` per row.
///
/// [`NestKernel::canonical_of_rows`]: crate::kernel::NestKernel::canonical_of_rows
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowBlock {
    schema: Arc<Schema>,
    atoms: Vec<Atom>,
    rows: usize,
}

impl RowBlock {
    /// An empty block over `schema`, with room for `rows` rows.
    pub fn with_capacity(schema: Arc<Schema>, rows: usize) -> Self {
        let atoms = Vec::with_capacity(rows * schema.arity());
        Self {
            schema,
            atoms,
            rows: 0,
        }
    }

    /// The given rows, repeats included, each checked against the
    /// schema's arity.
    pub fn from_rows<I>(schema: Arc<Schema>, rows: I) -> Result<Self>
    where
        I: IntoIterator<Item = FlatTuple>,
    {
        let rows = rows.into_iter();
        let mut block = Self::with_capacity(schema, rows.size_hint().0);
        for row in rows {
            block.push_row(row)?;
        }
        Ok(block)
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Atoms per row.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// Number of rows, repeats included.
    pub fn len(&self) -> usize {
        self.rows
    }

    /// Whether the block holds no row.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Row `idx` (below [`len`](Self::len)).
    pub fn row(&self, idx: usize) -> &[Atom] {
        let n = self.arity();
        &self.atoms[idx * n..(idx + 1) * n]
    }

    /// The rows from `start` on, in block order.
    pub fn rows_from(&self, start: usize) -> impl Iterator<Item = &[Atom]> {
        (start..self.rows).map(|idx| self.row(idx))
    }

    /// Every row, in block order.
    pub fn rows(&self) -> impl Iterator<Item = &[Atom]> {
        self.rows_from(0)
    }

    /// Drops every row, keeping the allocation for the next ones.
    pub fn clear(&mut self) {
        self.atoms.clear();
        self.rows = 0;
    }

    /// Appends one row of the schema's arity.
    pub fn push_row(&mut self, row: impl AsRef<[Atom]>) -> Result<()> {
        let row = row.as_ref();
        if row.len() != self.arity() {
            return Err(NfError::ArityMismatch {
                expected: self.arity(),
                got: row.len(),
            });
        }
        self.atoms.extend_from_slice(row);
        self.rows += 1;
        Ok(())
    }

    /// Appends the row `atoms` spell out, atom by atom, with no buffer
    /// between (how the blocking projection writes its rows). A row of
    /// the wrong arity is an error and leaves the block as it was.
    pub fn push_row_from(&mut self, atoms: impl IntoIterator<Item = Atom>) -> Result<()> {
        let start = self.atoms.len();
        self.atoms.extend(atoms);
        let got = self.atoms.len() - start;
        if got != self.arity() {
            self.atoms.truncate(start);
            return Err(NfError::ArityMismatch {
                expected: self.arity(),
                got,
            });
        }
        self.rows += 1;
        Ok(())
    }

    /// Appends every row of `tuple`'s expansion in lexicographic order
    /// (the last attribute varies fastest); the zero-arity tuple expands
    /// to the one empty row. This is the only expansion of a tuple.
    pub fn push_expansion(&mut self, tuple: TupleRef<'_>) -> Result<()> {
        let n = self.arity();
        if tuple.arity() != n {
            return Err(NfError::ArityMismatch {
                expected: n,
                got: tuple.arity(),
            });
        }
        let count =
            usize::try_from(tuple.expansion_count()).expect("an expansion that fits in memory");
        self.atoms.reserve(count * n);
        for at in 0..count {
            let base = self.atoms.len();
            self.atoms.resize(base + n, Atom(0));
            // Row `at`'s index into each set, read off `at` in the mixed
            // radix of the set sizes, last attribute least significant.
            let mut rest = at;
            for attr in (0..n).rev() {
                let set = tuple.component(attr).as_slice();
                self.atoms[base + attr] = set[rest % set.len()];
                rest /= set.len();
            }
        }
        self.rows += count;
        Ok(())
    }
}

/// A non-first-normal-form relation: distinct NF² tuples with pairwise
/// disjoint expansions over a shared schema.
///
/// The tuple *order* is not semantically meaningful; equality compares the
/// underlying sets of tuples. (A [`CanonicalRelation`] additionally keeps
/// its relation's vector in the nest kernel's order; that is its
/// invariant, not this type's.)
///
/// [`CanonicalRelation`]: crate::maintenance::CanonicalRelation
#[derive(Debug, Clone)]
pub struct NfRelation {
    schema: Arc<Schema>,
    tuples: Vec<NfTuple>,
}

impl NfRelation {
    /// An empty NFR.
    pub fn new(schema: Arc<Schema>) -> Self {
        Self {
            schema,
            tuples: Vec::new(),
        }
    }

    /// Builds an NFR from tuples, validating the partition invariant.
    pub fn from_tuples(schema: Arc<Schema>, tuples: Vec<NfTuple>) -> Result<Self> {
        let rel = Self { schema, tuples };
        rel.validate()?;
        Ok(rel)
    }

    /// Builds an NFR from tuples that are known to be pairwise disjoint.
    ///
    /// Only the arity of each tuple is checked; the partition invariant is
    /// the **caller's contract**. Streaming pipelines use this to
    /// materialize intermediate results in linear time: every operator in
    /// [`nf2-algebra`'s streaming evaluator] preserves disjointness by
    /// construction, so [`NfRelation::from_tuples`]' sort of every atom
    /// per operator would only re-prove it.
    ///
    /// [`nf2-algebra`'s streaming evaluator]: https://docs.rs/nf2-algebra
    pub fn from_disjoint_tuples(schema: Arc<Schema>, tuples: Vec<NfTuple>) -> Result<Self> {
        for t in &tuples {
            if t.arity() != schema.arity() {
                return Err(NfError::ArityMismatch {
                    expected: schema.arity(),
                    got: t.arity(),
                });
            }
        }
        let rel = Self { schema, tuples };
        // Debug builds verify the caller's contract; release builds pay
        // only the arity scan above.
        debug_assert!(
            rel.validate().is_ok(),
            "from_disjoint_tuples caller violated the partition invariant"
        );
        Ok(rel)
    }

    /// Wraps tuples that already form a checked NFR — a shard's chunks,
    /// validated as the write that built them merged them (debug builds),
    /// or a slice cut from those. Unlike
    /// [`from_tuples_unchecked`](Self::from_tuples_unchecked) it does not
    /// prove the partition invariant again.
    pub(crate) fn from_valid_tuples(schema: Arc<Schema>, tuples: Vec<NfTuple>) -> Self {
        Self { schema, tuples }
    }

    /// Builds an NFR from tuples **without** validating. For internal use
    /// by operations that preserve the invariant by construction.
    pub(crate) fn from_tuples_unchecked(schema: Arc<Schema>, tuples: Vec<NfTuple>) -> Self {
        let rel = Self { schema, tuples };
        debug_assert!(
            rel.validate().is_ok(),
            "internal operation broke the NFR invariant"
        );
        rel
    }

    /// Embeds a 1NF relation as the NFR of singleton tuples — the starting
    /// point of every composition sequence (§3.2).
    pub fn from_flat(flat: &FlatRelation) -> Self {
        let tuples = flat.rows().map(NfTuple::from_flat).collect();
        Self {
            schema: flat.schema().clone(),
            tuples,
        }
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The degree `n`.
    pub fn arity(&self) -> usize {
        self.schema.arity()
    }

    /// The NF² tuples (order not significant).
    pub fn tuples(&self) -> &[NfTuple] {
        &self.tuples
    }

    /// Number of NF² tuples.
    pub fn tuple_count(&self) -> usize {
        self.tuples.len()
    }

    /// Number of flat tuples represented (`|R*|`), without materialising
    /// the expansion.
    pub fn flat_count(&self) -> u128 {
        self.tuples.iter().map(NfTuple::expansion_count).sum()
    }

    /// Whether the relation represents no flat tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Theorem 1 — the unique underlying 1NF relation `R*`.
    pub fn expand(&self) -> FlatRelation {
        let count = usize::try_from(self.flat_count()).expect("an expansion that fits in memory");
        let mut rows = RowBlock::with_capacity(self.schema.clone(), count);
        for t in &self.tuples {
            rows.push_expansion(t.as_ref())
                .expect("every tuple has the schema's arity");
        }
        let flat = FlatRelation::from_block(&rows);
        debug_assert_eq!(
            flat.len(),
            count,
            "partition invariant: disjoint expansions"
        );
        flat
    }

    /// Whether some tuple's expansion contains `flat`.
    pub fn contains_flat(&self, flat: &[Atom]) -> bool {
        self.find_containing(flat).is_some()
    }

    /// Index of the (unique, by disjointness) tuple containing `flat` —
    /// the paper's `searcht`.
    pub fn find_containing(&self, flat: &[Atom]) -> Option<usize> {
        self.tuples.iter().position(|t| t.contains_flat(flat))
    }

    /// Validates the representation invariants:
    /// 1. every tuple has the schema's arity;
    /// 2. no two identical tuples;
    /// 3. expansions are pairwise disjoint (the partition invariant, D1).
    ///
    /// Two tuples overlap only if they share a value on *every*
    /// attribute, so comparing the tuples that share a value on *one*
    /// attribute finds every conflict. The check sorts `(value, tuple)`
    /// pairs per attribute, keeps the attribute where the fewest pairs of
    /// tuples share a value, and tests only those pairs: `O(A log A)` in
    /// the number of atoms `A` when tuples rarely share values on that
    /// attribute, and never an expansion. When several pairs conflict,
    /// the error is that of the first pair in tuple order.
    pub fn validate(&self) -> Result<()> {
        let arity = self.schema.arity();
        for t in &self.tuples {
            if t.arity() != arity {
                return Err(NfError::ArityMismatch {
                    expected: arity,
                    got: t.arity(),
                });
            }
        }
        let mut best: Option<(u128, Vec<(Atom, usize)>)> = None;
        for attr in 0..arity {
            let mut keyed: Vec<(Atom, usize)> = self
                .tuples
                .iter()
                .enumerate()
                .flat_map(|(i, t)| t.component(attr).iter().map(move |v| (v, i)))
                .collect();
            keyed.sort_unstable();
            let pairs = keyed
                .chunk_by(|a, b| a.0 == b.0)
                .map(|run| (run.len() as u128).pow(2))
                .sum();
            if best.as_ref().is_none_or(|(fewest, _)| pairs < *fewest) {
                best = Some((pairs, keyed));
            }
        }
        let Some((_, keyed)) = best else {
            // Degree 0: every tuple is the empty tuple.
            return match self.tuples.len() {
                0 | 1 => Ok(()),
                _ => Err(NfError::DuplicateFlatTuple),
            };
        };
        let mut first: Option<(usize, usize)> = None;
        for run in keyed.chunk_by(|a, b| a.0 == b.0) {
            for (at, &(_, i)) in run.iter().enumerate() {
                // Sorted by (value, tuple), so `i < j` throughout.
                for &(_, j) in &run[at + 1..] {
                    if first.is_none_or(|f| (i, j) < f) && self.tuples[i].overlaps(&self.tuples[j])
                    {
                        first = Some((i, j));
                    }
                }
            }
        }
        match first {
            None => Ok(()),
            Some((i, j)) if self.tuples[i] == self.tuples[j] => Err(NfError::DuplicateFlatTuple),
            Some(_) => Err(NfError::OverlappingTuples),
        }
    }

    /// Adds a tuple, enforcing the partition invariant against existing
    /// tuples.
    pub fn push_tuple(&mut self, tuple: NfTuple) -> Result<()> {
        if tuple.arity() != self.schema.arity() {
            return Err(NfError::ArityMismatch {
                expected: self.schema.arity(),
                got: tuple.arity(),
            });
        }
        for t in &self.tuples {
            if t.overlaps(&tuple) {
                return Err(NfError::OverlappingTuples);
            }
        }
        self.tuples.push(tuple);
        Ok(())
    }

    /// Inserts a tuple at position `idx` without the overlap scan;
    /// callers must guarantee the invariant. Ordered maintenance uses
    /// this to keep the vector in the kernel's order.
    pub(crate) fn insert_at(&mut self, idx: usize, tuple: NfTuple) {
        debug_assert_eq!(tuple.arity(), self.schema.arity());
        self.tuples.insert(idx, tuple);
    }

    /// Removes and returns the tuple at `idx`, keeping the order of the
    /// rest.
    pub(crate) fn remove(&mut self, idx: usize) -> NfTuple {
        self.tuples.remove(idx)
    }

    /// Tuples sorted canonically — used for order-insensitive comparison
    /// and stable display.
    pub fn sorted_tuples(&self) -> Vec<NfTuple> {
        let mut ts = self.tuples.clone();
        ts.sort();
        ts
    }

    /// Consumes the relation, yielding its tuples.
    pub fn into_tuples(self) -> Vec<NfTuple> {
        self.tuples
    }
}

impl PartialEq for NfRelation {
    /// Equality as sets of NF² tuples (tuple order is irrelevant).
    fn eq(&self, other: &Self) -> bool {
        self.schema.compatible_with(&other.schema) && self.sorted_tuples() == other.sorted_tuples()
    }
}

impl Eq for NfRelation {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::ValueSet;
    use crate::value::Atom;

    fn schema2() -> Arc<Schema> {
        Schema::new("R", &["A", "B"]).unwrap()
    }

    fn vs(ids: &[u32]) -> ValueSet {
        ValueSet::new(ids.iter().map(|&i| Atom(i)).collect()).unwrap()
    }

    fn t(comps: &[&[u32]]) -> NfTuple {
        NfTuple::new(comps.iter().map(|c| vs(c)).collect())
    }

    fn flat(rows: &[&[u32]]) -> FlatRelation {
        FlatRelation::from_rows(
            schema2(),
            rows.iter().map(|r| r.iter().map(|&v| Atom(v)).collect()),
        )
        .unwrap()
    }

    #[test]
    fn flat_relation_is_a_set() {
        let r = flat(&[&[2, 10], &[1, 10], &[1, 10]]);
        assert_eq!(
            r,
            flat(&[&[1, 10], &[2, 10]]),
            "repeats and order forgotten"
        );
        assert!(r.contains(&[Atom(2), Atom(10)]) && !r.contains(&[Atom(2), Atom(5)]));
        assert!(!r.contains(&[Atom(1)]), "a row of another arity");
    }

    #[test]
    fn flat_relation_checks_arity() {
        assert!(FlatRelation::from_rows(schema2(), [vec![Atom(1)]]).is_err());
        let unit = FlatRelation::from_rows(Schema::new("U", &[]).unwrap(), [vec![], vec![]]);
        assert_eq!(unit.unwrap().len(), 1, "the one empty row");
    }

    #[test]
    fn from_flat_gives_singletons() {
        let f = flat(&[&[1, 10], &[2, 20]]);
        let nfr = NfRelation::from_flat(&f);
        assert_eq!(nfr.tuple_count(), 2);
        assert!(nfr.tuples().iter().all(NfTuple::is_flat));
        assert_eq!(nfr.flat_count(), 2);
    }

    #[test]
    fn theorem1_expand_round_trips() {
        // Composition preserves R*: any NFR expands back to the original
        // 1NF relation, and that expansion is unique.
        let f = flat(&[&[1, 10], &[2, 10], &[1, 20]]);
        let nfr = NfRelation::from_tuples(schema2(), vec![t(&[&[1, 2], &[10]]), t(&[&[1], &[20]])])
            .unwrap();
        assert_eq!(nfr.expand(), f);
    }

    #[test]
    fn validate_rejects_overlap() {
        let bad =
            NfRelation::from_tuples(schema2(), vec![t(&[&[1, 2], &[10]]), t(&[&[2, 3], &[10]])]);
        assert_eq!(bad.unwrap_err(), NfError::OverlappingTuples);
    }

    #[test]
    fn validate_rejects_duplicates() {
        let bad = NfRelation::from_tuples(schema2(), vec![t(&[&[1], &[10]]), t(&[&[1], &[10]])]);
        assert!(bad.is_err());
    }

    #[test]
    fn validate_rejects_wrong_arity() {
        let bad = NfRelation::from_tuples(schema2(), vec![NfTuple::from_flat(&[Atom(1)])]);
        assert_eq!(
            bad.unwrap_err(),
            NfError::ArityMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    fn validate_never_expands_fat_tuples() {
        // Two rectangles of 2 000³ = 8·10⁹ flat tuples each, identical on
        // two attributes and disjoint on the third: any check that
        // expanded them would not return.
        let s = Schema::new("R", &["A", "B", "C"]).unwrap();
        let span = |from: u32| -> Vec<u32> { (from..from + 2_000).collect() };
        let fat = |c_from: u32| t(&[&span(0), &span(0), &span(c_from)]);
        let disjoint = NfRelation::from_tuples(s.clone(), vec![fat(0), fat(2_000)]).unwrap();
        assert_eq!(disjoint.flat_count(), 16_000_000_000);
        // Slide the second rectangle one value back and they share 2 000²
        // flat tuples.
        let overlapping = NfRelation::from_tuples(s, vec![fat(0), fat(1_999)]);
        assert_eq!(overlapping.unwrap_err(), NfError::OverlappingTuples);
    }

    #[test]
    fn from_disjoint_tuples_checks_arity_only() {
        let ok =
            NfRelation::from_disjoint_tuples(schema2(), vec![t(&[&[1], &[10]]), t(&[&[2], &[20]])])
                .unwrap();
        assert_eq!(ok.tuple_count(), 2);
        assert!(ok.validate().is_ok());
        let bad = NfRelation::from_disjoint_tuples(schema2(), vec![NfTuple::from_flat(&[Atom(1)])]);
        assert!(bad.is_err(), "arity is still enforced");
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "partition invariant")]
    fn from_disjoint_tuples_debug_asserts_disjointness() {
        // Release builds trust the caller; debug builds catch the lie.
        let _ = NfRelation::from_disjoint_tuples(
            schema2(),
            vec![t(&[&[1, 2], &[10]]), t(&[&[2], &[10]])],
        );
    }

    #[test]
    fn push_tuple_guards_invariant() {
        let mut r = NfRelation::new(schema2());
        r.push_tuple(t(&[&[1, 2], &[10]])).unwrap();
        assert_eq!(
            r.push_tuple(t(&[&[2], &[10, 20]])),
            Err(NfError::OverlappingTuples)
        );
        r.push_tuple(t(&[&[3], &[10]])).unwrap();
        assert_eq!(r.tuple_count(), 2);
    }

    #[test]
    fn find_containing_locates_the_unique_tuple() {
        let r =
            NfRelation::from_tuples(schema2(), vec![t(&[&[1, 2], &[10]]), t(&[&[3], &[10, 20]])])
                .unwrap();
        assert_eq!(r.find_containing(&[Atom(2), Atom(10)]), Some(0));
        assert_eq!(r.find_containing(&[Atom(3), Atom(20)]), Some(1));
        assert_eq!(r.find_containing(&[Atom(9), Atom(10)]), None);
        assert!(r.contains_flat(&[Atom(1), Atom(10)]));
    }

    #[test]
    fn equality_ignores_tuple_order() {
        let a =
            NfRelation::from_tuples(schema2(), vec![t(&[&[1], &[10]]), t(&[&[2], &[20]])]).unwrap();
        let b =
            NfRelation::from_tuples(schema2(), vec![t(&[&[2], &[20]]), t(&[&[1], &[10]])]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn flat_count_avoids_materialising() {
        let r = NfRelation::from_tuples(
            schema2(),
            vec![t(&[&[1, 2, 3], &[10, 20]]), t(&[&[4], &[30]])],
        )
        .unwrap();
        assert_eq!(r.flat_count(), 7);
        assert_eq!(r.expand().len(), 7);
    }
}
