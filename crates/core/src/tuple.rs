//! NF² tuples and their expansion semantics.
//!
//! An NF² tuple `[E1(e11, …, e1m1) … En(en1, …, enmn)]` (§3.1) carries a
//! non-empty *set* of atomic values per attribute. Its meaning is the set of
//! all flat (1NF) tuples obtainable by picking one value per component — the
//! Cartesian product of its components. Geometrically each NF² tuple is a
//! combinatorial *rectangle* inside the flat relation `R*`.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use crate::error::{NfError, Result};
use crate::relation::NfRelation;
use crate::value::Atom;

/// A flat (1NF) tuple: one atom per attribute.
pub type FlatTuple = Vec<Atom>;

/// How many atoms a [`ValueSet`] holds in the value itself. Four covers
/// every component of the tables we serve (Fig. 1's shape: one student,
/// 1–4 courses, 1–3 clubs) and keeps the set at three words.
const INLINE_CAP: usize = 4;

/// A non-empty, sorted, duplicate-free set of atoms — one component of an
/// NF² tuple. Immutable once built. A set of up to four atoms lives in
/// the value itself — inside its tuple's component block, so building,
/// cloning or reading it touches no other allocation; a larger one sits
/// in an exactly-sized boxed slice. Which of the two is decided by the
/// size alone (one private constructor, `of_sorted`, ends every route),
/// so equal sets have equal representations.
#[derive(Clone)]
pub struct ValueSet(Repr);

#[derive(Clone)]
enum Repr {
    /// `atoms[..len]` are the members; the rest is padding.
    Inline { len: u8, atoms: [Atom; INLINE_CAP] },
    /// More than `INLINE_CAP` members.
    Heap(Box<[Atom]>),
}

impl ValueSet {
    /// Builds a set from arbitrary values (sorted and deduplicated).
    /// Returns `None` for an empty input: components must be non-empty.
    pub fn new(mut values: Vec<Atom>) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        values.sort_unstable();
        values.dedup();
        Some(Self::of_sorted(values))
    }

    /// A one-element set.
    pub fn singleton(value: Atom) -> Self {
        Self::of_sorted(&[value][..])
    }

    /// Builds a set from values that are already strictly ascending (and
    /// therefore non-empty and duplicate-free) — checked in debug builds.
    /// Every other constructor and set operation ends here, and the nest
    /// kernel, whose folds produce sorted runs by construction, calls it
    /// directly. Takes a slice (copied) or a `Vec` (whose buffer a large
    /// set keeps).
    pub(crate) fn of_sorted<S>(values: S) -> Self
    where
        S: AsRef<[Atom]> + Into<Box<[Atom]>>,
    {
        let sorted = values.as_ref();
        debug_assert!(!sorted.is_empty(), "components must be non-empty");
        debug_assert!(
            sorted.windows(2).all(|w| w[0] < w[1]),
            "values must be strictly ascending"
        );
        if sorted.len() <= INLINE_CAP {
            let mut atoms = [Atom(0); INLINE_CAP];
            atoms[..sorted.len()].copy_from_slice(sorted);
            Self(Repr::Inline {
                len: sorted.len() as u8,
                atoms,
            })
        } else {
            Self(Repr::Heap(values.into()))
        }
    }

    /// Runs a merge walk that writes its ascending output into a scratch
    /// buffer of `bound` atoms and returns how many it wrote; the buffer
    /// is on the stack whenever `bound` is small. `None` when the walk
    /// wrote nothing (components must be non-empty).
    fn collect(bound: usize, walk: impl FnOnce(&mut [Atom]) -> usize) -> Option<ValueSet> {
        if bound <= 2 * INLINE_CAP {
            let mut buf = [Atom(0); 2 * INLINE_CAP];
            let n = walk(&mut buf);
            (n > 0).then(|| Self::of_sorted(&buf[..n]))
        } else {
            let mut buf = vec![Atom(0); bound];
            let n = walk(&mut buf);
            buf.truncate(n);
            (n > 0).then(|| Self::of_sorted(buf))
        }
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// Always `false` by construction; kept for API completeness.
    pub fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Whether the set has exactly one element.
    pub fn is_singleton(&self) -> bool {
        self.len() == 1
    }

    /// The values in ascending order.
    #[inline]
    pub fn as_slice(&self) -> &[Atom] {
        match &self.0 {
            Repr::Inline { len, atoms } => &atoms[..usize::from(*len)],
            Repr::Heap(atoms) => atoms,
        }
    }

    /// Membership test (binary search).
    pub fn contains(&self, value: Atom) -> bool {
        self.as_slice().binary_search(&value).is_ok()
    }

    /// Whether `self ⊆ other`. Each member is searched only in what is
    /// left of `other` past the previous one — a walk when the sets are
    /// of a size, a binary search per member when `self` is the small
    /// one (§4's `candt` asks it of a singleton against a fat component).
    pub fn is_subset_of(&self, other: &ValueSet) -> bool {
        let mut rest = other.as_slice();
        for (i, v) in self.as_slice().iter().enumerate() {
            if self.len() - i > rest.len() {
                return false; // more members left than candidates
            }
            match rest.binary_search(v) {
                Ok(at) => rest = &rest[at + 1..],
                Err(_) => return false,
            }
        }
        true
    }

    /// Whether the two sets share no value.
    pub fn is_disjoint_from(&self, other: &ValueSet) -> bool {
        // Merge walk over the two sorted slices.
        let (a, b) = (self.as_slice(), other.as_slice());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                Ordering::Less => i += 1,
                Ordering::Greater => j += 1,
                Ordering::Equal => return false,
            }
        }
        true
    }

    /// Set union (used by composition, Def. 1).
    pub fn union(&self, other: &ValueSet) -> ValueSet {
        let (a, b) = (self.as_slice(), other.as_slice());
        Self::collect(a.len() + b.len(), |out| {
            let (mut i, mut j, mut n) = (0, 0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    Ordering::Less => {
                        out[n] = a[i];
                        i += 1;
                    }
                    Ordering::Greater => {
                        out[n] = b[j];
                        j += 1;
                    }
                    Ordering::Equal => {
                        out[n] = a[i];
                        i += 1;
                        j += 1;
                    }
                }
                n += 1;
            }
            let tail = if i < a.len() { &a[i..] } else { &b[j..] };
            out[n..n + tail.len()].copy_from_slice(tail);
            n + tail.len()
        })
        .expect("a union of non-empty sets is non-empty")
    }

    /// Set intersection. `None` when empty (components must be non-empty).
    pub fn intersection(&self, other: &ValueSet) -> Option<ValueSet> {
        let (a, b) = (self.as_slice(), other.as_slice());
        Self::collect(a.len().min(b.len()), |out| {
            let (mut i, mut j, mut n) = (0, 0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    Ordering::Less => i += 1,
                    Ordering::Greater => j += 1,
                    Ordering::Equal => {
                        out[n] = a[i];
                        n += 1;
                        i += 1;
                        j += 1;
                    }
                }
            }
            n
        })
    }

    /// Set difference `self \ other`. `None` when empty.
    pub fn difference(&self, other: &ValueSet) -> Option<ValueSet> {
        let (a, b) = (self.as_slice(), other.as_slice());
        Self::collect(a.len(), |out| {
            let (mut i, mut j, mut n) = (0, 0, 0);
            while i < a.len() && j < b.len() {
                match a[i].cmp(&b[j]) {
                    Ordering::Less => {
                        out[n] = a[i];
                        n += 1;
                        i += 1;
                    }
                    Ordering::Greater => j += 1,
                    Ordering::Equal => {
                        i += 1;
                        j += 1;
                    }
                }
            }
            out[n..n + a.len() - i].copy_from_slice(&a[i..]);
            n + a.len() - i
        })
    }

    /// Iterates over the values in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Atom> + '_ {
        self.as_slice().iter().copied()
    }
}

// Equality, order, hash and `Debug` are those of the member slice, so
// they cannot see the inline padding or tell the two representations
// apart.
impl PartialEq for ValueSet {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for ValueSet {}

impl PartialOrd for ValueSet {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ValueSet {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::hash::Hash for ValueSet {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for ValueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("ValueSet").field(&self.as_slice()).finish()
    }
}

impl From<Atom> for ValueSet {
    fn from(a: Atom) -> Self {
        ValueSet::singleton(a)
    }
}

impl fmt::Display for ValueSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.iter().map(|a| a.to_string()).collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

/// An NF² tuple: one [`ValueSet`] per attribute.
///
/// Tuples are immutable and their component block is shared: a clone is
/// a reference-count bump, which is what lets the new chunk of a segment
/// a write rebuilt carry the tuples it kept by handle (see
/// [`crate::segment`]). Collecting an exact-size iterator of
/// [`ValueSet`]s builds the block with one allocation.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NfTuple {
    comps: Arc<[ValueSet]>,
}

impl FromIterator<ValueSet> for NfTuple {
    fn from_iter<I: IntoIterator<Item = ValueSet>>(comps: I) -> Self {
        Self {
            comps: comps.into_iter().collect(),
        }
    }
}

impl NfTuple {
    /// Builds a tuple from components, one per attribute in schema order
    /// (a [`ValueSet`] is non-empty by construction).
    pub fn new(comps: Vec<ValueSet>) -> Self {
        Self {
            comps: comps.into(),
        }
    }

    /// Whether `self` and `other` are the same stored tuple — one shared
    /// component block, not merely equal contents.
    pub fn shares_storage_with(&self, other: &NfTuple) -> bool {
        Arc::ptr_eq(&self.comps, &other.comps)
    }

    /// Builds a tuple from per-attribute value vectors.
    pub fn from_values(values: Vec<Vec<Atom>>) -> Result<Self> {
        let comps = values
            .into_iter()
            .enumerate()
            .map(|(attr, vs)| ValueSet::new(vs).ok_or(NfError::EmptyValueSet { attr }))
            .collect::<Result<Vec<_>>>()?;
        Ok(Self::new(comps))
    }

    /// Lifts a flat tuple into an NF² tuple of singletons.
    pub fn from_flat(flat: &[Atom]) -> Self {
        flat.iter().map(|&a| ValueSet::singleton(a)).collect()
    }

    /// The paper's degree `n`.
    pub fn arity(&self) -> usize {
        self.comps.len()
    }

    /// The component of attribute `attr` — the paper's `π(r, Ek)`.
    pub fn component(&self, attr: usize) -> &ValueSet {
        &self.comps[attr]
    }

    /// All components in attribute order.
    pub fn components(&self) -> &[ValueSet] {
        &self.comps
    }

    /// Replaces the component of `attr`, returning a new tuple.
    pub fn with_component(&self, attr: usize, set: ValueSet) -> NfTuple {
        assert!(attr < self.arity(), "attribute {attr} out of bounds");
        let mut set = Some(set);
        self.comps
            .iter()
            .enumerate()
            .map(|(a, c)| {
                if a == attr {
                    set.take()
                        .expect("each attribute index is visited exactly once")
                } else {
                    c.clone()
                }
            })
            .collect()
    }

    /// Number of flat tuples this tuple represents (product of component
    /// sizes). Saturates at `u128::MAX`.
    pub fn expansion_count(&self) -> u128 {
        self.comps
            .iter()
            .fold(1u128, |acc, c| acc.saturating_mul(c.len() as u128))
    }

    /// Whether every component is a singleton (the tuple is flat).
    pub fn is_flat(&self) -> bool {
        self.comps.iter().all(ValueSet::is_singleton)
    }

    /// Converts to a flat tuple if every component is a singleton.
    pub fn to_flat(&self) -> Option<FlatTuple> {
        if !self.is_flat() {
            return None;
        }
        Some(self.comps.iter().map(|c| c.as_slice()[0]).collect())
    }

    /// Whether the flat tuple `flat` lies inside this rectangle.
    pub fn contains_flat(&self, flat: &[Atom]) -> bool {
        debug_assert_eq!(flat.len(), self.arity());
        self.comps.iter().zip(flat).all(|(c, &v)| c.contains(v))
    }

    /// Whether the expansions of `self` and `other` intersect — true iff
    /// every pair of corresponding components intersects.
    pub fn overlaps(&self, other: &NfTuple) -> bool {
        debug_assert_eq!(self.arity(), other.arity());
        self.comps
            .iter()
            .zip(other.comps.iter())
            .all(|(a, b)| !a.is_disjoint_from(b))
    }

    /// Whether `self`'s expansion is a subset of `other`'s (componentwise
    /// inclusion).
    pub fn is_contained_in(&self, other: &NfTuple) -> bool {
        debug_assert_eq!(self.arity(), other.arity());
        self.comps
            .iter()
            .zip(other.comps.iter())
            .all(|(a, b)| a.is_subset_of(b))
    }

    /// Whether the two tuples are set-theoretically equal on every
    /// attribute except `except` (the precondition of Def. 1).
    pub fn agrees_except(&self, other: &NfTuple, except: usize) -> bool {
        debug_assert_eq!(self.arity(), other.arity());
        self.comps
            .iter()
            .zip(other.comps.iter())
            .enumerate()
            .all(|(i, (a, b))| i == except || a == b)
    }

    /// Iterates over the flat tuples of the expansion in lexicographic
    /// order (odometer over the sorted components). The zero-arity
    /// tuple, an empty product, expands to the one empty row, as
    /// [`expansion_count`](Self::expansion_count) counts it.
    pub fn expand(&self) -> ExpansionIter<'_> {
        ExpansionIter {
            tuple: self,
            indices: vec![0; self.comps.len()],
            done: false,
        }
    }
}

/// Iterator over the expansion of an [`NfTuple`]; see [`NfTuple::expand`].
pub struct ExpansionIter<'a> {
    tuple: &'a NfTuple,
    indices: Vec<usize>,
    done: bool,
}

impl Iterator for ExpansionIter<'_> {
    type Item = FlatTuple;

    fn next(&mut self) -> Option<FlatTuple> {
        if self.done {
            return None;
        }
        let flat: FlatTuple = self
            .indices
            .iter()
            .zip(self.tuple.comps.iter())
            .map(|(&i, c)| c.as_slice()[i])
            .collect();
        // Advance the odometer from the last attribute.
        let mut pos = self.indices.len();
        loop {
            if pos == 0 {
                self.done = true;
                break;
            }
            pos -= 1;
            self.indices[pos] += 1;
            if self.indices[pos] < self.tuple.comps[pos].len() {
                break;
            }
            self.indices[pos] = 0;
        }
        Some(flat)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            return (0, Some(0));
        }
        let total = self.tuple.expansion_count();
        let hint = usize::try_from(total).ok();
        (hint.unwrap_or(usize::MAX), hint)
    }
}

/// A pinned, immutable tuple store that snapshot scans can hold by
/// `Arc` — the backing object of [`TupleView::Shared`].
///
/// Implementors promise the slice returned by [`tuples`](Self::tuples)
/// never changes for the lifetime of the value. Two qualify: a shard's
/// [`Segment`](crate::segment::Segment), whose chunk a table scan yields
/// from — so a view pins the one chunk its tuple lives in, not the shard
/// version — and a materialized [`NfRelation`]. Mutable buffers do not.
pub trait TupleStore: Send + Sync + std::fmt::Debug {
    /// The immutable tuples backing views into this store.
    fn tuples(&self) -> &[NfTuple];
}

impl TupleStore for NfRelation {
    fn tuples(&self) -> &[NfTuple] {
        NfRelation::tuples(self)
    }
}

/// A possibly-borrowed NF² tuple — the item type of streaming cursors.
///
/// Iterator pipelines over stored relations yield tuples straight out of
/// the table (`Borrowed` when the source is a plain reference, `Shared`
/// when it is an `Arc`-pinned segment of an MVCC snapshot — both
/// zero-copy)
/// until an operator has to rewrite a component (selection narrowing a
/// value set, a join combining two rectangles), at which point the tuple
/// becomes `Owned`. Consumers that only *read* never pay for a clone;
/// [`TupleView::into_owned`] converts on demand.
#[derive(Debug, Clone)]
pub enum TupleView<'a> {
    /// A tuple borrowed from its relation — no copy was made.
    Borrowed(&'a NfTuple),
    /// A tuple inside an `Arc`-pinned store (a segment of an MVCC
    /// snapshot) — no copy was made; the view keeps that store alive.
    Shared {
        /// The pinned store the tuple lives in.
        store: std::sync::Arc<dyn TupleStore>,
        /// Index of the tuple within [`TupleStore::tuples`].
        idx: usize,
    },
    /// A tuple computed by the pipeline (selection, join, …).
    Owned(NfTuple),
}

impl<'a> TupleView<'a> {
    /// A view of tuple `idx` inside a pinned store.
    ///
    /// The returned view has an unconstrained lifetime (it owns its
    /// `Arc`), so it coerces into any `TupleView<'a>` stream.
    pub fn shared(store: std::sync::Arc<dyn TupleStore>, idx: usize) -> TupleView<'static> {
        debug_assert!(idx < store.tuples().len(), "shared view out of bounds");
        TupleView::Shared { store, idx }
    }

    /// A shared reference to the underlying tuple.
    pub fn as_tuple(&self) -> &NfTuple {
        match self {
            TupleView::Borrowed(t) => t,
            TupleView::Shared { store, idx } => &store.tuples()[*idx],
            TupleView::Owned(t) => t,
        }
    }

    /// Converts into an owned tuple, cloning only if still zero-copy.
    pub fn into_owned(self) -> NfTuple {
        match self {
            TupleView::Borrowed(t) => t.clone(),
            TupleView::Shared { store, idx } => store.tuples()[idx].clone(),
            TupleView::Owned(t) => t,
        }
    }

    /// Whether this view still borrows from the source relation.
    pub fn is_borrowed(&self) -> bool {
        matches!(self, TupleView::Borrowed(_))
    }

    /// Whether this view reads the stored tuple in place (`Borrowed` or
    /// `Shared`) rather than a pipeline-built copy.
    pub fn is_zero_copy(&self) -> bool {
        !matches!(self, TupleView::Owned(_))
    }
}

impl PartialEq for TupleView<'_> {
    /// Equality on the underlying tuple, ignoring ownership.
    fn eq(&self, other: &Self) -> bool {
        self.as_tuple() == other.as_tuple()
    }
}

impl Eq for TupleView<'_> {}

impl std::ops::Deref for TupleView<'_> {
    type Target = NfTuple;

    fn deref(&self) -> &NfTuple {
        self.as_tuple()
    }
}

impl<'a> From<&'a NfTuple> for TupleView<'a> {
    fn from(t: &'a NfTuple) -> Self {
        TupleView::Borrowed(t)
    }
}

impl From<NfTuple> for TupleView<'_> {
    fn from(t: NfTuple) -> Self {
        TupleView::Owned(t)
    }
}

impl fmt::Display for NfTuple {
    /// Paper notation: `[E0(a, b) E1(c)]` with numeric atom ids.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.comps.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            let vals: Vec<String> = c.iter().map(|a| a.to_string()).collect();
            write!(f, "E{i}({})", vals.join(", "))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(id: u32) -> Atom {
        Atom(id)
    }

    fn vs(ids: &[u32]) -> ValueSet {
        ValueSet::new(ids.iter().map(|&i| Atom(i)).collect()).unwrap()
    }

    #[test]
    fn tuple_view_borrow_and_own() {
        let t = NfTuple::new(vec![vs(&[1, 2]), vs(&[10])]);
        let borrowed = TupleView::from(&t);
        assert!(borrowed.is_borrowed());
        assert_eq!(borrowed.arity(), 2, "Deref reaches NfTuple methods");
        assert_eq!(borrowed.as_tuple(), &t);
        let owned = TupleView::from(t.clone());
        assert!(!owned.is_borrowed());
        assert_eq!(borrowed, owned, "equality compares the tuples");
        assert_eq!(owned.into_owned(), t);
        assert_eq!(TupleView::from(&t).into_owned(), t);
    }

    #[test]
    fn value_set_sorts_and_dedups() {
        let s = vs(&[3, 1, 2, 1]);
        assert_eq!(s.as_slice(), &[a(1), a(2), a(3)]);
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn value_set_rejects_empty() {
        assert!(ValueSet::new(vec![]).is_none());
    }

    #[test]
    fn value_set_membership_and_subset() {
        let s = vs(&[1, 3, 5]);
        assert!(s.contains(a(3)));
        assert!(!s.contains(a(2)));
        assert!(vs(&[1, 5]).is_subset_of(&s));
        assert!(!vs(&[1, 2]).is_subset_of(&s));
        assert!(!vs(&[1, 3, 5, 7]).is_subset_of(&s));
    }

    #[test]
    fn value_set_disjointness() {
        assert!(vs(&[1, 3]).is_disjoint_from(&vs(&[2, 4])));
        assert!(!vs(&[1, 3]).is_disjoint_from(&vs(&[3])));
    }

    #[test]
    fn value_set_union_intersection_difference() {
        let x = vs(&[1, 2, 4]);
        let y = vs(&[2, 3]);
        assert_eq!(x.union(&y), vs(&[1, 2, 3, 4]));
        assert_eq!(x.intersection(&y), Some(vs(&[2])));
        assert_eq!(x.intersection(&vs(&[9])), None);
        assert_eq!(x.difference(&y), Some(vs(&[1, 4])));
        assert_eq!(x.difference(&x), None);
    }

    #[test]
    fn a_component_is_three_words_and_a_tuple_two() {
        // Up to INLINE_CAP atoms and their count fit beside the boxed
        // slice's two words; a tuple is the fat pointer to its block.
        assert!(std::mem::size_of::<ValueSet>() <= 24);
        assert_eq!(std::mem::size_of::<NfTuple>(), 16);
    }

    #[test]
    fn representation_follows_size_alone() {
        let small = vs(&[1, 2, 3, 4]);
        let big = vs(&[1, 2, 3, 4, 5]);
        assert!(matches!(small.0, Repr::Inline { len: 4, .. }));
        assert!(matches!(big.0, Repr::Heap(_)));
        // A result that shrinks below the capacity comes back inline,
        // one that grows past it moves out.
        let shrunk = big.difference(&vs(&[5])).unwrap();
        assert!(matches!(shrunk.0, Repr::Inline { .. }));
        assert_eq!(shrunk, small);
        assert!(matches!(small.union(&vs(&[5])).0, Repr::Heap(_)));
    }

    #[test]
    fn singleton_checks() {
        assert!(vs(&[7]).is_singleton());
        assert!(!vs(&[7, 8]).is_singleton());
        assert_eq!(ValueSet::from(a(7)), vs(&[7]));
    }

    #[test]
    fn tuple_from_flat_and_back() {
        let t = NfTuple::from_flat(&[a(1), a(2)]);
        assert!(t.is_flat());
        assert_eq!(t.to_flat(), Some(vec![a(1), a(2)]));
        assert_eq!(t.expansion_count(), 1);
    }

    #[test]
    fn tuple_from_values_rejects_empty_component() {
        assert!(NfTuple::from_values(vec![vec![a(1)], vec![]]).is_err());
    }

    #[test]
    fn expansion_count_is_product() {
        let t = NfTuple::new(vec![vs(&[1, 2]), vs(&[3, 4, 5])]);
        assert_eq!(t.expansion_count(), 6);
        assert!(!t.is_flat());
        assert_eq!(t.to_flat(), None);
    }

    #[test]
    fn expansion_enumerates_cartesian_product() {
        // The paper's example: [A(a1, a2) B(b1)] means {(a1,b1), (a2,b1)}.
        let t = NfTuple::new(vec![vs(&[1, 2]), vs(&[10])]);
        let flats: Vec<FlatTuple> = t.expand().collect();
        assert_eq!(flats, vec![vec![a(1), a(10)], vec![a(2), a(10)]]);
    }

    #[test]
    fn the_zero_arity_tuple_expands_to_the_empty_row() {
        let unit = NfTuple::new(vec![]);
        assert_eq!(unit.expansion_count(), 1);
        assert_eq!(unit.expand().collect::<Vec<_>>(), vec![FlatTuple::new()]);
    }

    #[test]
    fn expansion_is_lexicographic_and_complete() {
        let t = NfTuple::new(vec![vs(&[1, 2]), vs(&[3, 4]), vs(&[5])]);
        let flats: Vec<FlatTuple> = t.expand().collect();
        assert_eq!(flats.len(), 4);
        let mut sorted = flats.clone();
        sorted.sort();
        assert_eq!(flats, sorted, "odometer order is lexicographic");
    }

    #[test]
    fn contains_flat_checks_membership() {
        let t = NfTuple::new(vec![vs(&[1, 2]), vs(&[3])]);
        assert!(t.contains_flat(&[a(1), a(3)]));
        assert!(!t.contains_flat(&[a(1), a(4)]));
    }

    #[test]
    fn overlap_requires_all_components_to_intersect() {
        let t = NfTuple::new(vec![vs(&[1, 2]), vs(&[3])]);
        let u = NfTuple::new(vec![vs(&[2]), vs(&[4])]);
        assert!(!t.overlaps(&u), "B components are disjoint");
        let v = NfTuple::new(vec![vs(&[2]), vs(&[3, 4])]);
        assert!(t.overlaps(&v));
    }

    #[test]
    fn containment_is_componentwise() {
        let small = NfTuple::new(vec![vs(&[1]), vs(&[3])]);
        let big = NfTuple::new(vec![vs(&[1, 2]), vs(&[3, 4])]);
        assert!(small.is_contained_in(&big));
        assert!(!big.is_contained_in(&small));
    }

    #[test]
    fn agrees_except_matches_def1_precondition() {
        // t1 = [A(a1,a2) B(b1,b2) C(c1)], t2 = [A(a1,a2) B(b3) C(c1)] —
        // the paper's §3.2 example: composable over B.
        let t1 = NfTuple::new(vec![vs(&[1, 2]), vs(&[11, 12]), vs(&[21])]);
        let t2 = NfTuple::new(vec![vs(&[1, 2]), vs(&[13]), vs(&[21])]);
        assert!(t1.agrees_except(&t2, 1));
        assert!(!t1.agrees_except(&t2, 0));
        assert!(!t1.agrees_except(&t2, 2));
    }

    #[test]
    fn with_component_replaces() {
        let t = NfTuple::new(vec![vs(&[1]), vs(&[2])]);
        let u = t.with_component(1, vs(&[5, 6]));
        assert_eq!(u.component(1), &vs(&[5, 6]));
        assert_eq!(t.component(1), &vs(&[2]), "original untouched");
    }

    #[test]
    fn display_uses_paper_notation() {
        let t = NfTuple::new(vec![vs(&[1, 2]), vs(&[3])]);
        assert_eq!(t.to_string(), "[E0(@1, @2) E1(@3)]");
    }
}
