//! NF² tuples and their expansion semantics.
//!
//! An NF² tuple `[E1(e11, …, e1m1) … En(en1, …, enmn)]` (§3.1) carries a
//! non-empty *set* of atomic values per attribute. Its meaning is the set of
//! all flat (1NF) tuples obtainable by picking one value per component — the
//! Cartesian product of its components. Geometrically each NF² tuple is a
//! combinatorial *rectangle* inside the flat relation `R*`.

use std::cell::OnceCell;
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
            // `INLINE_CAP` guarded stores, unrolled: a copy of a length
            // known only at run time would be a call to `memcpy`.
            let mut atoms = [Atom(0); INLINE_CAP];
            for (at, slot) in atoms.iter_mut().enumerate() {
                if let Some(&atom) = sorted.get(at) {
                    *slot = atom;
                }
            }
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

    /// The set borrowed: what every set operation runs on.
    #[inline]
    pub fn as_ref(&self) -> SetRef<'_> {
        SetRef(self.as_slice())
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
    #[inline]
    pub fn contains(&self, value: Atom) -> bool {
        self.as_ref().contains(value)
    }

    /// Whether `self ⊆ other` ([`SetRef::is_subset_of`]).
    pub fn is_subset_of<'b>(&self, other: impl Into<SetRef<'b>>) -> bool {
        self.as_ref().is_subset_of(other)
    }

    /// Whether the two sets share no value.
    pub fn is_disjoint_from<'b>(&self, other: impl Into<SetRef<'b>>) -> bool {
        self.as_ref().is_disjoint_from(other)
    }

    /// Set union (used by composition, Def. 1).
    pub fn union<'b>(&self, other: impl Into<SetRef<'b>>) -> ValueSet {
        self.as_ref().union(other)
    }

    /// Set intersection. `None` when empty (components must be non-empty).
    pub fn intersection<'b>(&self, other: impl Into<SetRef<'b>>) -> Option<ValueSet> {
        self.as_ref().intersection(other)
    }

    /// Set difference `self \ other`. `None` when empty.
    pub fn difference<'b>(&self, other: impl Into<SetRef<'b>>) -> Option<ValueSet> {
        self.as_ref().difference(other)
    }

    /// Iterates over the values in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Atom> + '_ {
        self.as_slice().iter().copied()
    }
}

/// A borrowed value set: the members of one component, ascending,
/// wherever they are stored — a [`ValueSet`], or a range of a segment's
/// atoms. Every set operation is defined here once, and [`ValueSet`]'s
/// own methods call these.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct SetRef<'a>(&'a [Atom]);

impl<'a> SetRef<'a> {
    /// The values in ascending order.
    #[inline]
    pub fn as_slice(self) -> &'a [Atom] {
        self.0
    }

    /// Number of values.
    #[inline]
    pub fn len(self) -> usize {
        self.0.len()
    }

    /// Always `false` by construction; kept for API completeness.
    pub fn is_empty(self) -> bool {
        self.0.is_empty()
    }

    /// Whether the set has exactly one element.
    pub fn is_singleton(self) -> bool {
        self.0.len() == 1
    }

    /// Iterates over the values in ascending order.
    pub fn iter(self) -> std::iter::Copied<std::slice::Iter<'a, Atom>> {
        self.0.iter().copied()
    }

    /// An owned copy of the set.
    #[inline]
    pub fn to_set(self) -> ValueSet {
        ValueSet::of_sorted(self.0)
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(self, value: Atom) -> bool {
        self.0.binary_search(&value).is_ok()
    }

    /// Whether `self ⊆ other`. Each member is searched only in what is
    /// left of `other` past the previous one — a walk when the sets are
    /// of a size, a binary search per member when `self` is the small
    /// one (§4's `candt` asks it of a singleton against a fat component).
    pub fn is_subset_of<'b>(self, other: impl Into<SetRef<'b>>) -> bool {
        let mut rest = other.into().0;
        for (i, v) in self.0.iter().enumerate() {
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
    pub fn is_disjoint_from<'b>(self, other: impl Into<SetRef<'b>>) -> bool {
        // Merge walk over the two sorted slices.
        let (a, b) = (self.0, other.into().0);
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
    pub fn union<'b>(self, other: impl Into<SetRef<'b>>) -> ValueSet {
        let (a, b) = (self.0, other.into().0);
        ValueSet::collect(a.len() + b.len(), |out| {
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
    pub fn intersection<'b>(self, other: impl Into<SetRef<'b>>) -> Option<ValueSet> {
        let (a, b) = (self.0, other.into().0);
        ValueSet::collect(a.len().min(b.len()), |out| {
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
    pub fn difference<'b>(self, other: impl Into<SetRef<'b>>) -> Option<ValueSet> {
        let (a, b) = (self.0, other.into().0);
        ValueSet::collect(a.len(), |out| {
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
}

impl<'a> From<&'a ValueSet> for SetRef<'a> {
    #[inline]
    fn from(set: &'a ValueSet) -> Self {
        set.as_ref()
    }
}

impl PartialEq<ValueSet> for SetRef<'_> {
    fn eq(&self, other: &ValueSet) -> bool {
        self.0 == other.as_slice()
    }
}

impl PartialEq<SetRef<'_>> for ValueSet {
    fn eq(&self, other: &SetRef<'_>) -> bool {
        self.as_slice() == other.0
    }
}

impl fmt::Debug for SetRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("SetRef").field(&self.0).finish()
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

/// An NF² tuple: one [`ValueSet`] per attribute — the owned tuple that
/// σ, joins, the kernel and §4 maintenance build.
///
/// Tuples are immutable and their component block is shared, so a
/// clone is a reference-count bump. A tuple stored in a table is not an
/// `NfTuple`: a segment holds its chunk's tuples as one run of atoms
/// (see [`crate::segment`]) and hands each out as a [`TupleRef`], which
/// [`as_ref`](Self::as_ref) gives for an owned tuple too. Collecting an
/// exact-size iterator of [`ValueSet`]s builds the block with one
/// allocation.
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

    /// The tuple borrowed: what every tuple-level read runs on.
    #[inline]
    pub fn as_ref(&self) -> TupleRef<'_> {
        TupleRef(RefRepr::Sets(&self.comps))
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
        self.as_ref().with_component(attr, set)
    }

    /// Number of flat tuples this tuple represents (product of component
    /// sizes). Saturates at `u128::MAX`.
    pub fn expansion_count(&self) -> u128 {
        self.as_ref().expansion_count()
    }

    /// Whether every component is a singleton (the tuple is flat).
    pub fn is_flat(&self) -> bool {
        self.as_ref().is_flat()
    }

    /// Converts to a flat tuple if every component is a singleton.
    pub fn to_flat(&self) -> Option<FlatTuple> {
        self.as_ref().to_flat()
    }

    /// Whether the flat tuple `flat` lies inside this rectangle.
    pub fn contains_flat(&self, flat: &[Atom]) -> bool {
        self.as_ref().contains_flat(flat)
    }

    /// Whether the expansions of `self` and `other` intersect — true iff
    /// every pair of corresponding components intersects.
    pub fn overlaps(&self, other: &NfTuple) -> bool {
        self.as_ref().overlaps(other.as_ref())
    }

    /// Whether `self`'s expansion is a subset of `other`'s (componentwise
    /// inclusion).
    pub fn is_contained_in(&self, other: &NfTuple) -> bool {
        self.as_ref().is_contained_in(other.as_ref())
    }

    /// Whether the two tuples are set-theoretically equal on every
    /// attribute except `except` (the precondition of Def. 1).
    pub fn agrees_except(&self, other: &NfTuple, except: usize) -> bool {
        self.as_ref().agrees_except(other.as_ref(), except)
    }
}

/// A borrowed NF² tuple: an owned [`NfTuple`]'s components, or a tuple
/// stored in a segment's chunk — its sets as ranges of the chunk's
/// atoms, read in place. Every tuple-level read (components, expansion,
/// the containment and overlap tests) is defined here once, so a scan
/// reads a stored tuple exactly as it reads one a pipeline built;
/// [`into_owned`](Self::into_owned) builds an `NfTuple` where one has
/// to be kept.
#[derive(Clone, Copy)]
pub struct TupleRef<'a>(RefRepr<'a>);

#[derive(Clone, Copy)]
enum RefRepr<'a> {
    /// An owned tuple's component block.
    Sets(&'a [ValueSet]),
    /// A tuple of a chunk: its set of attribute `a` is
    /// `atoms[offsets[a]..offsets[a + 1]]`.
    Packed {
        offsets: &'a [u32],
        atoms: &'a [Atom],
    },
}

impl<'a> TupleRef<'a> {
    /// The tuple whose `arity + 1` set `offsets` bound its sets in
    /// `atoms` — a chunk's tuple, laid out as the chunk builds it.
    #[inline]
    pub(crate) fn packed(offsets: &'a [u32], atoms: &'a [Atom]) -> Self {
        debug_assert!(!offsets.is_empty(), "a tuple's sets have arity + 1 offsets");
        TupleRef(RefRepr::Packed { offsets, atoms })
    }

    /// The paper's degree `n`.
    #[inline]
    pub fn arity(self) -> usize {
        match self.0 {
            RefRepr::Sets(comps) => comps.len(),
            RefRepr::Packed { offsets, .. } => offsets.len() - 1,
        }
    }

    /// The component of attribute `attr` — the paper's `π(r, Ek)`.
    /// Always inlined: a scan's per-tuple step reads a few of these, and
    /// as a call each would cost more than the two loads it is.
    #[inline(always)]
    pub fn component(self, attr: usize) -> SetRef<'a> {
        match self.0 {
            RefRepr::Sets(comps) => comps[attr].as_ref(),
            RefRepr::Packed { offsets, atoms } => {
                SetRef(&atoms[offsets[attr] as usize..offsets[attr + 1] as usize])
            }
        }
    }

    /// All components in attribute order.
    #[inline]
    pub fn components(
        self,
    ) -> impl ExactSizeIterator<Item = SetRef<'a>> + DoubleEndedIterator + Clone + 'a {
        (0..self.arity()).map(move |attr| self.component(attr))
    }

    /// Every atom of the tuple, set after set: what a chunk stores of
    /// it. Zero for the zero-arity tuple.
    pub fn atom_count(self) -> usize {
        self.components().map(SetRef::len).sum()
    }

    /// An owned copy: one component block.
    pub fn into_owned(self) -> NfTuple {
        self.components().map(SetRef::to_set).collect()
    }

    /// An owned copy with the component of `attr` replaced.
    pub fn with_component(self, attr: usize, set: ValueSet) -> NfTuple {
        assert!(attr < self.arity(), "attribute {attr} out of bounds");
        let mut set = Some(set);
        self.components()
            .enumerate()
            .map(|(a, c)| {
                if a == attr {
                    set.take()
                        .expect("each attribute index is visited exactly once")
                } else {
                    c.to_set()
                }
            })
            .collect()
    }

    /// Number of flat tuples this tuple represents (product of component
    /// sizes). Saturates at `u128::MAX`. Reads only the sets' sizes: a
    /// stored tuple's are its offsets' differences, and its atoms are
    /// not touched.
    pub fn expansion_count(self) -> u128 {
        (0..self.arity()).fold(1u128, |acc, attr| {
            acc.saturating_mul(self.set_len(attr) as u128)
        })
    }

    /// The size of the component of `attr`.
    #[inline(always)]
    fn set_len(self, attr: usize) -> usize {
        match self.0 {
            RefRepr::Sets(comps) => comps[attr].len(),
            RefRepr::Packed { offsets, .. } => (offsets[attr + 1] - offsets[attr]) as usize,
        }
    }

    /// Whether every component is a singleton (the tuple is flat).
    pub fn is_flat(self) -> bool {
        self.components().all(SetRef::is_singleton)
    }

    /// Converts to a flat tuple if every component is a singleton.
    pub fn to_flat(self) -> Option<FlatTuple> {
        if !self.is_flat() {
            return None;
        }
        Some(self.components().map(|c| c.as_slice()[0]).collect())
    }

    /// Whether the flat tuple `flat` lies inside this rectangle.
    pub fn contains_flat(self, flat: &[Atom]) -> bool {
        debug_assert_eq!(flat.len(), self.arity());
        self.components().zip(flat).all(|(c, &v)| c.contains(v))
    }

    /// Whether the expansions of `self` and `other` intersect — true iff
    /// every pair of corresponding components intersects.
    pub fn overlaps(self, other: TupleRef<'_>) -> bool {
        debug_assert_eq!(self.arity(), other.arity());
        self.components()
            .zip(other.components())
            .all(|(a, b)| !a.is_disjoint_from(b))
    }

    /// Whether `self`'s expansion is a subset of `other`'s (componentwise
    /// inclusion).
    pub fn is_contained_in(self, other: TupleRef<'_>) -> bool {
        debug_assert_eq!(self.arity(), other.arity());
        self.components()
            .zip(other.components())
            .all(|(a, b)| a.is_subset_of(b))
    }

    /// Whether the two tuples are set-theoretically equal on every
    /// attribute except `except` (the precondition of Def. 1).
    pub fn agrees_except(self, other: TupleRef<'_>, except: usize) -> bool {
        debug_assert_eq!(self.arity(), other.arity());
        self.components()
            .zip(other.components())
            .enumerate()
            .all(|(i, (a, b))| i == except || a == b)
    }
}

// Equality is that of the component sequence, so it cannot tell an
// owned tuple from a stored one.
impl PartialEq for TupleRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.arity() == other.arity() && self.components().eq(other.components())
    }
}

impl Eq for TupleRef<'_> {}

impl PartialEq<NfTuple> for TupleRef<'_> {
    fn eq(&self, other: &NfTuple) -> bool {
        *self == other.as_ref()
    }
}

impl PartialEq<TupleRef<'_>> for NfTuple {
    fn eq(&self, other: &TupleRef<'_>) -> bool {
        self.as_ref() == *other
    }
}

impl fmt::Debug for TupleRef<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.components()).finish()
    }
}

impl fmt::Display for TupleRef<'_> {
    /// Paper notation: `[E0(a, b) E1(c)]` with numeric atom ids.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, c) in self.components().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            let vals: Vec<String> = c.iter().map(|a| a.to_string()).collect();
            write!(f, "E{i}({})", vals.join(", "))?;
        }
        write!(f, "]")
    }
}

/// A pinned, immutable tuple store that snapshot scans can hold by
/// `Arc` — the backing object of [`TupleView::Shared`].
///
/// Implementors promise the tuples they hand out never change for the
/// lifetime of the value. Three qualify: a shard's
/// [`Segment`](crate::segment::Segment), whose chunk a table scan yields
/// from — so a view pins the one chunk its tuple lives in, not the shard
/// version — a [`Chunk`](crate::chunk::Chunk) a located σ/π step wrote
/// its answer into, and a materialized [`NfRelation`]. Mutable buffers
/// do not.
pub trait TupleStore: Send + Sync + std::fmt::Debug {
    /// Number of tuples held.
    fn tuple_count(&self) -> usize;

    /// Tuple `idx` (below [`tuple_count`](Self::tuple_count)), read in
    /// place.
    fn tuple(&self, idx: usize) -> TupleRef<'_>;
}

impl TupleStore for NfRelation {
    fn tuple_count(&self) -> usize {
        NfRelation::tuple_count(self)
    }

    fn tuple(&self, idx: usize) -> TupleRef<'_> {
        self.tuples()[idx].as_ref()
    }
}

/// A possibly-borrowed NF² tuple — the item type of streaming cursors.
///
/// Iterator pipelines over stored relations yield tuples straight out of
/// the table (`Borrowed` when the source is a plain reference, `Shared`
/// when it is an `Arc`-pinned segment of an MVCC snapshot — both
/// zero-copy)
/// until an operator has to rewrite a component. A located σ/π step
/// writes the tuples it rewrites into shared blocks, so they stay
/// `Shared`; an operator that builds one tuple at a time (a join
/// combining two rectangles) makes it `Owned`. Consumers read any of
/// the three through [`as_ref`](TupleView::as_ref) and never pay for a
/// copy;
/// [`TupleView::into_owned`] builds one on demand.
#[derive(Debug, Clone)]
pub enum TupleView<'a> {
    /// A tuple borrowed from its relation — no copy was made.
    Borrowed(&'a NfTuple),
    /// A tuple inside an `Arc`-pinned store (a segment of an MVCC
    /// snapshot, or a block a located step wrote) — read in place; the
    /// view keeps that store alive.
    Shared {
        /// The pinned store the tuple lives in.
        store: std::sync::Arc<dyn TupleStore>,
        /// Index of the tuple within the store ([`TupleStore::tuple`]).
        idx: usize,
        /// The owned copy [`as_tuple`](TupleView::as_tuple) built, if
        /// it was called — boxed, so a view that never builds one stays
        /// small.
        owned: OnceCell<Box<NfTuple>>,
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
        debug_assert!(idx < store.tuple_count(), "shared view out of bounds");
        TupleView::Shared {
            store,
            idx,
            owned: OnceCell::new(),
        }
    }

    /// The tuple, read in place whichever the variant.
    #[inline]
    pub fn as_ref(&self) -> TupleRef<'_> {
        match self {
            TupleView::Borrowed(t) => t.as_ref(),
            TupleView::Shared { store, idx, .. } => store.tuple(*idx),
            TupleView::Owned(t) => t.as_ref(),
        }
    }

    /// The tuple as an [`NfTuple`]. A stored tuple has none, so the
    /// first call on a `Shared` view builds an owned copy and keeps it
    /// in the view; read through [`as_ref`](Self::as_ref) instead
    /// wherever a borrow will do.
    pub fn as_tuple(&self) -> &NfTuple {
        match self {
            TupleView::Borrowed(t) => t,
            TupleView::Shared { store, idx, owned } => {
                owned.get_or_init(|| Box::new(store.tuple(*idx).into_owned()))
            }
            TupleView::Owned(t) => t,
        }
    }

    /// Converts into an owned tuple: a reference-count bump for a
    /// borrowed one, one component block for a stored one.
    pub fn into_owned(self) -> NfTuple {
        match self {
            TupleView::Borrowed(t) => t.clone(),
            TupleView::Shared { store, idx, owned } => owned
                .into_inner()
                .map_or_else(|| store.tuple(idx).into_owned(), |t| *t),
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
        self.as_ref() == other.as_ref()
    }
}

impl Eq for TupleView<'_> {}

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
        self.as_ref().fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::RowBlock;

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
        assert_eq!(borrowed.as_ref().arity(), 2);
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

    /// `t`'s expansion, as the one expansion there is
    /// ([`RowBlock::push_expansion`]) yields it.
    fn expansion(t: &NfTuple) -> Vec<FlatTuple> {
        let schema = crate::schema::Schema::new("T", &["A", "B", "C"][..t.arity()]).unwrap();
        let mut block = RowBlock::with_capacity(schema, 0);
        block.push_expansion(t.as_ref()).unwrap();
        block.rows().map(<[Atom]>::to_vec).collect()
    }

    #[test]
    fn expansion_enumerates_cartesian_product() {
        // The paper's example: [A(a1, a2) B(b1)] means {(a1,b1), (a2,b1)}.
        let t = NfTuple::new(vec![vs(&[1, 2]), vs(&[10])]);
        assert_eq!(expansion(&t), vec![vec![a(1), a(10)], vec![a(2), a(10)]]);
    }

    #[test]
    fn the_zero_arity_tuple_expands_to_the_empty_row() {
        let unit = NfTuple::new(vec![]);
        assert_eq!(unit.expansion_count(), 1);
        assert_eq!(expansion(&unit), vec![FlatTuple::new()]);
    }

    #[test]
    fn expansion_is_lexicographic_and_complete() {
        let t = NfTuple::new(vec![vs(&[1, 2]), vs(&[3, 4]), vs(&[5])]);
        let flats = expansion(&t);
        assert_eq!(flats.len(), 4);
        let mut sorted = flats.clone();
        sorted.sort();
        assert_eq!(flats, sorted, "the expansion is lexicographic");
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
