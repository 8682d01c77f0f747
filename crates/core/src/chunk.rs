//! Chunks: NF² tuples stored as their atoms, read in place.
//!
//! A [`Chunk`] holds consecutive tuples of one arity as every set's
//! members back to back in one array, bounded by one `u32` offset per
//! tuple and attribute plus a leading zero. It is two allocations
//! whatever it holds, so copying a run of its tuples is two copies and
//! dropping it two frees, and each of its tuples is read in place as a
//! [`TupleRef`].
//!
//! It is the one block layout of the system. A [`Segment`] stores its
//! tuples in one (built to size, from a shard's tuples), and a located
//! σ/π step writes its answer into them (grown as it goes, from the
//! sets the step keeps): either way the chunk is a [`TupleStore`], so a
//! [`TupleView::Shared`] pins the chunk its tuple lives in and nothing
//! else. A [`ChunkBuilder`] builds one, a tuple at a time or a set at a
//! time.
//!
//! [`Segment`]: crate::segment::Segment
//! [`TupleView::Shared`]: crate::tuple::TupleView

use std::ops::Range;

use crate::tuple::{NfTuple, TupleRef, TupleStore};
use crate::value::Atom;

/// What a per-tuple rule did with a tuple it read in place and the
/// builder it was handed beside it (a located σ/π step's rule; see
/// `nf2_algebra::stream::SelectProject`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rewrite {
    /// The tuple has no output; nothing was appended.
    Rejected,
    /// The output is the tuple itself; nothing was appended.
    Unchanged,
    /// The output is the tuple just appended to the builder.
    Appended,
}

/// Consecutive tuples of one arity, stored as their atoms — every
/// tuple's sets back to back in one array, bounded by one `u32` offset
/// per tuple and attribute plus a leading zero (the layout a segment's
/// value-major columns keep their row lists in, transposed).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Chunk {
    /// Tuples held.
    pub(crate) rows: usize,
    /// Sets per tuple.
    pub(crate) arity: usize,
    /// `rows × arity + 1` offsets into `atoms`: the set of tuple `r`'s
    /// attribute `a` is `atoms[offsets[i]..offsets[i + 1]]`, `i` being
    /// `r × arity + a`.
    offsets: Vec<u32>,
    /// Every set's members, ascending within a set.
    pub(crate) atoms: Vec<Atom>,
}

impl Chunk {
    /// `tuples` (non-empty, all of one arity), copied in.
    pub(crate) fn of_tuples(tuples: &[NfTuple]) -> Self {
        let atoms = tuples.iter().map(|t| t.as_ref().atom_count()).sum();
        let mut chunk = ChunkBuilder::new(tuples[0].arity(), tuples.len(), atoms);
        for t in tuples {
            chunk.push(t.as_ref());
        }
        chunk.finish()
    }

    /// Number of tuples held.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Where the atoms of tuple `row` start (their total for `rows`).
    pub(crate) fn atoms_before(&self, row: usize) -> usize {
        self.offsets[row * self.arity] as usize
    }

    /// Tuple `row`, read in place.
    #[inline]
    pub fn tuple(&self, row: usize) -> TupleRef<'_> {
        let at = row * self.arity;
        TupleRef::packed(&self.offsets[at..=at + self.arity], &self.atoms)
    }

    /// The tuples, in order.
    pub fn tuples(&self) -> impl ExactSizeIterator<Item = TupleRef<'_>> + '_ {
        (0..self.rows).map(|row| self.tuple(row))
    }

    /// Bytes of atoms and offsets held.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of_val(&*self.atoms) + std::mem::size_of_val(&*self.offsets)
    }

    /// Whether both arrays hold exactly what the chunk stores, as a
    /// chunk built to size does.
    pub(crate) fn is_tight(&self) -> bool {
        self.offsets.capacity() == self.offsets.len() && self.atoms.capacity() == self.atoms.len()
    }
}

/// A chunk is a pinned store of its own: a [`TupleView::Shared`] holds
/// the chunk its tuple lives in.
///
/// [`TupleView::Shared`]: crate::tuple::TupleView
impl TupleStore for Chunk {
    fn tuple_count(&self) -> usize {
        self.rows
    }

    fn tuple(&self, idx: usize) -> TupleRef<'_> {
        Chunk::tuple(self, idx)
    }
}

/// A chunk being built. [`new`](Self::new) allocates its arrays at a
/// given size (a segment's chunk is built to exactly its size);
/// [`empty`](Self::empty) allocates nothing until
/// [`reserve`](Self::reserve) is called. Either way the arrays grow as
/// tuples are appended, and [`finish`](Self::finish) hands them to the
/// chunk as they are, without copying.
#[derive(Debug)]
pub struct ChunkBuilder {
    rows: usize,
    arity: usize,
    /// The chunk's offsets so far; empty (no leading zero) until the
    /// builder first reserves room.
    offsets: Vec<u32>,
    atoms: Vec<Atom>,
}

impl ChunkBuilder {
    /// Room for `rows` tuples of `arity` sets holding `atoms` members.
    pub fn new(arity: usize, rows: usize, atoms: usize) -> Self {
        let mut chunk = Self::empty(arity);
        chunk.reserve(rows, atoms);
        chunk
    }

    /// A builder of `arity`-set tuples that has allocated nothing yet.
    pub fn empty(arity: usize) -> Self {
        ChunkBuilder {
            rows: 0,
            arity,
            offsets: Vec::new(),
            atoms: Vec::new(),
        }
    }

    /// Makes room for `rows` more tuples holding `atoms` more members:
    /// exactly that much the first time, at least that much after.
    /// Every append must be preceded by one.
    pub fn reserve(&mut self, rows: usize, atoms: usize) {
        assert!(
            u32::try_from(self.atoms.len() + atoms).is_ok(),
            "a chunk's set members must fit its u32 offsets"
        );
        if self.offsets.is_empty() {
            // The first room is exactly what was asked for.
            self.offsets.reserve_exact(rows * self.arity + 1);
            self.offsets.push(0);
            self.atoms.reserve_exact(atoms);
        } else {
            self.offsets.reserve(rows * self.arity);
            self.atoms.reserve(atoms);
        }
    }

    /// Sets per tuple.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Tuples appended so far.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Set members appended so far.
    pub fn atom_count(&self) -> usize {
        self.atoms.len()
    }

    /// Appends `t`.
    pub fn push(&mut self, t: TupleRef<'_>) {
        debug_assert_eq!(t.arity(), self.arity, "a chunk's tuples share an arity");
        debug_assert!(!self.offsets.is_empty(), "reserve before appending");
        for set in t.components() {
            self.atoms.extend_from_slice(set.as_slice());
            self.offsets.push(self.atoms.len() as u32);
        }
        self.end_tuple();
    }

    /// Appends the next set of the tuple being appended: `members`,
    /// strictly ascending and not empty (checked in debug builds).
    /// [`end_tuple`](Self::end_tuple) closes the tuple once all its
    /// `arity` sets are in.
    #[inline]
    pub fn push_set(&mut self, members: impl IntoIterator<Item = Atom>) {
        debug_assert!(!self.offsets.is_empty(), "reserve before appending");
        let start = self.atoms.len();
        self.atoms.extend(members);
        debug_assert!(
            self.atoms.len() > start && self.atoms[start..].windows(2).all(|w| w[0] < w[1]),
            "a set's members are strictly ascending and not empty"
        );
        self.offsets.push(self.atoms.len() as u32);
    }

    /// Closes the tuple whose sets [`push_set`](Self::push_set) appended.
    #[inline]
    pub fn end_tuple(&mut self) {
        self.rows += 1;
        debug_assert_eq!(
            self.offsets.len().max(1),
            self.rows * self.arity + 1,
            "a tuple has one set per attribute"
        );
    }

    /// Tuple `row` of those appended, read in place.
    pub fn tuple(&self, row: usize) -> TupleRef<'_> {
        let at = row * self.arity;
        TupleRef::packed(&self.offsets[at..=at + self.arity], &self.atoms)
    }

    /// Drops every tuple appended, keeping the room reserved.
    pub fn clear(&mut self) {
        self.rows = 0;
        self.offsets.truncate(1);
        self.atoms.clear();
    }

    /// Appends the tuples `rows` of `from`: one copy of their atoms and
    /// one of their offsets, shifted to where the atoms land.
    pub(crate) fn carry(&mut self, from: &Chunk, rows: Range<usize>) {
        let (lo, hi) = (from.atoms_before(rows.start), from.atoms_before(rows.end));
        let shift = (self.atoms.len() as u32).wrapping_sub(lo as u32);
        self.atoms.extend_from_slice(&from.atoms[lo..hi]);
        let ends = &from.offsets[rows.start * self.arity + 1..=rows.end * self.arity];
        self.offsets
            .extend(ends.iter().map(|&end| end.wrapping_add(shift)));
        self.rows += rows.len();
    }

    /// The chunk of the tuples appended. A builder that never reserved
    /// gives a chunk of its zero-arity tuples, or of none.
    pub fn finish(mut self) -> Chunk {
        assert!(
            u32::try_from(self.atoms.len()).is_ok(),
            "a chunk's set members must fit its u32 offsets"
        );
        if self.offsets.is_empty() {
            self.offsets.push(0);
        }
        Chunk {
            rows: self.rows,
            arity: self.arity,
            offsets: self.offsets,
            atoms: self.atoms,
        }
    }
}

/// The tuples of `runs` (each a chunk and a range of its rows), back to
/// back, as one chunk.
pub(crate) fn join(runs: &[(&Chunk, Range<usize>)]) -> Chunk {
    let rows = runs.iter().map(|(_, run)| run.len()).sum();
    let atoms = runs
        .iter()
        .map(|(chunk, run)| chunk.atoms_before(run.end) - chunk.atoms_before(run.start))
        .sum();
    let mut joined = ChunkBuilder::new(runs[0].0.arity, rows, atoms);
    for (chunk, run) in runs {
        joined.carry(chunk, run.clone());
    }
    joined.finish()
}

/// The tuples of `chunks` back to back, cut into chunks of `rows` (the
/// remainder in the last), every run carried whole.
pub(crate) fn recut<'a>(chunks: impl IntoIterator<Item = &'a Chunk>, rows: usize) -> Vec<Chunk> {
    let (mut cut, mut runs, mut held) = (Vec::new(), Vec::new(), 0);
    for chunk in chunks {
        let mut from = 0;
        while from < chunk.rows {
            let take = (rows - held).min(chunk.rows - from);
            runs.push((chunk, from..from + take));
            (from, held) = (from + take, held + take);
            if held == rows {
                cut.push(join(&runs));
                (runs, held) = (Vec::new(), 0);
            }
        }
    }
    if held > 0 {
        cut.push(join(&runs));
    }
    cut
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple::ValueSet;

    fn tuple(comps: &[&[u32]]) -> NfTuple {
        NfTuple::new(
            comps
                .iter()
                .map(|c| ValueSet::new(c.iter().map(|&v| Atom(v)).collect()).unwrap())
                .collect(),
        )
    }

    #[test]
    fn a_builder_grows_from_nothing_and_reads_back_in_place() {
        let fat: Vec<u32> = (0..300).collect();
        let tuples = [
            tuple(&[&[1, 3], &[10]]),
            tuple(&[&fat, &[11]]),
            tuple(&[&[2, 4, 6, 8, 10, 12], &[10, 11]]),
        ];
        let mut built = ChunkBuilder::empty(2);
        built.reserve(1, 1);
        for t in &tuples {
            built.push(t.as_ref());
        }
        // One tuple a set at a time: the sets a rule keeps.
        built.push_set([Atom(7)]);
        built.push_set(tuples[1].component(0).iter().filter(|a| a.id() % 100 == 0));
        built.end_tuple();
        assert_eq!(built.tuple(3), tuple(&[&[7], &[0, 100, 200]]));
        let chunk = built.finish();
        assert_eq!(chunk.rows(), 4);
        assert!(chunk
            .tuples()
            .take(3)
            .eq(tuples.iter().map(NfTuple::as_ref)));
        assert_eq!(
            chunk,
            Chunk::of_tuples(&[&tuples[..], &[tuple(&[&[7], &[0, 100, 200]])]].concat())
        );
        assert!(Chunk::of_tuples(&tuples).is_tight());
    }

    #[test]
    fn a_cleared_builder_keeps_its_room() {
        let mut built = ChunkBuilder::new(1, 2, 8);
        built.push(tuple(&[&[1, 2, 3]]).as_ref());
        built.clear();
        built.push(tuple(&[&[4]]).as_ref());
        assert_eq!(built.rows(), 1);
        assert_eq!(built.tuple(0), tuple(&[&[4]]));
        assert_eq!(built.finish().tuple_count(), 1);
    }

    #[test]
    fn an_unreserved_builder_finishes_empty() {
        let chunk = ChunkBuilder::empty(3).finish();
        assert_eq!((chunk.rows(), chunk.bytes()), (0, 4));
    }
}
