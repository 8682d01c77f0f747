//! Sorted immutable value-major segments over a shard's canonical tuples.
//!
//! The nest kernel already pays one global sort per rebuild
//! ([`NestKernel::canonical_of_flat`](crate::kernel::NestKernel)): with
//! the last-nested attribute `P(n−1)` outermost, the emitted NF² tuples
//! come out ordered by the componentwise-minimum representative
//! `(min P(n−1), min P(n−2), …, min P(0))` — stage-`j` grouping requires
//! set-equality on every earlier position, so the row carrying the
//! minimum outer value of a tuple spans the tuple's full inner sets.
//! Segments make that order *be* the storage order: each shard of a
//! [`ShardedCanonical`](crate::shard::ShardedCanonical) slices its
//! tuple vector into immutable [`Segment`]s, and each segment stores its
//! slice **transposed**: per attribute, the distinct dictionary codes
//! ([`Atom`]s) that occur in the slice, ascending, and for each code the
//! ascending list of segment-local rows whose set holds it. The tuples
//! themselves stay in the shard's vector; the segment is what answers
//! *which of them* without walking it:
//!
//! * **one question** — [`Segment::locate`]: the rows whose components
//!   intersect every `(attr, values)` [`Conjunct`], by binary search on
//!   the codes and sorted-list intersection. Scans, `searcht` and `candt`
//!   all ask it ([`ShardSegments::locate`], the `SegmentPatch` sink) and
//!   nothing else locates a tuple;
//! * **zone metadata for free** — an attribute's `[min, max]` zone is its
//!   first and last code, and the number of runs of equal consecutive
//!   outer sets (the distinct-count estimate a checkpoint persists) is
//!   counted while encoding.
//!
//! Segments are immutable and `Arc`-shared between consecutive shard
//! versions. §4 point maintenance keeps the tuple vector in the kernel's
//! order (ordered `insert`/`remove` at the canonical position, see
//! [`crate::maintenance`]) and reports every position it touches to a
//! `SegmentPatch`; when the operation is done the patch re-encodes
//! exactly the segments whose tuple range changed — dropping one that
//! emptied, splitting one that outgrew twice the tiling target — and
//! carries every other segment over by pointer. While the operation
//! runs, the patch answers its searches: from the postings of the
//! segments it has not touched (offset by where each now starts), and by
//! handing back the whole current range of a touched one, whose local
//! row numbers no longer line up. A shard's segments therefore describe
//! its live tuple vector at every version: ordered scans and located
//! reads never have to check for staleness. Segment boundaries drift
//! from the uniform tiling as patches accumulate; a checkpoint re-tiles
//! ([`ShardSegments::rebuild`]) so the persisted synopsis is the one a
//! reopen re-derives.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use crate::maintenance::TupleEdits;
use crate::schema::AttrId;
use crate::tuple::{NfTuple, ValueSet};
use crate::value::Atom;

/// Default number of canonical NF² tuples per segment. Small enough
/// that skipping a segment saves real work at E-scale row counts, large
/// enough that per-segment metadata stays negligible.
pub const DEFAULT_SEGMENT_ROWS: usize = 512;

/// One conjunct of the question segments answer: the tuple's `attr`
/// component must intersect `values` (ascending, as every [`ValueSet`]
/// slice is).
pub type Conjunct<'a> = (AttrId, &'a [Atom]);

/// The conjuncts `searcht` asks with: `flat`'s value on every attribute.
/// A tuple satisfying all of them contains `flat`.
pub(crate) fn point_conjuncts(flat: &[Atom]) -> Vec<Conjunct<'_>> {
    flat.iter()
        .enumerate()
        .map(|(attr, v)| (attr, std::slice::from_ref(v)))
        .collect()
}

/// Ascending positions in a shard's tuple vector, held as the disjoint
/// ranges they form — one range for a whole span of the vector, one per
/// run of neighbours otherwise — and handed out one position at a time.
#[derive(Debug, Clone)]
pub struct Rows {
    current: Range<usize>,
    rest: std::vec::IntoIter<Range<usize>>,
    remaining: usize,
}

impl Rows {
    /// Every position of a vector of `len` tuples.
    pub fn all(len: usize) -> Self {
        Rows {
            current: 0..len,
            rest: Vec::new().into_iter(),
            remaining: len,
        }
    }

    /// The positions of `spans` (ascending, disjoint, as
    /// [`Segment::locate`] appends them).
    pub fn of_spans(spans: Vec<Range<usize>>) -> Self {
        Rows {
            remaining: spans.iter().map(Range::len).sum(),
            current: 0..0,
            rest: spans.into_iter(),
        }
    }

    /// The remaining positions as the ranges they form — what a caller
    /// walking a tuple slice wants, a sub-slice at a time.
    pub fn into_spans(self) -> impl Iterator<Item = Range<usize>> {
        std::iter::once(self.current).chain(self.rest)
    }
}

impl Iterator for Rows {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if let Some(at) = self.current.next() {
                self.remaining -= 1;
                return Some(at);
            }
            self.current = self.rest.next()?;
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for Rows {}

/// Appends `range` to the ascending `spans`, growing the last span when
/// the two touch.
fn push_span(spans: &mut Vec<Range<usize>>, range: Range<usize>) {
    match spans.last_mut() {
        Some(last) if last.end == range.start => last.end = range.end,
        _ if range.is_empty() => {}
        _ => spans.push(range),
    }
}

/// Sorts `(code << 32 | row)` keys, generated in row order, by code: a
/// stable least-significant-digit radix sort over the bits in which the
/// codes differ at all, so rows stay ascending within a code and the
/// cost is linear in the keys — dictionary codes are dense small
/// integers, which makes most columns one or two passes. A segment of
/// few fat tuples (thousands of set members) is re-encoded by every
/// point write that touches it; a comparison sort there is what the
/// write would spend its time on.
fn sort_by_code(keys: &mut Vec<u64>, spare: &mut Vec<u64>) {
    const DIGIT_BITS: u32 = 8;
    let code = |key: u64| (key >> 32) as u32;
    let (min, max) = keys.iter().fold((u32::MAX, 0), |(lo, hi), &key| {
        (lo.min(code(key)), hi.max(code(key)))
    });
    let span_bits = u32::BITS - (max - min).leading_zeros();
    spare.clear();
    spare.resize(keys.len(), 0);
    for shift in (0..span_bits).step_by(DIGIT_BITS as usize) {
        let digit = |key: u64| ((code(key) - min) >> shift) as usize & ((1 << DIGIT_BITS) - 1);
        let mut starts = [0u32; 1 << DIGIT_BITS];
        for &key in keys.iter() {
            starts[digit(key)] += 1;
        }
        let mut at = 0u32;
        for start in &mut starts {
            at += std::mem::replace(start, at);
        }
        for &key in keys.iter() {
            let slot = &mut starts[digit(key)];
            spare[*slot as usize] = key;
            *slot += 1;
        }
        std::mem::swap(keys, spare);
    }
}

/// One attribute of a segment, value-major: the distinct codes that
/// occur in any row's set, ascending, each with the ascending list of
/// segment-local rows whose set holds it. Offsets and rows are `u32`
/// (checked when encoding): a segment holds a few hundred tuples.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ValueColumn {
    /// Distinct codes, strictly ascending (never empty).
    codes: Box<[Atom]>,
    /// `codes.len() + 1` offsets into `rows`; code `i` owns
    /// `rows[offsets[i]..offsets[i+1]]`.
    offsets: Box<[u32]>,
    /// Concatenated row lists, each strictly ascending.
    rows: Box<[u32]>,
}

impl ValueColumn {
    /// Transposes attribute `attr` of `tuples`: one `(code, row)` key per
    /// set member, generated row by row and brought into code order by
    /// [`sort_by_code`] — skipped when the keys already ascend, as they
    /// do on the outer attribute wherever its sets are singletons.
    /// `keys` and `spare` are scratch shared across a segment's
    /// attributes.
    fn encode(tuples: &[NfTuple], attr: usize, keys: &mut Vec<u64>, spare: &mut Vec<u64>) -> Self {
        keys.clear();
        for (row, t) in tuples.iter().enumerate() {
            let row = row as u64;
            keys.extend(
                t.component(attr)
                    .as_slice()
                    .iter()
                    .map(|v| u64::from(v.id()) << 32 | row),
            );
        }
        assert!(
            u32::try_from(keys.len()).is_ok(),
            "a segment's set members must fit its u32 offsets"
        );
        if !keys.is_sorted() {
            sort_by_code(keys, spare);
        }
        let mut codes = Vec::new();
        let mut offsets = Vec::new();
        let mut rows = Vec::with_capacity(keys.len());
        for &key in keys.iter() {
            let code = Atom((key >> 32) as u32);
            if codes.last() != Some(&code) {
                codes.push(code);
                offsets.push(rows.len() as u32);
            }
            rows.push(key as u32);
        }
        offsets.push(rows.len() as u32);
        ValueColumn {
            codes: codes.into(),
            offsets: offsets.into(),
            rows: rows.into(),
        }
    }

    /// The rows of the `i`-th code.
    fn rows_at(&self, i: usize) -> &[u32] {
        &self.rows[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The part of `values` inside this column's `[min, max]` zone.
    fn in_zone<'a>(&self, values: &'a [Atom]) -> &'a [Atom] {
        // invariant: a segment is non-empty and so is every set in it
        let (min, max) = (self.codes[0], self.codes[self.codes.len() - 1]);
        let lo = values.partition_point(|&v| v < min);
        let hi = values.partition_point(|&v| v <= max);
        &values[lo..hi]
    }

    /// The row list of every value of `values` that occurs.
    fn lists<'a>(&'a self, values: &'a [Atom]) -> impl Iterator<Item = &'a [u32]> + 'a {
        self.in_zone(values)
            .iter()
            .filter_map(|v| self.codes.binary_search(v).ok())
            .map(|i| self.rows_at(i))
    }

    /// The rows whose set intersects `values`, ascending: one value's
    /// list as stored, several merged.
    fn rows_holding_any<'a>(&'a self, values: &'a [Atom]) -> Cow<'a, [u32]> {
        let mut lists = self.lists(values);
        let Some(first) = lists.next() else {
            return Cow::Borrowed(&[]);
        };
        let Some(second) = lists.next() else {
            return Cow::Borrowed(first);
        };
        let mut merged = [first, second].concat();
        for list in lists {
            merged.extend_from_slice(list);
        }
        merged.sort_unstable();
        merged.dedup();
        Cow::Owned(merged)
    }
}

/// One sorted immutable segment: `rows` consecutive tuples of a shard's
/// canonical tuple vector, stored value-major (one `ValueColumn` per
/// attribute). A segment does not know where it starts — its position
/// is the sum of the row counts before it ([`ShardSegments::ranges`]) —
/// so an edit earlier in the shard shifts it without touching it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    rows: usize,
    outer_attr: usize,
    /// Runs of equal consecutive outer (`P(n−1)`) sets.
    outer_runs: usize,
    /// One value-major column per attribute.
    columns: Vec<ValueColumn>,
}

impl Segment {
    /// Encodes `tuples` (non-empty, all of the same arity ≥ 1) as one
    /// segment. The caller guarantees the slice is in canonical sorted
    /// order (a kernel rebuild, or ordered §4 maintenance of one);
    /// encoding never reorders rows.
    pub fn encode(tuples: &[NfTuple], outer_attr: usize) -> Self {
        debug_assert!(!tuples.is_empty(), "segments hold at least one tuple");
        let arity = tuples[0].arity();
        debug_assert!(outer_attr < arity, "outer attribute must be in-schema");
        let (mut keys, mut spare) = (Vec::new(), Vec::new());
        let columns = (0..arity)
            .map(|a| ValueColumn::encode(tuples, a, &mut keys, &mut spare))
            .collect();
        let outer_runs = 1 + tuples
            .windows(2)
            .filter(|w| w[0].component(outer_attr) != w[1].component(outer_attr))
            .count();
        let seg = Segment {
            rows: tuples.len(),
            outer_attr,
            outer_runs,
            columns,
        };
        debug_assert_eq!(
            seg.decode(),
            tuples,
            "value-major round-trip must reproduce the encoded tuples"
        );
        seg
    }

    /// Number of tuples covered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The routing attribute (`P(n−1)`) the shard is ordered by.
    pub fn outer_attr(&self) -> usize {
        self.outer_attr
    }

    /// Zone-map minimum code for `attr`: its column's first code.
    pub fn min(&self, attr: usize) -> Atom {
        self.columns[attr].codes[0]
    }

    /// Zone-map maximum code for `attr`: its column's last code.
    pub fn max(&self, attr: usize) -> Atom {
        let codes = &self.columns[attr].codes;
        codes[codes.len() - 1]
    }

    /// Distinct-count estimate for the outer attribute: the number of
    /// runs of equal consecutive outer sets. Exact when equal outer sets
    /// are always adjacent (an upper bound otherwise, since ties on the
    /// outer minimum can interleave distinct sets).
    pub fn distinct_outer(&self) -> usize {
        self.outer_runs
    }

    /// The one question: appends `base + row`, ascending and as spans,
    /// for every row whose `attr` component intersects `values` for
    /// **every** conjunct (all rows when there is none), and says whether
    /// there was any. Exact, not an over-approximation — but a component
    /// that intersects the values is not yet narrowed to them, so a
    /// selection still applies its box downstream.
    ///
    /// Cost: one binary search per in-zone value per conjunct to refute
    /// the segment (no allocation); on a hit, the shortest conjunct's
    /// row list filtered through the others.
    pub fn locate(
        &self,
        conjuncts: &[Conjunct<'_>],
        base: usize,
        out: &mut Vec<Range<usize>>,
    ) -> bool {
        if conjuncts.is_empty() {
            push_span(out, base..base + self.rows);
            return true;
        }
        let occurs =
            |&(attr, values): &Conjunct<'_>| self.columns[attr].lists(values).next().is_some();
        if !conjuncts.iter().all(occurs) {
            return false;
        }
        let mut lists: Vec<Cow<'_, [u32]>> = conjuncts
            .iter()
            .map(|&(attr, values)| self.columns[attr].rows_holding_any(values))
            .collect();
        lists.sort_by_key(|rows| rows.len());
        let (driver, filters) = lists.split_first().expect("at least one conjunct");
        let mut any = false;
        for row in driver.iter() {
            if filters.iter().all(|f| f.binary_search(row).is_ok()) {
                let at = base + *row as usize;
                push_span(out, at..at + 1);
                any = true;
            }
        }
        any
    }

    /// Reconstructs the covered tuples from the columns. Test and
    /// verification helper: the result must equal the tuple-store slice
    /// the segment was encoded from.
    pub fn decode(&self) -> Vec<NfTuple> {
        let mut sets: Vec<Vec<Vec<Atom>>> = vec![vec![Vec::new(); self.columns.len()]; self.rows];
        for (attr, column) in self.columns.iter().enumerate() {
            for (i, &code) in column.codes.iter().enumerate() {
                for &row in column.rows_at(i) {
                    sets[row as usize][attr].push(code);
                }
            }
        }
        sets.into_iter()
            .map(|comps| {
                comps
                    .iter()
                    .map(|set| ValueSet::from_sorted_unchecked(set))
                    .collect()
            })
            .collect()
    }
}

/// How a shard's tuple vector is cut into segments: the outer attribute
/// (whose runs a segment counts) and the target tuples per segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    /// The routing attribute `P(n−1)`; `None` only for a zero-arity
    /// schema, whose (degenerate) tuples stay unsegmented.
    pub outer_attr: Option<usize>,
    /// Target tuples per segment (≥ 1).
    pub target_rows: usize,
}

/// `tuples` encoded `rows` at a time (the remainder in the last piece).
fn tiles(
    tuples: &[NfTuple],
    rows: usize,
    outer_attr: usize,
) -> impl Iterator<Item = Arc<Segment>> + '_ {
    tuples
        .chunks(rows)
        .map(move |chunk| Arc::new(Segment::encode(chunk, outer_attr)))
}

/// What [`ShardSegments::locate`] found.
#[derive(Debug, Clone)]
pub struct Located {
    /// The located positions, ascending.
    pub rows: Rows,
    /// Segments that held no located row (none of their tuples is in
    /// `rows`, so none is ever probed).
    pub skipped: usize,
}

/// The segments of one shard, in tuple order: together they tile the
/// shard's tuple vector exactly, at every version.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSegments {
    segments: Vec<Arc<Segment>>,
}

impl ShardSegments {
    /// The (empty) segment list of an empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// Re-emits uniformly tiled segments from the shard's tuple vector:
    /// `target_rows` tuples each, the remainder in the last.
    pub fn rebuild(&mut self, tuples: &[NfTuple], tiling: Tiling) {
        self.segments.clear();
        let Some(outer) = tiling.outer_attr else {
            return;
        };
        self.segments
            .extend(tiles(tuples, tiling.target_rows.max(1), outer));
    }

    /// Whether the segments are exactly what [`rebuild`](Self::rebuild)
    /// would emit for this tiling target: every segment full but the
    /// last. Patched shards drift from it; a checkpoint restores it.
    pub fn is_uniform(&self, target_rows: usize) -> bool {
        let target = target_rows.max(1);
        match self.segments.split_last() {
            None => true,
            Some((last, full)) => {
                last.rows() <= target && full.iter().all(|seg| seg.rows() == target)
            }
        }
    }

    /// The segments, in tuple order.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Every segment with the tuple-vector range it covers.
    pub fn ranges(&self) -> impl Iterator<Item = (Range<usize>, &Segment)> {
        self.segments.iter().scan(0usize, |start, seg| {
            let range = *start..*start + seg.rows();
            *start = range.end;
            Some((range, &**seg))
        })
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total tuples the segments cover.
    pub fn covered_rows(&self) -> usize {
        self.segments.iter().map(|seg| seg.rows()).sum()
    }

    /// The positions, among the `len` tuples these segments tile, of
    /// every tuple intersecting every conjunct ([`Segment::locate`] per
    /// segment, offset by where it starts), with the number of segments
    /// that held none. No conjunct locates the whole vector — segmented
    /// or not (a zero-arity shard has one tuple and no segment).
    pub fn locate(&self, len: usize, conjuncts: &[Conjunct<'_>]) -> Located {
        if conjuncts.is_empty() {
            return Located {
                rows: Rows::all(len),
                skipped: 0,
            };
        }
        let mut spans = Vec::new();
        let mut skipped = 0usize;
        for (range, seg) in self.ranges() {
            skipped += usize::from(!seg.locate(conjuncts, range.start, &mut spans));
        }
        Located {
            rows: Rows::of_spans(spans),
            skipped,
        }
    }

    /// Starts recording the tuple-vector edits of one maintenance
    /// operation (a point op or an incremental batch).
    pub(crate) fn patch(&mut self) -> SegmentPatch<'_> {
        let slots = self
            .segments
            .iter()
            .map(|seg| (seg.rows(), false))
            .collect();
        SegmentPatch { segs: self, slots }
    }
}

/// The segment-side record of one maintenance operation: per segment,
/// how many tuples it covers *now* and whether any of them changed.
/// [`finish`](Self::finish) turns that into the next segment list.
#[derive(Debug)]
pub(crate) struct SegmentPatch<'a> {
    segs: &'a mut ShardSegments,
    /// `(rows, dirty)` per slot. Slot `i` started as segment `i`; one
    /// extra slot appears when the first tuple enters an empty shard.
    slots: Vec<(usize, bool)>,
}

impl SegmentPatch<'_> {
    /// The slot whose range holds tuple `idx`; the last slot for an
    /// append at the very end.
    fn slot_of(&self, idx: usize) -> usize {
        let mut end = 0usize;
        for (slot, &(rows, _)) in self.slots.iter().enumerate() {
            end += rows;
            if idx < end {
                return slot;
            }
        }
        self.slots.len().saturating_sub(1)
    }

    /// Re-encodes every segment whose tuples changed from the
    /// maintained vector `tuples`, sharing the rest: an emptied segment
    /// is dropped, one past twice the tiling target is split.
    pub(crate) fn finish(self, tuples: &[NfTuple], tiling: Tiling) {
        let Some(outer) = tiling.outer_attr else {
            return;
        };
        let target = tiling.target_rows.max(1);
        let old = std::mem::take(&mut self.segs.segments);
        let mut next = Vec::with_capacity(self.slots.len());
        let mut start = 0usize;
        for (slot, &(rows, dirty)) in self.slots.iter().enumerate() {
            let slice = &tuples[start..start + rows];
            start += rows;
            if !dirty {
                next.push(Arc::clone(&old[slot]));
            } else {
                let piece = if rows > 2 * target {
                    target
                } else {
                    rows.max(1)
                };
                next.extend(tiles(slice, piece, outer));
            }
        }
        debug_assert_eq!(start, tuples.len(), "edits account for every tuple");
        self.segs.segments = next;
    }
}

impl TupleEdits for SegmentPatch<'_> {
    /// Untouched segments answer from their postings, offset by where
    /// they start now; a touched slot's rows have shifted under its
    /// segment's local numbering, so its whole current range goes back
    /// to the caller's own test.
    fn locate(&self, len: usize, conjuncts: &[Conjunct<'_>]) -> Rows {
        if conjuncts.is_empty() {
            return Rows::all(len);
        }
        let mut spans = Vec::new();
        let mut start = 0usize;
        for (slot, &(rows, dirty)) in self.slots.iter().enumerate() {
            if dirty {
                push_span(&mut spans, start..start + rows);
            } else {
                self.segs.segments[slot].locate(conjuncts, start, &mut spans);
            }
            start += rows;
        }
        debug_assert_eq!(start, len, "slots account for every tuple");
        Rows::of_spans(spans)
    }

    fn inserted(&mut self, idx: usize) {
        if self.slots.is_empty() {
            self.slots.push((0, true));
        }
        let slot = self.slot_of(idx);
        self.slots[slot].0 += 1;
        self.slots[slot].1 = true;
    }

    fn removed(&mut self, idx: usize) {
        let slot = self.slot_of(idx);
        debug_assert!(self.slots[slot].0 > 0, "removed tuple lies in a segment");
        self.slots[slot].0 -= 1;
        self.slots[slot].1 = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(vals: &[u32]) -> ValueSet {
        ValueSet::new(vals.iter().map(|&v| Atom(v)).collect()).expect("test sets are non-empty")
    }

    fn tuple(comps: &[&[u32]]) -> NfTuple {
        NfTuple::new(comps.iter().map(|c| set(c)).collect())
    }

    fn sample() -> Vec<NfTuple> {
        vec![
            tuple(&[&[1, 3], &[10]]),
            tuple(&[&[2], &[10]]),
            tuple(&[&[5], &[11, 12]]),
            tuple(&[&[4, 9], &[11, 12]]),
            tuple(&[&[7], &[20]]),
        ]
    }

    #[test]
    fn encode_decode_round_trips() {
        let tuples = sample();
        let seg = Segment::encode(&tuples, 1);
        assert_eq!(seg.rows(), 5);
        assert_eq!(seg.decode(), tuples);
    }

    #[test]
    fn rle_collapses_consecutive_outer_sets() {
        let tuples = sample();
        let seg = Segment::encode(&tuples, 1);
        // Outer sets: {10},{10},{11,12},{11,12},{20} → 3 runs, counted
        // while encoding; the column itself is value-major, one row list
        // per code.
        assert_eq!(seg.distinct_outer(), 3);
        assert_eq!(located(&seg, &[(1, &[10])]), vec![100, 101]);
        assert_eq!(located(&seg, &[(1, &[12])]), vec![102, 103]);
        // A sparse column (codes far apart) takes the multi-pass sort.
        let sparse = vec![
            tuple(&[&[7, 900_000], &[1]]),
            tuple(&[&[3, 70_000], &[2]]),
            tuple(&[&[3, 900_000], &[3]]),
        ];
        let seg = Segment::encode(&sparse, 1);
        assert_eq!(seg.decode(), sparse);
        assert_eq!(located(&seg, &[(0, &[900_000])]), vec![100, 102]);
        assert_eq!(located(&seg, &[(0, &[3])]), vec![101, 102]);
    }

    fn located(seg: &Segment, conjuncts: &[(usize, &[u32])]) -> Vec<usize> {
        let sets: Vec<(usize, ValueSet)> = conjuncts.iter().map(|&(a, vs)| (a, set(vs))).collect();
        let conjuncts: Vec<Conjunct<'_>> = sets.iter().map(|(a, vs)| (*a, vs.as_slice())).collect();
        let mut spans = Vec::new();
        let any = seg.locate(&conjuncts, 100, &mut spans);
        assert_eq!(any, !spans.is_empty());
        assert!(spans.windows(2).all(|w| w[0].end < w[1].start), "merged");
        Rows::of_spans(spans).collect()
    }

    #[test]
    fn locate_answers_which_rows_exactly() {
        let seg = Segment::encode(&sample(), 1);
        // One value, an IN-list (merged lists, duplicates collapsed), a
        // multi-attribute conjunction, and the offset by `base`.
        assert_eq!(located(&seg, &[(1, &[10])]), vec![100, 101]);
        assert_eq!(located(&seg, &[(1, &[11, 12, 20])]), vec![102, 103, 104]);
        assert_eq!(located(&seg, &[(1, &[11, 12]), (0, &[4, 7])]), vec![103]);
        assert_eq!(located(&seg, &[(0, &[3]), (1, &[10])]), vec![100]);
        // In the zone but absent; out of the zone; absent on one side.
        assert_eq!(located(&seg, &[(1, &[15])]), Vec::<usize>::new());
        assert_eq!(located(&seg, &[(0, &[99])]), Vec::<usize>::new());
        assert_eq!(located(&seg, &[(0, &[1]), (1, &[20])]), Vec::<usize>::new());
        // No conjunct: every row.
        assert_eq!(located(&seg, &[]), vec![100, 101, 102, 103, 104]);
    }

    #[test]
    fn zone_maps_bound_all_set_members() {
        let seg = Segment::encode(&sample(), 1);
        assert_eq!(seg.min(0), Atom(1));
        assert_eq!(seg.max(0), Atom(9));
        assert_eq!(seg.min(1), Atom(10));
        assert_eq!(seg.max(1), Atom(20));
    }

    fn tiling(target_rows: usize) -> Tiling {
        Tiling {
            outer_attr: Some(1),
            target_rows,
        }
    }

    fn starts(ss: &ShardSegments) -> Vec<usize> {
        ss.ranges().map(|(range, _)| range.start).collect()
    }

    #[test]
    fn shard_segments_tile_and_absorb() {
        let tuples: Vec<NfTuple> = (0..10u32).map(|i| tuple(&[&[i], &[100 + i / 3]])).collect();
        let mut ss = ShardSegments::new();
        assert_eq!(ss.segment_count(), 0);
        assert!(ss.is_uniform(4), "no segments tile no tuples");
        ss.rebuild(&tuples, tiling(4));
        assert_eq!(ss.segment_count(), 3, "10 rows at target 4 → 4+4+2");
        assert_eq!(ss.covered_rows(), 10);
        assert_eq!(starts(&ss), vec![0, 4, 8]);
        assert!(ss.is_uniform(4));
        assert!(!ss.is_uniform(5));
        ss.rebuild(&tuples, tiling(DEFAULT_SEGMENT_ROWS));
        assert_eq!(ss.segment_count(), 1);
    }

    #[test]
    fn patch_reencodes_only_the_touched_segments() {
        let mut tuples: Vec<NfTuple> = (0..12u32).map(|i| tuple(&[&[i], &[100 + i]])).collect();
        let mut ss = ShardSegments::new();
        ss.rebuild(&tuples, tiling(4));
        let before: Vec<Arc<Segment>> = ss.segments().to_vec();

        // One insert inside the middle segment.
        tuples.insert(5, tuple(&[&[50], &[104]]));
        let mut patch = ss.patch();
        patch.inserted(5);
        patch.finish(&tuples, tiling(4));
        assert_eq!(starts(&ss), vec![0, 4, 9]);
        assert!(
            Arc::ptr_eq(&ss.segments()[0], &before[0]),
            "untouched: shared"
        );
        assert!(
            Arc::ptr_eq(&ss.segments()[2], &before[2]),
            "shifted: shared"
        );
        assert_eq!(*ss.segments()[1], Segment::encode(&tuples[4..9], 1));
        assert_eq!(
            ss.segments()[1].max(0),
            Atom(50),
            "zone map follows the edit"
        );
        assert!(!ss.is_uniform(4), "patched tiling drifts from the target");
    }

    #[test]
    fn patch_drops_emptied_and_splits_overgrown_segments() {
        let mut tuples: Vec<NfTuple> = (0..6u32).map(|i| tuple(&[&[i], &[100 + i]])).collect();
        let mut ss = ShardSegments::new();
        ss.rebuild(&tuples, tiling(2));
        assert_eq!(ss.segment_count(), 3);

        // Empty the first segment: it disappears.
        let mut patch = ss.patch();
        tuples.remove(0);
        patch.removed(0);
        tuples.remove(0);
        patch.removed(0);
        patch.finish(&tuples, tiling(2));
        assert_eq!(ss.segment_count(), 2);
        assert_eq!(ss.covered_rows(), 4);

        // Grow the last one past twice the target: it splits at the target.
        let mut patch = ss.patch();
        for i in 0..3u32 {
            tuples.push(tuple(&[&[60 + i], &[200 + i]]));
            patch.inserted(tuples.len() - 1);
        }
        patch.finish(&tuples, tiling(2));
        assert_eq!(starts(&ss), vec![0, 2, 4, 6], "5 rows at target 2 → 2+2+1");
        for (range, seg) in ss.ranges() {
            assert_eq!(seg.decode(), tuples[range]);
        }
    }

    #[test]
    fn first_tuple_of_an_empty_shard_opens_a_segment() {
        let tuples = vec![tuple(&[&[1], &[10]])];
        let mut ss = ShardSegments::new();
        let mut patch = ss.patch();
        patch.inserted(0);
        patch.finish(&tuples, tiling(4));
        assert_eq!(ss.segment_count(), 1);
        assert_eq!(ss.covered_rows(), 1);
    }

    #[test]
    fn patch_locates_from_postings_until_a_slot_is_touched() {
        let mut tuples: Vec<NfTuple> = (0..12u32).map(|i| tuple(&[&[i], &[100 + i]])).collect();
        let mut ss = ShardSegments::new();
        ss.rebuild(&tuples, tiling(4));
        let v = [Atom(9)];
        let nine: &[Conjunct<'_>] = &[(0, &v)];
        assert_eq!(ss.locate(12, nine).rows.collect::<Vec<_>>(), vec![9]);
        assert_eq!(ss.locate(12, nine).skipped, 2);

        let mut patch = ss.patch();
        assert_eq!(patch.locate(12, nine).collect::<Vec<_>>(), vec![9]);
        // An insert into the middle slot: its range comes back whole
        // (shifted rows no longer match its postings), the clean slot
        // after it answers from postings at its new offset.
        tuples.insert(5, tuple(&[&[50], &[104]]));
        patch.inserted(5);
        assert_eq!(
            patch.locate(13, nine).collect::<Vec<_>>(),
            vec![4, 5, 6, 7, 8, 10]
        );
        assert_eq!(patch.locate(13, &[]).collect::<Vec<_>>().len(), 13);
        patch.finish(&tuples, tiling(4));
        assert_eq!(ss.locate(13, nine).rows.collect::<Vec<_>>(), vec![10]);
    }

    #[test]
    fn zero_arity_shards_stay_unsegmented() {
        let none = Tiling {
            outer_attr: None,
            target_rows: DEFAULT_SEGMENT_ROWS,
        };
        let mut ss = ShardSegments::new();
        ss.rebuild(&[NfTuple::new(vec![])], none);
        assert_eq!(ss.segment_count(), 0);
        let mut patch = ss.patch();
        patch.inserted(0);
        patch.finish(&[NfTuple::new(vec![])], none);
        assert_eq!(ss.segment_count(), 0);
    }
}
