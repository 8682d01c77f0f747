//! Sorted immutable columnar segments over a shard's canonical tuples.
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
//! tuple vector into immutable
//! [`Segment`]s, each carrying
//!
//! * **dictionary-coded columns** — components are stored as the
//!   [`Atom`] codes already interned through the shared dictionary, one
//!   offsets+values pair per non-outer attribute;
//! * **run-length encoding on the outer attribute** — consecutive
//!   tuples sharing the same `P(n−1)` set collapse into one run, which
//!   is exactly where the canonical form concentrates repetition;
//! * **zone-map metadata** — per-attribute min/max codes (over all set
//!   members) and the run count as a distinct-count estimate, so range
//!   and equality predicates can refute whole segments without probing
//!   a single tuple.
//!
//! Segments are immutable and `Arc`-shared between consecutive shard
//! versions. §4 point maintenance keeps the tuple vector in the kernel's
//! order (ordered `insert`/`remove` at the canonical position, see
//! [`crate::maintenance`]) and reports every position it touches to a
//! `SegmentPatch`; when the operation is done the patch re-encodes
//! exactly the segments whose tuple range changed — dropping one that
//! emptied, splitting one that outgrew twice the tiling target — and
//! carries every other segment over by pointer. A shard's segments
//! therefore describe its live tuple vector at every version: ordered
//! scans and zone-map skipping never have to check for staleness.
//! Segment boundaries drift from the uniform tiling as patches
//! accumulate; a checkpoint re-tiles ([`ShardSegments::rebuild`]) so the
//! persisted synopsis is the one a reopen re-derives.

use std::ops::Range;
use std::sync::Arc;

use crate::maintenance::TupleEdits;
use crate::tuple::{NfTuple, ValueSet};
use crate::value::Atom;

/// Default number of canonical NF² tuples per segment. Small enough
/// that skipping a segment saves real work at E-scale row counts, large
/// enough that per-segment metadata stays negligible.
pub const DEFAULT_SEGMENT_ROWS: usize = 512;

/// A dictionary-coded column for one (non-outer) attribute: the sets of
/// `rows` consecutive tuples, stored as one concatenated atom vector
/// with row offsets. Offsets are `u32`: a segment holds at most
/// [`DEFAULT_SEGMENT_ROWS`] tuples, far below the offset range.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrColumn {
    /// `rows + 1` offsets into `values`; row `i` owns
    /// `values[offsets[i]..offsets[i+1]]`.
    offsets: Vec<u32>,
    /// Concatenated set members, each row's slice strictly ascending.
    values: Vec<Atom>,
}

impl AttrColumn {
    fn encode(tuples: &[NfTuple], attr: usize) -> Self {
        let mut offsets = Vec::with_capacity(tuples.len() + 1);
        let mut values = Vec::new();
        offsets.push(0u32);
        for t in tuples {
            values.extend_from_slice(t.component(attr).as_slice());
            offsets.push(values.len() as u32);
        }
        AttrColumn { offsets, values }
    }

    /// Number of rows encoded.
    pub fn rows(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The set slice of one row (sorted ascending).
    pub fn set(&self, row: usize) -> &[Atom] {
        &self.values[self.offsets[row] as usize..self.offsets[row + 1] as usize]
    }

    /// Total atoms stored.
    pub fn atom_count(&self) -> usize {
        self.values.len()
    }
}

/// The run-length-encoded outer column: consecutive tuples whose
/// `P(n−1)` sets are identical share one stored copy of the set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RleColumn {
    /// Tuples per run.
    run_lens: Vec<u32>,
    /// `runs + 1` offsets into `values`; run `r` owns
    /// `values[offsets[r]..offsets[r+1]]`.
    offsets: Vec<u32>,
    /// Concatenated run sets, each strictly ascending.
    values: Vec<Atom>,
}

impl RleColumn {
    fn encode(tuples: &[NfTuple], attr: usize) -> Self {
        let mut run_lens: Vec<u32> = Vec::new();
        let mut offsets = vec![0u32];
        let mut values: Vec<Atom> = Vec::new();
        for t in tuples {
            let set = t.component(attr).as_slice();
            let prev = offsets
                .len()
                .checked_sub(2)
                .map(|r| &values[offsets[r] as usize..offsets[r + 1] as usize]);
            if prev == Some(set) {
                let last = run_lens
                    .last_mut()
                    .expect("a previous run exists whenever prev matched");
                *last += 1;
            } else {
                values.extend_from_slice(set);
                offsets.push(values.len() as u32);
                run_lens.push(1);
            }
        }
        RleColumn {
            run_lens,
            offsets,
            values,
        }
    }

    /// Number of runs (= distinct consecutive outer sets).
    pub fn runs(&self) -> usize {
        self.run_lens.len()
    }

    /// Tuples in run `r`.
    pub fn run_len(&self, r: usize) -> usize {
        self.run_lens[r] as usize
    }

    /// The shared set slice of run `r` (sorted ascending).
    pub fn run_set(&self, r: usize) -> &[Atom] {
        &self.values[self.offsets[r] as usize..self.offsets[r + 1] as usize]
    }

    /// Total rows across runs.
    pub fn rows(&self) -> usize {
        self.run_lens.iter().map(|&l| l as usize).sum()
    }

    /// Atoms stored after run-length collapsing.
    pub fn atom_count(&self) -> usize {
        self.values.len()
    }
}

/// One sorted immutable columnar segment: `rows` consecutive tuples of
/// a shard's canonical tuple vector, stored column-wise with zone-map
/// metadata. A segment does not know where it starts — its position is
/// the sum of the row counts before it ([`ShardSegments::ranges`]) — so
/// an edit earlier in the shard shifts it without touching it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    rows: usize,
    outer_attr: usize,
    /// Per-attribute minimum atom code over all set members of all rows.
    mins: Vec<Atom>,
    /// Per-attribute maximum atom code over all set members of all rows.
    maxs: Vec<Atom>,
    /// One dictionary-coded column per attribute; `None` at
    /// `outer_attr`, whose data lives in `outer`.
    columns: Vec<Option<AttrColumn>>,
    /// The run-length-encoded outer (`P(n−1)`) column.
    outer: RleColumn,
}

impl Segment {
    /// Encodes `tuples` (non-empty, all of the same arity ≥ 1) as one
    /// segment. The caller guarantees the slice is in canonical sorted
    /// order (a kernel rebuild, or ordered §4 maintenance of one);
    /// encoding itself never re-sorts.
    pub fn encode(tuples: &[NfTuple], outer_attr: usize) -> Self {
        debug_assert!(!tuples.is_empty(), "segments hold at least one tuple");
        let arity = tuples[0].arity();
        debug_assert!(outer_attr < arity, "outer attribute must be in-schema");
        let mut mins = vec![Atom(u32::MAX); arity];
        let mut maxs = vec![Atom(0); arity];
        for t in tuples {
            for (a, comp) in t.components().iter().enumerate() {
                let s = comp.as_slice();
                // invariant: ValueSet slices are non-empty and sorted
                let lo = *s.first().expect("value sets are non-empty");
                let hi = *s.last().expect("value sets are non-empty");
                if lo < mins[a] {
                    mins[a] = lo;
                }
                if hi > maxs[a] {
                    maxs[a] = hi;
                }
            }
        }
        let columns = (0..arity)
            .map(|a| (a != outer_attr).then(|| AttrColumn::encode(tuples, a)))
            .collect();
        let seg = Segment {
            rows: tuples.len(),
            outer_attr,
            mins,
            maxs,
            columns,
            outer: RleColumn::encode(tuples, outer_attr),
        };
        debug_assert_eq!(
            seg.decode(),
            tuples,
            "columnar round-trip must reproduce the encoded tuples"
        );
        seg
    }

    /// Number of tuples covered.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The attribute stored run-length encoded (`P(n−1)`).
    pub fn outer_attr(&self) -> usize {
        self.outer_attr
    }

    /// Zone-map minimum code for `attr`.
    pub fn min(&self, attr: usize) -> Atom {
        self.mins[attr]
    }

    /// Zone-map maximum code for `attr`.
    pub fn max(&self, attr: usize) -> Atom {
        self.maxs[attr]
    }

    /// Distinct-count estimate for the outer attribute: the RLE run
    /// count. Exact when equal outer sets are always adjacent (an upper
    /// bound otherwise, since ties on the outer minimum can interleave
    /// distinct sets).
    pub fn distinct_outer(&self) -> usize {
        self.outer.runs()
    }

    /// The run-length-encoded outer column.
    pub fn outer_column(&self) -> &RleColumn {
        &self.outer
    }

    /// The dictionary-coded column of a non-outer attribute.
    pub fn column(&self, attr: usize) -> Option<&AttrColumn> {
        self.columns[attr].as_ref()
    }

    /// Whether any value in `values` falls inside this segment's
    /// `[min, max]` zone for `attr` — the zone-map test: `false` proves
    /// no tuple in the segment can intersect `values` on `attr`, so the
    /// whole segment can be skipped without probing it.
    pub fn admits(&self, attr: usize, values: &ValueSet) -> bool {
        let s = values.as_slice();
        let i = s.partition_point(|&v| v < self.mins[attr]);
        i < s.len() && s[i] <= self.maxs[attr]
    }

    /// Atoms stored across all columns after encoding (RLE savings
    /// included) — the numerator of the compression ratio.
    pub fn encoded_atoms(&self) -> usize {
        self.outer.atom_count()
            + self
                .columns
                .iter()
                .flatten()
                .map(AttrColumn::atom_count)
                .sum::<usize>()
    }

    /// Reconstructs the covered tuples from the columns. Test and
    /// verification helper: the result must equal the tuple-store slice
    /// the segment was encoded from.
    pub fn decode(&self) -> Vec<NfTuple> {
        let arity = self.columns.len();
        let mut out = Vec::with_capacity(self.rows);
        let mut run = 0usize;
        let mut left_in_run = self.outer.run_len(0);
        for row in 0..self.rows {
            if left_in_run == 0 {
                run += 1;
                left_in_run = self.outer.run_len(run);
            }
            left_in_run -= 1;
            let tuple = (0..arity)
                .map(|a| {
                    ValueSet::from_sorted_unchecked(match &self.columns[a] {
                        Some(col) => col.set(row),
                        None => self.outer.run_set(run),
                    })
                })
                .collect();
            out.push(tuple);
        }
        out
    }
}

/// How a shard's tuple vector is cut into segments: the attribute stored
/// run-length encoded and the target tuples per segment.
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
        // Outer sets: {10},{10},{11,12},{11,12},{20} → 3 runs.
        assert_eq!(seg.distinct_outer(), 3);
        assert_eq!(seg.outer_column().run_len(0), 2);
        assert_eq!(seg.outer_column().run_set(1), &[Atom(11), Atom(12)]);
        // 4 distinct outer atoms stored instead of 7 expanded.
        assert_eq!(seg.outer_column().atom_count(), 4);
        assert_eq!(seg.outer_column().rows(), 5);
        // Column 0 keeps every atom (7), outer stores 4: 11 total.
        assert_eq!(seg.encoded_atoms(), 11);
    }

    #[test]
    fn zone_maps_bound_all_set_members() {
        let seg = Segment::encode(&sample(), 1);
        assert_eq!(seg.min(0), Atom(1));
        assert_eq!(seg.max(0), Atom(9));
        assert_eq!(seg.min(1), Atom(10));
        assert_eq!(seg.max(1), Atom(20));
    }

    #[test]
    fn admits_refutes_out_of_zone_predicates() {
        let seg = Segment::encode(&sample(), 1);
        assert!(seg.admits(0, &set(&[5])));
        assert!(seg.admits(0, &set(&[0, 9])));
        assert!(!seg.admits(0, &set(&[0])));
        assert!(!seg.admits(0, &set(&[10, 99])));
        assert!(seg.admits(1, &set(&[15])), "zones are ranges, not sets");
        assert!(!seg.admits(1, &set(&[21])));
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
