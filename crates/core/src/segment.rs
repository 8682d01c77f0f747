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
//!   the codes and sorted-list intersection. Scans, `contains` and the
//!   keyed batch's searches all ask it ([`ShardSegments::locate`]) and
//!   nothing else locates a tuple;
//! * **zone metadata for free** — an attribute's `[min, max]` zone is its
//!   first and last code, and the number of runs of equal consecutive
//!   outer sets (the distinct-count estimate a checkpoint persists) is
//!   counted while encoding.
//!
//! Segments are immutable and `Arc`-shared between consecutive shard
//! versions. Every write to a shard is a keyed batch ([`crate::bulk`]),
//! a point write being a batch of one: it searches before it edits and
//! ends in one ordered merge of the tuple vector, which it reports to
//! the segments in a single sweep (`ShardSegments::splice`). Each
//! segment the merge touched is rebuilt once — *patched*, its postings
//! renumbered in place and only the tuples that entered read, instead
//! of transposed afresh; dropped if it emptied, split if it outgrew
//! twice the tiling target — and every other segment is carried over by
//! pointer. A shard's segments therefore describe its live tuple vector
//! at every version: ordered scans and located reads never have to
//! check for staleness. Segment boundaries drift from the uniform
//! tiling as merges accumulate; a checkpoint re-tiles
//! ([`ShardSegments::rebuild`]) so the persisted synopsis is the one a
//! reopen re-derives.

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

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

/// Appends one `(code << 32 | row)` key per member of `t`'s `attr` set.
fn push_keys(keys: &mut Vec<u64>, t: &NfTuple, attr: usize, row: u64) {
    let members = t.component(attr).as_slice();
    keys.extend(members.iter().map(|v| u64::from(v.id()) << 32 | row));
}

/// Sorts `(code << 32 | row)` keys, generated in row order, by code: a
/// stable least-significant-digit radix sort over the bits in which the
/// codes differ at all, so rows stay ascending within a code and the
/// cost is linear in the keys — dictionary codes are dense small
/// integers, which makes most columns one or two passes. A segment of
/// few fat tuples (thousands of set members) sorts the keys of every
/// tuple that enters it; a comparison sort there is what the write
/// would spend its time on.
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

/// In a row renumbering: this row is no longer there.
const GONE: u32 = u32::MAX;

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
            push_keys(keys, t, attr, row as u64);
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

    /// This column after an edit of its segment's rows: `renumber[row]`
    /// is what each present row is called afterwards ([`GONE`] if it
    /// left; the mapping ascends, so every list stays sorted), and
    /// `added` holds one `(code << 32 | row)` key, in code-then-row
    /// order, per set member of the rows that entered. One pass over
    /// the codes, each list renumbered and merged with the additions
    /// that join it; a code left without rows is dropped, one only
    /// entered rows hold is opened.
    fn patched(&self, renumber: &[u32], added: &[u64]) -> Self {
        let code_of = |key: u64| (key >> 32) as u32;
        let mut codes = Vec::with_capacity(self.codes.len() + added.len());
        let mut offsets = Vec::with_capacity(self.codes.len() + added.len() + 1);
        let mut rows = vec![0u32; self.rows.len() + added.len()];
        let (mut filled, mut taken) = (0usize, 0usize);
        // Moves the additions of `code` below `bound` into the list.
        let mut take = |rows: &mut [u32], filled: &mut usize, code: u32, bound: u32| {
            while let Some(&key) = added
                .get(taken)
                .filter(|&&key| code_of(key) == code && (key as u32) < bound)
            {
                rows[*filled] = key as u32;
                *filled += 1;
                taken += 1;
            }
            added.get(taken).map(|&key| code_of(key))
        };
        let mut next_added = added.first().map(|&key| code_of(key));
        let kept = self.codes.iter().map(|code| Some(code.id())).enumerate();
        // One more turn after the last code takes the additions beyond it.
        for (i, code) in kept.chain([(self.codes.len(), None)]) {
            while let Some(opened) = next_added.filter(|&c| code.is_none_or(|code| c < code)) {
                codes.push(Atom(opened));
                offsets.push(filled as u32);
                next_added = take(&mut rows, &mut filled, opened, GONE);
            }
            let Some(code) = code else {
                break;
            };
            let start = filled;
            let joins = next_added == Some(code);
            for &row in self.rows_at(i) {
                let row = renumber[row as usize];
                if row != GONE {
                    if joins {
                        take(&mut rows, &mut filled, code, row);
                    }
                    rows[filled] = row;
                    filled += 1;
                }
            }
            if joins {
                next_added = take(&mut rows, &mut filled, code, GONE);
            }
            if filled > start {
                codes.push(Atom(code));
                offsets.push(start as u32);
            }
        }
        assert!(
            u32::try_from(filled).is_ok(),
            "a segment's set members must fit its u32 offsets"
        );
        offsets.push(filled as u32);
        rows.truncate(filled);
        ValueColumn {
            codes: codes.into(),
            offsets: offsets.into(),
            rows: rows.into(),
        }
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

/// Runs of equal consecutive outer sets among `tuples` (non-empty).
fn outer_runs(tuples: &[NfTuple], outer_attr: usize) -> usize {
    1 + tuples
        .windows(2)
        .filter(|w| w[0].component(outer_attr) != w[1].component(outer_attr))
        .count()
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
        let seg = Segment {
            rows: tuples.len(),
            outer_attr,
            outer_runs: outer_runs(tuples, outer_attr),
            columns,
        };
        debug_assert_eq!(
            seg.decode(),
            tuples,
            "value-major round-trip must reproduce the encoded tuples"
        );
        seg
    }

    /// The segment of `now` — this segment's tuples after one ordered
    /// merge: the rows `gone` left and one tuple entered before each row
    /// of `come` (this segment's row numbers, `rows()` for an append;
    /// both ascending) — derived from this one's postings instead of
    /// transposed afresh: the rows that stay are renumbered in place
    /// and only the tuples that entered are read. Equal to
    /// [`encode`](Self::encode)`(now)`, which debug builds check.
    fn patched(&self, gone: &[u32], come: &[u32], now: &[NfTuple]) -> Self {
        let mut renumber = Vec::with_capacity(self.rows);
        let mut entered = Vec::with_capacity(come.len());
        let (mut gone, mut come) = (gone.iter().peekable(), come.iter().peekable());
        let mut next = 0u32;
        for row in 0..=self.rows as u32 {
            while come.next_if(|&&before| before == row).is_some() {
                entered.push(next);
                next += 1;
            }
            if (row as usize) < self.rows {
                if gone.next_if(|&&left| left == row).is_some() {
                    renumber.push(GONE);
                } else {
                    renumber.push(next);
                    next += 1;
                }
            }
        }
        debug_assert_eq!(next as usize, now.len(), "the edits lead to `now`");
        let (mut keys, mut spare) = (Vec::new(), Vec::new());
        let columns = self
            .columns
            .iter()
            .enumerate()
            .map(|(attr, column)| {
                keys.clear();
                for &row in &entered {
                    push_keys(&mut keys, &now[row as usize], attr, u64::from(row));
                }
                if !keys.is_sorted() {
                    sort_by_code(&mut keys, &mut spare);
                }
                column.patched(&renumber, &keys)
            })
            .collect();
        let seg = Segment {
            rows: now.len(),
            outer_attr: self.outer_attr,
            outer_runs: outer_runs(now, self.outer_attr),
            columns,
        };
        debug_assert_eq!(
            seg,
            Segment::encode(now, self.outer_attr),
            "patched postings must equal a fresh transposition"
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
            .map(|comps| comps.into_iter().map(ValueSet::of_sorted).collect())
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

    /// Brings the segments up to `tuples`: the vector they tile after
    /// one ordered merge, in which the tuples at `removed` left and one
    /// tuple entered before each position of `entered` (the old length
    /// for an append) — both ascending, in positions of the vector
    /// *before* the merge. A tuple entering on a boundary joins the
    /// segment that starts there; past the end, the last one. A segment
    /// the merge did not touch is shared, one it emptied is dropped, one
    /// past twice the tiling target is split into freshly encoded
    /// pieces, and any other is patched from its own postings; an empty
    /// shard's first tuples are encoded afresh. Returns the number of
    /// segments built.
    pub(crate) fn splice(
        &mut self,
        removed: &[usize],
        entered: &[usize],
        tuples: &[NfTuple],
        tiling: Tiling,
    ) -> usize {
        let Some(outer) = tiling.outer_attr else {
            return 0;
        };
        let target = tiling.target_rows.max(1);
        let old = std::mem::take(&mut self.segments);
        let (mut removed, mut entered) = (removed.iter().peekable(), entered.iter().peekable());
        let (mut start, mut now, mut built) = (0usize, 0usize, 0usize);
        // An empty shard takes its first tuples as one segment-less slot.
        for at in 0..old.len().max(1) {
            let was = old.get(at);
            let held = was.map_or(0, |seg| seg.rows());
            // The last slot's range runs to wherever the positions do.
            let end = if at + 1 >= old.len() {
                usize::MAX
            } else {
                start + held
            };
            let local = |position: &usize| (position - start) as u32;
            let gone: Vec<u32> = std::iter::from_fn(|| removed.next_if(|&&p| p < end))
                .map(local)
                .collect();
            let come: Vec<u32> = std::iter::from_fn(|| entered.next_if(|&&p| p < end))
                .map(local)
                .collect();
            debug_assert!(gone.len() <= held, "removed tuples lie in a segment");
            let rows = held + come.len() - gone.len();
            let slice = &tuples[now..now + rows];
            start += held;
            now += rows;
            let shared = self.segments.len();
            match was {
                Some(seg) if gone.is_empty() && come.is_empty() => {
                    self.segments.push(Arc::clone(seg));
                    continue;
                }
                Some(seg) if (1..=2 * target).contains(&rows) => {
                    self.segments
                        .push(Arc::new(seg.patched(&gone, &come, slice)));
                }
                _ => {
                    let piece = if rows > 2 * target {
                        target
                    } else {
                        rows.max(1)
                    };
                    self.segments.extend(tiles(slice, piece, outer));
                }
            }
            built += self.segments.len() - shared;
        }
        debug_assert_eq!(now, tuples.len(), "the merge accounts for every tuple");
        built
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
        let entering = vec![(5, tuple(&[&[50], &[104]]))];
        assert_eq!(sweep(&mut ss, &mut tuples, &[], entering, 4), 1);
        assert_eq!(starts(&ss), vec![0, 4, 9]);
        assert!(
            Arc::ptr_eq(&ss.segments()[0], &before[0]),
            "untouched: shared"
        );
        assert!(
            Arc::ptr_eq(&ss.segments()[2], &before[2]),
            "shifted: shared"
        );
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
        sweep(&mut ss, &mut tuples, &[0, 1], Vec::new(), 2);
        assert_eq!(ss.segment_count(), 2);

        // Grow the last one past twice the target: it splits at the target.
        let entering = (0..3u32)
            .map(|i| (4, tuple(&[&[60 + i], &[200 + i]])))
            .collect();
        sweep(&mut ss, &mut tuples, &[], entering, 2);
        assert_eq!(starts(&ss), vec![0, 2, 4, 6], "5 rows at target 2 → 2+2+1");
    }

    #[test]
    fn first_tuple_of_an_empty_shard_opens_a_segment() {
        let mut ss = ShardSegments::new();
        let entering = vec![(0, tuple(&[&[1], &[10]]))];
        assert_eq!(sweep(&mut ss, &mut Vec::new(), &[], entering, 4), 1);
        assert_eq!(ss.segment_count(), 1);
    }

    /// Applies one ordered merge to `tuples` and reports it to `ss` in
    /// one sweep; checks the result tiles the new vector with exactly
    /// the segments a fresh encoding of each range gives.
    fn sweep(
        ss: &mut ShardSegments,
        tuples: &mut Vec<NfTuple>,
        removed: &[usize],
        entering: Vec<(usize, NfTuple)>,
        target_rows: usize,
    ) -> usize {
        let entered: Vec<usize> = entering.iter().map(|(before, _)| *before).collect();
        let mut next = Vec::new();
        let mut entering = entering.into_iter().peekable();
        for (at, t) in tuples.iter().enumerate() {
            while let Some((_, new)) = entering.next_if(|(before, _)| *before == at) {
                next.push(new);
            }
            if !removed.contains(&at) {
                next.push(t.clone());
            }
        }
        next.extend(entering.map(|(_, new)| new));
        *tuples = next;
        let built = ss.splice(removed, &entered, tuples, tiling(target_rows));
        assert_eq!(ss.covered_rows(), tuples.len());
        for (range, seg) in ss.ranges() {
            assert_eq!(*seg, Segment::encode(&tuples[range], 1));
        }
        built
    }

    #[test]
    fn a_sweep_patches_the_touched_segments_from_their_postings() {
        let mut tuples: Vec<NfTuple> = (0..12u32)
            .map(|i| tuple(&[&[i, 40 + i % 3], &[100 + 2 * i]]))
            .collect();
        let mut ss = ShardSegments::new();
        ss.rebuild(&tuples, tiling(4));
        let before: Vec<Arc<Segment>> = ss.segments().to_vec();
        // The first segment loses a row and gains two (one on its lower
        // edge, one holding a code nothing in it held); the second is
        // left alone; the third loses its first row — taking code 108's
        // last posting with it — and gains an append.
        let built = sweep(
            &mut ss,
            &mut tuples,
            &[2, 8],
            vec![
                (0, tuple(&[&[0, 77], &[99]])),
                (3, tuple(&[&[2, 41], &[105, 106]])),
                (12, tuple(&[&[9, 500], &[130]])),
            ],
            4,
        );
        assert_eq!(built, 2);
        assert_eq!(starts(&ss), vec![0, 5, 9]);
        assert!(
            Arc::ptr_eq(&ss.segments()[1], &before[1]),
            "shifted: shared"
        );
        assert_eq!(ss.segments()[0].min(1), Atom(99), "zone follows the edit");
        assert_eq!(ss.segments()[2].min(1), Atom(118));
        assert_eq!(ss.segments()[2].max(0), Atom(500));
        assert_eq!(ss.segments()[0].distinct_outer(), 5);
    }

    #[test]
    fn a_sweep_drops_emptied_splits_outgrown_and_opens_first_segments() {
        let mut tuples: Vec<NfTuple> = (0..6u32).map(|i| tuple(&[&[i], &[100 + 10 * i]])).collect();
        let mut ss = ShardSegments::new();
        ss.rebuild(&tuples, tiling(2));
        // The first segment empties; five tuples crowd into the second
        // (past twice the target: split, encoded afresh); on the
        // boundary a tuple joins the segment that starts there.
        let crowd = (0..5u32).map(|i| (3, tuple(&[&[50 + i], &[121 + i]])));
        let entering = crowd.chain([(4, tuple(&[&[60], &[135]]))]).collect();
        sweep(&mut ss, &mut tuples, &[0, 1], entering, 2);
        assert_eq!(starts(&ss), vec![0, 2, 4, 6, 7]);
        // Everything leaves, then tuples enter the empty shard.
        let all: Vec<usize> = (0..tuples.len()).collect();
        assert_eq!(sweep(&mut ss, &mut tuples, &all, Vec::new(), 2), 0);
        assert_eq!(ss.segment_count(), 0);
        let entering = (0..3u32).map(|i| (0, tuple(&[&[i], &[7 + i]]))).collect();
        assert_eq!(sweep(&mut ss, &mut tuples, &[], entering, 2), 1);
        assert_eq!(ss.covered_rows(), 3, "3 ≤ twice the target: one segment");
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
        assert_eq!(ss.splice(&[], &[0], &[NfTuple::new(vec![])], none), 0);
        assert_eq!(ss.segment_count(), 0);
    }
}
