//! Sorted immutable value-major segments: the chunks a shard's canonical
//! tuples live in.
//!
//! The nest kernel already pays one global sort per rebuild
//! ([`NestKernel::canonical_of_flat`](crate::kernel::NestKernel)): with
//! the last-nested attribute `P(n−1)` outermost, the emitted NF² tuples
//! come out ordered by the componentwise-minimum representative
//! `(min P(n−1), min P(n−2), …, min P(0))` — stage-`j` grouping requires
//! set-equality on every earlier position, so the row carrying the
//! minimum outer value of a tuple spans the tuple's full inner sets.
//! Segments make that order *be* the storage order: a shard of a
//! [`ShardedCanonical`](crate::shard::ShardedCanonical) is a list of
//! immutable [`Segment`]s, and each segment owns one **chunk** of
//! consecutive tuples — the shard's tuples are its chunks back to back,
//! in kernel order — beside that chunk stored **transposed**: per
//! attribute, the distinct dictionary codes ([`Atom`]s) that occur in
//! the chunk, ascending, and for each code the ascending list of
//! segment-local rows whose set holds it. The chunk is what scans yield
//! from (a [`TupleView::Shared`](crate::tuple::TupleView) pins the
//! segment, not the shard); the columns answer *which of its tuples*
//! without walking them:
//!
//! * **one question** — [`Segment::locate`]: the rows whose components
//!   intersect every `(attr, values)` [`Conjunct`], by binary search on
//!   the codes and sorted-list intersection. Scans, `contains` and the
//!   keyed batch's searches all ask it ([`ShardSegments::locate`]) and
//!   nothing else locates a tuple;
//! * **zone metadata for free** — an attribute's `[min, max]` zone is its
//!   first and last code; the chunk's flat-row count `|R*|` is counted
//!   while encoding;
//! * **a membership filter on the routing attribute** — a blocked Bloom
//!   filter over the column's `P(n−1)` codes ([`KEY_FILTER_BYTES`], built
//!   with the column and patched with it), which a locate on `P(n−1)`
//!   consults before the zone. The zone alone cannot refute a key there:
//!   canonical form nests `P(n−1)` last, so keys whose other attributes
//!   coincide share one tuple, and a few such shared rests are enough
//!   to stretch a segment's `P(n−1)` zone over most of the key range.
//!   The filter has no false negatives, so it only ever saves a search.
//!
//! A chunk stores its tuples as atoms, not as tuple objects: one array
//! of every set's members, back to back, bounded by `u32` offsets, one
//! per tuple and attribute plus a leading zero — the layout a column
//! keeps its row lists in, transposed. A segment is therefore a few arrays per
//! attribute whatever it holds, and a stored tuple is read in place as
//! a [`TupleRef`]; an owned [`NfTuple`] is built only where a pipeline
//! keeps one ([`TupleRef::into_owned`]).
//!
//! Segments are immutable and `Arc`-shared between consecutive shard
//! versions, chunk included. Every write to a shard is a keyed batch
//! ([`crate::bulk`]), a point write being a batch of one: it searches
//! before it edits and ends in one ordered merge, which it applies to
//! the segments in a single sweep (`ShardSegments::splice`). Only a
//! segment the merge touched is rebuilt — a new chunk, each run of its
//! kept tuples carried over as one copy of their atoms and one of their
//! offsets and the entering ones appended from their sets, so dropping
//! the chunk it replaced is a free per array, not per tuple — and columns
//! *patched* from its predecessor's postings instead of transposed
//! afresh: only the codes the entering and leaving tuples hold have
//! their row lists rebuilt, and every run of codes between them is
//! carried whole (copied, its rows renumbered by one gather), so a
//! point write rebuilds the tens of codes its own tuples hold, not the
//! hundreds its segment does; dropped if it emptied, split if it
//! outgrew twice the tiling target — and every other segment, tuples
//! and all, is carried over by pointer. Building a shard version, and
//! dropping its predecessor, therefore costs what the write touched,
//! not what the shard holds. A shard's segments *are* its tuples, so
//! ordered scans and located reads never have to check for staleness.
//! Segment boundaries drift from the uniform tiling as merges
//! accumulate, each segment staying within `[1, 2 × target]` tuples;
//! only a change of target (`set_segment_rows`) re-tiles
//! (`ShardSegments::rebuild`).

use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;

use crate::chunk::{recut, Chunk, ChunkBuilder};
use crate::schema::AttrId;
use crate::shard::BatchReport;
use crate::tuple::{NfTuple, TupleRef, TupleStore, ValueSet};
use crate::value::Atom;

/// Default number of canonical NF² tuples per segment. Small enough
/// that skipping a segment saves real work at E-scale row counts, large
/// enough that per-segment metadata stays negligible.
pub const DEFAULT_SEGMENT_ROWS: usize = 512;

/// Segments whose codes a lone `attr = value` conjunct searches at once
/// ([`ShardSegments::locate`]).
const LOCKSTEP: usize = 16;

/// One conjunct of the question segments answer: the tuple's `attr`
/// component must intersect `values` (ascending, as every [`ValueSet`]
/// slice is).
pub type Conjunct<'a> = (AttrId, &'a [Atom]);

/// What a [`Conjunct`] can be read from: a conjunct itself, or an
/// `(attr, set)` pair as a scan's zones hold it — so a caller locates
/// with what it holds instead of copying it into a vector first.
pub trait AsConjunct {
    /// The conjunct, borrowed.
    fn conjunct(&self) -> Conjunct<'_>;
}

impl AsConjunct for Conjunct<'_> {
    fn conjunct(&self) -> Conjunct<'_> {
        *self
    }
}

impl AsConjunct for (AttrId, ValueSet) {
    fn conjunct(&self) -> Conjunct<'_> {
        (self.0, self.1.as_slice())
    }
}

/// Ascending positions in a shard's tuple order (its chunks back to
/// back), held as the disjoint ranges they form — one range for a whole
/// span, one per run of neighbours otherwise — and handed out one
/// position at a time. The cursor is the range being handed out and
/// the index of the span after it, so [`Rows::ahead`] reads the
/// positions still to come from the spans themselves: a scan looks
/// ahead without cloning or allocating anything.
#[derive(Debug, Clone)]
pub struct Rows {
    /// What is left of the span being handed out.
    current: Range<usize>,
    /// The spans (ascending, disjoint); empty when `current` is the one
    /// span of [`Rows::all`].
    spans: Vec<Range<usize>>,
    /// The span after `current`.
    next_span: usize,
    remaining: usize,
}

impl Rows {
    /// Every position of a shard of `len` tuples.
    pub fn all(len: usize) -> Self {
        Rows {
            current: 0..len,
            spans: Vec::new(),
            next_span: 0,
            remaining: len,
        }
    }

    /// The positions of `spans` (ascending, disjoint, as
    /// [`Segment::locate`] appends them).
    pub fn of_spans(spans: Vec<Range<usize>>) -> Self {
        Rows {
            remaining: spans.iter().map(Range::len).sum(),
            current: 0..0,
            spans,
            next_span: 0,
        }
    }

    /// The positions [`next`](Iterator::next) will hand out, in order,
    /// without moving the cursor.
    pub fn ahead(&self) -> impl Iterator<Item = usize> + '_ {
        let rest = self.spans.get(self.next_span..).unwrap_or_default();
        self.current
            .clone()
            .chain(rest.iter().flat_map(Range::clone))
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
            self.current = self.spans.get(self.next_span)?.clone();
            self.next_span += 1;
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
fn push_keys(keys: &mut Vec<u64>, t: TupleRef<'_>, attr: usize, row: u64) {
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

/// The first position at or after `from` in the ascending `sorted`
/// whose entry is not below `key`: probes 1, 2, 4, … entries ahead, then
/// searches the last stride — steps logarithmic in the distance moved.
fn seek<T: Ord + Copy>(sorted: &[T], from: usize, key: T) -> usize {
    let (mut lo, mut probe, mut stride) = (from, from, 1);
    while probe < sorted.len() && sorted[probe] < key {
        lo = probe + 1;
        probe += stride;
        stride *= 2;
    }
    let hi = probe.min(sorted.len());
    lo + sorted[lo..hi].partition_point(|&entry| entry < key)
}

/// The position of the first [`GONE`] in `rows` at or after `from`, or
/// `rows.len()`: sixteen rows to a test, so the scan vectorizes.
fn next_gone(rows: &[u32], from: usize) -> usize {
    const LANES: usize = 16;
    let mut at = from;
    for lanes in rows[from..].chunks_exact(LANES) {
        if lanes.iter().fold(false, |hit, &row| hit | (row == GONE)) {
            break;
        }
        at += LANES;
    }
    at + rows[at..]
        .iter()
        .position(|&row| row == GONE)
        .unwrap_or(rows.len() - at)
}

/// Drops the rows that left ([`GONE`]) from the lists of `codes[first..]`
/// — `offsets` their starts, the last list ending at `rows.len()` — and
/// every code left without rows; returns how many codes lost a row.
/// Nothing before the first leaver moves. After it, the rows between
/// two leavers move down in one copy, and the codes whose lists start
/// there move down in one copy, their starts shifted by one constant:
/// the cost is a scan of the rows for leavers plus a step per leaver.
fn drop_gone(
    codes: &mut Vec<Atom>,
    offsets: &mut Vec<u32>,
    rows: &mut Vec<u32>,
    first: usize,
) -> usize {
    let end = rows.len();
    let mut read = next_gone(rows, offsets[first] as usize);
    // Codes up to the one holding the first leaver keep their slots;
    // `code` is the next input code to settle, `kept` its slot.
    let mut code = seek(offsets, first, read as u32 + 1);
    let (mut kept, mut removed, mut lost, mut holder) = (code, 0u32, 0, usize::MAX);
    while read < end {
        // The leaver at `read` belongs to the last code settled.
        lost += usize::from(holder != code - 1);
        holder = code - 1;
        removed += 1;
        let next = next_gone(rows, read + 1);
        rows.copy_within(read + 1..next, read + 1 - removed as usize);
        let upto = seek(offsets, code, next as u32 + 1);
        if upto > code {
            // The slot before these codes kept no row: overwrite it.
            kept -= usize::from(offsets[kept - 1] == offsets[code] - removed);
            if kept < code {
                codes.copy_within(code..upto, kept);
                offsets.copy_within(code..upto, kept);
            }
            let moved = kept..kept + (upto - code);
            offsets[moved.clone()]
                .iter_mut()
                .for_each(|start| *start -= removed);
            (kept, code) = (moved.end, upto);
        }
        read = next;
    }
    let len = end - removed as usize;
    kept -= usize::from(offsets[kept - 1] as usize == len);
    codes.truncate(kept);
    offsets.truncate(kept);
    rows.truncate(len);
    lost
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
    /// Transposes attribute `attr` of `chunk`: one `(code, row)` key per
    /// set member, generated row by row and brought into code order by
    /// [`sort_by_code`] — skipped when the keys already ascend, as they
    /// do on the outer attribute wherever its sets are singletons.
    /// `keys` and `spare` are scratch shared across a segment's
    /// attributes.
    fn encode(chunk: &Chunk, attr: usize, keys: &mut Vec<u64>, spare: &mut Vec<u64>) -> Self {
        keys.clear();
        for (row, t) in chunk.tuples().enumerate() {
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

    /// This column after an edit of its segment's rows, the number of
    /// codes whose row list it rebuilt one by one, and whether a code
    /// left it (its rows all gone). `renumber[row]` is
    /// what each present row is called afterwards ([`GONE`] if it left;
    /// the mapping ascends, so every list stays sorted), and `added`
    /// holds one `(code << 32 | row)` key, in code-then-row order, per
    /// set member of the rows that entered.
    ///
    /// Cost follows the edit, not the column. The codes `added` names
    /// are found by a galloping search from where the last one was, so
    /// a dense edit steps code by code and a sparse one leaps; each has
    /// its list rebuilt alone — renumbered, its leavers dropped, its
    /// entering rows merged in — or is opened if only entering rows
    /// hold it. Every run of codes between them is carried whole: its
    /// codes copied, its offsets shifted by one constant, its rows
    /// renumbered by one gather. A row that left shows up in that
    /// gather as [`GONE`], so the codes that only lost rows need no
    /// search of their own: one pass at the end ([`drop_gone`]) takes
    /// the leavers out and drops a code left without rows. (Reading the
    /// leaving tuples' members and sorting them would name those codes
    /// too, at a price a dense patch pays over the single pass.)
    fn patched(&self, renumber: &[u32], added: &[u64]) -> (Self, usize, bool) {
        let code_of = |key: u64| Atom((key >> 32) as u32);
        let most = self.rows.len() + added.len();
        assert!(
            u32::try_from(most).is_ok(),
            "a segment's set members must fit its u32 offsets"
        );
        let mut codes = Vec::with_capacity(self.codes.len() + added.len());
        let mut offsets = Vec::with_capacity(self.codes.len() + added.len() + 1);
        let mut rows = Vec::with_capacity(most);
        // Carries the codes `run` over whole; returns the slot of its
        // first code if a row of it left.
        let carry = |codes: &mut Vec<Atom>,
                     offsets: &mut Vec<u32>,
                     rows: &mut Vec<u32>,
                     run: Range<usize>| {
            let (lo, hi) = (self.offsets[run.start], self.offsets[run.end]);
            let (first, shift) = (codes.len(), (rows.len() as u32).wrapping_sub(lo));
            codes.extend_from_slice(&self.codes[run.clone()]);
            offsets.extend(self.offsets[run].iter().map(|&o| o.wrapping_add(shift)));
            let mut left = false;
            rows.extend(self.rows[lo as usize..hi as usize].iter().map(|&row| {
                let row = renumber[row as usize];
                left |= row == GONE;
                row
            }));
            left.then_some(first)
        };
        let (mut at, mut next, mut rebuilt, mut left) = (0, 0, 0, None);
        while let Some(&key) = added.get(next) {
            let code = code_of(key);
            let found = seek(&self.codes, at, code);
            if found > at {
                left = left.or(carry(&mut codes, &mut offsets, &mut rows, at..found));
            }
            let held = self.codes.get(found) == Some(&code);
            at = found + usize::from(held);
            let old = if held { self.rows_at(found) } else { &[] };
            // The entering rows of `code` below `bound`, into the list.
            let mut join = |rows: &mut Vec<u32>, bound: u32| {
                while let Some(&key) = added.get(next) {
                    if code_of(key) != code || key as u32 >= bound {
                        break;
                    }
                    rows.push(key as u32);
                    next += 1;
                }
            };
            let start = rows.len();
            for &row in old {
                let row = renumber[row as usize];
                if row != GONE {
                    join(&mut rows, row);
                    rows.push(row);
                }
            }
            join(&mut rows, GONE);
            codes.push(code);
            offsets.push(start as u32);
            rebuilt += 1;
        }
        left = left.or(carry(
            &mut codes,
            &mut offsets,
            &mut rows,
            at..self.codes.len(),
        ));
        let held = codes.len();
        if let Some(first) = left {
            rebuilt += drop_gone(&mut codes, &mut offsets, &mut rows, first);
        }
        let dropped = codes.len() < held;
        offsets.push(rows.len() as u32);
        let column = ValueColumn {
            codes: codes.into(),
            offsets: offsets.into(),
            rows: rows.into(),
        };
        (column, rebuilt, dropped)
    }

    /// Whether `value` lies inside this column's `[min, max]` zone.
    fn zone_holds(&self, value: Atom) -> bool {
        // invariant: a segment is non-empty and so is every set in it
        self.codes[0] <= value && value <= self.codes[self.codes.len() - 1]
    }
}

/// The union of ascending row `lists`, ascending: one list as stored,
/// several merged.
fn union_of<'a>(mut lists: impl Iterator<Item = &'a [u32]>) -> Cow<'a, [u32]> {
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

/// `|R*|` of `tuples`.
fn flat_of<'a>(tuples: impl IntoIterator<Item = TupleRef<'a>>) -> u128 {
    tuples.into_iter().map(TupleRef::expansion_count).sum()
}

/// The first index below `len` at which `before` fails, `before` holding
/// on a prefix of `0..len`.
pub(crate) fn partition_point(len: usize, before: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0, len);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if before(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// Bytes in a segment's membership filter on the routing attribute:
/// thirteen 64-byte blocks, 13 bits per code at the default target of
/// [`DEFAULT_SEGMENT_ROWS`] tuples (a shared rest holds several codes in
/// one tuple; a segment grown towards twice the target has fewer bits
/// per code). The size keeps a segment's allocation within the sizes
/// malloc serves from its per-thread cache (1 008 B in glibc, pinned by
/// a unit test): at 1 KiB each segment a write builds took the slower
/// path for larger blocks, and `oltp_durable`'s `op_p99_us` read 7–10 %
/// higher, while a point read searches 1.18 segments here against 1.10
/// at 1 KiB.
pub const KEY_FILTER_BYTES: usize = 832;

/// Words in one filter block: 64 bytes, a cache line's worth.
const BLOCK_WORDS: usize = 8;

/// A blocked Bloom filter over the codes of one column: each code sets
/// three bits of one 64-byte block, chosen by a fixed hash of its atom
/// id, so a test reads one block. It never rejects a code it was given.
/// Fixed in size and inline in its segment, it costs no allocation of
/// its own. It is aligned as a heap allocation is (16 bytes), so a block
/// lies on one cache line or two adjacent ones: aligning the blocks to
/// cache lines would make every segment an over-aligned allocation,
/// which costs each segment a write builds more than the second line
/// costs a read.
#[derive(Clone, PartialEq, Eq)]
#[repr(align(16))]
struct KeyFilter([u64; KEY_FILTER_BYTES / 8]);

/// Where a code's three bits lie in any [`KeyFilter`]: the word of each
/// (all in one block) and its mask. Computed once per located value and
/// tested against every segment.
#[derive(Debug, Clone, Copy)]
struct FilterProbe {
    words: [usize; 3],
    masks: [u64; 3],
}

impl FilterProbe {
    /// The bits of `code`, from [`mix64`](crate::shard::mix64) of its
    /// id: the block from the top 32 bits (scaled to the block count),
    /// and each of the three bits from 9 of the 27 bits above the lowest
    /// five. Hash routing takes `mix64(id) % shards`, which fixes the
    /// lowest bits within a shard, so those are never used.
    fn of(code: Atom) -> Self {
        const BLOCKS: u64 = (KEY_FILTER_BYTES / 8 / BLOCK_WORDS) as u64;
        const BLOCK_BITS: usize = 64 * BLOCK_WORDS;
        let hash = crate::shard::mix64(u64::from(code.id()));
        let first = (((hash >> 32) * BLOCKS) >> 32) as usize * BLOCK_WORDS;
        let bit = |i: u32| (hash >> (5 + 9 * i)) as usize % BLOCK_BITS;
        let bits = [bit(0), bit(1), bit(2)];
        FilterProbe {
            words: bits.map(|b| first + b / 64),
            masks: bits.map(|b| 1 << (b % 64)),
        }
    }
}

impl KeyFilter {
    /// The filter holding no code.
    const EMPTY: KeyFilter = KeyFilter([0; KEY_FILTER_BYTES / 8]);

    /// The filter of `codes`.
    fn of(codes: &[Atom]) -> Self {
        let mut filter = Self::EMPTY;
        codes.iter().for_each(|&code| filter.insert(code));
        filter
    }

    /// Sets `code`'s bits.
    fn insert(&mut self, code: Atom) {
        let probe = FilterProbe::of(code);
        for (word, mask) in probe.words.into_iter().zip(probe.masks) {
            self.0[word] |= mask;
        }
    }

    /// Whether the code `probe` was made for may be held: false only if
    /// it was never inserted. Branch-free, so a loop over segments
    /// issues their loads together.
    #[inline]
    fn may_hold(&self, probe: &FilterProbe) -> bool {
        let [a, b, c] = probe.words.map(|w| self.0[w]);
        (a & probe.masks[0] != 0) & (b & probe.masks[1] != 0) & (c & probe.masks[2] != 0)
    }
}

impl std::fmt::Debug for KeyFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let set: u32 = self.0.iter().map(|w| w.count_ones()).sum();
        write!(f, "KeyFilter({set} of {} bits set)", 8 * KEY_FILTER_BYTES)
    }
}

/// One sorted immutable segment: a chunk of consecutive tuples of a
/// shard, in kernel order, beside the same tuples stored value-major
/// (one `ValueColumn` per attribute), and a membership filter over the
/// codes of the routing attribute. A segment does not know where it
/// starts in its shard — its position is the sum of the row counts
/// before it ([`ShardSegments::ranges`]) — so an edit earlier in the
/// shard shifts it without touching it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The codes of column `outer`, as a filter (empty without one):
    /// inline, so a locate reaches it straight from the segment's `Arc`.
    filter: KeyFilter,
    /// The routing attribute `P(n−1)` the filter covers.
    outer: Option<AttrId>,
    /// The chunk: the tuples themselves.
    chunk: Chunk,
    /// Flat rows the chunk represents.
    flat: u128,
    /// One value-major column per attribute.
    columns: Vec<ValueColumn>,
}

impl Segment {
    /// Encodes the chunk `tuples` (non-empty, all of one arity) as one
    /// segment, copying their atoms into its chunk, with a membership
    /// filter over the codes of `outer` (the routing attribute; none
    /// for `None`). The caller guarantees the chunk is in canonical
    /// sorted order (a kernel rebuild, or ordered §4 maintenance of
    /// one); encoding never reorders rows.
    pub fn encode(tuples: &[NfTuple], outer: Option<AttrId>) -> Self {
        debug_assert!(!tuples.is_empty(), "segments hold at least one tuple");
        Self::of_chunk(Chunk::of_tuples(tuples), outer)
    }

    /// The segment of `chunk`, its columns transposed afresh and its
    /// filter built from column `outer`.
    fn of_chunk(chunk: Chunk, outer: Option<AttrId>) -> Self {
        debug_assert!(chunk.is_tight(), "a segment's chunk is built to size");
        let (mut keys, mut spare) = (Vec::new(), Vec::new());
        let columns: Vec<ValueColumn> = (0..chunk.arity)
            .map(|a| ValueColumn::encode(&chunk, a, &mut keys, &mut spare))
            .collect();
        let seg = Segment {
            filter: outer.map_or(KeyFilter::EMPTY, |a| KeyFilter::of(&columns[a].codes)),
            outer,
            flat: flat_of(chunk.tuples()),
            columns,
            chunk,
        };
        debug_assert!(
            seg.decode().into_iter().eq(seg.tuples()),
            "value-major round-trip must reproduce the encoded tuples"
        );
        seg
    }

    /// The segment of `now` — this segment's chunk after one ordered
    /// merge: the rows `gone` left and one tuple entered before each row
    /// of `come` (this segment's row numbers, `rows()` for an append;
    /// both ascending) — with columns derived from this one's postings
    /// instead of transposed afresh, and the number of codes whose row
    /// list was rebuilt one by one. Only the tuples that entered are
    /// read: each column ([`ValueColumn::patched`]) rebuilds the lists
    /// of the codes they hold and of the codes that lost a row, and
    /// carries every run of codes between them whole, so a point write
    /// costs its own tuples' codes plus one copy of the rest. The
    /// filter takes the entering codes in — or, if a code left the
    /// routing column, is built again from it: a Bloom filter cannot
    /// forget one code. Equal to the segment [`encode`](Self::encode)
    /// makes of `now`, which debug builds check.
    fn patched(&self, gone: &[u32], come: &[u32], now: Chunk) -> (Self, usize) {
        debug_assert!(now.is_tight(), "a segment's chunk is built to size");
        let held = self.rows() as u32;
        let mut renumber = Vec::with_capacity(self.rows());
        let mut entered = Vec::with_capacity(come.len());
        // Runs of kept rows are numbered in one stretch each; a tuple
        // entering before a row takes its number first.
        let (mut left, mut joining) = (gone.iter().peekable(), come.iter().peekable());
        let (mut row, mut next) = (0u32, 0u32);
        loop {
            let stop = [left.peek(), joining.peek()]
                .into_iter()
                .flatten()
                .fold(held, |stop, &&at| stop.min(at));
            renumber.extend(next..next + (stop - row));
            next += stop - row;
            row = stop;
            while joining.next_if(|&&before| before == row).is_some() {
                entered.push(next);
                next += 1;
            }
            if row == held {
                break;
            }
            if left.next_if(|&&out| out == row).is_some() {
                renumber.push(GONE);
                row += 1;
            }
        }
        debug_assert_eq!(next as usize, now.rows, "the edits lead to `now`");
        let (mut keys, mut spare, mut rebuilt) = (Vec::new(), Vec::new(), 0);
        let mut filter = self.filter.clone();
        let columns = self
            .columns
            .iter()
            .enumerate()
            .map(|(attr, column)| {
                keys.clear();
                for &row in &entered {
                    push_keys(&mut keys, now.tuple(row as usize), attr, u64::from(row));
                }
                if !keys.is_sorted() {
                    sort_by_code(&mut keys, &mut spare);
                }
                let (column, codes, dropped) = column.patched(&renumber, &keys);
                rebuilt += codes;
                if Some(attr) == self.outer {
                    if dropped {
                        filter = KeyFilter::of(&column.codes);
                    } else {
                        keys.iter()
                            .for_each(|&key| filter.insert(Atom((key >> 32) as u32)));
                    }
                }
                column
            })
            .collect();
        let flat = self.flat - flat_of(gone.iter().map(|&row| self.tuple(row as usize)))
            + flat_of(entered.iter().map(|&row| now.tuple(row as usize)));
        let seg = Segment {
            filter,
            outer: self.outer,
            flat,
            columns,
            chunk: now,
        };
        debug_assert_eq!(
            seg,
            Segment::of_chunk(seg.chunk.clone(), seg.outer),
            "patched postings and filter must equal a fresh encoding"
        );
        (seg, rebuilt)
    }

    /// Whether this segment is exactly what encoding its own chunk
    /// afresh gives: columns, zone bounds, filter and flat count alike.
    pub(crate) fn encodes_its_chunk(&self) -> bool {
        *self == Segment::of_chunk(self.chunk.clone(), self.outer)
    }

    /// Distinct codes over all columns: what encoding the chunk afresh
    /// builds a row list for.
    fn code_count(&self) -> usize {
        self.columns.iter().map(|column| column.codes.len()).sum()
    }

    /// Number of tuples in the chunk.
    pub fn rows(&self) -> usize {
        self.chunk.rows
    }

    /// Tuple `row` of the chunk, read in place.
    #[inline]
    pub fn tuple(&self, row: usize) -> TupleRef<'_> {
        self.chunk.tuple(row)
    }

    /// The chunk: this segment's tuples, in kernel order, read in place.
    pub fn tuples(&self) -> impl ExactSizeIterator<Item = TupleRef<'_>> + '_ {
        self.chunk.tuples()
    }

    /// Number of flat rows (`|R*|`) the chunk represents, counted when
    /// the segment was built.
    pub fn flat_count(&self) -> u128 {
        self.flat
    }

    /// Bytes the chunk holds: 4 per atom and 4 per offset (one per tuple
    /// and attribute, plus one).
    pub fn chunk_bytes(&self) -> usize {
        self.chunk.bytes()
    }

    /// Bytes the value-major columns hold: their codes, offsets and row
    /// lists, 4 each.
    pub fn column_bytes(&self) -> usize {
        self.columns
            .iter()
            .map(|c| {
                std::mem::size_of_val(&*c.codes)
                    + std::mem::size_of_val(&*c.offsets)
                    + std::mem::size_of_val(&*c.rows)
            })
            .sum()
    }

    /// Bytes of the membership filter on the routing attribute:
    /// [`KEY_FILTER_BYTES`], or 0 for a segment without one. The filter
    /// is inline, so it adds no allocation.
    pub fn filter_bytes(&self) -> usize {
        if self.outer.is_some() {
            KEY_FILTER_BYTES
        } else {
            0
        }
    }

    /// Heap bytes the segment holds in its arrays: the chunk's and the
    /// columns' ([`chunk_bytes`](Self::chunk_bytes) plus
    /// [`column_bytes`](Self::column_bytes)).
    pub fn heap_bytes(&self) -> usize {
        self.chunk_bytes() + self.column_bytes()
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

    /// Whether the filter on the routing attribute admits `value`: false
    /// only if no tuple of this segment holds it there. A segment
    /// without a filter admits every value.
    pub fn may_hold(&self, value: Atom) -> bool {
        self.outer.is_none() || self.filter.may_hold(&FilterProbe::of(value))
    }

    /// The values of `values` this segment may hold on `attr` short of
    /// searching its codes: on the routing attribute, those the filter
    /// admits; then, of those, the ones inside the attribute's zone.
    fn candidates<'a>(
        &'a self,
        attr: AttrId,
        values: &'a [Atom],
    ) -> impl Iterator<Item = Atom> + 'a {
        let routed = Some(attr) == self.outer;
        values
            .iter()
            .copied()
            .filter(move |&v| !routed || self.filter.may_hold(&FilterProbe::of(v)))
            .filter(move |&v| self.columns[attr].zone_holds(v))
    }

    /// The row list of every value of `values` that `attr` holds.
    fn lists<'a>(
        &'a self,
        attr: AttrId,
        values: &'a [Atom],
    ) -> impl Iterator<Item = &'a [u32]> + 'a {
        let column = &self.columns[attr];
        self.candidates(attr, values)
            .filter_map(|v| column.codes.binary_search(&v).ok())
            .map(|i| column.rows_at(i))
    }

    /// Whether every conjunct has a value this segment's filter and
    /// zones admit — the test a locate makes before it searches any
    /// codes, so a segment that fails it is refuted without a search.
    /// The conjunct on the routing attribute goes first: a segment its
    /// filter rejects is refuted from one block of it.
    pub fn admits<C: AsConjunct>(&self, conjuncts: &[C]) -> bool {
        let routed = |c: &&C| Some(c.conjunct().0) == self.outer;
        let admitted = |c: &C| {
            let (attr, values) = c.conjunct();
            self.candidates(attr, values).next().is_some()
        };
        conjuncts.iter().filter(routed).all(admitted)
            && conjuncts.iter().filter(|c| !routed(c)).all(admitted)
    }

    /// The one question: appends `base + row`, ascending and as spans,
    /// for every row whose `attr` component intersects `values` for
    /// **every** conjunct (all rows when there is none), and says whether
    /// there was any. Exact, not an over-approximation — but a component
    /// that intersects the values is not yet narrowed to them, so a
    /// selection still applies its box downstream.
    ///
    /// Cost: the filter and zone tests of [`admits`](Self::admits); then
    /// one binary search per admitted value per conjunct to refute the
    /// segment (no allocation); on a hit, the shortest conjunct's row
    /// list filtered through the others. A lone conjunct's row list is
    /// the answer, found by the same search that refutes.
    pub fn locate<C: AsConjunct>(
        &self,
        conjuncts: &[C],
        base: usize,
        out: &mut Vec<Range<usize>>,
    ) -> bool {
        if conjuncts.is_empty() {
            push_span(out, base..base + self.rows());
            return true;
        }
        self.admits(conjuncts) && self.search(conjuncts, base, out)
    }

    /// [`locate`](Self::locate) of a segment that
    /// [`admits`](Self::admits) the (non-empty) conjuncts: the search
    /// of its codes.
    fn search<C: AsConjunct>(
        &self,
        conjuncts: &[C],
        base: usize,
        out: &mut Vec<Range<usize>>,
    ) -> bool {
        if let [conjunct] = conjuncts {
            // One conjunct: its row list is the answer, and one search
            // of the codes both refutes the segment and finds it.
            let (attr, values) = conjunct.conjunct();
            let rows = union_of(self.lists(attr, values));
            for &row in rows.iter() {
                let at = base + row as usize;
                push_span(out, at..at + 1);
            }
            return !rows.is_empty();
        }
        let occurs = |c: &C| {
            let (attr, values) = c.conjunct();
            self.lists(attr, values).next().is_some()
        };
        if !conjuncts.iter().all(occurs) {
            return false;
        }
        let mut lists: Vec<Cow<'_, [u32]>> = conjuncts
            .iter()
            .map(|c| {
                let (attr, values) = c.conjunct();
                union_of(self.lists(attr, values))
            })
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

    /// Reconstructs the chunk from the columns alone. Test and
    /// verification helper: the result must equal [`tuples`](Self::tuples).
    pub fn decode(&self) -> Vec<NfTuple> {
        let mut sets: Vec<Vec<Vec<Atom>>> = vec![vec![Vec::new(); self.columns.len()]; self.rows()];
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

/// A segment is a pinned store of its own: a scan's
/// [`TupleView::Shared`](crate::tuple::TupleView) holds the segment its
/// tuple lives in, so it keeps that chunk alive and nothing else.
impl TupleStore for Segment {
    fn tuple_count(&self) -> usize {
        self.rows()
    }

    fn tuple(&self, idx: usize) -> TupleRef<'_> {
        Segment::tuple(self, idx)
    }
}

/// How a shard's writes key and tile it: the outer attribute (the key
/// a keyed batch groups its ops by) and the target tuples per segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tiling {
    /// The routing attribute `P(n−1)`; `None` only for a zero-arity
    /// schema, whose at most one (empty) tuple sits in a column-less
    /// segment.
    pub outer_attr: Option<usize>,
    /// Target tuples per segment (≥ 1).
    pub target_rows: usize,
}

/// What [`ShardSegments::locate`] found.
#[derive(Debug, Clone)]
pub struct Located {
    /// The located positions, ascending.
    pub rows: Rows,
    /// Segments that held no located row (none of their tuples is in
    /// `rows`, so none is ever probed).
    pub skipped: usize,
    /// Segments whose codes were searched: those the filter and zone
    /// tests ([`Segment::admits`]) did not refute. The rest of the
    /// skipped ones were refuted without a search.
    pub searched: usize,
}

/// The segments of one shard, in tuple order: their chunks back to back
/// are the shard's tuples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSegments {
    segments: Vec<Arc<Segment>>,
    /// Cumulative row counts: segment `i` ends at position `ends[i]`.
    ends: Vec<usize>,
    /// The routing attribute every segment's filter covers, held here
    /// so a locate knows it without reading a segment.
    outer: Option<AttrId>,
}

impl ShardSegments {
    /// The (empty) segment list of an empty shard tiled by `tiling`.
    fn empty(tiling: Tiling) -> Self {
        Self {
            outer: tiling.outer_attr,
            ..Self::default()
        }
    }

    /// `tuples` (in kernel order) cut into uniformly tiled segments:
    /// `target_rows` tuples each, the remainder in the last, their atoms
    /// copied into the chunks.
    pub(crate) fn tile(tuples: &[NfTuple], tiling: Tiling) -> Self {
        let mut tiled = Self::empty(tiling);
        for piece in tuples.chunks(tiling.target_rows.max(1)) {
            tiled.push(Arc::new(Segment::encode(piece, tiling.outer_attr)));
        }
        tiled
    }

    /// Re-tiles these segments' tuples uniformly, as
    /// [`tile`](Self::tile) cuts them, carrying runs of them whole from
    /// the old chunks into the new.
    pub(crate) fn rebuild(&mut self, tiling: Tiling) {
        let chunks = self.segments.iter().map(|seg| &seg.chunk);
        let mut tiled = Self::empty(tiling);
        for chunk in recut(chunks, tiling.target_rows.max(1)) {
            tiled.push(Arc::new(Segment::of_chunk(chunk, tiling.outer_attr)));
        }
        *self = tiled;
    }

    /// Appends `seg` after the last segment.
    fn push(&mut self, seg: Arc<Segment>) {
        let rows = seg.rows();
        self.push_held(seg, rows);
    }

    /// Appends `seg`, which holds `rows` tuples, after the last segment:
    /// a segment carried over from a shard's ends need not be read.
    fn push_held(&mut self, seg: Arc<Segment>, rows: usize) {
        debug_assert_eq!(seg.rows(), rows, "a segment holds its rows");
        debug_assert_eq!(seg.outer, self.outer, "one routing attribute a shard");
        self.ends.push(self.covered_rows() + rows);
        self.segments.push(seg);
    }

    /// The segments, in tuple order.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Every segment with the range of positions its chunk holds, read
    /// from the cumulative row counts (a segment is not read for it).
    pub fn ranges(&self) -> impl Iterator<Item = (Range<usize>, &Segment)> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .zip(&self.segments)
            .map(|((start, &end), seg)| (start..end, &**seg))
    }

    /// The segment holding position `at` (below
    /// [`covered_rows`](Self::covered_rows)) and the position it starts
    /// at, searched forward from segment `from`: a galloping search of
    /// the cumulative row counts, so the segments passed on the way are
    /// never read, and a cursor moving within one segment pays a
    /// comparison.
    pub fn segment_at(&self, at: usize, from: usize) -> (usize, usize) {
        let seg = seek(&self.ends, from, at + 1);
        (seg, seg.checked_sub(1).map_or(0, |prior| self.ends[prior]))
    }

    /// Number of segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total tuples in the chunks.
    pub fn covered_rows(&self) -> usize {
        self.ends.last().copied().unwrap_or(0)
    }

    /// The tuples at the ascending positions `rows`, each with its
    /// position: a cursor moves forward through the cumulative row
    /// counts ([`segment_at`](Self::segment_at)), so a tuple costs no
    /// search of the chunks, and the segments passed on the way to it
    /// are never read.
    pub(crate) fn tuples_at<'a>(
        &'a self,
        rows: impl IntoIterator<Item = usize> + 'a,
    ) -> impl Iterator<Item = (usize, TupleRef<'a>)> + 'a {
        let mut seg = 0;
        rows.into_iter().map(move |at| {
            let start;
            (seg, start) = self.segment_at(at, seg);
            (at, self.segments[seg].tuple(at - start))
        })
    }

    /// Where each of `fresh` enters the chunks back to back: the number
    /// of stored tuples that sort before it, `before(s, t)` saying
    /// whether `s` does. `fresh` ascends in that order, so the places do
    /// too and one cursor serves them all: a binary search over the
    /// first tuples of the segments not yet passed, then one in a chunk
    /// from where the last place fell.
    pub(crate) fn places(
        &self,
        fresh: &[NfTuple],
        before: impl Fn(TupleRef<'_>, TupleRef<'_>) -> bool,
    ) -> Vec<usize> {
        let (mut seg, mut from) = (0usize, 0usize);
        fresh
            .iter()
            .map(|t| {
                let t = t.as_ref();
                let later = self.segments.get(seg + 1..).unwrap_or_default();
                let passed = later.partition_point(|s| before(s.tuple(0), t));
                if passed > 0 {
                    (seg, from) = (seg + passed, 0);
                }
                if let Some(chunk) = self.segments.get(seg) {
                    from +=
                        partition_point(chunk.rows() - from, |i| before(chunk.tuple(from + i), t));
                }
                let start = seg.checked_sub(1).map_or(0, |prior| self.ends[prior]);
                start + from
            })
            .collect()
    }

    /// The positions of every tuple intersecting every conjunct
    /// ([`Segment::locate`] per segment, offset by where it starts), with
    /// the number of segments that held none and of those searched. No
    /// conjunct locates every tuple.
    pub fn locate<C: AsConjunct>(&self, conjuncts: &[C]) -> Located {
        if conjuncts.is_empty() {
            return Located {
                rows: Rows::all(self.covered_rows()),
                skipped: 0,
                searched: 0,
            };
        }
        if let [conjunct] = conjuncts {
            if let (attr, &[value]) = conjunct.conjunct() {
                return self.locate_value(attr, value);
            }
        }
        let mut spans = Vec::new();
        let (mut skipped, mut searched) = (0usize, 0usize);
        for (range, seg) in self.ranges() {
            let admitted = seg.admits(conjuncts);
            searched += usize::from(admitted);
            skipped += usize::from(!(admitted && seg.search(conjuncts, range.start, &mut spans)));
        }
        Located {
            rows: Rows::of_spans(spans),
            skipped,
            searched,
        }
    }

    /// [`locate`](Self::locate) of the lone conjunct `attr = value`,
    /// the same answer found in two passes. On the routing attribute,
    /// the first tests every segment's filter — one block each,
    /// the loads independent, so their misses overlap — and only the
    /// segments it admits go on; on any other attribute every segment
    /// does. The second searches those segments' codes in lockstep,
    /// [`LOCKSTEP`] at a time ([`search_group`](Self::search_group)).
    fn locate_value(&self, attr: AttrId, value: Atom) -> Located {
        let probe = (Some(attr) == self.outer).then(|| FilterProbe::of(value));
        let mut spans = Vec::new();
        let (mut searched, mut holding) = (0, 0);
        let (mut group, mut gathered) = ([0usize; LOCKSTEP], 0);
        let mut search = |group: &[usize]| {
            let (s, h) = self.search_group(group, attr, value, &mut spans);
            (searched, holding) = (searched + s, holding + h);
        };
        for (k, seg) in self.segments.iter().enumerate() {
            if probe
                .as_ref()
                .is_some_and(|probe| !seg.filter.may_hold(probe))
            {
                continue;
            }
            (group[gathered], gathered) = (k, gathered + 1);
            if gathered == LOCKSTEP {
                search(&group);
                gathered = 0;
            }
        }
        search(&group[..gathered]);
        Located {
            rows: Rows::of_spans(spans),
            skipped: self.segments.len() - holding,
            searched,
        }
    }

    /// Searches the `attr` codes of the segments `group` (ascending
    /// indices, at most [`LOCKSTEP`]) for `value` in lockstep: each step
    /// of each segment's search — the zone test, every halving, the row
    /// list — is taken for the whole group before the next, so the cache
    /// misses of one step, one per segment, overlap instead of queueing
    /// one search after another. Appends the rows found to `spans`, and
    /// returns how many of the segments were searched (the zone admitted
    /// them) and how many hold `value`.
    fn search_group(
        &self,
        group: &[usize],
        attr: AttrId,
        value: Atom,
        spans: &mut Vec<Range<usize>>,
    ) -> (usize, usize) {
        if group.is_empty() {
            return (0, 0);
        }
        // Each segment's codes and the range its search has left
        // (empty outside the zone), and the segments still searching.
        let mut codes: [&[Atom]; LOCKSTEP] = [&[]; LOCKSTEP];
        let (mut lo, mut hi) = ([0usize; LOCKSTEP], [0usize; LOCKSTEP]);
        let (mut searching, mut left) = ([0usize; LOCKSTEP], 0);
        for (i, &k) in group.iter().enumerate() {
            let column = &self.segments[k].columns[attr].codes;
            if column[0] <= value && value <= column[column.len() - 1] {
                (codes[i], hi[i]) = (column, column.len());
                (searching[left], left) = (i, left + 1);
            }
        }
        let searched = left;
        while left > 0 {
            let mut still = 0;
            for j in 0..left {
                let i = searching[j];
                let mid = lo[i] + (hi[i] - lo[i]) / 2;
                if codes[i][mid] < value {
                    lo[i] = mid + 1;
                } else {
                    hi[i] = mid;
                }
                if lo[i] < hi[i] {
                    (searching[still], still) = (i, still + 1);
                }
            }
            left = still;
        }
        let mut holding = 0;
        for (i, &k) in group.iter().enumerate() {
            if codes[i].get(lo[i]) == Some(&value) {
                holding += 1;
                let start = k.checked_sub(1).map_or(0, |prior| self.ends[prior]);
                for &row in self.segments[k].columns[attr].rows_at(lo[i]) {
                    let at = start + row as usize;
                    push_span(spans, at..at + 1);
                }
            }
        }
        (searched, holding)
    }

    /// These segments after one ordered merge, in which the tuples at
    /// `removed` left and `fresh[i]` entered before position
    /// `entered[i]` (the old length for an append) — `removed` and
    /// `entered` ascending, in positions *before* the merge. A tuple
    /// entering on a boundary joins the segment that starts there; past
    /// the end, the last one. A segment the merge did not touch is
    /// shared, chunk and all. Every other gets a new chunk — each run of
    /// its kept tuples carried as one copy of their atoms and one of
    /// their offsets, the fresh ones appended from their sets — and is
    /// dropped if that emptied it, split into freshly encoded pieces if
    /// it grew past twice the tiling target, and patched from its own
    /// postings otherwise; an empty shard's first tuples are encoded
    /// afresh. Adds the segments built, the tuples written into new
    /// chunks and the codes whose row lists were rebuilt to `report`.
    pub(crate) fn splice(
        &self,
        removed: &[usize],
        entered: &[usize],
        fresh: &[NfTuple],
        tiling: Tiling,
        report: &mut BatchReport,
    ) -> Self {
        debug_assert_eq!(entered.len(), fresh.len(), "one position per fresh tuple");
        let target = tiling.target_rows.max(1);
        let old = &self.segments;
        let (mut removed, mut entered) = (removed.iter().peekable(), entered.iter().peekable());
        let mut fresh = fresh;
        let mut next = Self::empty(tiling);
        let mut start = 0usize;
        // An empty shard takes its first tuples as one segment-less slot.
        for at in 0..old.len().max(1) {
            let was = old.get(at);
            // From the ends: a segment carried whole is never read.
            let held = self.ends.get(at).map_or(0, |&end| end - start);
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
            start += held;
            if let Some(seg) = was.filter(|_| gone.is_empty() && come.is_empty()) {
                next.push_held(Arc::clone(seg), held);
                continue;
            }
            debug_assert!(gone.len() <= held, "removed tuples lie in a segment");
            let rows = held + come.len() - gone.len();
            let entering;
            (entering, fresh) = fresh.split_at(come.len());
            if rows == 0 {
                continue; // emptied: dropped
            }
            let kept = was.map(|seg| &seg.chunk);
            let atoms = kept.map_or(0, |chunk| {
                let left = gone
                    .iter()
                    .map(|&row| chunk.tuple(row as usize).atom_count());
                chunk.atoms.len() - left.sum::<usize>()
            }) + entering
                .iter()
                .map(|t| t.as_ref().atom_count())
                .sum::<usize>();
            let arity = kept.map_or_else(|| entering[0].arity(), |chunk| chunk.arity);
            let mut chunk = ChunkBuilder::new(arity, rows, atoms);
            let (mut out, mut from) = (gone.iter().peekable(), 0usize);
            // Carries the kept rows below `upto` over, skipping those gone.
            let mut carry_to = |chunk: &mut ChunkBuilder, upto: usize| {
                while from < upto {
                    let stop = out.next_if(|&&row| (row as usize) < upto);
                    let run = from..stop.map_or(upto, |&row| row as usize);
                    if let Some(kept) = kept.filter(|_| !run.is_empty()) {
                        chunk.carry(kept, run);
                    }
                    from = stop.map_or(upto, |&row| row as usize + 1);
                }
            };
            for (&before, t) in come.iter().zip(entering) {
                carry_to(&mut chunk, before as usize);
                chunk.push(t.as_ref());
            }
            carry_to(&mut chunk, held);
            let chunk = chunk.finish();
            debug_assert_eq!(chunk.rows, rows, "the merge accounts for every row");
            report.tuples_copied += rows;
            let shared = next.segment_count();
            match was {
                Some(seg) if rows <= 2 * target => {
                    let (patched, rebuilt) = seg.patched(&gone, &come, chunk);
                    report.codes_rewritten += rebuilt;
                    next.push(Arc::new(patched));
                }
                _ => {
                    let pieces = if rows > 2 * target {
                        recut([&chunk], target)
                    } else {
                        vec![chunk]
                    };
                    for piece in pieces {
                        let seg = Segment::of_chunk(piece, tiling.outer_attr);
                        report.codes_rewritten += seg.code_count();
                        next.push(Arc::new(seg));
                    }
                }
            }
            report.segments_reencoded += next.segment_count() - shared;
        }
        debug_assert!(fresh.is_empty(), "every fresh tuple entered");
        next
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

    /// The segment of `tuples`, filtered on their last attribute.
    fn encode(tuples: &[NfTuple]) -> Segment {
        Segment::encode(tuples, tuples[0].arity().checked_sub(1))
    }

    /// A segment's chunk, copied out.
    fn owned(seg: &Segment) -> Vec<NfTuple> {
        seg.tuples().map(TupleRef::into_owned).collect()
    }

    #[test]
    fn encode_decode_round_trips() {
        let tuples = sample();
        let seg = encode(&tuples);
        assert_eq!(seg.rows(), 5);
        assert_eq!(seg.decode(), tuples);
        assert_eq!(owned(&seg), tuples);
        assert_eq!(seg.flat_count(), 2 + 1 + 2 + 4 + 1);
    }

    #[test]
    fn columns_list_rows_per_code_dense_or_sparse() {
        let tuples = sample();
        let seg = encode(&tuples);
        // Outer sets: {10},{10},{11,12},{11,12},{20}: the column is
        // value-major, one row list per code, shared by equal sets.
        assert_eq!(located(&seg, &[(1, &[10])]), vec![100, 101]);
        assert_eq!(located(&seg, &[(1, &[12])]), vec![102, 103]);
        // A sparse column (codes far apart) takes the multi-pass sort.
        let sparse = vec![
            tuple(&[&[7, 900_000], &[1]]),
            tuple(&[&[3, 70_000], &[2]]),
            tuple(&[&[3, 900_000], &[3]]),
        ];
        let seg = encode(&sparse);
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
        let seg = encode(&sample());
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
    fn rows_ahead_are_what_next_hands_out() {
        for mut rows in [
            Rows::all(3),
            Rows::of_spans(vec![2..4, 7..8, 9..12]),
            Rows::of_spans(Vec::new()),
        ] {
            loop {
                let ahead: Vec<usize> = rows.ahead().collect();
                assert_eq!(ahead.len(), rows.len());
                assert_eq!(ahead, rows.clone().collect::<Vec<_>>());
                if rows.next().is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn zone_maps_bound_all_set_members() {
        let seg = encode(&sample());
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

    /// The chunks back to back.
    fn chunks(ss: &ShardSegments) -> Vec<NfTuple> {
        ss.segments().iter().flat_map(|seg| owned(seg)).collect()
    }

    #[test]
    fn shard_segments_tile_and_absorb() {
        let tuples: Vec<NfTuple> = (0..10u32).map(|i| tuple(&[&[i], &[100 + i / 3]])).collect();
        let mut ss = ShardSegments::default();
        assert_eq!(ss.segment_count(), 0);
        ss = ShardSegments::tile(&tuples, tiling(4));
        assert_eq!(ss.segment_count(), 3, "10 rows at target 4 → 4+4+2");
        assert_eq!(ss.covered_rows(), 10);
        assert_eq!(starts(&ss), vec![0, 4, 8]);
        assert_eq!(chunks(&ss), tuples);
        let picked: Vec<(usize, TupleRef<'_>)> = ss.tuples_at([0, 3, 4, 9]).collect();
        let expected: Vec<(usize, TupleRef<'_>)> =
            [0, 3, 4, 9].map(|at| (at, tuples[at].as_ref())).into();
        assert_eq!(picked, expected, "across segment boundaries");
        ss.rebuild(tiling(DEFAULT_SEGMENT_ROWS));
        assert_eq!(ss.segment_count(), 1);
        assert_eq!(chunks(&ss), tuples);
    }

    #[test]
    fn rebuild_recuts_the_chunks_and_leaves_pinned_ones_alone() {
        let tuples: Vec<NfTuple> = (0..8u32)
            .map(|i| tuple(&[&[i, 20 + i], &[100 + i]]))
            .collect();
        let mut ss = ShardSegments::tile(&tuples, tiling(4));
        let pinned = Arc::clone(&ss.segments()[1]);
        ss.rebuild(tiling(3));
        assert_eq!(starts(&ss), vec![0, 3, 6]);
        assert_eq!(chunks(&ss), tuples);
        for (range, seg) in ss.ranges() {
            assert_eq!(
                *seg,
                encode(&tuples[range]),
                "a recut chunk is its encoding"
            );
        }
        // The pinned chunk still holds its own tuples.
        assert_eq!(owned(&pinned), &tuples[4..]);
    }

    #[test]
    fn places_are_what_a_search_of_the_whole_vector_gives() {
        let tuples: Vec<NfTuple> = (0..10u32).map(|i| tuple(&[&[i], &[10 * i]])).collect();
        let ss = ShardSegments::tile(&tuples, tiling(3));
        let key = |t: TupleRef<'_>| t.component(1).as_slice()[0];
        let before = |s: TupleRef<'_>, t: TupleRef<'_>| key(s) < key(t);
        // Before the first, on and between boundaries, twice in one
        // place, past the last.
        let fresh: Vec<NfTuple> = [0, 25, 30, 31, 31, 59, 60, 95, 200]
            .iter()
            .map(|&k| tuple(&[&[1], &[k]]))
            .collect();
        let expected: Vec<usize> = fresh
            .iter()
            .map(|t| tuples.partition_point(|s| before(s.as_ref(), t.as_ref())))
            .collect();
        assert_eq!(ss.places(&fresh, before), expected);
        assert_eq!(
            ShardSegments::default().places(&fresh[..1], before),
            vec![0]
        );
    }

    #[test]
    fn patch_reencodes_only_the_touched_segments() {
        let mut tuples: Vec<NfTuple> = (0..12u32).map(|i| tuple(&[&[i], &[100 + i]])).collect();
        let mut ss = ShardSegments::tile(&tuples, tiling(4));
        let before: Vec<Arc<Segment>> = ss.segments().to_vec();

        // One insert inside the middle segment.
        let entering = vec![(5, tuple(&[&[50], &[104]]))];
        let report = sweep(&mut ss, &mut tuples, &[], entering, 4);
        assert_eq!((report.segments_reencoded, report.tuples_copied), (1, 5));
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
    }

    #[test]
    fn patch_drops_emptied_and_splits_overgrown_segments() {
        let mut tuples: Vec<NfTuple> = (0..6u32).map(|i| tuple(&[&[i], &[100 + i]])).collect();
        let mut ss = ShardSegments::tile(&tuples, tiling(2));
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
        let mut ss = ShardSegments::default();
        let entering = vec![(0, tuple(&[&[1], &[10]]))];
        let report = sweep(&mut ss, &mut Vec::new(), &[], entering, 4);
        assert_eq!(report.segments_reencoded, 1);
        assert_eq!(ss.segment_count(), 1);
    }

    /// Applies one ordered merge to `tuples` and to `ss` in one sweep;
    /// checks the result's chunks are the new vector, each segment
    /// exactly what a fresh encoding of its chunk gives.
    fn sweep(
        ss: &mut ShardSegments,
        tuples: &mut Vec<NfTuple>,
        removed: &[usize],
        entering: Vec<(usize, NfTuple)>,
        target_rows: usize,
    ) -> BatchReport {
        let entered: Vec<usize> = entering.iter().map(|(before, _)| *before).collect();
        let fresh: Vec<NfTuple> = entering.iter().map(|(_, t)| t.clone()).collect();
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
        let mut report = BatchReport::default();
        *ss = ss.splice(removed, &entered, &fresh, tiling(target_rows), &mut report);
        assert_eq!(ss.covered_rows(), tuples.len());
        assert_eq!(chunks(ss), *tuples);
        for (range, seg) in ss.ranges() {
            assert_eq!(*seg, encode(&tuples[range]));
        }
        report
    }

    #[test]
    fn a_sweep_patches_the_touched_segments_from_their_postings() {
        let mut tuples: Vec<NfTuple> = (0..12u32)
            .map(|i| tuple(&[&[i, 40 + i % 3], &[100 + 2 * i]]))
            .collect();
        let mut ss = ShardSegments::tile(&tuples, tiling(4));
        let before: Vec<Arc<Segment>> = ss.segments().to_vec();
        // The first segment loses a row and gains two (one on its lower
        // edge, one holding a code nothing in it held); the second is
        // left alone; the third loses its first row — taking code 108's
        // last posting with it — and gains an append.
        let report = sweep(
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
        assert_eq!(report.segments_reencoded, 2);
        assert_eq!(report.tuples_copied, 5 + 4, "the two new chunks, in full");
        assert_eq!(starts(&ss), vec![0, 5, 9]);
        assert!(
            Arc::ptr_eq(&ss.segments()[1], &before[1]),
            "shifted: shared"
        );
        assert_eq!(ss.segments()[0].min(1), Atom(99), "zone follows the edit");
        assert_eq!(ss.segments()[2].min(1), Atom(118));
        assert_eq!(ss.segments()[2].max(0), Atom(500));
        let flat: u128 = tuples.iter().map(NfTuple::expansion_count).sum();
        let cached: u128 = ss.segments().iter().map(|seg| seg.flat_count()).sum();
        assert_eq!(cached, flat, "patched flat counts follow the edit");
    }

    /// A deterministic generator for the enrollment-shaped segments below.
    struct Lcg(u64);

    impl Lcg {
        fn below(&mut self, n: u32) -> u32 {
            self.0 = self.0.wrapping_mul(6_364_136_223_846_793_005);
            self.0 = self.0.wrapping_add(1_442_695_040_888_963_407);
            ((self.0 >> 33) % u64::from(n)) as u32
        }

        /// 1 to `most` distinct codes of `base..base + n`.
        fn distinct(&mut self, most: u32, base: u32, n: u32) -> Vec<u32> {
            let k = 1 + self.below(most) as usize;
            let mut picked = Vec::new();
            while picked.len() < k {
                let code = base + self.below(n);
                if !picked.contains(&code) {
                    picked.push(code);
                }
            }
            picked
        }
    }

    /// One `(Club, Course, Student)` tuple shaped like an enrollment: 1–3
    /// of 50 clubs (codes 0..50) × 1–4 of 200 courses (100..300) × one
    /// student.
    fn enrolled(rng: &mut Lcg, student: u32) -> NfTuple {
        let clubs = rng.distinct(3, 0, 50);
        let courses = rng.distinct(4, 100, 200);
        tuple(&[&clubs, &courses, &[student]])
    }

    /// `edits` edits spread over `tuples`, as `(gone, come, now)` for
    /// [`Segment::patched`]: by turns, a tuple replaced by one of a new
    /// student (whose code only the entering tuple holds, the old one's
    /// only the leaving), a tuple deleted, and a new student's inserted.
    fn edited(
        tuples: &[NfTuple],
        edits: usize,
        rng: &mut Lcg,
    ) -> (Vec<u32>, Vec<u32>, Vec<NfTuple>) {
        let (mut gone, mut come, mut now) = (Vec::new(), Vec::new(), Vec::new());
        let mut at = (0..edits).map(|i| i * tuples.len() / edits).peekable();
        for (row, t) in tuples.iter().enumerate() {
            let Some(i) = at.next_if(|&at| at == row) else {
                now.push(t.clone());
                continue;
            };
            let student = 10_000 + row as u32;
            match i % 3 {
                0 => {
                    gone.push(row as u32);
                    come.push(row as u32);
                    now.push(enrolled(rng, student));
                }
                1 => gone.push(row as u32),
                _ => {
                    come.push(row as u32);
                    now.extend([enrolled(rng, student), t.clone()]);
                }
            }
        }
        (gone, come, now)
    }

    #[test]
    fn a_patch_rebuilds_the_codes_its_tuples_hold_at_any_density() {
        let mut rng = Lcg(7);
        let tuples: Vec<NfTuple> = (0..512).map(|s| enrolled(&mut rng, 1_000 + s)).collect();
        let seg = encode(&tuples);
        assert_eq!(seg.rows(), 512);
        for edits in [1, 10, 50, 200] {
            let (gone, come, now) = edited(&tuples, edits, &mut rng);
            let (patched, rebuilt) = seg.patched(&gone, &come, Chunk::of_tuples(&now));
            assert_eq!(patched, encode(&now), "{edits} edits");
            // The codes rebuilt are the distinct codes, per column, of
            // the tuples that left and entered; the rest are carried.
            let entered = now.iter().filter(|t| !tuples.contains(t)); // a new student's
            let touched: Vec<&NfTuple> = gone
                .iter()
                .map(|&row| &tuples[row as usize])
                .chain(entered)
                .collect();
            let held: usize = (0..3)
                .map(|attr| {
                    let mut codes: Vec<Atom> = touched
                        .iter()
                        .flat_map(|t| t.component(attr).as_slice().iter().copied())
                        .collect();
                    codes.sort_unstable();
                    codes.dedup();
                    codes.len()
                })
                .sum();
            assert_eq!(rebuilt, held, "{edits} edits");
            assert!(rebuilt < seg.code_count(), "{edits} edits");
        }
    }

    #[test]
    fn a_patch_that_only_adds_codes_ors_them_into_the_filter() {
        let tuples: Vec<NfTuple> = (0..8u32).map(|i| tuple(&[&[i % 3], &[100 + i]])).collect();
        let seg = encode(&tuples);
        // A new key enters, and a tuple whose key another one keeps
        // (`{2} × {200, 201}` replaces `{2} × {102}`, and 102 stays with
        // `{5} × {102}`): no code leaves the routing column.
        let mut now = tuples.clone();
        now[2] = tuple(&[&[2], &[102, 200]]);
        now.insert(3, tuple(&[&[5], &[102]]));
        let (patched, _) = seg.patched(&[2], &[3, 3], Chunk::of_tuples(&now));
        assert_eq!(patched, encode(&now), "equal to a fresh build");
        let kept = seg.filter.0.iter().zip(&patched.filter.0);
        assert!(
            kept.into_iter().all(|(old, new)| old & new == *old),
            "ORed into the old bits"
        );
        for key in [102, 200] {
            assert!(patched.may_hold(Atom(key)), "{key} entered");
        }
    }

    #[test]
    fn a_patch_that_drops_a_code_rebuilds_the_filter() {
        let tuples: Vec<NfTuple> = (0..8u32).map(|i| tuple(&[&[i % 3], &[100 + i]])).collect();
        let seg = encode(&tuples);
        // Code 104 leaves with its only tuple; 300 enters.
        let mut now = tuples.clone();
        now[4] = tuple(&[&[1], &[300]]);
        let (patched, _) = seg.patched(&[4], &[4], Chunk::of_tuples(&now));
        let fresh = encode(&now);
        assert_eq!(patched, fresh, "equal to a fresh build");
        let mut ored = seg.filter.clone();
        ored.insert(Atom(300));
        assert_ne!(ored, fresh.filter, "ORing alone would keep 104's bits");
        // A code that only lost a row stays, and so does the old filter.
        now = tuples.clone();
        now.remove(4);
        let (patched, _) = seg.patched(&[4], &[], Chunk::of_tuples(&now));
        assert_eq!(patched, encode(&now));
    }

    #[test]
    fn a_segment_allocation_stays_within_mallocs_thread_cache() {
        // An `Arc<Segment>` is the segment beside two counters. glibc
        // serves requests up to 1 008 B from its per-thread cache and
        // small bins; past that every segment a write builds, and every
        // one it drops, takes the slower path for larger blocks.
        let arc = std::mem::size_of::<Segment>() + 2 * std::mem::size_of::<usize>();
        assert!(arc <= 1008, "an Arc<Segment> takes {arc} B");
    }

    #[test]
    fn a_filter_never_rejects_a_held_key_at_arity_one_two_and_three() {
        for arity in 1..=3usize {
            // Tuple i holds keys i and 1000 + i on the routing attribute
            // (the last), so every segment's zone spans most keys.
            let tuples: Vec<NfTuple> = (0..200u32)
                .map(|i| {
                    let rest: Vec<Vec<u32>> =
                        (1..arity as u32).map(|a| vec![i % (5 * a)]).collect();
                    let mut comps: Vec<&[u32]> = rest.iter().map(Vec::as_slice).collect();
                    let keys = [i, 1000 + i];
                    comps.push(&keys);
                    tuple(&comps)
                })
                .collect();
            let outer = arity - 1;
            let ss = ShardSegments::tile(
                &tuples,
                Tiling {
                    outer_attr: Some(outer),
                    target_rows: 8,
                },
            );
            assert_eq!(ss.segment_count(), 25);
            let mut searched = 0;
            for (range, seg) in ss.ranges() {
                assert_eq!(seg.filter_bytes(), KEY_FILTER_BYTES);
                for at in range {
                    for &key in tuples[at].component(outer).as_slice() {
                        assert!(seg.may_hold(key), "arity {arity}: row {at}, key {key}");
                        let located = ss.locate(&[(outer, std::slice::from_ref(&key))]);
                        assert_eq!(located.skipped, 24, "arity {arity}: key {key}");
                        searched += located.searched;
                        assert_eq!(located.rows.collect::<Vec<_>>(), vec![at]);
                        // An IN-list takes the general path and the filter too.
                        let absent = Atom(5_000);
                        let listed = ss.locate(&[(outer, &[key, absent][..])]);
                        assert_eq!(listed.rows.collect::<Vec<_>>(), vec![at]);
                    }
                }
            }
            // The zones alone admit every segment; the filter about one.
            assert!(
                searched <= 400 + 400 / 10,
                "arity {arity}: {searched} searched for 400 keys"
            );
        }
    }

    #[test]
    fn a_sweep_drops_emptied_splits_outgrown_and_opens_first_segments() {
        let mut tuples: Vec<NfTuple> = (0..6u32).map(|i| tuple(&[&[i], &[100 + 10 * i]])).collect();
        let mut ss = ShardSegments::tile(&tuples, tiling(2));
        // The first segment empties; five tuples crowd into the second
        // (past twice the target: split, encoded afresh); on the
        // boundary a tuple joins the segment that starts there.
        let crowd = (0..5u32).map(|i| (3, tuple(&[&[50 + i], &[121 + i]])));
        let entering = crowd.chain([(4, tuple(&[&[60], &[135]]))]).collect();
        sweep(&mut ss, &mut tuples, &[0, 1], entering, 2);
        assert_eq!(starts(&ss), vec![0, 2, 4, 6, 7]);
        // Everything leaves, then tuples enter the empty shard.
        let all: Vec<usize> = (0..tuples.len()).collect();
        let report = sweep(&mut ss, &mut tuples, &all, Vec::new(), 2);
        assert_eq!((report.segments_reencoded, report.tuples_copied), (0, 0));
        assert_eq!(ss.segment_count(), 0);
        let entering = (0..3u32).map(|i| (0, tuple(&[&[i], &[7 + i]]))).collect();
        assert_eq!(
            sweep(&mut ss, &mut tuples, &[], entering, 2).segments_reencoded,
            1
        );
        assert_eq!(ss.covered_rows(), 3, "3 ≤ twice the target: one segment");
    }

    #[test]
    fn a_stored_tuple_reads_back_and_owns_what_it_was() {
        // Inline sets, a set past the inline capacity and a fat one.
        let fat: Vec<u32> = (0..300).collect();
        let tuples = vec![
            tuple(&[&[1, 3], &[10]]),
            tuple(&[&[2, 4, 6, 8, 10, 12], &[10, 11]]),
            tuple(&[&fat, &[11]]),
        ];
        let seg = encode(&tuples);
        for (row, t) in tuples.iter().enumerate() {
            let stored = seg.tuple(row);
            assert_eq!(stored, *t, "read in place");
            assert_eq!(stored.arity(), 2);
            assert_eq!(stored.component(0).as_slice(), t.component(0).as_slice());
            assert_eq!(stored.expansion_count(), t.expansion_count());
            assert_eq!(stored.into_owned(), *t, "owned again");
            assert_eq!(stored.to_string(), t.to_string());
        }
        assert_eq!(
            seg.chunk_bytes(),
            4 * ((2 + 1) + (6 + 2) + (300 + 1) + 3 * 2 + 1)
        );
        assert_eq!(seg.heap_bytes(), seg.chunk_bytes() + seg.column_bytes());
    }

    #[test]
    fn a_carry_skips_a_leaver_at_the_first_middle_and_last_row() {
        let tuples: Vec<NfTuple> = (0..6u32)
            .map(|i| tuple(&[&[i, 10 + i, 20 + i, 30 + i, 40 + i], &[100 + i]]))
            .collect();
        for gone in [0, 3, 5] {
            let mut now = tuples.clone();
            now.remove(gone);
            let mut ss = ShardSegments::tile(&tuples, tiling(8));
            let mut held = tuples.clone();
            let report = sweep(&mut ss, &mut held, &[gone], Vec::new(), 8);
            assert_eq!(held, now);
            assert_eq!(report.tuples_copied, 5, "row {gone} left");
            assert_eq!(owned(&ss.segments()[0]), now, "row {gone} left");
            // And with a tuple entering where it left.
            let mut ss = ShardSegments::tile(&tuples, tiling(8));
            let mut held = tuples.clone();
            let entering = vec![(
                gone,
                tuple(&[&[90, 91, 92, 93, 94, 95], &[100 + gone as u32]]),
            )];
            sweep(&mut ss, &mut held, &[gone], entering, 8);
            assert_eq!(
                ss.segments()[0].tuple(gone),
                held[gone],
                "row {gone} replaced"
            );
        }
    }

    #[test]
    fn zero_arity_shards_hold_one_columnless_segment() {
        let none = Tiling {
            outer_attr: None,
            target_rows: DEFAULT_SEGMENT_ROWS,
        };
        let unit = NfTuple::new(vec![]);
        assert_eq!(ShardSegments::tile(&[], none).segment_count(), 0);
        let ss = ShardSegments::tile(std::slice::from_ref(&unit), none);
        assert_eq!(ss.segment_count(), 1);
        let seg = &ss.segments()[0];
        assert_eq!((owned(seg), seg.flat_count()), (vec![unit], 1));
        assert_eq!(ss.locate::<Conjunct<'_>>(&[]).rows.len(), 1);
    }
}
