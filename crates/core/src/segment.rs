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
//!   while encoding.
//!
//! Segments are immutable and `Arc`-shared between consecutive shard
//! versions, chunk included. Every write to a shard is a keyed batch
//! ([`crate::bulk`]), a point write being a batch of one: it searches
//! before it edits and ends in one ordered merge, which it applies to
//! the segments in a single sweep (`ShardSegments::splice`). Only a
//! segment the merge touched is rebuilt — a new chunk, its kept tuples
//! carried over by handle and the entering ones moved in, and columns
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

use crate::schema::AttrId;
use crate::shard::BatchReport;
use crate::tuple::{NfTuple, TupleStore, ValueSet};
use crate::value::Atom;

/// Default number of canonical NF² tuples per segment. Small enough
/// that skipping a segment saves real work at E-scale row counts, large
/// enough that per-segment metadata stays negligible.
pub const DEFAULT_SEGMENT_ROWS: usize = 512;

/// One conjunct of the question segments answer: the tuple's `attr`
/// component must intersect `values` (ascending, as every [`ValueSet`]
/// slice is).
pub type Conjunct<'a> = (AttrId, &'a [Atom]);

/// Ascending positions in a shard's tuple order (its chunks back to
/// back), held as the disjoint ranges they form — one range for a whole
/// span, one per run of neighbours otherwise — and handed out one
/// position at a time.
#[derive(Debug, Clone)]
pub struct Rows {
    current: Range<usize>,
    rest: std::vec::IntoIter<Range<usize>>,
    remaining: usize,
}

impl Rows {
    /// Every position of a shard of `len` tuples.
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

    /// This column after an edit of its segment's rows, and the number
    /// of codes whose row list it rebuilt one by one. `renumber[row]` is
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
    fn patched(&self, renumber: &[u32], added: &[u64]) -> (Self, usize) {
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
        if let Some(first) = left {
            rebuilt += drop_gone(&mut codes, &mut offsets, &mut rows, first);
        }
        offsets.push(rows.len() as u32);
        let column = ValueColumn {
            codes: codes.into(),
            offsets: offsets.into(),
            rows: rows.into(),
        };
        (column, rebuilt)
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

/// `|R*|` of `tuples`.
fn flat_of<'a>(tuples: impl IntoIterator<Item = &'a NfTuple>) -> u128 {
    tuples.into_iter().map(NfTuple::expansion_count).sum()
}

/// One sorted immutable segment: a chunk of consecutive tuples of a
/// shard, in kernel order, beside the same tuples stored value-major
/// (one `ValueColumn` per attribute). A segment does not know where it
/// starts in its shard — its position is the sum of the row counts
/// before it ([`ShardSegments::ranges`]) — so an edit earlier in the
/// shard shifts it without touching it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segment {
    /// The chunk: the tuples themselves.
    tuples: Box<[NfTuple]>,
    /// Flat rows the chunk represents.
    flat: u128,
    /// One value-major column per attribute.
    columns: Vec<ValueColumn>,
}

impl Segment {
    /// Encodes the chunk `tuples` (non-empty, all of one arity) as one
    /// segment, taking ownership of it. The caller guarantees the chunk
    /// is in canonical sorted order (a kernel rebuild, or ordered §4
    /// maintenance of one); encoding never reorders rows.
    pub fn encode(tuples: Box<[NfTuple]>) -> Self {
        debug_assert!(!tuples.is_empty(), "segments hold at least one tuple");
        let arity = tuples[0].arity();
        let (mut keys, mut spare) = (Vec::new(), Vec::new());
        let columns = (0..arity)
            .map(|a| ValueColumn::encode(&tuples, a, &mut keys, &mut spare))
            .collect();
        let seg = Segment {
            flat: flat_of(tuples.iter()),
            columns,
            tuples,
        };
        debug_assert_eq!(
            seg.decode(),
            &*seg.tuples,
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
    /// costs its own tuples' codes plus one copy of the rest. Equal to
    /// [`encode`](Self::encode)`(now)`, which debug builds check.
    fn patched(&self, gone: &[u32], come: &[u32], now: Box<[NfTuple]>) -> (Self, usize) {
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
        debug_assert_eq!(next as usize, now.len(), "the edits lead to `now`");
        let (mut keys, mut spare, mut rebuilt) = (Vec::new(), Vec::new(), 0);
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
                let (column, codes) = column.patched(&renumber, &keys);
                rebuilt += codes;
                column
            })
            .collect();
        let flat = self.flat - flat_of(gone.iter().map(|&row| &self.tuples[row as usize]))
            + flat_of(entered.iter().map(|&row| &now[row as usize]));
        let seg = Segment {
            flat,
            columns,
            tuples: now,
        };
        debug_assert_eq!(
            seg,
            Segment::encode(seg.tuples.clone()),
            "patched postings must equal a fresh transposition"
        );
        (seg, rebuilt)
    }

    /// Distinct codes over all columns: what encoding the chunk afresh
    /// builds a row list for.
    fn code_count(&self) -> usize {
        self.columns.iter().map(|column| column.codes.len()).sum()
    }

    /// Number of tuples in the chunk.
    pub fn rows(&self) -> usize {
        self.tuples.len()
    }

    /// The chunk: this segment's tuples, in kernel order.
    pub fn tuples(&self) -> &[NfTuple] {
        &self.tuples
    }

    /// Number of flat rows (`|R*|`) the chunk represents, counted when
    /// the segment was built.
    pub fn flat_count(&self) -> u128 {
        self.flat
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
            push_span(out, base..base + self.rows());
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
    fn tuples(&self) -> &[NfTuple] {
        Segment::tuples(self)
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

/// `tuples` cut into chunks of `rows` (the remainder in the last) and
/// encoded — moved, not cloned.
fn tiles(tuples: Vec<NfTuple>, rows: usize) -> impl Iterator<Item = Arc<Segment>> {
    let mut rest = tuples.into_iter();
    std::iter::from_fn(move || {
        let chunk: Box<[NfTuple]> = rest.by_ref().take(rows).collect();
        (!chunk.is_empty()).then(|| Arc::new(Segment::encode(chunk)))
    })
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

/// The segments of one shard, in tuple order: their chunks back to back
/// are the shard's tuples.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardSegments {
    segments: Vec<Arc<Segment>>,
    /// Cumulative row counts: segment `i` ends at position `ends[i]`.
    ends: Vec<usize>,
}

impl ShardSegments {
    /// The (empty) segment list of an empty shard.
    pub fn new() -> Self {
        Self::default()
    }

    /// `tuples` (in kernel order) cut into uniformly tiled segments:
    /// `target_rows` tuples each, the remainder in the last. The tuples
    /// are moved into the chunks.
    pub(crate) fn tile(tuples: Vec<NfTuple>, tiling: Tiling) -> Self {
        let mut tiled = Self::new();
        for seg in tiles(tuples, tiling.target_rows.max(1)) {
            tiled.push(seg);
        }
        tiled
    }

    /// Re-tiles these segments' tuples uniformly
    /// ([`tile`](Self::tile)), moving the tuples of every segment nothing
    /// else holds and cloning the handles of the rest.
    pub(crate) fn rebuild(&mut self, tiling: Tiling) {
        let mut tuples = Vec::with_capacity(self.covered_rows());
        for seg in std::mem::take(&mut self.segments) {
            match Arc::try_unwrap(seg) {
                Ok(owned) => tuples.extend(owned.tuples.into_vec()),
                Err(shared) => tuples.extend_from_slice(shared.tuples()),
            }
        }
        *self = Self::tile(tuples, tiling);
    }

    /// Appends `seg` after the last segment.
    fn push(&mut self, seg: Arc<Segment>) {
        self.ends.push(self.covered_rows() + seg.rows());
        self.segments.push(seg);
    }

    /// The segments, in tuple order.
    pub fn segments(&self) -> &[Arc<Segment>] {
        &self.segments
    }

    /// Every segment with the range of positions its chunk holds.
    pub fn ranges(&self) -> impl Iterator<Item = (Range<usize>, &Segment)> {
        let ends = self.ends.iter();
        ends.zip(&self.segments)
            .map(|(&end, seg)| (end - seg.rows()..end, &**seg))
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
    /// position: a cursor walks the chunks forward, so a tuple costs no
    /// search, only the segments passed on the way to it.
    pub(crate) fn tuples_at<'a>(
        &'a self,
        rows: impl IntoIterator<Item = usize> + 'a,
    ) -> impl Iterator<Item = (usize, &'a NfTuple)> + 'a {
        let mut segments = self.segments.iter();
        let (mut chunk, mut start): (&[NfTuple], usize) = (&[], 0);
        rows.into_iter().map(move |at| {
            while at - start >= chunk.len() {
                start += chunk.len();
                chunk = segments
                    .next()
                    .expect("ascending positions lie in the chunks")
                    .tuples();
            }
            (at, &chunk[at - start])
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
        before: impl Fn(&NfTuple, &NfTuple) -> bool,
    ) -> Vec<usize> {
        let (mut seg, mut from) = (0usize, 0usize);
        fresh
            .iter()
            .map(|t| {
                let later = self.segments.get(seg + 1..).unwrap_or_default();
                let passed = later.partition_point(|s| before(&s.tuples[0], t));
                if passed > 0 {
                    (seg, from) = (seg + passed, 0);
                }
                let chunk = self.segments.get(seg).map_or(&[][..], |s| &s.tuples[..]);
                from += chunk[from..].partition_point(|s| before(s, t));
                let start = seg.checked_sub(1).map_or(0, |prior| self.ends[prior]);
                start + from
            })
            .collect()
    }

    /// The positions of every tuple intersecting every conjunct
    /// ([`Segment::locate`] per segment, offset by where it starts), with
    /// the number of segments that held none. No conjunct locates every
    /// tuple.
    pub fn locate(&self, conjuncts: &[Conjunct<'_>]) -> Located {
        if conjuncts.is_empty() {
            return Located {
                rows: Rows::all(self.covered_rows()),
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

    /// These segments after one ordered merge, in which the tuples at
    /// `removed` left and `fresh[i]` entered before position
    /// `entered[i]` (the old length for an append) — `removed` and
    /// `entered` ascending, in positions *before* the merge. A tuple
    /// entering on a boundary joins the segment that starts there; past
    /// the end, the last one. A segment the merge did not touch is
    /// shared, chunk and all. Every other gets a new chunk — its kept
    /// tuples' handles cloned, the fresh ones moved in — and is dropped
    /// if that emptied it, split into freshly encoded pieces if it grew
    /// past twice the tiling target, and patched from its own postings
    /// otherwise; an empty shard's first tuples are encoded afresh.
    /// Adds the segments built, the tuple handles written into new
    /// chunks and the codes whose row lists were rebuilt to `report`.
    pub(crate) fn splice(
        &self,
        removed: &[usize],
        entered: &[usize],
        fresh: Vec<NfTuple>,
        tiling: Tiling,
        report: &mut BatchReport,
    ) -> Self {
        debug_assert_eq!(entered.len(), fresh.len(), "one position per fresh tuple");
        let target = tiling.target_rows.max(1);
        let old = &self.segments;
        let (mut removed, mut entered) = (removed.iter().peekable(), entered.iter().peekable());
        let mut fresh = fresh.into_iter();
        let mut next = Self::new();
        let mut start = 0usize;
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
            start += held;
            if let Some(seg) = was.filter(|_| gone.is_empty() && come.is_empty()) {
                next.push(Arc::clone(seg));
                continue;
            }
            debug_assert!(gone.len() <= held, "removed tuples lie in a segment");
            let rows = held + come.len() - gone.len();
            let kept = was.map_or(&[][..], |seg| seg.tuples());
            let mut chunk = Vec::with_capacity(rows);
            let (mut out, mut from) = (gone.iter().peekable(), 0usize);
            // Carries the kept rows below `upto` over, skipping those gone.
            let mut carry_to = |chunk: &mut Vec<NfTuple>, upto: usize| {
                while from < upto {
                    let stop = out.next_if(|&&row| (row as usize) < upto);
                    chunk.extend_from_slice(&kept[from..stop.map_or(upto, |&row| row as usize)]);
                    from = stop.map_or(upto, |&row| row as usize + 1);
                }
            };
            for &before in &come {
                carry_to(&mut chunk, before as usize);
                chunk.push(fresh.next().expect("one fresh tuple per entered position"));
            }
            carry_to(&mut chunk, held);
            debug_assert_eq!(chunk.len(), rows, "the merge accounts for every row");
            report.tuples_copied += rows;
            let shared = next.segment_count();
            match was {
                Some(seg) if (1..=2 * target).contains(&rows) => {
                    let (patched, rebuilt) = seg.patched(&gone, &come, chunk.into());
                    report.codes_rewritten += rebuilt;
                    next.push(Arc::new(patched));
                }
                _ => {
                    let piece = if rows > 2 * target {
                        target
                    } else {
                        rows.max(1)
                    };
                    for seg in tiles(chunk, piece) {
                        report.codes_rewritten += seg.code_count();
                        next.push(seg);
                    }
                }
            }
            report.segments_reencoded += next.segment_count() - shared;
        }
        debug_assert!(fresh.next().is_none(), "every fresh tuple entered");
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

    fn encode(tuples: &[NfTuple]) -> Segment {
        Segment::encode(tuples.into())
    }

    #[test]
    fn encode_decode_round_trips() {
        let tuples = sample();
        let seg = encode(&tuples);
        assert_eq!(seg.rows(), 5);
        assert_eq!(seg.decode(), tuples);
        assert_eq!(seg.tuples(), tuples);
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
        ss.segments()
            .iter()
            .flat_map(|seg| seg.tuples().iter().cloned())
            .collect()
    }

    #[test]
    fn shard_segments_tile_and_absorb() {
        let tuples: Vec<NfTuple> = (0..10u32).map(|i| tuple(&[&[i], &[100 + i / 3]])).collect();
        let mut ss = ShardSegments::new();
        assert_eq!(ss.segment_count(), 0);
        ss = ShardSegments::tile(tuples.clone(), tiling(4));
        assert_eq!(ss.segment_count(), 3, "10 rows at target 4 → 4+4+2");
        assert_eq!(ss.covered_rows(), 10);
        assert_eq!(starts(&ss), vec![0, 4, 8]);
        assert_eq!(chunks(&ss), tuples);
        let picked: Vec<(usize, &NfTuple)> = ss.tuples_at([0, 3, 4, 9]).collect();
        let expected: Vec<(usize, &NfTuple)> = [0, 3, 4, 9].map(|at| (at, &tuples[at])).into();
        assert_eq!(picked, expected, "across segment boundaries");
        ss.rebuild(tiling(DEFAULT_SEGMENT_ROWS));
        assert_eq!(ss.segment_count(), 1);
        assert_eq!(chunks(&ss), tuples);
    }

    #[test]
    fn rebuild_moves_unshared_chunks_and_clones_shared_ones() {
        let tuples: Vec<NfTuple> = (0..8u32).map(|i| tuple(&[&[i], &[100 + i]])).collect();
        let mut ss = ShardSegments::tile(tuples.clone(), tiling(4));
        let pinned = Arc::clone(&ss.segments()[1]);
        ss.rebuild(tiling(3));
        assert_eq!(starts(&ss), vec![0, 3, 6]);
        assert_eq!(chunks(&ss), tuples);
        // The pinned chunk still holds its own tuples, shared by handle.
        assert_eq!(pinned.tuples(), &tuples[4..]);
        assert!(pinned.tuples()[0].shares_storage_with(&chunks(&ss)[4]));
    }

    #[test]
    fn places_are_what_a_search_of_the_whole_vector_gives() {
        let tuples: Vec<NfTuple> = (0..10u32).map(|i| tuple(&[&[i], &[10 * i]])).collect();
        let ss = ShardSegments::tile(tuples.clone(), tiling(3));
        let key = |t: &NfTuple| t.component(1).as_slice()[0];
        let before = |s: &NfTuple, t: &NfTuple| key(s) < key(t);
        // Before the first, on and between boundaries, twice in one
        // place, past the last.
        let fresh: Vec<NfTuple> = [0, 25, 30, 31, 31, 59, 60, 95, 200]
            .iter()
            .map(|&k| tuple(&[&[1], &[k]]))
            .collect();
        let expected: Vec<usize> = fresh
            .iter()
            .map(|t| tuples.partition_point(|s| before(s, t)))
            .collect();
        assert_eq!(ss.places(&fresh, before), expected);
        assert_eq!(ShardSegments::new().places(&fresh[..1], before), vec![0]);
    }

    #[test]
    fn patch_reencodes_only_the_touched_segments() {
        let mut tuples: Vec<NfTuple> = (0..12u32).map(|i| tuple(&[&[i], &[100 + i]])).collect();
        let mut ss = ShardSegments::tile(tuples.clone(), tiling(4));
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
        let mut ss = ShardSegments::tile(tuples.clone(), tiling(2));
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
        *ss = ss.splice(removed, &entered, fresh, tiling(target_rows), &mut report);
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
        let mut ss = ShardSegments::tile(tuples.clone(), tiling(4));
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
            let (patched, rebuilt) = seg.patched(&gone, &come, now.clone().into());
            assert_eq!(patched, encode(&now), "{edits} edits");
            // The codes rebuilt are the distinct codes, per column, of
            // the tuples that left and entered; the rest are carried.
            let entered = now
                .iter()
                .filter(|t| !tuples.iter().any(|old| old.shares_storage_with(t)));
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
    fn a_sweep_drops_emptied_splits_outgrown_and_opens_first_segments() {
        let mut tuples: Vec<NfTuple> = (0..6u32).map(|i| tuple(&[&[i], &[100 + 10 * i]])).collect();
        let mut ss = ShardSegments::tile(tuples.clone(), tiling(2));
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
    fn zero_arity_shards_hold_one_columnless_segment() {
        let none = Tiling {
            outer_attr: None,
            target_rows: DEFAULT_SEGMENT_ROWS,
        };
        let unit = NfTuple::new(vec![]);
        assert_eq!(ShardSegments::tile(Vec::new(), none).segment_count(), 0);
        let ss = ShardSegments::tile(vec![unit.clone()], none);
        assert_eq!(ss.segment_count(), 1);
        let seg = &ss.segments()[0];
        assert_eq!((seg.tuples(), seg.flat_count()), (&[unit][..], 1));
        assert_eq!(ss.locate(&[]).rows.len(), 1);
    }
}
