//! The reader half: a pinned [`TableSnapshot`]; [`TableScan`], the
//! probe-counted stream over it that reads a located scan's tuples
//! ahead; and [`Located`], the step a scan drives to run σ and π on
//! each tuple in place and write the answer into blocks.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use nf2_core::chunk::{Chunk, ChunkBuilder, Rewrite};
use nf2_core::mvcc::{ShardVersion, TableVersion};
use nf2_core::relation::NfRelation;
use nf2_core::schema::AttrId;
use nf2_core::segment::{Rows, Segment, ShardSegments};
use nf2_core::shard::{merge_shards, merged_tuple_count, ShardRouter};
use nf2_core::tuple::{SetRef, TupleRef, TupleStore, TupleView, ValueSet};
use nf2_core::value::Atom;

use super::{NfTable, SharedTableStats};

impl NfTable {
    /// Pins the current MVCC snapshot: the epoch and every shard's
    /// published version, grabbed atomically. All statement-level reads
    /// go through a snapshot so one statement sees one table state.
    pub fn snapshot(&self) -> TableSnapshot {
        self.stats.snapshot_pins.fetch_add(1, Ordering::Relaxed);
        TableSnapshot {
            version: self.versions.pin(),
            routing: self.routing.clone(),
            arity: self.schema().arity(),
            stats: Arc::clone(&self.stats),
        }
    }

    /// A zero-copy, probe-counted scan over the stored NF² tuples — the
    /// per-shard tuple streams of the *current snapshot*, concatenated
    /// in shard order.
    ///
    /// The iterator yields [`TupleView`]s straight out of the pinned
    /// shard versions' segment chunks — no clone, no merge, no lock held
    /// while streaming — and counts every yielded tuple, flushing the total
    /// into [`stats`](Self::stats) (`lookups += 1`, `units_probed +=
    /// yielded`) when dropped. Streaming query cursors ride on this: a
    /// cursor that stops after the first tuple is charged one probe,
    /// not a full relation's worth — which is also how tests assert
    /// that a cursor did *not* materialize its input.
    ///
    /// On a multi-shard table a global canonical tuple whose outermost
    /// set spans shards streams as one tuple per shard; the concatenation
    /// is a valid NFR with the same `R*`. `R*` and every count over it do
    /// not depend on the shard count, but a listing of NF² tuples, and
    /// `LIMIT k` over it, may differ until the regroup decision lands.
    pub fn scan(&self) -> TableScan {
        self.snapshot().scan()
    }
}

/// A pinned, immutable view of one table at one epoch — the reader half
/// of the MVCC protocol.
///
/// A snapshot is pinned once per statement ([`NfTable::snapshot`]) and
/// every scan the statement runs goes against it: concurrent writers
/// install new versions without disturbing it, so one statement sees
/// one table state no matter how long its cursor streams. Dropping the
/// snapshot releases the pinned shard versions.
#[derive(Debug, Clone)]
pub struct TableSnapshot {
    version: Arc<TableVersion>,
    routing: ShardRouter,
    arity: usize,
    stats: Arc<SharedTableStats>,
}

impl TableSnapshot {
    /// The epoch this snapshot was pinned at.
    pub fn epoch(&self) -> u64 {
        self.version.epoch()
    }

    /// The pinned per-shard versions.
    pub fn version(&self) -> &Arc<TableVersion> {
        &self.version
    }

    /// The value router (shard pruning resolves against the same
    /// routing the pinned versions were partitioned by).
    pub fn routing(&self) -> &ShardRouter {
        &self.routing
    }

    /// Sets per stored tuple: the table's degree.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.version.shard_count()
    }

    /// One pinned shard's segments.
    pub fn shard_segments(&self, shard: usize) -> &ShardSegments {
        self.version.shard(shard).segments()
    }

    /// NF² tuple count of [`canonical`](Self::canonical), counted
    /// without building it ([`merged_tuple_count`]); one of
    /// [`TableStats::merges`](super::TableStats::merges).
    pub fn tuple_count(&self) -> usize {
        self.stats.merges.fetch_add(1, Ordering::Relaxed);
        merged_tuple_count(&self.routing, self.version.shards().iter().map(|s| &**s))
    }

    /// Flat row count (`|R*|`) of the pinned state.
    pub fn flat_count(&self) -> u128 {
        self.version.flat_count()
    }

    /// Whether the pinned state contains the flat row; a row of the
    /// wrong arity is contained in nothing.
    pub fn contains(&self, row: &[Atom]) -> bool {
        self.routing
            .contains(row, |shard| self.version.shard(shard))
    }

    /// The exact global canonical form `ν_P(R*)` of the pinned state,
    /// whatever the shard count: one [`merge_shards`] over the pinned
    /// shards, built on every call and never cached, and counted in
    /// [`TableStats::merges`](super::TableStats::merges).
    pub fn canonical(&self) -> NfRelation {
        self.stats.merges.fetch_add(1, Ordering::Relaxed);
        merge_shards(&self.routing, self.version.shards().iter().map(|s| &**s))
    }

    /// A zero-copy, probe-counted scan over every pinned shard in shard
    /// order — see [`NfTable::scan`] for semantics and probe
    /// accounting.
    pub fn scan(&self) -> TableScan {
        let all: Vec<usize> = (0..self.shard_count()).collect();
        self.scan_shards(&all)
    }

    /// A zero-copy, probe-counted scan restricted to the given shards
    /// (out-of-range ids are ignored). This is the storage half of
    /// **shard pruning**: a selection that fixes the outermost nest
    /// attribute resolves its shard set through
    /// [`routing`](Self::routing) and scans only those shards — the
    /// skipped shards' tuples are never yielded, so they never show up
    /// in the table's stats either.
    ///
    /// Probe accounting uses **one** counter across all selected
    /// shards, settled once on drop — concatenating shard streams must
    /// never double-count, even when a downstream `take(n)` stops
    /// mid-shard.
    pub fn scan_shards(&self, shards: &[usize]) -> TableScan {
        self.scan_shards_zoned(shards, &[])
    }

    /// A zero-copy, probe-counted scan over `shards` that yields exactly
    /// the tuples their segments locate for the `zones` conjuncts —
    /// `(attr, values)` pairs meaning "the `attr` component must
    /// intersect `values`" ([`ShardVersion::locate`]: binary search and
    /// list intersection in the value-major columns, no tuple touched).
    /// Only located tuples are yielded and probe-counted; a segment that
    /// holds none is tallied in
    /// [`TableStats::segments_skipped`](super::TableStats::segments_skipped).
    ///
    /// A located tuple *intersects* every conjunct; its components are
    /// not narrowed to them, so callers still apply the real predicate:
    /// [`TableScan::located`] runs it on each tuple in place.
    pub fn scan_shards_zoned(&self, shards: &[usize], zones: &[(AttrId, ValueSet)]) -> TableScan {
        let mut parts: Vec<(Arc<ShardVersion>, Rows)> = Vec::new();
        let (mut skipped, mut searched) = (0u64, 0u64);
        for &i in shards {
            let Some(v) = self.version.shards().get(i) else {
                continue;
            };
            let located = v.locate(zones);
            skipped += located.skipped as u64;
            searched += located.searched as u64;
            parts.push((Arc::clone(v), located.rows));
        }
        TableScan {
            parts,
            part: 0,
            segment: 0,
            segment_start: 0,
            window: if zones.is_empty() { 0 } else { 2 },
            warm: 0,
            stats: Arc::clone(&self.stats),
            yielded: 0,
            skipped,
            searched,
            read_ahead: 0,
        }
    }

    /// What [`scan_shards_zoned`](Self::scan_shards_zoned) would do on
    /// each listed shard, from the same [`ShardVersion::locate`] call and
    /// without yielding a tuple: in the order given, how many of the
    /// shard's segments hold no located tuple and how many tuples are
    /// located. This is EXPLAIN's pruning report; the execution side's
    /// [`TableStats::segments_skipped`](super::TableStats::segments_skipped)
    /// and `units_probed` tallies agree with the sums reported here.
    pub fn zone_skip_counts(
        &self,
        shards: &[usize],
        zones: &[(AttrId, ValueSet)],
    ) -> Vec<ZoneCounts> {
        shards
            .iter()
            .filter_map(|&i| self.version.shards().get(i))
            .map(|v| {
                let located = v.locate(zones);
                ZoneCounts {
                    skipped: located.skipped,
                    segments: v.segments().segment_count(),
                    located: located.rows.len(),
                }
            })
            .collect()
    }
}

/// One shard's share of a zoned scan's pruning effect
/// ([`TableSnapshot::zone_skip_counts`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ZoneCounts {
    /// Segments holding no located tuple.
    pub skipped: usize,
    /// Segments in the shard.
    pub segments: usize,
    /// Tuples located (what a scan yields and probe-counts).
    pub located: usize,
}

impl SharedTableStats {
    fn settle_scan(&self, yielded: u64, skipped: u64, searched: u64, read_ahead: u64) {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        self.units_probed.fetch_add(yielded, Ordering::Relaxed);
        self.segments_skipped.fetch_add(skipped, Ordering::Relaxed);
        self.segments_searched
            .fetch_add(searched, Ordering::Relaxed);
        self.scan_rows_read_ahead
            .fetch_add(read_ahead, Ordering::Relaxed);
    }
}

/// The most located tuples a scan reads ahead at once: its window
/// starts at 2 and doubles up to this.
const READ_AHEAD_CAP: usize = 32;

/// A lazy, owning scan over a pinned table snapshot — the located
/// positions of `Arc`-held shard versions, streamed back-to-back out of
/// their segments' chunks; see [`NfTable::scan`].
///
/// The scan holds its own pins, so it stays valid (and keeps yielding
/// exactly the pinned state) however long it lives and whatever
/// concurrent writers install in the meantime. Items are
/// [`TupleView::Shared`] — zero-copy views that pin the one segment
/// their tuple lives in, so downstream operators can hold or outlive the
/// scan freely without keeping the rest of the shard alive. A scan can
/// instead drive a σ/π step over its tuples in place
/// ([`located`](Self::located)), or hand them out read in place
/// ([`next_ref`](Self::next_ref)).
///
/// A located scan (one with zone conjuncts) **reads ahead**. Its tuples
/// lie scattered over the chunks, and each costs two dependent cache
/// misses in its chunk's two arrays: its offsets, then the atoms they
/// point into. So whenever the tuples it has read ahead run out, the
/// scan takes the next *W* positions of its part ([`Rows::ahead`]) and
/// touches them in two tight passes — every tuple's offsets, then every
/// tuple's atoms — so their misses overlap instead of queueing one
/// pair per pulled tuple. *W* starts at 2 and doubles
/// up to `READ_AHEAD_CAP`, so a `LIMIT` reads ahead little more than it
/// takes. A part with one located tuple left is not read ahead, and a
/// full scan never is: its tuples are consecutive already. Reading
/// ahead allocates nothing and changes neither what the scan yields nor
/// what it counts as probed.
///
/// Probe accounting is batched: the scan keeps local counters and
/// settles them into the table's shared stats exactly once, on drop, so
/// the per-tuple hot path takes no lock and updates no shared counter.
#[derive(Debug)]
pub struct TableScan {
    /// Pinned shard versions with the positions (in the version's chunks
    /// back to back) still to stream from each, in shard order.
    parts: Vec<(Arc<ShardVersion>, Rows)>,
    /// Current part index.
    part: usize,
    /// The current part's segment holding the last position streamed,
    /// and the position that segment starts at: positions ascend, so
    /// the cursor only moves forward.
    segment: usize,
    segment_start: usize,
    /// Positions the next read-ahead touches (0: the scan never reads
    /// ahead).
    window: usize,
    /// Positions of the current part to stream before the next
    /// read-ahead: those read ahead and not yet streamed, or
    /// `usize::MAX` where there is none to make.
    warm: usize,
    stats: Arc<SharedTableStats>,
    yielded: u64,
    /// Segments that held no located tuple (settled on drop).
    skipped: u64,
    /// Segments whose codes the locate searched (settled on drop).
    searched: u64,
    /// Positions read ahead (settled on drop).
    read_ahead: u64,
}

impl TableScan {
    /// Moves to the next located position and counts it as probed:
    /// its row in the current part's current segment.
    #[inline]
    fn next_position(&mut self) -> Option<usize> {
        loop {
            let (version, rows) = self.parts.get_mut(self.part)?;
            let segments = version.segments();
            if self.warm == 0 {
                self.warm = if self.window == 0 || rows.len() < 2 {
                    usize::MAX
                } else {
                    let ahead = rows.ahead().take(self.window);
                    let touched = read_ahead(segments, ahead, self.segment);
                    self.read_ahead += touched as u64;
                    self.window = (2 * self.window).min(READ_AHEAD_CAP);
                    touched
                };
            }
            if let Some(at) = rows.next() {
                (self.segment, self.segment_start) = segments.segment_at(at, self.segment);
                self.warm -= 1;
                self.yielded += 1;
                return Some(at - self.segment_start);
            }
            self.part += 1;
            (self.segment, self.segment_start, self.warm) = (0, 0, 0);
        }
    }

    /// The segment [`next_position`](Self::next_position) last moved
    /// into.
    #[inline]
    fn current_segment(&self) -> &Arc<Segment> {
        &self.parts[self.part].0.segments().segments()[self.segment]
    }

    /// The next located tuple, read in place where it is stored, and
    /// counted as probed like a yielded one.
    pub fn next_ref(&mut self) -> Option<TupleRef<'_>> {
        let row = self.next_position()?;
        Some(self.current_segment().tuple(row))
    }

    /// The scan driving one per-tuple step: σ and π (`rule`, an
    /// algebra function; see `nf2_algebra::stream::SelectProject`) run
    /// on each located tuple in place, writing each output tuple of
    /// `arity` sets into a block, and the step yields
    /// [`TupleView::Shared`] views into the sealed blocks — no view,
    /// clone or boxed call per located tuple. An output that is the
    /// stored tuple itself ([`Rewrite::Unchanged`]) is yielded as a
    /// view of its segment instead, and never copied.
    ///
    /// The step fills a block, then yields from it: the first holds
    /// one output tuple, each next one twice as many, up to
    /// `BLOCK_CAP`. So a consumer that stops after `n` pulls has had
    /// fewer than `2n` outputs built, and at most `limit` are ever
    /// built: with the statement's `LIMIT` as `limit`, the scan probes
    /// exactly what pulling one tuple at a time would. With `exact`
    /// (every tuple located passes `rule`), [`size_hint`] is exact.
    ///
    /// [`size_hint`]: Iterator::size_hint
    pub fn located<F>(self, arity: usize, rule: F, limit: Option<usize>, exact: bool) -> Located<F>
    where
        F: FnMut(TupleRef<'_>, &mut ChunkBuilder) -> Rewrite,
    {
        Located {
            scan: self,
            rule,
            block: ChunkBuilder::empty(arity),
            sealed: None,
            sealed_rows: 0,
            taken: 0,
            kept: Vec::new(),
            next_kept: 0,
            batch: 1,
            left: limit.unwrap_or(usize::MAX),
            exact,
            per_tuple: 0,
        }
    }
}

impl Iterator for TableScan {
    type Item = TupleView<'static>;

    fn next(&mut self) -> Option<TupleView<'static>> {
        let row = self.next_position()?;
        let store: Arc<dyn TupleStore> = self.current_segment().clone();
        Some(TupleView::shared(store, row))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining: usize = self
            .parts
            .get(self.part..)
            .unwrap_or_default()
            .iter()
            .map(|(_, rows)| rows.len())
            .sum();
        (remaining, Some(remaining))
    }
}

/// The most output tuples a [`Located`] step writes into one block.
const BLOCK_CAP: usize = 64;

/// An output of a [`Located`] step's fill that is a stored tuple
/// itself: row `row` of the scan's segment `segment` of part `part`,
/// yielded after the fill's first `after` block rows.
#[derive(Debug, Clone, Copy)]
struct Kept {
    after: u32,
    part: u32,
    segment: u32,
    row: u32,
}

/// A located scan driving a per-tuple σ/π step into blocks; see
/// [`TableScan::located`]. Dropping it settles the scan's counters.
pub struct Located<F> {
    scan: TableScan,
    rule: F,
    /// The block being written: empty (unallocated, or holding room
    /// the last fill reserved and did not use) between fills.
    block: ChunkBuilder,
    /// The block the last fill sealed, its rows, and how many of them
    /// have been yielded.
    sealed: Option<Arc<Chunk>>,
    sealed_rows: u32,
    taken: u32,
    /// The last fill's outputs that are stored tuples, in order:
    /// `kept[next_kept..]` are still to yield.
    kept: Vec<Kept>,
    next_kept: usize,
    /// Outputs the next fill makes (doubling up to `BLOCK_CAP`).
    batch: usize,
    /// Outputs still allowed (the statement's `LIMIT`).
    left: usize,
    /// Whether every located tuple passes the rule, which makes the
    /// size hint exact.
    exact: bool,
    /// Set members per output tuple in the block sealed last, rounded
    /// up (0 before the first).
    per_tuple: usize,
}

impl<F> std::fmt::Debug for Located<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Located")
            .field("scan", &self.scan)
            .field("pending", &self.pending())
            .field("left", &self.left)
            .finish_non_exhaustive()
    }
}

impl<F> Located<F> {
    /// Tuples the scan has located so far (its probes): what `EXPLAIN
    /// ANALYZE` reports as the scan's rows.
    pub fn located(&self) -> u64 {
        self.scan.yielded
    }

    /// Outputs made and not yet yielded.
    fn pending(&self) -> usize {
        (self.sealed_rows - self.taken) as usize + (self.kept.len() - self.next_kept)
    }
}

impl<F> Located<F>
where
    F: FnMut(TupleRef<'_>, &mut ChunkBuilder) -> Rewrite,
{
    /// Runs the rule on located tuples until the next fill's outputs
    /// are made or the scan ends, and seals the block they were
    /// written into. Whether there is any output to yield.
    fn fill(&mut self) -> bool {
        let want = self.batch.min(self.left);
        (self.sealed_rows, self.taken, self.next_kept) = (0, 0, 0);
        self.kept.clear();
        let mut made = 0;
        while made < want {
            let Some(row) = self.scan.next_position() else {
                break;
            };
            let t = self.scan.current_segment().tuple(row);
            if self.block.rows() == 0 {
                // Room for the rest of the block at the size of the
                // outputs so far — before the first, at this tuple's:
                // σ and π only ever keep part of a tuple.
                let rest = want - made;
                let per_tuple = match self.per_tuple {
                    0 => t.atom_count(),
                    seen => seen,
                };
                self.block.reserve(rest, rest * per_tuple);
            }
            match (self.rule)(t, &mut self.block) {
                Rewrite::Rejected => continue,
                Rewrite::Unchanged => self.kept.push(Kept {
                    after: self.block.rows() as u32,
                    part: self.scan.part as u32,
                    segment: self.scan.segment as u32,
                    row: row as u32,
                }),
                Rewrite::Appended => {}
            }
            made += 1;
        }
        if self.block.rows() > 0 {
            self.sealed_rows = self.block.rows() as u32;
            self.per_tuple = self.block.atom_count().div_ceil(self.block.rows());
            let arity = self.block.arity();
            let block = std::mem::replace(&mut self.block, ChunkBuilder::empty(arity));
            self.sealed = Some(Arc::new(block.finish()));
        }
        self.left -= made;
        self.batch = (2 * self.batch).min(BLOCK_CAP);
        made > 0
    }
}

impl<F> Iterator for Located<F>
where
    F: FnMut(TupleRef<'_>, &mut ChunkBuilder) -> Rewrite,
{
    type Item = TupleView<'static>;

    fn next(&mut self) -> Option<TupleView<'static>> {
        loop {
            if let Some(kept) = self.kept.get(self.next_kept) {
                if kept.after == self.taken {
                    self.next_kept += 1;
                    let (version, _) = &self.scan.parts[kept.part as usize];
                    let segment = &version.segments().segments()[kept.segment as usize];
                    let store: Arc<dyn TupleStore> = segment.clone();
                    return Some(TupleView::shared(store, kept.row as usize));
                }
            }
            if self.taken < self.sealed_rows {
                let block = self.sealed.clone().expect("the fill sealed a block");
                self.taken += 1;
                return Some(TupleView::shared(block, self.taken as usize - 1));
            }
            if !self.fill() {
                return None;
            }
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let pending = self.pending();
        let most = pending + self.scan.size_hint().0.min(self.left);
        (if self.exact { most } else { pending }, Some(most))
    }
}

/// Touches the tuples at `positions` (ascending, at most
/// `READ_AHEAD_CAP`, none before segment `segment`) so their cache
/// misses overlap. A stored
/// tuple is its offsets in one array of its chunk and its atoms in the
/// other, and where its atoms lie is read from its offsets; so this
/// takes two tight passes — every tuple's offsets (where its first set
/// starts and its last ends), then every tuple's first and last atom —
/// and
/// each pass's misses are independent of one another. Returns how many
/// it touched. Allocates nothing. Kept out of line: it runs once per
/// window, and inlined it slows every scan's per-tuple step.
#[inline(never)]
fn read_ahead(
    segments: &ShardSegments,
    positions: impl Iterator<Item = usize>,
    mut segment: usize,
) -> usize {
    let mut tuples: [Option<TupleRef<'_>>; READ_AHEAD_CAP] = [None; READ_AHEAD_CAP];
    let (mut touched, mut widths) = (0, 0);
    for (slot, at) in tuples.iter_mut().zip(positions) {
        let start;
        (segment, start) = segments.segment_at(at, segment);
        let tuple = segments.segments()[segment].tuple(at - start);
        widths += tuple.components().next_back().map_or(0, SetRef::len);
        *slot = Some(tuple);
        touched += 1;
    }
    let members: u64 = tuples[..touched]
        .iter()
        .flatten()
        .map(|tuple| {
            let mut sets = tuple.components();
            let first = sets.next().map_or(0, |set| set.as_slice()[0].id());
            let last = sets
                .next_back()
                .map_or(0, |set| set.as_slice()[set.len() - 1].id());
            u64::from(first) + u64::from(last)
        })
        .sum();
    std::hint::black_box(widths as u64 + members);
    touched
}

impl Drop for TableScan {
    fn drop(&mut self) {
        self.stats
            .settle_scan(self.yielded, self.skipped, self.searched, self.read_ahead);
    }
}
