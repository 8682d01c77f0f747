//! Allocation counts of the read path, and allocated bytes of the write
//! path — counter tests that need no clock.
//!
//! A located statement allocates blocks, not tuples. σ and a streaming
//! π run as one step inside the scan (`TableScan::located`), which
//! reads each located tuple in place and writes each output tuple into
//! a block: one chunk, its two arrays and its `Arc`, holding 1, 2, 4, …
//! up to 64 tuples. So past a fixed cost per statement a located
//! statement allocates a few times per 64 output tuples, whatever its
//! sets hold, and a point read allocates one block. The scan's
//! read-ahead allocates nothing. A materialized SELECT holds its
//! relation and builds no text until it is displayed. The benchmark
//! reports the same quantity as `alloc.count_per_op`; here it is
//! asserted.
//!
//! A point write rewrites the one segment its tuple lies in — a new
//! chunk, its kept tuples' atoms and offsets copied in runs, and
//! patched columns — and shares every other segment with the version it
//! replaces, so what it allocates does not grow with the table (the
//! benchmark's `alloc.bytes_per_op`). A chunk is two arrays whatever it
//! holds, so dropping the segment a write replaced frees a few blocks
//! per attribute and none per tuple.
//!
//! A cold load carries its rows to the kernel as one block of atoms and
//! routes it into one block per shard; each shard's kernel sorts, drops
//! repeats and folds in scratch it reuses. So a load allocates one block
//! per tuple it emits and a few per segment, and none per row it reads.
//!
//! This is its own test binary because it installs a
//! `#[global_allocator]`, and it holds the workspace's only `unsafe`
//! (the `GlobalAlloc` impl, which forwards to `System`): every crate
//! root carries `#![forbid(unsafe_code)]`. Counting is per thread and
//! armed only around the measured call, so the tests can run in
//! parallel.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nf2::algebra::ops;
use nf2::core::relation::NfRelation;
use nf2::core::schema::NestOrder;
use nf2::core::segment::{Segment, DEFAULT_SEGMENT_ROWS};
use nf2::core::shard::ShardSpec;
use nf2::core::tuple::{NfTuple, ValueSet};
use nf2::core::Atom;
use nf2::query::{Engine, Session, NO_PARAMS};
use nf2::storage::NfTable;

struct CountingAlloc;

thread_local! {
    // `const` cells without destructors: reading them never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static FREES: Cell<u64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes` (a reallocation counts its whole
/// new block).
fn note(bytes: usize) {
    if ARMED.get() {
        COUNT.set(COUNT.get() + 1);
        BYTES.set(BYTES.get() + bytes as u64);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ARMED.get() {
            FREES.set(FREES.get() + 1);
        }
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr` came from `System` with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// What this thread allocated and freed while a measured call ran.
#[derive(Debug, Clone, Copy)]
struct Tally {
    allocs: u64,
    bytes: u64,
    frees: u64,
}

/// Runs `f` and returns its result with the allocations and frees this
/// thread made meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, Tally) {
    COUNT.set(0);
    BYTES.set(0);
    FREES.set(0);
    ARMED.set(true);
    let out = f();
    ARMED.set(false);
    let tally = Tally {
        allocs: COUNT.get(),
        bytes: BYTES.get(),
        frees: FREES.get(),
    };
    (out, tally)
}

/// What a statement may allocate besides its blocks: binding, the
/// shard and zone vectors, the boxed pipeline, the cursor.
const PER_STATEMENT: u64 = 64;

/// Everything a point read allocates, on any table: its fixed cost
/// (binding, the shard and zone vectors, each shard's located spans,
/// the boxed step) and its one output tuple's block — the block's two
/// arrays and its `Arc`. The shard set is one vector, and the zones
/// reach the segments as they are held (13 while the shard set took a
/// vector per conjunct and the zones were copied into one more).
const POINT_ALLOCS: u64 = 11;

const SCAN_EQ: &str = "SELECT Student, Club FROM t WHERE Course = ?";
const SCAN_ALL: &str = "SELECT * FROM t WHERE Course = ?";
const POINT: &str = "SELECT Course, Club FROM t WHERE Student = ?";

/// `t (Club, Course, Student)` on 4 hash shards: student `s` takes
/// `courses(s)` consecutive courses of ten starting at `c{s % 10}` and
/// belongs to one or two clubs of its own, so no two students nest into
/// one tuple and every tuple is `[1–2 clubs][courses(s)][1 student]`.
fn enroll(students: u32, courses: impl Fn(u32) -> u32) -> Engine {
    let mut rows: Vec<Vec<String>> = Vec::new();
    for s in 0..students {
        for club in 0..1 + s % 2 {
            for j in 0..courses(s) {
                let course = (s + j) % 10;
                rows.push(vec![
                    format!("k{s}_{club}"),
                    format!("c{course}"),
                    format!("s{s}"),
                ]);
            }
        }
    }
    let engine = Engine::new();
    let table = NfTable::bulk_load_strs_sharded(
        "t",
        &["Club", "Course", "Student"],
        rows.iter()
            .map(|r| r.iter().map(String::as_str).collect::<Vec<&str>>()),
        NestOrder::identity(3),
        ShardSpec::hash(4).unwrap(),
        engine.dict().clone(),
    )
    .unwrap();
    assert_eq!(table.tuple_count(), students as usize);
    engine.attach_table(table).unwrap();
    engine
}

/// Drains the prepared `sql` bound to `param`: how many tuples came out
/// and how many allocations the execution (not the prepare) made.
fn drain(engine: &Engine, sql: &str, param: &str) -> (usize, u64) {
    let session = engine.session();
    let mut prepared = session.prepare(sql).unwrap();
    // Once unmeasured: whatever the first execution caches is not a
    // per-statement cost.
    assert!(prepared.query(&session, &[param]).unwrap().count() > 0);
    let (n, tally) = counted(|| prepared.query(&session, &[param]).unwrap().count());
    (n, tally.allocs)
}

#[test]
fn a_located_statement_allocates_blocks_not_tuples() {
    // 1–4 courses per student: every set of the table is inline.
    let small_sets = |s: u32| 1 + s % 4;
    let (small, large) = (enroll(1_000, small_sets), enroll(2_000, small_sets));
    for engine in [&small, &large] {
        let fits = |set: &ValueSet| set.len() <= 4;
        let relation = engine.table("t").unwrap().snapshot().canonical();
        assert!(relation
            .tuples()
            .iter()
            .all(|t| t.components().iter().all(fits)));
    }
    for sql in [SCAN_EQ, SCAN_ALL] {
        let (few, few_allocs) = drain(&small, sql, "c7");
        let (many, many_allocs) = drain(&large, sql, "c7");
        assert!(few >= 200 && many >= 2 * few - 1, "{few} {many}");
        // σ and the streaming π write every output tuple into blocks of
        // up to 64, so a statement allocates a few blocks per 64 tuples
        // besides its fixed cost, never one per tuple.
        for (located, allocs) in [(few, few_allocs), (many, many_allocs)] {
            let bound = PER_STATEMENT + located as u64 / 8;
            assert!(
                allocs <= bound,
                "{sql}: {allocs} allocations for {located} tuples, bound {bound}"
            );
        }
    }
}

#[test]
fn a_point_read_allocates_the_same_on_any_table() {
    let small_sets = |s: u32| 1 + s % 4;
    let (small, large) = (enroll(1_000, small_sets), enroll(4_000, small_sets));
    let (one, small_allocs) = drain(&small, POINT, "s77");
    let (also_one, large_allocs) = drain(&large, POINT, "s77");
    assert_eq!((one, also_one), (1, 1));
    assert_eq!((small_allocs, large_allocs), (POINT_ALLOCS, POINT_ALLOCS));
}

/// Everything `Prepared::execute` of [`POINT`] allocates: the point
/// read's [`POINT_ALLOCS`] and two more for the relation it
/// materializes, but no text: the table is rendered when asked.
const MATERIALIZED_POINT_ALLOCS: u64 = 13;

#[test]
fn a_materialized_select_renders_nothing_until_asked() {
    let engine = enroll(1_000, |s| 1 + s % 4);
    let mut session = engine.session();
    let mut prepared = session.prepare(POINT).unwrap();
    // Once unmeasured, as `drain` does.
    prepared.execute(&mut session, &["s77"]).unwrap();
    let (out, tally) = counted(|| prepared.execute(&mut session, &["s77"]).unwrap());
    // Debug builds validate the relation they materialize, which
    // allocates: the count is the release build's.
    if !cfg!(debug_assertions) {
        assert_eq!(tally.allocs, MATERIALIZED_POINT_ALLOCS);
    }
    assert_eq!(
        out.to_text(),
        "\
t_proj
+--------+--------------+
| Course | Club         |
+--------+--------------+
| c7, c8 | k77_0, k77_1 |
+--------+--------------+
"
    );
}

/// Everything a warm `Session::run` of [`POINT`] with a new literal
/// allocates, building its text included (4): [`MATERIALIZED_POINT_ALLOCS`]
/// for executing the plan its shape shares, and two for the shape, its
/// key and its list of literals (borrowed from the text). Nothing is
/// parsed or planned: the plan is the cached one. The cold first run,
/// which parses and plans, allocates 112. While every run lexed, parsed
/// and lifted its text before looking its plan up, the warm run
/// allocated 44; before the point read lost two vectors, 21.
const ADHOC_POINT_ALLOCS: u64 = 19;

#[test]
fn an_adhoc_select_plans_once_per_shape() {
    let engine = enroll(1_000, |s| 1 + s % 4);
    let mut session = engine.session();
    let point = |student: &str| POINT.replace('?', &format!("'{student}'"));
    let (_, cold) = counted(|| session.run(&point("s77")).unwrap());
    let (out, warm) = counted(|| session.run(&point("s78")).unwrap());
    let hits = engine.obs().registry().counter("plan_cache.hits").get();
    assert_eq!(hits, 1, "the second point read shares the first one's plan");
    assert!(warm.allocs < cold.allocs, "warm {warm:?}, cold {cold:?}");
    // Debug builds validate the relation they materialize: the count
    // is the release build's.
    if !cfg!(debug_assertions) {
        assert_eq!(warm.allocs, ADHOC_POINT_ALLOCS);
    }
    assert_eq!(
        out.to_text(),
        "\
t_proj
+------------+-------+
| Course     | Club  |
+------------+-------+
| c0, c8, c9 | k78_0 |
+------------+-------+
"
    );
}

#[test]
fn sets_past_the_inline_capacity_return_the_same_rows() {
    // Six courses per student: every Course set is a boxed slice, and σ
    // narrows it to the inline `{c7}`.
    let engine = enroll(300, |_| 6);
    let table = engine.table("t").unwrap();
    let stored = table.snapshot().canonical();
    assert!(stored.tuples().iter().all(|t| t.component(1).len() == 6));
    let c7 = ValueSet::singleton(engine.dict().lookup("c7").unwrap());
    let expected = ops::select_box(&stored, &[(1, c7)]).unwrap();
    assert!(expected.tuple_count() >= 150);

    let session = engine.session();
    let mut prepared = session.prepare(SCAN_ALL).unwrap();
    let tuples = prepared
        .query(&session, &["c7"])
        .unwrap()
        .map(|t| t.into_owned())
        .collect();
    let got = NfRelation::from_tuples(stored.schema().clone(), tuples).unwrap();
    assert_eq!(got, expected);
    assert_eq!(got.expand(), expected.expand());
}

/// Bytes allocated and tuples copied per point write, on the
/// 4-shard `t` of `students` students: `PAIRS` times a prepared INSERT
/// of a row under student `s77` and the DELETE that takes it back. Each
/// write rewrites the segment holding `s77`'s tuples, the first of its
/// shard, which is full at every size measured below. Every pair does
/// the same work, so a few measure it exactly.
fn point_write_cost(students: u32) -> (u64, u64) {
    const PAIRS: u64 = 4;
    let engine = enroll(students, |s| 1 + s % 4);
    let table = engine.table("t").unwrap();
    let mut session = engine.session();
    let mut insert = session.prepare("INSERT INTO t VALUES (?, ?, ?)").unwrap();
    let mut delete = session
        .prepare("DELETE FROM t WHERE Club = ? AND Course = ? AND Student = ?")
        .unwrap();
    let row = ["k77_9", "c3", "s77"];
    let mut pair = |session: &mut Session<'_>| {
        insert.execute(session, &row).unwrap();
        delete.execute(session, &row).unwrap();
    };
    // Once unmeasured: interning the new club is not a per-write cost.
    pair(&mut session);
    let before = table.stats();
    let ((), tally) = counted(|| (0..PAIRS).for_each(|_| pair(&mut session)));
    let after = table.stats();
    let writes = 2 * PAIRS;
    assert_eq!(
        (after.inserts - before.inserts) + (after.deletes - before.deletes),
        writes,
        "every write took effect"
    );
    let copied = after.write_tuples_copied - before.write_tuples_copied;
    (tally.bytes / writes, copied / writes)
}

#[test]
fn a_point_write_allocates_and_copies_what_its_segment_holds() {
    // Debug builds also check every merged version whole (kernel order,
    // the partition invariant), which allocates and runs per stored
    // tuple: they copy-check a smaller table and leave the byte bound to
    // the release build, where the benchmark measures it.
    let large = if cfg!(debug_assertions) {
        4_000
    } else {
        16_000
    };
    let (small_bytes, small_copied) = point_write_cost(2_000);
    let (large_bytes, large_copied) = point_write_cost(large);
    // A touched segment is at most twice the tiling target before it
    // splits, and only touched segments get new chunks.
    for copied in [small_copied, large_copied] {
        assert!(
            copied <= 2 * DEFAULT_SEGMENT_ROWS as u64,
            "{copied} tuples copied per write"
        );
    }
    if cfg!(debug_assertions) {
        return;
    }
    // Eight times the tuples per shard, the same bytes per write: the
    // write builds one chunk and its columns, never a shard-wide vector.
    let (lo, hi) = (
        small_bytes.min(large_bytes) as f64,
        small_bytes.max(large_bytes) as f64,
    );
    assert!(
        hi <= 1.25 * lo,
        "{small_bytes} B per write at 2 000 students, {large_bytes} B at 16 000"
    );
}

/// `rows` tuples of three sets of `width` atoms each (a set of six is a
/// boxed slice in an owned tuple, a set of one inline in its block).
fn wide_tuples(rows: u32, width: u32) -> Vec<NfTuple> {
    (0..rows)
        .map(|row| {
            let set = |base: u32| (0..width).map(|i| Atom(base + i)).collect();
            NfTuple::from_values(vec![set(row * width), set(1_000_000), set(2_000_000 + row)])
                .unwrap()
        })
        .collect()
}

#[test]
fn a_dropped_segment_frees_blocks_per_attribute_not_per_tuple() {
    const ARITY: u64 = 3;
    for width in [1, 6] {
        let frees: Vec<u64> = [64, 1_024]
            .map(|rows| {
                let segment = Segment::encode(&wide_tuples(rows, width), Some(2));
                assert_eq!(segment.rows(), rows as usize);
                let ((), tally) = counted(|| drop(segment));
                tally.frees
            })
            .into();
        // The chunk's atoms and offsets, the column list, and each
        // column's codes, offsets and rows: the same at both sizes.
        assert_eq!(frees[0], frees[1], "sets of {width}: {frees:?}");
        assert!(
            frees[0] <= 4 * ARITY,
            "sets of {width}: {} frees for a segment of arity {ARITY}",
            frees[0]
        );
    }
}

/// `groups` disjoint products `{a, a'} × {b, b'} × {c, c'}`, eight rows
/// each: every group is one canonical tuple (two when its two `C`
/// values route to different shards), every set inline.
fn product_rows(groups: u32) -> Vec<Vec<Atom>> {
    let mut rows = Vec::with_capacity(8 * groups as usize);
    for g in 0..groups {
        let base = 6 * g;
        for a in 0..2 {
            for b in 2..4 {
                for c in 4..6 {
                    rows.push(vec![Atom(base + a), Atom(base + b), Atom(base + c)]);
                }
            }
        }
    }
    rows
}

#[test]
fn a_cold_load_allocates_per_tuple_not_per_row() {
    const ARITY: u64 = 3;
    // 10 000 rows on 4 shards: under the row count that starts build
    // threads, so the whole build runs on this, the counting, thread.
    let rows = product_rows(1_250);
    let input_rows = rows.len() as u64;
    let dict = nf2::storage::SharedDictionary::new();
    let (table, tally) = counted(|| {
        NfTable::bulk_load_atoms_sharded(
            "p",
            &["A", "B", "C"],
            rows,
            NestOrder::identity(3),
            ShardSpec::hash(4).unwrap(),
            dict,
        )
        .unwrap()
    });
    assert_eq!(table.flat_count(), input_rows as u128);
    let snapshot = table.snapshot();
    let (tuples, segments) = (0..table.shard_count()).fold((0, 0), |(t, s), shard| {
        let segs = snapshot.shard_segments(shard);
        (
            t + segs.covered_rows() as u64,
            s + segs.segment_count() as u64,
        )
    });
    assert!(tuples < input_rows / 2, "{tuples} tuples");
    // Debug builds check the partition invariant of every relation the
    // kernel emits, which expands it and allocates per row: the bounds
    // are the release build's (CI runs this binary in release).
    if cfg!(debug_assertions) {
        return;
    }
    // Each emitted tuple is one block; everything else — the load's row
    // block and one per shard, the kernel's scratch, each segment's
    // chunk and columns — is a few blocks per segment and attribute.
    let bound = tuples + 64 * segments * ARITY + 64;
    assert!(
        tally.allocs <= bound,
        "{} allocations for {input_rows} rows, {tuples} tuples, {segments} segments",
        tally.allocs
    );
    // The input's rows are the caller's, handed over by value: each is
    // freed once inside the load. Beyond them the load frees what it
    // allocated and did not keep.
    assert!(
        tally.frees <= input_rows + bound,
        "{} frees for {input_rows} rows, {tuples} tuples, {segments} segments",
        tally.frees
    );
}

/// Loads one value per row, `v0000000`, `v0000001`, …, into `dict` on
/// one shard.
fn load_values(names: &[String], dict: &nf2::storage::SharedDictionary) -> NfTable {
    NfTable::bulk_load_strs_sharded(
        "v",
        &["V"],
        names.iter().map(|name| vec![name.as_str()]),
        NestOrder::identity(1),
        ShardSpec::single(),
        dict.clone(),
    )
    .unwrap()
}

#[test]
fn interning_allocates_per_page_not_per_value() {
    use nf2::core::value::PAGE_BYTES;
    use nf2::storage::SharedDictionary;
    for n in [10_000usize, 80_000] {
        let names: Vec<String> = (0..n).map(|i| format!("v{i:07}")).collect();
        // A first load grows the thread's kernel scratch; then a load of
        // new names and a load of the same names, which interns nothing,
        // allocate the same but for the dictionary.
        load_values(&names, &SharedDictionary::new());
        let dict = SharedDictionary::new();
        let (fresh, interning) = counted(|| load_values(&names, &dict));
        let (again, held) = counted(|| load_values(&names, &dict));
        assert_eq!(fresh.snapshot().canonical(), again.snapshot().canonical());
        assert_eq!((dict.len(), dict.interns()), (n, n as u64));
        if cfg!(debug_assertions) {
            return;
        }
        let allocs = interning.allocs - held.allocs;
        // The names fill `pages` pages; the index and the atoms' spans
        // each grow by doubling, the index from 16 slots to twice `n`.
        let pages = (n * names[0].len()).div_ceil(PAGE_BYTES) as u64;
        let doublings = u64::from(((2 * n).next_power_of_two() / 16).trailing_zeros() + 1);
        let bound = pages + 2 * doublings + 16;
        assert!(
            allocs <= bound,
            "{allocs} allocations to intern {n} names ({pages} pages, {doublings} index doublings)"
        );
    }
}

/// `t (Club, Course, Student)` on 4 hash shards where student `s` takes
/// the four courses from `c{s % 7}` on and belongs to clubs `k{s % 7}`
/// and `k{7 + s % 11}`. Students share courses and clubs, so `t` is not
/// fixed on `(Course, Club)`. Students agreeing on `s % 77` share a
/// tuple, so up to 231 students every set is inline and every tuple
/// holds 8 to 24 rows.
fn shared_enrollment(students: u32) -> Engine {
    let mut rows: Vec<[String; 3]> = Vec::new();
    for s in 0..students {
        for club in [s % 7, 7 + s % 11] {
            for j in 0..4 {
                rows.push([
                    format!("k{club}"),
                    format!("c{}", s % 7 + j),
                    format!("s{s}"),
                ]);
            }
        }
    }
    let engine = Engine::new();
    let table = NfTable::bulk_load_strs_sharded(
        "t",
        &["Club", "Course", "Student"],
        rows.iter().map(|r| r.iter().map(String::as_str).collect()),
        NestOrder::identity(3),
        ShardSpec::hash(4).unwrap(),
        engine.dict().clone(),
    )
    .unwrap();
    engine.attach_table(table).unwrap();
    engine
}

#[test]
fn a_blocking_projection_allocates_per_tuple_not_per_row() {
    const BLOCKING: &str = "SELECT Course, Club FROM t";
    let engine = shared_enrollment(200);
    let table = engine.table("t").unwrap();
    let snapshot = table.snapshot();
    let stored = snapshot.canonical();
    assert!(stored.tuples().iter().all(|t| t.expansion_count() >= 8));
    // The shards' tuples: what the scan feeds the blocking arm.
    let input: u64 = (0..table.shard_count())
        .map(|shard| snapshot.shard_segments(shard).covered_rows() as u64)
        .sum();
    assert!(
        !nf2::core::properties::is_fixed_on(&stored, &[1, 0]),
        "the projection must go through R*"
    );
    let mut session = engine.session();
    let plan = session.run(&format!("EXPLAIN {BLOCKING}")).unwrap();
    assert!(!plan.to_text().contains("streaming"), "{}", plan.to_text());

    let mut prepared = session.prepare(BLOCKING).unwrap();
    assert!(prepared.query(&session, NO_PARAMS).unwrap().count() > 0);
    let (output, tally) = counted(|| prepared.query(&session, NO_PARAMS).unwrap().count() as u64);
    // Debug builds validate every relation the pipeline and the kernel
    // build, which expands it: the bound is the release build's.
    if cfg!(debug_assertions) {
        return;
    }
    // One owned copy per input tuple (the blocking arm's collection),
    // one block per output tuple, and the expansion's row blocks: a few
    // blocks per statement, none per row. The nest kernel is one per
    // thread, and the first run grew its scratch, so it adds none.
    let bound = input + 4 * output + PER_STATEMENT;
    assert!(
        tally.allocs <= bound,
        "{} allocations for {input} input tuples ({} rows) and {output} output tuples",
        tally.allocs,
        stored.flat_count()
    );
}
