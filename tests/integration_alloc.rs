//! Allocation counts of the read path — a counter test that needs no
//! clock.
//!
//! A located tuple costs what the pipeline builds for it and nothing
//! else: σ one component block when it narrows the tuple, a streaming π
//! one more. Components of up to four atoms live inside those blocks, so
//! the counts below are per *tuple*, not per component. The benchmark
//! reports the same quantity as `alloc.count_per_op`; here it is
//! asserted.
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
use nf2::core::shard::ShardSpec;
use nf2::core::tuple::ValueSet;
use nf2::query::Engine;
use nf2::storage::NfTable;

struct CountingAlloc;

thread_local! {
    // `const` cells without destructors: reading them never allocates.
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note() {
    if ARMED.get() {
        COUNT.set(COUNT.get() + 1);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: `ptr` came from `System` with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the allocations this thread made
/// meanwhile.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    COUNT.set(0);
    ARMED.set(true);
    let out = f();
    ARMED.set(false);
    (out, COUNT.get())
}

/// What a statement may allocate besides its per-tuple blocks: binding,
/// the shard and zone vectors, the boxed pipeline, the cursor.
const PER_STATEMENT: u64 = 64;

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
    counted(|| prepared.query(&session, &[param]).unwrap().count())
}

#[test]
fn a_located_tuple_costs_one_block_per_operator_that_rewrites_it() {
    // 1–4 courses per student: every set of the table is inline.
    let small_sets = |s: u32| 1 + s % 4;
    let (small, large) = (enroll(1_000, small_sets), enroll(2_000, small_sets));
    for engine in [&small, &large] {
        let fits = |set: &ValueSet| set.len() <= 4;
        let relation = engine.table("t").unwrap().relation();
        assert!(relation
            .tuples()
            .iter()
            .all(|t| t.components().iter().all(fits)));
    }
    for (sql, per_tuple) in [(SCAN_EQ, 2), (SCAN_ALL, 1)] {
        let (few, few_allocs) = drain(&small, sql, "c7");
        let (many, many_allocs) = drain(&large, sql, "c7");
        assert!(few >= 200 && many >= 2 * few - 1, "{few} {many}");
        // σ's block and, under `SCAN_EQ`, the streaming π's; the same
        // constant at both sizes, so it does not grow with the result.
        for (located, allocs) in [(few, few_allocs), (many, many_allocs)] {
            let bound = per_tuple * located as u64 + PER_STATEMENT;
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
    assert_eq!(small_allocs, large_allocs);
    assert!(small_allocs <= PER_STATEMENT, "{small_allocs}");
}

#[test]
fn sets_past_the_inline_capacity_return_the_same_rows() {
    // Six courses per student: every Course set is a boxed slice, and σ
    // narrows it to the inline `{c7}`.
    let engine = enroll(300, |_| 6);
    let table = engine.table("t").unwrap();
    let stored = table.relation();
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
