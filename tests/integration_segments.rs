//! Segment-subsystem acceptance: ordered scans over sorted value-major
//! segments, the k-way merge top-k, and located reads that skip every
//! segment holding no match — all probe-counted through the SQL surface.
//!
//! Three acceptance bars:
//!
//! * `ORDER BY <sort-key prefix> LIMIT k` runs the streaming k-way
//!   merge: one probe-counted scan per shard, stopping after
//!   ~(k + shards) pulls instead of draining the store;
//! * a §4 point op leaves the routed shard sorted and its segments
//!   repaired, so the *same* SQL keeps the merge path — identical
//!   tuples, the same handful of probes;
//! * an equality on a **non-routing** attribute probes exactly the
//!   tuples holding the value and skips every segment holding none,
//!   charged to the `segments_skipped` counter, without changing any
//!   answer — before and after point writes.
//!
//! And one counted mechanism: a point read on the routing attribute
//! `P(n−1)` searches about one segment (`segments_searched`) where
//! shared rests stretch the zones over most of them — the segments'
//! membership filters refute the rest.

use std::collections::{BTreeMap, BTreeSet};

use nf2::core::schema::NestOrder;
use nf2::core::shard::ShardSpec;
use nf2::core::Atom;
use nf2::query::Engine;
use nf2::storage::NfTable;

/// An engine over `groups` canonical tuples on `shards` shards: unique zero-padded outer key `b<g>` per group,
/// `width` inner `a…` values each, the whole universe interned in
/// sorted order **before** the load so the dictionary is id-ordered
/// (the merge path's dynamic precondition), then bulk-loaded through
/// the kernel rebuild path (which emits the segments).
fn segmented_engine(groups: usize, width: usize, shards: usize) -> Engine {
    let engine = Engine::builder().shards(shards).build().unwrap();
    let rows: Vec<[String; 2]> = (0..groups)
        .flat_map(|g| {
            (0..width).map(move |j| [format!("a{:05}", g * width + j), format!("b{g:04}")])
        })
        .collect();
    for r in &rows {
        engine.dict().intern(&r[0]);
    }
    for g in 0..groups {
        engine.dict().intern(&format!("b{g:04}"));
    }
    let refs: Vec<Vec<&str>> = rows
        .iter()
        .map(|r| vec![r[0].as_str(), r[1].as_str()])
        .collect();
    let table = NfTable::bulk_load_strs_sharded(
        "t",
        &["A", "B"],
        refs,
        NestOrder::identity(2),
        ShardSpec::hash(shards).unwrap(),
        engine.dict().clone(),
    )
    .unwrap();
    engine.attach_table(table).unwrap();
    assert_eq!(engine.table("t").unwrap().sharded().tuple_count(), groups);
    engine
}

/// Resolves a cursor's tuples to strings, one sorted vec per component.
fn rows_of(engine: &mut Engine, sql: &str) -> Vec<Vec<Vec<String>>> {
    let session = engine.session();
    let snap = session.engine().dict().snapshot();
    session
        .query(sql)
        .unwrap()
        .map(|t| {
            t.as_ref()
                .components()
                .map(|c| {
                    c.as_slice()
                        .iter()
                        .map(|&a| snap.resolve(a).unwrap().to_owned())
                        .collect()
                })
                .collect()
        })
        .collect()
}

#[test]
fn merge_topk_stops_early_and_matches_the_sorted_oracle() {
    let mut engine = segmented_engine(500, 3, 4);
    let sql = "SELECT * FROM t ORDER BY B, A LIMIT 7";

    let before = engine.table("t").unwrap().stats();
    let merged = rows_of(&mut engine, sql);
    let after = engine.table("t").unwrap().stats();

    // One probe-counted scan per shard, each stopped after a handful of
    // pulls — nowhere near the 500 stored tuples.
    assert_eq!(after.lookups - before.lookups, 4, "one scan per shard");
    let probed = after.units_probed - before.units_probed;
    assert!(
        probed < 50,
        "the merge must stop early: {probed} of 500 tuples probed"
    );

    // Oracle: group g surfaces as ({its a's}, {b<g>}) and the unique
    // zero-padded outer keys sort textually — the top 7 are b0000…b0006.
    assert_eq!(merged.len(), 7);
    for (i, t) in merged.iter().enumerate() {
        assert_eq!(t[1], vec![format!("b{i:04}")]);
        assert_eq!(t[0].len(), 3, "each group keeps its 3 inner values");
    }
}

#[test]
fn point_maintenance_keeps_the_merge_path_with_identical_results() {
    let mut engine = segmented_engine(300, 2, 4);
    let sql = "SELECT * FROM t ORDER BY B, A LIMIT 5";
    let before = engine.table("t").unwrap().stats();
    let merged = rows_of(&mut engine, sql);
    let after = engine.table("t").unwrap().stats();
    let merge_probed = after.units_probed - before.units_probed;

    // §4 point writes (values sorting after the whole universe, so the
    // dictionary stays id-ordered and the top-5 answer unchanged) leave
    // every shard in the kernel's order with its segments repaired.
    let mut session = engine.session();
    session
        .run("INSERT INTO t VALUES ('zz_a', 'zz_b')")
        .unwrap();
    session
        .run("INSERT INTO t VALUES ('zz_c', 'zz_b')")
        .unwrap();
    session
        .run("DELETE FROM t WHERE A = 'zz_a' AND B = 'zz_b'")
        .unwrap();
    engine.table("t").unwrap().sharded().verify().unwrap();

    let before = engine.table("t").unwrap().stats();
    let written = rows_of(&mut engine, sql);
    let after = engine.table("t").unwrap().stats();
    assert_eq!(written, merged, "writes change neither path nor answer");
    assert_eq!(
        after.lookups - before.lookups,
        4,
        "still one scan per shard"
    );
    assert_eq!(
        after.units_probed - before.units_probed,
        merge_probed,
        "the merge stops as early as before the writes"
    );
}

#[test]
fn zone_maps_skip_segments_on_a_non_routing_equality() {
    // Clustered data: A values strictly increase over (group, row), so
    // the canonical (B, A) sort gives each segment a tight A-range and
    // an A-equality — which cannot shard-prune, A does not route — can
    // skip every segment whose zone excludes the value.
    let engine = segmented_engine(512, 2, 4);
    engine.table("t").unwrap().set_segment_rows(16);
    let t = engine.table("t").unwrap();
    let total_segments: usize = (0..t.shard_count())
        .map(|s| t.sharded().shard_segments(s).segment_count())
        .sum();
    assert!(total_segments >= 16, "re-tiling produced {total_segments}");

    let before = engine.table("t").unwrap().stats();
    let n = {
        let session = engine.session();
        session
            .query("SELECT COUNT(*) FROM t WHERE A = 'a00500'")
            .unwrap()
            .flat_count()
    };
    let after = engine.table("t").unwrap().stats();
    assert_eq!(n, 1, "A values are unique");
    let skipped = (after.segments_skipped - before.segments_skipped) as usize;
    assert_eq!(
        skipped,
        total_segments - 1,
        "every segment but the one holding the value is skipped"
    );
    let probed = after.units_probed - before.units_probed;
    assert_eq!(
        probed, 1,
        "the one tuple holding the value is probed, of 512"
    );

    // A point write re-encodes the one segment it lands in; every shard
    // keeps locating, and the answer never changes.
    engine
        .session()
        .run("INSERT INTO t VALUES ('zz_a', 'zz_b')")
        .unwrap();
    let before = engine.table("t").unwrap().stats();
    let n = {
        let session = engine.session();
        session
            .query("SELECT COUNT(*) FROM t WHERE A = 'a00500'")
            .unwrap()
            .flat_count()
    };
    let after = engine.table("t").unwrap().stats();
    assert_eq!(n, 1);
    let skipped_written = (after.segments_skipped - before.segments_skipped) as usize;
    assert!(
        skipped_written >= skipped,
        "the written shard keeps zone-skipping: {skipped_written} >= {skipped}"
    );
    let probed_written = after.units_probed - before.units_probed;
    assert_eq!(
        probed_written, probed,
        "the new tuple does not hold the value, so it is not probed"
    );
}

#[test]
fn full_key_delete_probes_one_shard_and_builds_no_merge() {
    let engine = segmented_engine(400, 2, 4);
    let t = engine.table("t").unwrap();
    let shard_sizes: Vec<usize> = (0..4).map(|s| t.sharded().shard(s).tuple_count()).collect();
    let row = t.row_from_strs(&["a00401", "b0200"]).unwrap();
    let routed = shard_sizes[t.routing().route_row(&row)];

    let before = t.stats();
    let out = engine
        .session()
        .run("DELETE FROM t WHERE A = 'a00401' AND B = 'b0200'")
        .unwrap();
    let after = t.stats();
    assert!(matches!(out, nf2::query::Output::Affected(1)), "{out:?}");
    assert!(routed > 1, "the routed shard holds other tuples too");
    assert_eq!(
        after.units_probed - before.units_probed,
        1,
        "a full-key DELETE probes the one tuple holding the key, of {routed} in its shard"
    );
    assert_eq!(after.lookups - before.lookups, 1, "one routed scan");
    assert_eq!(after.snapshot_pins - before.snapshot_pins, 1, "one pin");
    assert_eq!(
        after.merges - before.merges,
        0,
        "the victim search never builds the merged relation"
    );

    // Same contract for UPDATE, on the routing attribute alone.
    let before = t.stats();
    engine
        .session()
        .run("UPDATE t SET A = 'a00401' WHERE B = 'b0200'")
        .unwrap();
    let after = t.stats();
    assert_eq!(
        after.units_probed - before.units_probed,
        1,
        "one tuple holds b0200"
    );
    assert_eq!(after.merges - before.merges, 0);
    // SHOW is what builds one.
    engine.session().run("SHOW t").unwrap();
    assert_eq!(t.stats().merges - after.merges, 1, "one SHOW, one merge");
    t.sharded().verify().unwrap();
}

#[test]
fn explain_reports_merge_pruning_and_skip_counts() {
    let engine = segmented_engine(256, 2, 4);
    engine.table("t").unwrap().set_segment_rows(8);
    let session = engine.session();

    // The merge-eligible shape names its operator and limit.
    let mut prep = session
        .prepare("SELECT * FROM t ORDER BY B, A LIMIT 3")
        .unwrap();
    let text = prep.explain(&session).unwrap();
    assert!(
        text.contains("streaming k-way segment merge, limit 3"),
        "{text}"
    );

    // A routed + zoned scan prints its pruning predicate on the scan
    // node and the dynamic shard/segment-skip counts per table.
    let mut prep = session
        .prepare("SELECT COUNT(*) FROM t WHERE B = 'b0100' AND A = 'a00200'")
        .unwrap();
    let text = prep.explain(&session).unwrap();
    assert!(text.contains("prune B∈#"), "routing predicate: {text}");
    assert!(text.contains("zone "), "zone predicates: {text}");
    assert!(text.contains("\npruning:"), "dynamic section: {text}");
    assert!(text.contains("t: 1/4 shard(s)"), "shard counts: {text}");
    assert!(text.contains("segments skipped"), "segment counts: {text}");

    // A DESC key breaks merge eligibility: the operator line says so.
    let mut prep = session
        .prepare("SELECT * FROM t ORDER BY B DESC, A LIMIT 3")
        .unwrap();
    let text = prep.explain(&session).unwrap();
    assert!(text.contains("top-3 bounded heap"), "{text}");
}

#[test]
fn multi_attribute_order_by_ranks_by_both_keys() {
    // Mixed-direction multi-key ORDER BY through the parser, planner
    // and executor: B DESC is not merge-eligible, so this pins the
    // multi-key comparator of the sort/heap path, while B ASC above
    // pins the merge path — both against the same textual oracle.
    let mut engine = segmented_engine(40, 2, 4);
    let desc = rows_of(&mut engine, "SELECT * FROM t ORDER BY B DESC, A LIMIT 4");
    assert_eq!(desc.len(), 4);
    for (i, t) in desc.iter().enumerate() {
        assert_eq!(t[1], vec![format!("b{:04}", 39 - i)]);
    }

    // Unlimited multi-key ASC: the full ordered stream is the oracle
    // sequence, whatever path produced it.
    let asc = rows_of(&mut engine, "SELECT * FROM t ORDER BY B, A");
    assert_eq!(asc.len(), 40);
    for (i, t) in asc.iter().enumerate() {
        assert_eq!(t[1], vec![format!("b{i:04}")]);
    }
}

/// A deterministic draw for the university-shaped table below.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: u32) -> u32 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        ((self.0 >> 33) % u64::from(n)) as u32
    }
}

/// `t (Club, Course, Student)` on 4 hash shards: student `s` takes the
/// full product of 1–2 of 30 courses and 1–2 of 6 clubs, every name
/// interned in sorted order before the load. So few rests exist that
/// many tuples hold several students (shared rests), and a tuple's
/// students lie far apart in the key order.
fn university_engine(students: u32) -> (Engine, Vec<String>) {
    let engine = Engine::builder().shards(4).build().unwrap();
    let names: Vec<String> = (0..students).map(|s| format!("s{s:05}")).collect();
    let clubs: Vec<String> = (0..6).map(|k| format!("b{k}")).collect();
    let courses: Vec<String> = (0..30).map(|c| format!("c{c:02}")).collect();
    for name in clubs.iter().chain(&courses).chain(&names) {
        engine.dict().intern(name);
    }
    let mut rng = Lcg(20_261_020);
    let mut rows: Vec<Vec<&str>> = Vec::new();
    for student in &names {
        let mut draw = |n: u32| {
            let first = rng.below(n);
            let second = rng.below(2 * n);
            let mut picked = vec![first];
            if second < n && second != first {
                picked.push(second);
            }
            picked
        };
        let (taken, joined) = (draw(30), draw(6));
        for &course in &taken {
            for &club in &joined {
                rows.push(vec![
                    &clubs[club as usize],
                    &courses[course as usize],
                    student,
                ]);
            }
        }
    }
    let table = NfTable::bulk_load_strs_sharded(
        "t",
        &["Club", "Course", "Student"],
        rows,
        NestOrder::identity(3),
        ShardSpec::hash(4).unwrap(),
        engine.dict().clone(),
    )
    .unwrap();
    engine.attach_table(table).unwrap();
    engine.table("t").unwrap().set_segment_rows(64);
    (engine, names)
}

/// The flat rows `(club, course, student)` of a tuple's three sets.
fn flat_rows(sets: [&[Atom]; 3], out: &mut BTreeSet<[Atom; 3]>) {
    for &club in sets[0] {
        for &course in sets[1] {
            for &student in sets[2] {
                out.insert([club, course, student]);
            }
        }
    }
}

#[test]
fn a_point_read_searches_about_one_segment_where_zones_admit_many() {
    const STUDENT: usize = 2;
    let (engine, names) = university_engine(4_000);
    let t = engine.table("t").unwrap();
    let store = t.sharded();

    // Brute force over the stored tuples: each key's flat rows, the
    // segments holding it, and the segments whose Student zone admits
    // it — all within the key's own shard.
    let mut expected: BTreeMap<Atom, BTreeSet<[Atom; 3]>> = BTreeMap::new();
    let mut holders: BTreeMap<Atom, usize> = BTreeMap::new();
    let (mut segments, mut shared) = (0, 0);
    for s in 0..t.shard_count() {
        let segs = store.shard_segments(s);
        segments += segs.segment_count();
        for seg in segs.segments() {
            let keys: BTreeSet<Atom> = seg
                .tuples()
                .flat_map(|tuple| tuple.component(STUDENT).as_slice().to_vec())
                .collect();
            shared += usize::from(seg.tuples().any(|tuple| tuple.component(STUDENT).len() > 1));
            for tuple in seg.tuples() {
                for &key in tuple.component(STUDENT).as_slice() {
                    let sets = [0, 1, 2].map(|a| tuple.component(a).as_slice());
                    flat_rows(
                        [sets[0], sets[1], std::slice::from_ref(&key)],
                        expected.entry(key).or_default(),
                    );
                }
            }
            for key in keys {
                *holders.entry(key).or_default() += 1;
            }
        }
    }
    assert!(segments >= 40, "{segments} segments at 64 tuples each");
    assert!(
        2 * shared >= segments,
        "{shared} of {segments} segments hold a shared rest"
    );

    let dict = engine.dict().snapshot();
    let session = engine.session();
    let mut point = session
        .prepare("SELECT * FROM t WHERE Student = ?")
        .unwrap();
    let (mut in_shard, mut admitted) = (0, 0);
    let before = t.stats();
    for name in &names {
        let key = dict.lookup(name).expect("every student was loaded");
        let shard = t.routing().spec().route_value(key);
        let segs = store.shard_segments(shard);
        in_shard += segs.segment_count();
        admitted += segs
            .segments()
            .iter()
            .filter(|seg| seg.min(STUDENT) <= key && key <= seg.max(STUDENT))
            .count();
        let mut answer = BTreeSet::new();
        for view in point.query(&session, &[name.as_str()]).unwrap() {
            let tuple = view.as_ref();
            let sets = [0, 1, 2].map(|a| tuple.component(a).as_slice());
            flat_rows(sets, &mut answer);
        }
        assert_eq!(answer, expected[&key], "{name}");
    }
    let after = t.stats();
    let reads = names.len();
    assert_eq!(
        after.lookups - before.lookups,
        reads as u64,
        "one routed scan a read"
    );
    let held: usize = holders.values().sum();
    assert_eq!(
        (after.segments_skipped - before.segments_skipped) as usize,
        in_shard - held,
        "every segment of the shard but the holders is skipped"
    );
    // The zones alone admit at least 30 % of each shard's segments; the
    // filters leave about one to search.
    assert!(
        10 * admitted >= 3 * in_shard,
        "zones admit {admitted} of {in_shard} segments"
    );
    let searched = (after.segments_searched - before.segments_searched) as usize;
    assert!(
        2 * searched <= 3 * reads,
        "{searched} segments searched for {reads} point reads"
    );
    assert!(searched >= held, "every holder is searched");
    let metrics = engine.metrics().to_text();
    assert!(
        metrics.contains("table.t.scan.segments_searched"),
        "{metrics}"
    );
    assert!(metrics.contains("table.t.mem.filter_bytes"), "{metrics}");
}
