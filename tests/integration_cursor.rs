//! Streaming-cursor guarantees at scale.
//!
//! The acceptance bar for the cursor API: a full-table SELECT over a
//! 10⁵-row table must yield its **first** tuple without materializing
//! the result. The probe is the storage layer's scan accounting —
//! [`NfTable`] charges one `units_probed` per tuple a scan actually
//! yields, so "pulled one tuple, paid one probe" is directly observable
//! in [`TableStats`], while an eagerly-materializing evaluator would
//! charge the whole relation before the first tuple surfaced.

use nf2::core::schema::NestOrder;
use nf2::core::shard::ShardSpec;
use nf2::core::tuple::{FlatTuple, NfTuple, ValueSet};
use nf2::core::value::Atom;
use nf2::query::Engine;
use nf2::storage::{NfTable, TableStats};

/// 10⁵ flat rows in 1 000 NF² tuples: group `g` pairs `A = g` with its
/// own window of 100 `B`-values, so canonicalization folds each group
/// into one rectangle.
fn big_engine() -> Engine {
    let engine = Engine::new();
    let rows: Vec<FlatTuple> = (0u32..1_000)
        .flat_map(|g| (0u32..100).map(move |i| vec![Atom(g), Atom(1_000_000 + g * 100 + i)]))
        .collect();
    assert_eq!(rows.len(), 100_000);
    let table = NfTable::bulk_load_atoms(
        "big",
        &["A", "B"],
        rows,
        NestOrder::identity(2),
        engine.dict().clone(),
    )
    .unwrap();
    engine.attach_table(table).unwrap();
    assert_eq!(engine.table("big").unwrap().flat_count(), 100_000);
    assert_eq!(engine.table("big").unwrap().tuple_count(), 1_000);
    engine
}

#[test]
fn first_tuple_of_full_table_select_costs_one_probe() {
    let engine = big_engine();
    let session = engine.session();
    let before = session.engine().table("big").unwrap().stats();

    let mut cursor = session.query("SELECT * FROM big").unwrap();
    let first = cursor.next().expect("non-empty table");
    assert!(first.is_zero_copy(), "full scans yield zero-copy views");
    assert_eq!(
        first.as_ref().expansion_count(),
        100,
        "one group's rectangle"
    );
    drop(cursor); // settle the scan's probe counter

    let after = session.engine().table("big").unwrap().stats();
    let probed = after.units_probed - before.units_probed;
    assert_eq!(
        probed, 1,
        "first tuple must cost one probe, not a materialized result \
         (an eager evaluator would probe all 1000 tuples)"
    );

    // Draining a fresh cursor pays for exactly the full relation.
    let drained = session.query("SELECT * FROM big").unwrap().count();
    assert_eq!(drained, 1_000);
    let full = session.engine().table("big").unwrap().stats();
    assert_eq!(full.units_probed - after.units_probed, 1_000);
}

#[test]
fn flat_rows_adapter_is_lazy_too() {
    let engine = big_engine();
    let session = engine.session();
    let before = session.engine().table("big").unwrap().stats();
    let rows: Vec<FlatTuple> = session
        .query("SELECT * FROM big")
        .unwrap()
        .flat_rows()
        .take(150)
        .collect();
    assert_eq!(rows.len(), 150);
    let after = session.engine().table("big").unwrap().stats();
    assert!(
        after.units_probed - before.units_probed <= 3,
        "150 flat rows span two rectangles; the scan must not run ahead \
         (probed {})",
        after.units_probed - before.units_probed
    );
}

#[test]
fn limit_terminates_the_pipeline_early() {
    let engine = big_engine();
    let mut session = engine.session();

    // LIMIT 3 over a 1000-tuple table: the pull pipeline must stop
    // asking the scan for tuples once the limit is satisfied, so the
    // probe counter — charged per tuple actually yielded — stays at 3.
    let before = session.engine().table("big").unwrap().stats();
    let tuples: Vec<_> = session
        .query("SELECT * FROM big LIMIT 3")
        .unwrap()
        .collect();
    assert_eq!(tuples.len(), 3);
    let after = session.engine().table("big").unwrap().stats();
    assert_eq!(
        after.units_probed - before.units_probed,
        3,
        "LIMIT 3 must pull exactly 3 tuples off the scan, not the whole \
         relation"
    );

    // The one-shot run() path applies the same limit.
    match session.run("SELECT * FROM big LIMIT 5").unwrap() {
        nf2::query::Output::Relation { relation, .. } => {
            assert_eq!(relation.tuple_count(), 5);
        }
        other => panic!("unexpected {other:?}"),
    }
    let ran = session.engine().table("big").unwrap().stats();
    assert_eq!(ran.units_probed - after.units_probed, 5);

    // Aggregates are never truncated by LIMIT: COUNT(*) is one logical
    // value, and its answer must not depend on the physical tuple
    // layout (unsharded and sharded engines must agree).
    match session.run("SELECT COUNT(*) FROM big LIMIT 1").unwrap() {
        nf2::query::Output::Count(n) => assert_eq!(n, 100_000),
        other => panic!("unexpected {other:?}"),
    }

    // Prepared statements carry the limit in the cached plan.
    let mut stmt = session
        .prepare("SELECT * FROM big WHERE A = 'missing-value' LIMIT 2")
        .unwrap();
    let miss = stmt.query(&session, nf2::query::NO_PARAMS).unwrap();
    assert_eq!(miss.count(), 0, "limit does not resurrect empty results");

    // LIMIT 0 yields nothing and probes nothing.
    let base = session.engine().table("big").unwrap().stats();
    assert_eq!(
        session.query("SELECT * FROM big LIMIT 0").unwrap().count(),
        0
    );
    let zero = session.engine().table("big").unwrap().stats();
    assert_eq!(zero.units_probed - base.units_probed, 0);
}

#[test]
fn streamed_projection_stops_the_scan_and_the_blocking_arm_drains() {
    for shards in [1, 4] {
        // big(A, B, C): 1 000 singleton tuples, 125 under each B-value.
        let engine = Engine::builder().shards(shards).build().unwrap();
        let rows: Vec<[String; 3]> = (0..1_000)
            .map(|i| [format!("a{i}"), format!("b{}", i % 8), format!("c{i}")])
            .collect();
        let table = NfTable::bulk_load_strs_sharded(
            "big",
            &["A", "B", "C"],
            rows.iter().map(|r| r.iter().map(String::as_str).collect()),
            NestOrder::identity(3),
            ShardSpec::hash(shards).unwrap(),
            engine.dict().clone(),
        )
        .unwrap();
        engine.attach_table(table).unwrap();
        assert_eq!(engine.table("big").unwrap().tuple_count(), 1_000);
        let session = engine.session();
        let probed = |f: &mut dyn FnMut()| {
            let before = engine.table("big").unwrap().stats().units_probed;
            f();
            engine.table("big").unwrap().stats().units_probed - before
        };

        // B is pinned and is all the projection drops, so π streams: one
        // tuple out costs one tuple off the located scan, under LIMIT
        // and under a cursor dropped after its first pull alike.
        let pinned = "SELECT A, C FROM big WHERE B = 'b7'";
        let limit_1 = format!("{pinned} LIMIT 1");
        let limited = probed(&mut || assert_eq!(session.query(&limit_1).unwrap().count(), 1));
        assert_eq!(limited, 1, "LIMIT 1 over a streaming π, {shards} shard(s)");
        let dropped = probed(&mut || {
            let mut cursor = session.query(pinned).unwrap();
            assert!(cursor.next().is_some());
        });
        assert_eq!(dropped, 1, "a cursor dropped after one pull");
        let drained = probed(&mut || assert_eq!(session.query(pinned).unwrap().count(), 125));
        assert_eq!(
            drained, 125,
            "a drained one scans what the conjunct locates"
        );

        // Two values pin nothing: the blocking arm must see every
        // located tuple before it can yield its first.
        let unpinned = "SELECT A, C FROM big WHERE B IN ('b7','b6') LIMIT 1";
        let blocked = probed(&mut || assert_eq!(session.query(unpinned).unwrap().count(), 1));
        assert_eq!(blocked, 250, "LIMIT 1 over a blocking π, {shards} shard(s)");
    }
}

#[test]
fn limit_zero_probes_nothing_on_every_plan_shape_and_path() {
    // Regression: blocking stages (projection's input, a join's build
    // side) used to materialize at pipeline-construction time, so a
    // `take(0)` still paid the full scan on those plans. Construction is
    // now lazy end to end: 0 rows AND 0 probes, on every plan shape,
    // through every execution path.
    let engine = big_engine();
    {
        let mut session = engine.session();
        session.run("CREATE TABLE side (A, C)").unwrap();
        session
            .run("INSERT INTO side VALUES ('x1','y1'), ('x2','y2'), ('x1','y3')")
            .unwrap();
    }

    let probes = |engine: &Engine, table: &str| engine.table(table).unwrap().stats().units_probed;

    for sql in [
        // Scan-only plan.
        "SELECT * FROM big LIMIT 0",
        // Projection plan (blocking duplicate elimination).
        "SELECT A FROM big LIMIT 0",
        // Join plan (blocking build side on both tables).
        "SELECT * FROM big JOIN side LIMIT 0",
        // Selection + projection.
        "SELECT B FROM big WHERE A = 'never-interned' LIMIT 0",
        // Top-k with k = 0 (ORDER BY + LIMIT 0).
        "SELECT * FROM big ORDER BY A LIMIT 0",
        "SELECT A, C FROM side ORDER BY C DESC LIMIT 0",
    ] {
        // Cursor path.
        let (big0, side0) = (probes(&engine, "big"), probes(&engine, "side"));
        {
            let session = engine.session();
            let cursor = session.query(sql).unwrap();
            assert_eq!(cursor.count(), 0, "{sql}");
        }
        assert_eq!(probes(&engine, "big"), big0, "cursor probes: {sql}");
        assert_eq!(probes(&engine, "side"), side0, "cursor probes: {sql}");

        // One-shot run() path.
        {
            let mut session = engine.session();
            match session.run(sql).unwrap() {
                nf2::query::Output::Relation { relation, .. } => {
                    assert!(relation.is_empty(), "{sql}")
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(probes(&engine, "big"), big0, "run probes: {sql}");
        assert_eq!(probes(&engine, "side"), side0, "run probes: {sql}");

        // Prepared path.
        {
            let mut session = engine.session();
            let mut stmt = session.prepare(sql).unwrap();
            match stmt.execute(&mut session, nf2::query::NO_PARAMS).unwrap() {
                nf2::query::Output::Relation { relation, .. } => {
                    assert!(relation.is_empty(), "{sql}")
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(probes(&engine, "big"), big0, "prepared probes: {sql}");
        assert_eq!(probes(&engine, "side"), side0, "prepared probes: {sql}");
    }

    // An early-dropped cursor (never pulled) probes nothing either,
    // even without any LIMIT — same laziness, different consumer.
    let big0 = probes(&engine, "big");
    {
        let session = engine.session();
        let cursor = session.query("SELECT A FROM big").unwrap();
        drop(cursor);
    }
    assert_eq!(probes(&engine, "big"), big0, "dropped cursor probes");
}

#[test]
fn selective_cursor_streams_matches_and_counts() {
    let engine = big_engine();
    // Intern the predicate literal: bulk-loaded atoms are raw ids, so
    // give A=7 a name the dictionary can resolve.
    assert_eq!(engine.dict().intern("g7"), Atom(0), "fresh dictionary");
    // Atom(0)'s name is "g7" but group 7 uses Atom(7); instead query by
    // an interned alias row inserted through the DML.
    let mut session = engine.session();
    session.run("CREATE TABLE alias (A, B)").unwrap();
    session
        .run("INSERT INTO alias VALUES ('g7','w1'), ('g7','w2'), ('g8','w1')")
        .unwrap();
    let cursor = session.query("SELECT * FROM alias WHERE A = 'g7'").unwrap();
    let flat: Vec<FlatTuple> = cursor.flat_rows().collect();
    assert_eq!(flat.len(), 2);
    let n = session
        .query("SELECT COUNT(*) FROM alias WHERE A = 'g7'")
        .unwrap()
        .flat_count();
    assert_eq!(n, 2);
}

/// `t (F, K, G)` on `shards` hash shards, 64 tuples to a segment: one
/// tuple `{f} × {k<g>} × {g<g>}` per group `g` of 4 000, flagged
/// `F = hot` for the first 1 200 groups and `cold` for the rest. The
/// kernel orders each shard by `G`, so the hot tuples fill the leading
/// segments of every shard and the rest of its segments hold none.
fn flagged_engine(shards: usize) -> Engine {
    let names: Vec<[String; 3]> = (0..4_000)
        .map(|g| {
            let flag = if g < 1_200 { "hot" } else { "cold" };
            [flag.to_owned(), format!("k{g:04}"), format!("g{g:04}")]
        })
        .collect();
    let engine = Engine::new();
    let table = NfTable::bulk_load_strs_sharded(
        "t",
        &["F", "K", "G"],
        names.iter().map(|r| r.iter().map(String::as_str).collect()),
        NestOrder::identity(3),
        ShardSpec::hash(shards).unwrap(),
        engine.dict().clone(),
    )
    .unwrap();
    table.set_segment_rows(64);
    assert_eq!(table.tuple_count(), 4_000);
    engine.attach_table(table).unwrap();
    engine
}

#[test]
fn a_located_scan_reads_ahead_but_probes_what_it_yields() {
    const HOT: &str = "SELECT * FROM t WHERE F = 'hot'";
    for shards in [1, 4] {
        let engine = flagged_engine(shards);
        let session = engine.session();
        let table = engine.table("t").unwrap();
        let stats = || table.stats();
        let delta = |before: TableStats, after: TableStats| {
            (
                after.units_probed - before.units_probed,
                after.scan_rows_read_ahead - before.scan_rows_read_ahead,
            )
        };

        // What the segments locate: every shard holds hot tuples in at
        // least two segments and none in others.
        let hot = ValueSet::singleton(engine.dict().lookup("hot").unwrap());
        let zones = [(0, hot.clone())];
        let all: Vec<usize> = (0..shards).collect();
        let snapshot = table.snapshot();
        let counts = snapshot.zone_skip_counts(&all, &zones);
        assert!(counts
            .iter()
            .all(|c| c.segments - c.skipped >= 2 && c.skipped > 0));
        let located: usize = counts.iter().map(|c| c.located).sum();
        let skipped: u64 = counts.iter().map(|c| c.skipped as u64).sum();
        assert_eq!(located, 1_200);

        // The reference streams no tuple it has read ahead: a full
        // scan, which never reads ahead, filtered by hand. The zoned
        // scan yields the same stored tuples in the same order.
        let reference: Vec<NfTuple> = snapshot
            .scan()
            .filter(|t| t.as_ref().component(0).contains(hot.as_slice()[0]))
            .map(|t| t.into_owned())
            .collect();
        let zoned: Vec<NfTuple> = snapshot
            .scan_shards_zoned(&all, &zones)
            .map(|t| t.into_owned())
            .collect();
        assert_eq!(zoned, reference);

        // The first tuple costs one probe, though the scan read two.
        let before = stats();
        let first = session.query(HOT).unwrap().next().expect("hot tuples");
        assert_eq!(first.as_ref(), reference[0]);
        assert_eq!(delta(before, stats()), (1, 2));

        // LIMIT 3 probes three and reads ahead its windows of 2 and 4.
        let before = stats();
        assert_eq!(session.query(&format!("{HOT} LIMIT 3")).unwrap().count(), 3);
        let (probed, read_ahead) = delta(before, stats());
        assert_eq!(probed, 3);
        assert!(read_ahead <= 2 + 4, "{read_ahead}");

        // A full drain probes exactly the located tuples, skips what
        // EXPLAIN's pruning report counts, and yields the stored tuples
        // in the reference's order (`F` is a one-value set, so σ narrows
        // nothing). Each part reads ahead all but at most its last tuple.
        let before = stats();
        let drained: Vec<NfTuple> = session
            .query(HOT)
            .unwrap()
            .map(|t| t.into_owned())
            .collect();
        let after = stats();
        assert_eq!(drained, reference);
        let (probed, read_ahead) = delta(before, after);
        assert_eq!(probed, located as u64);
        assert_eq!(after.segments_skipped - before.segments_skipped, skipped);
        assert!(
            (located - shards) as u64 <= read_ahead && read_ahead <= located as u64,
            "{read_ahead} of {located}"
        );

        // A full scan and a one-tuple point read never read ahead.
        let before = stats();
        assert_eq!(session.query("SELECT * FROM t").unwrap().count(), 4_000);
        let point = "SELECT * FROM t WHERE G = 'g0077'";
        assert_eq!(session.query(point).unwrap().count(), 1);
        assert_eq!(delta(before, stats()), (4_001, 0));
    }
}
