//! ORDER BY / top-k / shard-pruning guarantees at scale — the
//! "ORDER BY-heavy" acceptance bin (CI runs it under every
//! `NF2_SHARDS` matrix value; the engines below pin their own shard
//! counts explicitly so the assertions are layout-independent).
//!
//! Two probe-counted acceptance bars:
//!
//! * `ORDER BY x LIMIT k` pulls the scan **exactly once** (the bounded
//!   heap never re-scans or materializes the input — the ≤ k retention
//!   bound itself is pinned by `nf2-algebra`'s `TopKStats` tests);
//! * an equality on the outermost nest attribute over 4 hash shards
//!   scans **exactly one shard's tuples**, charged to the probe counter.

use nf2::core::Atom;
use nf2::query::{Engine, Output};

/// An engine holding `groups` canonical tuples (one per zero-padded
/// `g????` key, each spanning `width` B-values), bulk-loaded through
/// the shared dictionary so every value is interned and `ORDER BY` can
/// rank by string.
fn ordered_engine(groups: usize, width: usize) -> Engine {
    use nf2::core::schema::NestOrder;
    use nf2::storage::NfTable;
    let engine = Engine::builder().build().unwrap();
    // Per-group-unique B values: canonicalization folds each group into
    // exactly one tuple (g, {its own w's}) instead of merging groups.
    let mut rows = Vec::new();
    for g in 0..groups {
        for i in 0..width {
            rows.push(vec![format!("g{g:04}"), format!("w{g:04}x{i}")]);
        }
    }
    let refs: Vec<Vec<&str>> = rows
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    let table = NfTable::bulk_load_strs(
        "big",
        &["A", "B"],
        refs,
        NestOrder::identity(2),
        engine.dict().clone(),
    )
    .unwrap();
    engine.attach_table(table).unwrap();
    assert_eq!(engine.table("big").unwrap().tuple_count(), groups);
    engine
}

#[test]
fn top_k_pulls_the_scan_exactly_once() {
    let engine = ordered_engine(1_000, 5);
    let session = engine.session();

    // ORDER BY A LIMIT 3 over 10³ tuples: the top-k heap must consume
    // the scan exactly once — 1000 probes, not a sort's materialized
    // copy pulled again, and certainly not zero-limit-style shortcuts.
    let before = session.engine().table("big").unwrap().stats();
    let top: Vec<String> = {
        let snap = session.engine().dict().snapshot();
        session
            .query("SELECT * FROM big ORDER BY A LIMIT 3")
            .unwrap()
            .map(|t| {
                snap.resolve(t.as_ref().component(0).as_slice()[0])
                    .unwrap()
                    .to_owned()
            })
            .collect()
    };
    let after = session.engine().table("big").unwrap().stats();
    assert_eq!(
        after.units_probed - before.units_probed,
        1_000,
        "the bounded heap pulls each stored tuple exactly once"
    );
    assert_eq!(after.lookups - before.lookups, 1, "one scan");
    assert_eq!(top, vec!["g0000", "g0001", "g0002"]);

    // DESC returns the other end of the order.
    let snap = session.engine().dict().snapshot();
    let bottom: Vec<String> = session
        .query("SELECT * FROM big ORDER BY A DESC LIMIT 2")
        .unwrap()
        .map(|t| {
            snap.resolve(t.as_ref().component(0).as_slice()[0])
                .unwrap()
                .to_owned()
        })
        .collect();
    assert_eq!(bottom, vec!["g0999", "g0998"]);

    // Top-k ≡ full-sort-then-truncate, tuple-identical.
    let full: Vec<_> = session
        .query("SELECT * FROM big ORDER BY A")
        .unwrap()
        .map(|t| t.into_owned())
        .collect();
    let topk: Vec<_> = session
        .query("SELECT * FROM big ORDER BY A LIMIT 7")
        .unwrap()
        .map(|t| t.into_owned())
        .collect();
    assert_eq!(topk.as_slice(), &full[..7]);
}

#[test]
fn order_by_is_deterministic_across_shard_layouts() {
    // Unique keys ⇒ the ordered stream is identical whatever the
    // physical shard layout underneath.
    let collect = |shards: usize| -> Vec<Vec<String>> {
        let engine = Engine::builder().shards(shards).build().unwrap();
        let mut session = engine.session();
        session.run("CREATE TABLE t (A, B)").unwrap();
        // Unique A and B per row: every row is its own canonical tuple
        // with a unique sort key, so the ordered stream has no ties.
        let rows: Vec<String> = (0..97)
            .map(|i| format!("('k{:03}', 'v{i:03}')", (i * 37) % 97))
            .collect();
        session
            .run(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
        let snap = session.engine().dict().snapshot();
        session
            .query("SELECT A, B FROM t ORDER BY A DESC LIMIT 10")
            .unwrap()
            .flat_rows()
            .map(|row| {
                row.iter()
                    .map(|&a| snap.resolve(a).unwrap().to_owned())
                    .collect()
            })
            .collect()
    };
    let unsharded = collect(1);
    assert_eq!(unsharded.len(), 10);
    assert_eq!(unsharded[0][0], "k096");
    for shards in [2, 4, 7] {
        assert_eq!(collect(shards), unsharded, "{shards} shards");
    }
}

/// A 4-shard engine whose outer (routing) attribute B spans 20 values.
fn sharded_engine() -> Engine {
    let engine = Engine::builder().shards(4).build().unwrap();
    let mut session = engine.session();
    session.run("CREATE TABLE t (A, B)").unwrap();
    // 400 distinct rows (A unique per row), 20 per B value — the
    // canonical form folds them into one tuple per B value.
    let rows: Vec<String> = (0..400)
        .map(|i| format!("('a{i:03}', 'b{:02}')", i % 20))
        .collect();
    session
        .run(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
        .unwrap();
    engine
}

/// How many tuples of one shard hold `value` in their `attr` component —
/// what a located scan for `attr = value` pruned to that shard probes.
fn tuples_holding(table: &nf2::storage::NfTable, shard: usize, attr: usize, value: Atom) -> usize {
    table
        .sharded()
        .shard(shard)
        .relation()
        .tuples()
        .iter()
        .filter(|t| t.component(attr).contains(value))
        .count()
}

#[test]
fn outer_attribute_equality_scans_exactly_one_shard() {
    let engine = sharded_engine();
    let session = engine.session();
    let table = session.engine().table("t").unwrap();
    assert_eq!(table.shard_count(), 4);
    assert_eq!(table.routing().attr(), Some(1), "B routes");
    let total: usize = table.sharded().tuple_count();
    let b07 = session.engine().dict().lookup("b07").unwrap();
    let home = table.routing().spec().route_value(b07);
    let home_tuples = table.sharded().shard(home).tuple_count();
    assert!(
        home_tuples * 2 < total,
        "the routed shard must be a strict minority of the stored tuples \
         ({home_tuples} of {total})"
    );

    // Probe-counted: the equality probes exactly the routed shard's
    // tuples that hold b07 — located in its segments, not scanned for.
    let located = tuples_holding(&table, home, 1, b07);
    assert!((1..=home_tuples).contains(&located));
    let before = table.stats();
    let n = session
        .query("SELECT COUNT(*) FROM t WHERE B = 'b07'")
        .unwrap()
        .flat_count();
    assert_eq!(n, 20, "400 rows / 20 B-values");
    let after = session.engine().table("t").unwrap().stats();
    assert_eq!(
        (after.units_probed - before.units_probed) as usize,
        located,
        "equality on the outer attribute probes one shard's matches, not {total}"
    );

    // An unconstrained scan still pays for every shard.
    let before = after;
    assert_eq!(
        session
            .query("SELECT COUNT(*) FROM t")
            .unwrap()
            .flat_count(),
        400
    );
    let after = session.engine().table("t").unwrap().stats();
    assert_eq!((after.units_probed - before.units_probed) as usize, total);

    // An IN list unions the routed shards (≤ one per value) and
    // probes their tuples holding either value.
    let b03 = session.engine().dict().lookup("b03").unwrap();
    let table = session.engine().table("t").unwrap();
    let expected: usize = table
        .routing()
        .shards_for_values(&[b07, b03])
        .iter()
        .map(|&s| {
            let store = table.sharded();
            let holds = |t: &nf2::core::TupleRef<'_>| {
                t.component(1).contains(b07) || t.component(1).contains(b03)
            };
            store.version(s).tuples().filter(holds).count()
        })
        .sum();
    let before = session.engine().table("t").unwrap().stats();
    assert_eq!(
        session
            .query("SELECT COUNT(*) FROM t WHERE B IN ('b07', 'b03')")
            .unwrap()
            .flat_count(),
        40
    );
    let after = session.engine().table("t").unwrap().stats();
    assert_eq!(
        (after.units_probed - before.units_probed) as usize,
        expected
    );
}

#[test]
fn pruned_scans_equal_unpruned_scans() {
    // The same data on a 1-shard and a 4-shard engine must answer every
    // outer-attribute query with the same flat rows — pruning may skip
    // work, never answers.
    let run = |shards: usize, sql: &str| -> Vec<Vec<u32>> {
        let engine = Engine::builder().shards(shards).build().unwrap();
        let mut session = engine.session();
        session.run("CREATE TABLE t (A, B)").unwrap();
        let rows: Vec<String> = (0..200)
            .map(|i| format!("('a{:02}', 'b{:02}')", i % 40, (i * 7) % 23))
            .collect();
        session
            .run(&format!("INSERT INTO t VALUES {}", rows.join(", ")))
            .unwrap();
        let snap = session.engine().dict().snapshot();
        let mut out: Vec<Vec<u32>> = session
            .query(sql)
            .unwrap()
            .flat_rows()
            .map(|row| {
                // Compare by resolved-string-identity, shard-count
                // independent (atom ids agree here anyway since the
                // insert order is identical, but don't rely on it).
                row.iter()
                    .map(|&a| {
                        let s = snap.resolve(a).unwrap();
                        s.bytes().fold(0u32, |h, b| h.wrapping_mul(31) + b as u32)
                    })
                    .collect()
            })
            .collect();
        out.sort_unstable();
        out
    };
    for sql in [
        "SELECT * FROM t WHERE B = 'b07'",
        "SELECT * FROM t WHERE B IN ('b01', 'b19', 'b22')",
        "SELECT A FROM t WHERE B = 'b11'",
        "SELECT * FROM t WHERE B = 'b03' AND A = 'a13'",
        "SELECT COUNT(*) FROM t WHERE B IN ('b05', 'b06')",
    ] {
        assert_eq!(run(1, sql), run(4, sql), "{sql}");
        assert_eq!(run(4, sql), run(7, sql), "{sql}");
    }
}

#[test]
fn prepared_statements_prune_per_binding() {
    let engine = sharded_engine();
    let session = engine.session();
    let mut stmt = session
        .prepare("SELECT COUNT(*) FROM t WHERE B = ?")
        .unwrap();
    // Each execution prunes to the shard of *that* call's binding.
    for b in ["b00", "b07", "b13", "b19"] {
        let atom = session.engine().dict().lookup(b).unwrap();
        let table = session.engine().table("t").unwrap();
        let home = table.routing().spec().route_value(atom);
        let located = tuples_holding(&table, home, 1, atom);
        let before = table.stats();
        let cursor = stmt.query(&session, &[b]).unwrap();
        assert_eq!(cursor.flat_count(), 20);
        let after = session.engine().table("t").unwrap().stats();
        assert_eq!(
            (after.units_probed - before.units_probed) as usize,
            located,
            "binding {b} probes its own shard's matches"
        );
    }
    // A never-interned binding is statically empty: zero probes.
    let before = session.engine().table("t").unwrap().stats();
    assert_eq!(stmt.query(&session, &["ghost"]).unwrap().flat_count(), 0);
    let after = session.engine().table("t").unwrap().stats();
    assert_eq!(after.units_probed - before.units_probed, 0);
}

#[test]
fn join_pushdown_prunes_the_owning_side() {
    let engine = Engine::builder().shards(4).build().unwrap();
    let mut session = engine.session();
    session.run("CREATE TABLE sc (Student, Course)").unwrap();
    // 240 distinct rows: student s{i} takes course c{i % 12}.
    let rows: Vec<String> = (0..240)
        .map(|i| format!("('s{i:03}', 'c{:02}')", i % 12))
        .collect();
    session
        .run(&format!("INSERT INTO sc VALUES {}", rows.join(", ")))
        .unwrap();
    session.run("CREATE TABLE cp (Course, Prof)").unwrap();
    let rows: Vec<String> = (0..12)
        .map(|i| format!("('c{i:02}', 'p{}')", i % 3))
        .collect();
    session
        .run(&format!("INSERT INTO cp VALUES {}", rows.join(", ")))
        .unwrap();

    // Course is sc's routing attribute; the optimizer pushes the
    // equality into both join sides, and sc's side prunes its scan.
    let c05 = session.engine().dict().lookup("c05").unwrap();
    let sc = session.engine().table("sc").unwrap();
    let located = tuples_holding(&sc, sc.routing().spec().route_value(c05), 1, c05);
    let sc_before = sc.stats();
    let out = session
        .run("SELECT Student, Prof FROM sc JOIN cp WHERE Course = 'c05'")
        .unwrap();
    match out {
        // 20 students take c05; its prof is p2.
        Output::Relation { relation, .. } => assert_eq!(relation.flat_count(), 20),
        other => panic!("unexpected {other:?}"),
    }
    let sc_after = session.engine().table("sc").unwrap().stats();
    assert_eq!(
        (sc_after.units_probed - sc_before.units_probed) as usize,
        located,
        "the probe side probes only Course='c05''s tuples in its shard"
    );
}
