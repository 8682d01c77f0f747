//! The located σ/π step against the chain it replaced.
//!
//! A SELECT whose σ (and streaming π) sits directly over a scan runs as
//! one step inside the scan (`TableScan::located`): each located tuple
//! is read in place and its output written into a block. The reference
//! is the chain it replaced, built here from the same pinned snapshot:
//! the zoned scan's views, `filter_box` on each, then the π build. Both
//! must give the same tuples in the same order and charge the table the
//! same `units_probed` and `segments_skipped` — drained, under every
//! `LIMIT k`, and (within twice the pulls) for a cursor dropped early —
//! on 1, 2, 4 and 7 shards, for single values, IN-lists and two
//! conjuncts on one attribute (which reject tuples the scan located),
//! over sets past the inline four atoms and past 255, on fresh segments
//! and on segments point writes have patched.

use proptest::prelude::*;

use nf2::algebra::stream::filter_box;
use nf2::core::schema::NestOrder;
use nf2::core::shard::ShardSpec;
use nf2::core::tuple::{NfTuple, ValueSet};
use nf2::query::{Engine, Session, NO_PARAMS};
use nf2::storage::{NfTable, TableStats};

/// `t (A, B, C)`, `C` outermost (it routes): group `g` is `{a…} × {b…}
/// × {c<g>}`, with one to seven `B` values of twelve (so a set past the
/// inline four is common) and one to three `A` values of four; with
/// `wide`, group 0 holds 300 `B` values. Segments hold 8 tuples, so a
/// located scan skips some.
fn engine(shards: usize, seed: u64, wide: bool) -> Engine {
    let mut rng = seed | 1;
    let mut below = |n: u64| {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng % n
    };
    let mut rows: Vec<[String; 3]> = Vec::new();
    for g in 0..48u64 {
        let bs = if wide && g == 0 { 300 } else { 1 + below(7) };
        let b0 = below(12);
        let a_n = 1 + below(3);
        let a0 = below(4);
        for j in 0..bs {
            let b = if bs > 12 { 100 + j } else { (b0 + j) % 12 };
            for i in 0..a_n {
                rows.push([
                    format!("a{}", (a0 + i) % 4),
                    format!("b{b}"),
                    format!("c{g}"),
                ]);
            }
        }
    }
    let engine = Engine::new();
    let table = NfTable::bulk_load_strs_sharded(
        "t",
        &["A", "B", "C"],
        rows.iter().map(|r| r.iter().map(String::as_str).collect()),
        NestOrder::identity(3),
        ShardSpec::hash(shards).unwrap(),
        engine.dict().clone(),
    )
    .unwrap();
    table.set_segment_rows(8);
    engine.attach_table(table).unwrap();
    engine
}

/// Point writes that patch segments in place: rows join and leave
/// existing groups, and a new group enters.
fn patch(session: &mut Session<'_>) {
    session
        .run_script(
            "INSERT INTO t VALUES ('a0','b3','c5'), ('a1','b7','c9'), ('a2','b200','c60');
             DELETE FROM t WHERE C = 'c7';
             DELETE FROM t WHERE B = 'b4' AND C = 'c11';
             UPDATE t SET A = 'a3' WHERE C = 'c13';",
        )
        .unwrap();
}

/// The WHERE clauses: a single value; an IN-list; two conjuncts on one
/// attribute, which reject a located tuple holding `b3` and `b5` but not
/// `b4`; two attributes; a conjunct on the routing attribute `C` beside
/// one on `B`; and one on `A` alone, which keeps every `B` set whole
/// (group 0's 300 values included).
const WHERES: [&str; 6] = [
    "B = 'b3'",
    "B IN ('b3', 'b9', 'b101')",
    "B IN ('b3', 'b4') AND B IN ('b4', 'b5')",
    "B = 'b5' AND A IN ('a1', 'a2')",
    "C IN ('c1', 'c2', 'c3', 'c0', 'c20') AND B IN ('b1', 'b2', 'b150')",
    "A IN ('a0', 'a1')",
];

/// Conjuncts of `WHERES[w]` as `(attribute, values)`; `C` is 2.
fn conjuncts(w: usize) -> Vec<(usize, Vec<&'static str>)> {
    match w {
        0 => vec![(1, vec!["b3"])],
        1 => vec![(1, vec!["b3", "b9", "b101"])],
        2 => vec![(1, vec!["b3", "b4"]), (1, vec!["b4", "b5"])],
        3 => vec![(1, vec!["b5"]), (0, vec!["a1", "a2"])],
        5 => vec![(0, vec!["a0", "a1"])],
        _ => vec![
            (2, vec!["c1", "c2", "c3", "c0", "c20"]),
            (1, vec!["b1", "b2", "b150"]),
        ],
    }
}

/// The selections: everything, every attribute reordered (a streaming π
/// that drops nothing), and — where one value pins `B` — `B` dropped.
fn projections(w: usize) -> Vec<(&'static str, Vec<usize>)> {
    let mut out = vec![("*", vec![0, 1, 2]), ("C, A, B", vec![2, 0, 1])];
    if w == 0 || w == 3 {
        out.push(("C, A", vec![2, 0]));
    }
    out
}

fn delta(before: &TableStats, after: &TableStats) -> (u64, u64) {
    (
        after.units_probed - before.units_probed,
        after.segments_skipped - before.segments_skipped,
    )
}

/// The reference chain: the zoned scan of the same shards, `filter_box`,
/// then the π build — its first `take` outputs, and what it charged.
fn reference(
    engine: &Engine,
    w: usize,
    attrs: &[usize],
    take: usize,
) -> (Vec<NfTuple>, (u64, u64)) {
    let table = engine.table("t").unwrap();
    let snapshot = table.snapshot();
    let dict = engine.dict();
    // A conjunct none of whose values is stored matches nothing, and
    // the statement scans nothing.
    let Some(zones) = conjuncts(w)
        .into_iter()
        .map(|(attr, names)| {
            let atoms = names.iter().filter_map(|n| dict.lookup(n)).collect();
            ValueSet::new(atoms).map(|values| (attr, values))
        })
        .collect::<Option<Vec<(usize, ValueSet)>>>()
    else {
        return (Vec::new(), (0, 0));
    };
    let routing = snapshot.routing();
    let shards = routing.shards_for_conjuncts(
        zones
            .iter()
            .filter(|(attr, _)| Some(*attr) == routing.attr())
            .map(|(_, values)| values.as_slice()),
    );
    let before = table.stats();
    let tuples = snapshot
        .scan_shards_zoned(&shards, &zones)
        .filter_map(|t| filter_box(t, &zones))
        .map(|t| {
            attrs
                .iter()
                .map(|&a| t.as_ref().component(a).to_set())
                .collect()
        })
        .take(take)
        .collect();
    (tuples, delta(&before, &table.stats()))
}

fn check(engine: &Engine, w: usize, limit: usize, pulls: usize) {
    let table = engine.table("t").unwrap();
    let session = engine.session();
    for (list, attrs) in projections(w) {
        let sql = format!("SELECT {list} FROM t WHERE {}", WHERES[w]);
        let (expected, charged) = reference(engine, w, &attrs, usize::MAX);
        let exact = conjuncts(w)
            .iter()
            .enumerate()
            .all(|(i, c)| conjuncts(w)[..i].iter().all(|d| d.0 != c.0));

        // Drained: the same tuples in the same order, the same charge,
        // and an exact size hint where every located tuple passes.
        let before = table.stats();
        let cursor = session.query(&sql).unwrap();
        if exact {
            prop_assert_eq!(cursor.size_hint(), (expected.len(), Some(expected.len())));
        }
        let got: Vec<NfTuple> = cursor.map(|t| t.into_owned()).collect();
        prop_assert_eq!(&got, &expected, "{}", sql);
        prop_assert_eq!(delta(&before, &table.stats()), charged, "{}", sql);

        // Under LIMIT k: what the chain taking k charges.
        let (first, charged) = reference(engine, w, &attrs, limit);
        let limited = format!("{sql} LIMIT {limit}");
        let mut prepared = session.prepare(&limited).unwrap();
        let before = table.stats();
        let got: Vec<NfTuple> = prepared
            .query(&session, NO_PARAMS)
            .unwrap()
            .map(|t| t.into_owned())
            .collect();
        prop_assert_eq!(&got, &first, "{}", limited);
        prop_assert_eq!(delta(&before, &table.stats()), charged, "{}", limited);

        // A cursor dropped after `pulls` pulls built fewer than twice
        // as many outputs: it probed no more than the chain taking
        // `2 × pulls − 1`, and where every located tuple passes, fewer
        // than `2 × pulls` tuples.
        let (_, (most, _)) = reference(engine, w, &attrs, 2 * pulls - 1);
        let before = table.stats();
        let mut cursor = session.query(&sql).unwrap();
        for (at, want) in expected.iter().take(pulls).enumerate() {
            let t = cursor.next().expect("the cursor holds the expected tuples");
            prop_assert_eq!(&t.into_owned(), want, "pull {} of {}", at, sql);
        }
        drop(cursor);
        let (probed, _) = delta(&before, &table.stats());
        prop_assert!(
            probed <= most,
            "{}: {} probes after {} pulls",
            sql,
            probed,
            pulls
        );
        if exact {
            prop_assert!(probed < 2 * pulls as u64, "{}: {} probes", sql, probed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The located step ≡ scan → `filter_box` → π, tuple for tuple and
    /// probe for probe.
    #[test]
    fn the_located_step_is_the_chain_it_replaced(
        shard_pick in 0usize..4,
        seed in any::<u64>(),
        wide in any::<bool>(),
        patched in any::<bool>(),
        w in 0usize..6,
        limit_pick in 0usize..6,
        pulls in 1usize..6,
    ) {
        let shards = [1, 2, 4, 7][shard_pick];
        let engine = engine(shards, seed, wide);
        if patched {
            patch(&mut engine.session());
        }
        let limit = [0, 1, 2, 3, 5, 10_000][limit_pick];
        check(&engine, w, limit, pulls);
    }
}
