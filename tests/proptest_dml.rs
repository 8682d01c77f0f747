//! Property tests at the outermost boundary: random DML streams against
//! a shadow 1NF model, exercising parser, executor, storage and the §4
//! maintenance together.

use std::collections::BTreeSet;

use proptest::prelude::*;

use nf2::core::nest::canonical_of_flat;
use nf2::core::schema::NestOrder;
use nf2::query::{Engine, Output, Session};

/// One random DML operation over a tiny value universe.
#[derive(Debug, Clone)]
enum Op {
    Insert(u8, u8),
    Delete(u8, u8),
    DeleteByA(u8),
    SelectByA(u8),
    ShowFlat,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u8..5, 0u8..5).prop_map(|(a, b)| Op::Insert(a, b)),
        (0u8..5, 0u8..5).prop_map(|(a, b)| Op::Delete(a, b)),
        (0u8..5).prop_map(Op::DeleteByA),
        (0u8..5).prop_map(Op::SelectByA),
        Just(Op::ShowFlat),
    ]
}

/// A flat row of the 3-attribute routed table: (Club, Course, Student).
type Row3 = [u8; 3];

const ATTRS: [&str; 3] = ["Club", "Course", "Student"];

/// One conjunct of a WHERE clause over [`ATTRS`]: an attribute and the
/// values it may take. Value 9 is never inserted, so it is never
/// interned: a conjunct holding only 9 matches nothing, one holding 9
/// beside other values matches on the others.
type Conjunct = (usize, Vec<u8>);

/// One random statement against the routed table.
#[derive(Debug, Clone)]
enum Dml {
    Insert(Row3),
    Delete(Vec<Conjunct>),
    Update(usize, u8, Vec<Conjunct>),
}

fn arb_conjuncts() -> impl Strategy<Value = Vec<Conjunct>> {
    // Attribute 2 (Student) routes; 0 and 1 do not. One to three
    // conjuncts, each an equality or an IN-list, sometimes over the
    // never-interned value.
    let value = prop_oneof![0u8..4, 0u8..4, 0u8..4, 0u8..4, Just(9u8)];
    proptest::collection::vec((0usize..3, proptest::collection::vec(value, 1..4)), 1..4)
}

fn arb_dml() -> impl Strategy<Value = Dml> {
    let row = (0u8..4, 0u8..4, 0u8..4).prop_map(|(k, c, s)| [k, c, s]);
    prop_oneof![
        row.clone().prop_map(Dml::Insert),
        row.prop_map(Dml::Insert),
        arb_conjuncts().prop_map(Dml::Delete),
        (0usize..3, 0u8..4, arb_conjuncts()).prop_map(|(a, v, w)| Dml::Update(a, v, w)),
    ]
}

fn lit(attr: usize, v: u8) -> String {
    format!("'{}{v}'", &ATTRS[attr][..2].to_lowercase())
}

fn where_sql(conjuncts: &[Conjunct]) -> String {
    conjuncts
        .iter()
        .map(|(attr, values)| match values.as_slice() {
            [v] => format!("{} = {}", ATTRS[*attr], lit(*attr, *v)),
            vs => {
                let list: Vec<String> = vs.iter().map(|v| lit(*attr, *v)).collect();
                format!("{} IN ({})", ATTRS[*attr], list.join(", "))
            }
        })
        .collect::<Vec<_>>()
        .join(" AND ")
}

fn matches(row: &Row3, conjuncts: &[Conjunct]) -> bool {
    conjuncts
        .iter()
        .all(|(attr, values)| values.contains(&row[*attr]))
}

fn affected(out: Output) -> usize {
    match out {
        Output::Affected(n) => n,
        other => panic!("unexpected {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// INSERT / DELETE / UPDATE resolve their WHERE clause through the
    /// routed, zone-pruned snapshot scan; whatever the predicate shape —
    /// routing attribute, non-routing, IN-list, never-interned value —
    /// and whatever the shard count, affected-row counts and contents
    /// track a flat set model, and every shard stays the canonical,
    /// sorted, exactly tiled vector of its rows.
    #[test]
    fn routed_dml_matches_a_flat_model(
        ops in proptest::collection::vec(arb_dml(), 0..50),
        four_shards in any::<bool>(),
    ) {
        let shards = if four_shards { 4 } else { 1 };
        let engine = Engine::builder().shards(shards).build().unwrap();
        let mut session = engine.session();
        session.run("CREATE TABLE t (Club, Course, Student)").unwrap();
        // A tiny tiling target, so the handful of tuples spans segments
        // and the zone maps actually prune.
        engine.table("t").unwrap().set_segment_rows(2);
        let mut model: BTreeSet<Row3> = BTreeSet::new();

        for op in ops {
            match op {
                Dml::Insert(row) => {
                    let values: Vec<String> = (0..3).map(|a| lit(a, row[a])).collect();
                    let sql = format!("INSERT INTO t VALUES ({})", values.join(", "));
                    let n = affected(session.run(&sql).unwrap());
                    prop_assert_eq!(n, usize::from(model.insert(row)), "{}", sql);
                }
                Dml::Delete(conjuncts) => {
                    let sql = format!("DELETE FROM t WHERE {}", where_sql(&conjuncts));
                    let n = affected(session.run(&sql).unwrap());
                    let before = model.len();
                    model.retain(|row| !matches(row, &conjuncts));
                    prop_assert_eq!(n, before - model.len(), "{}", sql);
                }
                Dml::Update(attr, value, conjuncts) => {
                    let sql = format!(
                        "UPDATE t SET {} = {} WHERE {}",
                        ATTRS[attr],
                        lit(attr, value),
                        where_sql(&conjuncts)
                    );
                    let n = affected(session.run(&sql).unwrap());
                    let victims: Vec<Row3> = model
                        .iter()
                        .filter(|row| matches(row, &conjuncts) && row[attr] != value)
                        .copied()
                        .collect();
                    for row in &victims {
                        model.remove(row);
                    }
                    for mut row in victims.iter().copied() {
                        row[attr] = value;
                        model.insert(row);
                    }
                    prop_assert_eq!(n, victims.len(), "{}", sql);
                }
            }
            prop_assert_eq!(engine.table("t").unwrap().flat_count(), model.len() as u128);
        }

        let table = engine.table("t").unwrap();
        table.sharded().verify().unwrap();
        let dict = engine.dict();
        let stored: BTreeSet<Vec<String>> = table
            .snapshot()
            .canonical()
            .expand()
            .rows()
            .map(|row| row.iter().map(|&a| dict.resolve(a).expect("interned")).collect())
            .collect();
        let expected: BTreeSet<Vec<String>> = model
            .iter()
            .map(|row| (0..3).map(|a| lit(a, row[a]).trim_matches('\'').to_owned()).collect())
            .collect();
        prop_assert_eq!(stored, expected);
    }

    /// The DML engine tracks a shadow set-of-pairs model exactly, and its
    /// stored relation is always the canonical form of that shadow.
    #[test]
    fn dml_stream_matches_shadow_model(ops in proptest::collection::vec(arb_op(), 0..60)) {
        let engine = Engine::new();
        let mut db = engine.session();
        db.run("CREATE TABLE t (A, B) NEST ORDER (A, B)").unwrap();
        let mut shadow: BTreeSet<(u8, u8)> = BTreeSet::new();

        for op in ops {
            match op {
                Op::Insert(a, b) => {
                    let out = db
                        .run(&format!("INSERT INTO t VALUES ('a{a}','b{b}')"))
                        .unwrap();
                    let affected = match out {
                        Output::Affected(n) => n,
                        other => panic!("unexpected {other:?}"),
                    };
                    prop_assert_eq!(affected, usize::from(shadow.insert((a, b))));
                }
                Op::Delete(a, b) => {
                    let out = db
                        .run(&format!("DELETE FROM t WHERE A='a{a}' AND B='b{b}'"))
                        .unwrap();
                    let affected = match out {
                        Output::Affected(n) => n,
                        other => panic!("unexpected {other:?}"),
                    };
                    prop_assert_eq!(affected, usize::from(shadow.remove(&(a, b))));
                }
                Op::DeleteByA(a) => {
                    let out = db.run(&format!("DELETE FROM t WHERE A='a{a}'")).unwrap();
                    let affected = match out {
                        Output::Affected(n) => n,
                        other => panic!("unexpected {other:?}"),
                    };
                    let before = shadow.len();
                    shadow.retain(|(x, _)| *x != a);
                    prop_assert_eq!(affected, before - shadow.len());
                }
                Op::SelectByA(a) => {
                    let out = db
                        .run(&format!("SELECT B FROM t WHERE A='a{a}'"))
                        .unwrap();
                    let rel = match out {
                        Output::Relation { relation, .. } => relation,
                        other => panic!("unexpected {other:?}"),
                    };
                    let expected: BTreeSet<u8> = shadow
                        .iter()
                        .filter(|(x, _)| *x == a)
                        .map(|(_, y)| *y)
                        .collect();
                    prop_assert_eq!(rel.expand().len(), expected.len());
                }
                Op::ShowFlat => {
                    let out = db.run("SHOW FLAT t").unwrap();
                    let rel = match out {
                        Output::Relation { relation, .. } => relation,
                        other => panic!("unexpected {other:?}"),
                    };
                    prop_assert_eq!(rel.expand().len(), shadow.len());
                }
            }
            // Global invariant: stored relation == canonical(shadow).
            let table = engine.table("t").unwrap();
            prop_assert_eq!(table.flat_count(), shadow.len() as u128);
        }

        // Final strong check: rebuild the canonical form of the shadow
        // through the dictionary and compare relations exactly.
        let dict = engine.dict().clone();
        let schema = engine.table("t").unwrap().schema().clone();
        let flat = nf2::core::relation::FlatRelation::from_rows(
            schema,
            shadow.iter().map(|(a, b)| {
                vec![
                    dict.lookup(&format!("a{a}")).expect("interned by INSERT"),
                    dict.lookup(&format!("b{b}")).expect("interned by INSERT"),
                ]
            }),
        )
        .unwrap();
        let oracle = canonical_of_flat(&flat, &NestOrder::identity(2));
        prop_assert_eq!(engine.table("t").unwrap().snapshot().canonical(), oracle);
    }

    /// Transactions: any mutation stream inside BEGIN … ROLLBACK leaves
    /// the database exactly as it was; the same stream inside
    /// BEGIN … COMMIT matches running it in autocommit.
    #[test]
    fn rollback_is_identity_and_commit_is_transparent(
        seed_rows in proptest::collection::vec((0u8..4, 0u8..4), 0..8),
        ops in proptest::collection::vec(arb_op(), 0..25),
    ) {
        let script_of = |ops: &[Op]| -> Vec<String> {
            ops.iter()
                .filter_map(|op| match op {
                    Op::Insert(a, b) => {
                        Some(format!("INSERT INTO t VALUES ('a{a}','b{b}')"))
                    }
                    Op::Delete(a, b) => {
                        Some(format!("DELETE FROM t WHERE A='a{a}' AND B='b{b}'"))
                    }
                    Op::DeleteByA(a) => Some(format!("DELETE FROM t WHERE A='a{a}'")),
                    // Queries are irrelevant to transactional state.
                    Op::SelectByA(_) | Op::ShowFlat => None,
                })
                .collect()
        };

        let setup = |db: &mut Session<'_>| {
            db.run("CREATE TABLE t (A, B) NEST ORDER (B, A)").unwrap();
            for (a, b) in &seed_rows {
                db.run(&format!("INSERT INTO t VALUES ('a{a}','b{b}')")).unwrap();
            }
        };

        // Rollback: identity.
        let engine = Engine::new();
        let mut db = engine.session();
        setup(&mut db);
        let before = engine.table("t").unwrap().snapshot().canonical();
        db.run("BEGIN").unwrap();
        for stmt in script_of(&ops) {
            db.run(&stmt).unwrap();
        }
        db.run("ROLLBACK").unwrap();
        prop_assert_eq!(engine.table("t").unwrap().snapshot().canonical(), before.clone());

        // Commit: same final state as autocommit.
        let committed_engine = Engine::new();
        let mut committed = committed_engine.session();
        setup(&mut committed);
        committed.run("BEGIN").unwrap();
        for stmt in script_of(&ops) {
            committed.run(&stmt).unwrap();
        }
        committed.run("COMMIT").unwrap();

        let autocommit_engine = Engine::new();
        let mut autocommit = autocommit_engine.session();
        setup(&mut autocommit);
        for stmt in script_of(&ops) {
            autocommit.run(&stmt).unwrap();
        }
        prop_assert_eq!(
            committed_engine.table("t").unwrap().snapshot().canonical().expand(),
            autocommit_engine.table("t").unwrap().snapshot().canonical().expand()
        );
    }

    /// Parser round-trip: every generated statement parses, and malformed
    /// mutations never corrupt the table.
    #[test]
    fn malformed_statements_never_corrupt_state(
        a in 0u8..5,
        junk in "[a-z ]{0,20}",
    ) {
        let engine = Engine::new();
        let mut db = engine.session();
        db.run("CREATE TABLE t (A, B)").unwrap();
        db.run(&format!("INSERT INTO t VALUES ('a{a}','b0')")).unwrap();
        let before = engine.table("t").unwrap().snapshot().canonical();
        // Fire junk at the parser; errors must not touch the table.
        let _ = db.run(&format!("INSERT INTO t VALUES ({junk})"));
        let _ = db.run(&junk);
        let _ = db.run("DELETE FROM missing WHERE A='a0'");
        prop_assert_eq!(engine.table("t").unwrap().snapshot().canonical(), before.clone());
    }
}
