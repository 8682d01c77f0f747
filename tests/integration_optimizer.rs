//! Integration: the optimizer inside the full query pipeline.
//!
//! The planner optimizes every SELECT plan (merged selections, pushed
//! into join sides); these tests check end-to-end results against
//! hand-computed oracles on the flat realization — through one-shot
//! runs, prepared statements and streaming cursors alike — and that
//! EXPLAIN OPTIMIZED reports plans whose evaluation matches the executed
//! statement.

use std::collections::BTreeSet;

use nf2::prelude::*;

fn seeded_engine() -> Engine {
    let engine = Engine::builder().build().unwrap();
    engine
        .session()
        .run_script(
            "CREATE TABLE enroll (Student, Course, Term) NEST ORDER (Student, Course, Term);
             INSERT INTO enroll VALUES
               ('s1','c1','t1'), ('s2','c1','t1'), ('s3','c1','t2'),
               ('s1','c2','t1'), ('s2','c2','t2'), ('s4','c3','t2'),
               ('s1','c3','t2'), ('s4','c1','t1');
             CREATE TABLE teach (Course, Prof);
             INSERT INTO teach VALUES ('c1','p1'), ('c2','p1'), ('c3','p2');
             CREATE TABLE dept (Prof, Dept);
             INSERT INTO dept VALUES ('p1','d1'), ('p2','d2');",
        )
        .unwrap();
    engine
}

/// Flat-side oracle for σ+π over enroll ⋈ teach ⋈ dept.
fn oracle(
    engine: &Engine,
    pred: impl Fn(&str, &str, &str, &str, &str) -> bool,
) -> BTreeSet<Vec<String>> {
    let dict = engine.dict();
    let enroll = engine
        .table("enroll")
        .unwrap()
        .snapshot()
        .canonical()
        .expand();
    let teach = engine
        .table("teach")
        .unwrap()
        .snapshot()
        .canonical()
        .expand();
    let dept = engine
        .table("dept")
        .unwrap()
        .snapshot()
        .canonical()
        .expand();
    let name = |a: Atom| dict.resolve(a).unwrap();
    let mut out = BTreeSet::new();
    for e in enroll.rows() {
        for t in teach.rows() {
            if e[1] != t[0] {
                continue;
            }
            for d in dept.rows() {
                if t[1] != d[0] {
                    continue;
                }
                let (s, c, term, p, dp) =
                    (name(e[0]), name(e[1]), name(e[2]), name(t[1]), name(d[1]));
                if pred(&s, &c, &term, &p, &dp) {
                    out.insert(vec![s.clone(), dp.clone()]);
                }
            }
        }
    }
    out
}

fn relation_rows(engine: &Engine, relation: &NfRelation) -> BTreeSet<Vec<String>> {
    relation
        .expand()
        .rows()
        .map(|r| {
            r.iter()
                .map(|&a| engine.dict().resolve(a).unwrap())
                .collect()
        })
        .collect()
}

fn result_rows(engine: &Engine, out: &Output) -> BTreeSet<Vec<String>> {
    match out {
        Output::Relation { relation, .. } => relation_rows(engine, relation),
        other => panic!("expected a relation, got {other:?}"),
    }
}

#[test]
fn three_way_join_with_pushdown_matches_oracle() {
    let engine = seeded_engine();
    let out = engine
        .session()
        .run("SELECT Student, Dept FROM enroll JOIN teach JOIN dept WHERE Prof = 'p1' AND Term = 't1'")
        .unwrap();
    let got = result_rows(&engine, &out);
    let want = oracle(&engine, |_, _, term, p, _| p == "p1" && term == "t1");
    assert_eq!(got, want);
}

#[test]
fn in_list_over_join_matches_oracle_prepared_and_streamed() {
    let engine = seeded_engine();
    let want = oracle(&engine, |s, _, _, _, _| s == "s1" || s == "s4");
    let mut session = engine.session();
    // One-shot, prepared, and cursor paths must agree with the oracle.
    let one_shot = session
        .run("SELECT Student, Dept FROM enroll JOIN teach JOIN dept WHERE Student IN ('s1','s4')")
        .unwrap();
    let mut prepared = session
        .prepare("SELECT Student, Dept FROM enroll JOIN teach JOIN dept WHERE Student IN (?, ?)")
        .unwrap();
    let via_prepared = prepared.execute(&mut session, &["s1", "s4"]).unwrap();
    assert_eq!(one_shot, via_prepared);
    let streamed = prepared
        .query(&session, &["s1", "s4"])
        .unwrap()
        .into_relation()
        .unwrap();
    let engine = session.engine();
    assert_eq!(result_rows(engine, &one_shot), want);
    assert_eq!(relation_rows(engine, &streamed), want);
}

#[test]
fn explain_optimized_plan_is_faithful() {
    let engine = seeded_engine();
    let mut session = engine.session();
    let text = session
        .run("EXPLAIN OPTIMIZED SELECT Student FROM enroll JOIN teach WHERE Prof = 'p2'")
        .unwrap()
        .to_text();
    // EXPLAIN carries the cost estimate next to the plan tree.
    assert!(text.contains("estimated work:"), "{text}");
    // The selection must sink below the join in the reported plan.
    assert!(text.contains("select-into-join"), "{text}");
    let optimized_section = text
        .split("optimized plan:")
        .nth(1)
        .expect("section present");
    let join_pos = optimized_section
        .find("natural-join")
        .expect("join in plan");
    let select_pos = optimized_section.find("select [").expect("select in plan");
    assert!(
        select_pos > join_pos,
        "selection should appear below the join in the optimized tree:\n{optimized_section}"
    );
    // And the executed statement agrees with the oracle.
    let out = session
        .run("SELECT Student FROM enroll JOIN teach WHERE Prof = 'p2'")
        .unwrap();
    let got = result_rows(session.engine(), &out);
    let want: BTreeSet<Vec<String>> = [vec!["s1".to_string()], vec!["s4".to_string()]]
        .into_iter()
        .collect();
    assert_eq!(got, want, "s1 and s4 take c3, taught by p2");
}

#[test]
fn aggregates_after_optimization() {
    let engine = seeded_engine();
    let mut session = engine.session();
    match session
        .run("SELECT COUNT(*) FROM enroll JOIN teach WHERE Prof = 'p1'")
        .unwrap()
    {
        Output::Count(n) => assert_eq!(n, 6, "c1 has 4 enrollments, c2 has 2"),
        other => panic!("unexpected {other:?}"),
    }
    match session
        .run("SELECT COUNT(DISTINCT Student) FROM enroll JOIN teach WHERE Prof = 'p1'")
        .unwrap()
    {
        Output::Count(n) => assert_eq!(n, 4, "s1..s4 all touch a p1 course"),
        other => panic!("unexpected {other:?}"),
    }
    // The streaming counterpart counts without materializing.
    let n = session
        .query("SELECT COUNT(*) FROM enroll JOIN teach WHERE Prof = 'p1'")
        .unwrap()
        .flat_count();
    assert_eq!(n, 6);
}

#[test]
fn mutations_then_queries_stay_consistent() {
    let engine = seeded_engine();
    let mut session = engine.session();
    session
        .run("DELETE FROM enroll WHERE Course = 'c1'")
        .unwrap();
    session
        .run("UPDATE teach SET Prof = 'p2' WHERE Course = 'c2'")
        .unwrap();
    let out = session
        .run("SELECT Student, Dept FROM enroll JOIN teach JOIN dept")
        .unwrap();
    let engine = session.engine();
    let got = result_rows(engine, &out);
    let want = oracle(engine, |_, _, _, _, _| true);
    assert_eq!(got, want);
    // The stored tables remain canonical for their orders after the DML.
    let t = engine.table("enroll").unwrap();
    let fresh = nf2::core::nest::canonical_of_flat(&t.snapshot().canonical().expand(), t.order());
    assert_eq!(t.snapshot().canonical(), fresh);
}
