//! Cross-crate integration: workload → core → algebra → query, checked
//! against flat (1NF) oracles end to end.

use std::collections::BTreeSet;

use nf2::algebra::{natural_join, project, select_box, union};
use nf2::core::nest::canonical_of_flat;
use nf2::core::prelude::*;
use nf2::query::Engine;
use nf2::workload;

/// The rows of `flat`, as a set.
fn row_set(flat: &FlatRelation) -> BTreeSet<Vec<Atom>> {
    flat.rows().map(<[Atom]>::to_vec).collect()
}

#[test]
fn workload_to_canonical_to_algebra_pipeline() {
    let w = workload::university(40, 3, 12, 2, 5, 7);
    let order = NestOrder::identity(3);
    let nfr = canonical_of_flat(&w.flat, &order);
    assert!(
        nfr.tuple_count() < w.flat.len(),
        "entity data must compress"
    );

    // Selection on a student, rectangle level.
    let some_student = *w.flat.rows().next().unwrap().first().unwrap();
    let selected = select_box(&nfr, &[(0, ValueSet::singleton(some_student))]).unwrap();
    let expected: BTreeSet<_> = w
        .flat
        .rows()
        .filter(|r| r[0] == some_student)
        .map(<[Atom]>::to_vec)
        .collect();
    assert_eq!(row_set(&selected.expand()), expected);

    // Projection onto courses, flat-semantics dedup.
    let courses = project(&nfr, &[1], &NestOrder::identity(1)).unwrap();
    let expected: BTreeSet<Vec<Atom>> = w.flat.rows().map(|r| vec![r[1]]).collect();
    assert_eq!(row_set(&courses.expand()), expected);
}

#[test]
fn join_against_flat_oracle() {
    let w = workload::university(15, 2, 8, 1, 3, 9);
    let order = NestOrder::identity(3);
    let r1 = canonical_of_flat(&w.flat, &order);

    // Second relation: course difficulty.
    let mut dict = Dictionary::new();
    let d_easy = dict.intern("easy");
    let d_hard = dict.intern("hard");
    let schema = Schema::new("CD", &["Course", "Difficulty"]).unwrap();
    let courses: BTreeSet<Atom> = w.flat.rows().map(|r| r[1]).collect();
    let cd_flat = FlatRelation::from_rows(
        schema,
        courses
            .iter()
            .enumerate()
            .map(|(i, &c)| vec![c, if i % 2 == 0 { d_easy } else { d_hard }]),
    )
    .unwrap();
    let cd = canonical_of_flat(&cd_flat, &NestOrder::identity(2));

    let joined = natural_join(&r1, &cd).unwrap();
    // Oracle: flat nested-loop join.
    let mut expected = BTreeSet::new();
    for l in w.flat.rows() {
        for r in cd_flat.rows() {
            if l[1] == r[0] {
                expected.insert(vec![l[0], l[1], l[2], r[1]]);
            }
        }
    }
    assert_eq!(row_set(&joined.expand()), expected);
    assert!(joined.validate().is_ok());
}

#[test]
fn union_against_flat_oracle() {
    let a = workload::relationship(60, 10, 10, 3, 1);
    let b = workload::relationship(60, 10, 10, 3, 2);
    let order = NestOrder::identity(3);
    let ra = canonical_of_flat(&a.flat, &order);
    let rb = canonical_of_flat(&b.flat, &order);
    let u = union(&ra, &rb, &order).unwrap();
    let mut expected = row_set(&a.flat);
    expected.extend(row_set(&b.flat));
    assert_eq!(row_set(&u.expand()), expected);
}

#[test]
fn query_engine_matches_direct_core_updates() {
    // The same operation stream through (a) the DML engine and (b) direct
    // core maintenance must give identical relations.
    let engine = Engine::new();
    let mut db = engine.session();
    db.run("CREATE TABLE t (A, B) NEST ORDER (A, B)").unwrap();

    let schema = Schema::new("t", &["A", "B"]).unwrap();
    let mut canon = CanonicalRelation::new(schema, NestOrder::identity(2)).unwrap();

    let pairs = [
        ("x1", "y1"),
        ("x2", "y1"),
        ("x1", "y2"),
        ("x3", "y3"),
        ("x2", "y2"),
    ];
    for (a, b) in pairs {
        db.run(&format!("INSERT INTO t VALUES ('{a}','{b}')"))
            .unwrap();
        let aa = db.engine().dict().lookup(a).unwrap();
        let bb = db.engine().dict().lookup(b).unwrap();
        canon.insert(vec![aa, bb]).unwrap();
    }
    db.run("DELETE FROM t WHERE A = 'x1' AND B = 'y1'").unwrap();
    let x1 = db.engine().dict().lookup("x1").unwrap();
    let y1 = db.engine().dict().lookup("y1").unwrap();
    canon.delete(&[x1, y1]).unwrap();

    assert_eq!(
        db.engine().table("t").unwrap().snapshot().canonical(),
        *canon.relation()
    );
}

#[test]
fn select_statement_matches_algebra_directly() {
    let engine = Engine::new();
    let mut db = engine.session();
    db.run_script(
        "CREATE TABLE sc (Student, Course);
         INSERT INTO sc VALUES ('s1','c1'), ('s2','c1'), ('s1','c2'), ('s3','c3');",
    )
    .unwrap();
    let out = db
        .run("SELECT Student FROM sc WHERE Course = 'c1'")
        .unwrap();
    let rel = match out {
        nf2::query::Output::Relation { relation, .. } => relation,
        other => panic!("expected relation, got {other:?}"),
    };
    let c1 = db.engine().dict().lookup("c1").unwrap();
    let direct = project(
        &select_box(
            &db.engine().table("sc").unwrap().snapshot().canonical(),
            &[(1, ValueSet::singleton(c1))],
        )
        .unwrap(),
        &[0],
        &NestOrder::identity(1),
    )
    .unwrap();
    assert_eq!(rel.expand(), direct.expand());
}
