//! The engine's plan cache answers exactly as planning afresh does.
//!
//! `Session::run` and `Session::query` plan a SELECT once per *shape*
//! (its literals lifted to `?` parameters) and keep the plan until DDL
//! moves the engine's epoch. These tests hold a hit to the answer of a
//! miss, a plan to the catalog it was built against, literals to the
//! dictionary of the moment, and a full cache to a clear — reading the
//! `plan_cache.{hits,misses,clears}` counters the engine exports.

use nf2_core::schema::NestOrder;
use nf2_query::prepare::PLAN_CACHE_CAPACITY;
use nf2_query::{Engine, Output, QueryError, Session};
use nf2_storage::NfTable;
use nf2_workload::{block_product, relationship, uniform, university, zipf, Workload};

/// `(hits, misses, clears)` so far.
fn counts(engine: &Engine) -> (u64, u64, u64) {
    let reg = engine.obs().registry();
    let get = |name: &str| reg.counter(name).get();
    (
        get("plan_cache.hits"),
        get("plan_cache.misses"),
        get("plan_cache.clears"),
    )
}

/// How many samples the statement histogram `name` holds.
fn samples(engine: &Engine, name: &str) -> u64 {
    let snap = engine.metrics();
    let found = snap.histograms.iter().find(|(n, _)| n == name);
    found.map_or(0, |(_, h)| h.count)
}

/// Moves the DDL epoch, so the next lookup finds no plan.
fn bump_epoch(session: &mut Session<'_>) {
    session.run("CREATE TABLE bump (X)").unwrap();
    session.run("DROP TABLE bump").unwrap();
}

/// Loads a workload under `name`, each atom interned as `v<id>`, and
/// returns its first few attr-0 values plus one never interned.
fn load(engine: &Engine, name: &str, w: &Workload) -> Vec<String> {
    let attrs: Vec<&str> = w.flat.schema().attr_names().collect();
    let rows: Vec<Vec<String>> = w
        .flat
        .rows()
        .map(|row| row.iter().map(|a| format!("v{}", a.id())).collect())
        .collect();
    let refs: Vec<Vec<&str>> = rows
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    let table = NfTable::bulk_load_strs(
        name,
        &attrs,
        refs,
        NestOrder::identity(attrs.len()),
        engine.dict().clone(),
    )
    .unwrap();
    engine.attach_table(table).unwrap();
    let mut values: Vec<String> = w
        .flat
        .rows()
        .map(|row| format!("v{}", row[0].id()))
        .take(300)
        .collect();
    values.dedup();
    values.truncate(5);
    values.push("ghost".to_owned());
    values
}

#[test]
fn a_hit_answers_as_a_miss_does_with_one_miss_per_shape() {
    let workloads: Vec<(&str, Workload)> = vec![
        ("uni", university(40, 3, 25, 2, 8, 7)),
        ("rel", relationship(250, 25, 25, 4, 9)),
        ("blk", block_product(12, &[4, 5], 0)),
        ("unf", uniform(200, &[40, 40], 3)),
        ("zpf", zipf(250, &[60, 60], 1.2, 5)),
    ];
    let engine = Engine::new();
    let mut statements = Vec::new();
    let mut shapes = 0;
    for (name, w) in &workloads {
        let values = load(&engine, name, w);
        let attrs: Vec<&str> = w.flat.schema().attr_names().collect();
        let (a0, a1) = (attrs[0], attrs[1]);
        for v in &values {
            statements.push(format!("SELECT * FROM {name} WHERE {a0} = '{v}'"));
            statements.push(format!("SELECT {a1} FROM {name} WHERE {a0} = '{v}'"));
            statements.push(format!("SELECT COUNT(*) FROM {name} WHERE {a0} = '{v}'"));
        }
        shapes += 3;
    }
    let mut session = engine.session();
    session.run("CREATE TABLE marks (Student, Grade)").unwrap();
    session
        .run("INSERT INTO marks VALUES ('v0', 'g0'), ('v1', 'g1'), ('v2', 'g0')")
        .unwrap();
    for g in ["g0", "g1", "g9"] {
        statements.push(format!(
            "SELECT Student, Grade FROM uni JOIN marks WHERE Grade = '{g}'"
        ));
    }
    shapes += 1;

    // Cold: every statement is planned afresh.
    let mut cold = Vec::new();
    for sql in &statements {
        bump_epoch(&mut session);
        let before = counts(&engine);
        cold.push(session.run(sql).unwrap());
        let after = counts(&engine);
        assert_eq!((after.0, after.1), (before.0, before.1 + 1), "{sql}");
    }
    bump_epoch(&mut session);

    // Warm: one miss per shape, and the same answers.
    let before = counts(&engine);
    for (sql, expected) in statements.iter().zip(&cold) {
        let out = session.run(sql).unwrap();
        assert_eq!(&out, expected, "{sql}");
        assert_eq!(out.to_text(), expected.to_text(), "{sql}");
    }
    let after = counts(&engine);
    let n = statements.len() as u64;
    assert_eq!(after.1 - before.1, shapes);
    assert_eq!(after.0 - before.0, n - shapes);

    // Again: every statement hits, through both entry points, and none
    // is parsed; each `run` still counts as a SELECT.
    let (parsed, selects) = (
        samples(&engine, "stmt.parse.us"),
        samples(&engine, "stmt.select.us"),
    );
    for (sql, expected) in statements.iter().zip(&cold) {
        assert_eq!(&session.run(sql).unwrap(), expected, "{sql}");
        if let Output::Relation { relation, .. } = expected {
            let streamed = session.query(sql).unwrap().into_relation().unwrap();
            assert_eq!(&streamed, relation, "{sql}");
        }
    }
    let last = counts(&engine);
    assert_eq!(
        last.1, after.1,
        "nothing planned once every shape is cached"
    );
    assert_eq!(
        samples(&engine, "stmt.parse.us"),
        parsed,
        "a hit is not parsed"
    );
    assert_eq!(samples(&engine, "stmt.select.us"), selects + n);
    assert_eq!(last.2, after.2, "nothing cleared without DDL");
}

#[test]
fn ddl_replaces_a_cached_plan() {
    let engine = Engine::new();
    let mut session = engine.session();
    session
        .run_script(
            "CREATE TABLE t (A, B);
             INSERT INTO t VALUES ('a1', 'b1'), ('a1', 'b2'), ('a2', 'b1');",
        )
        .unwrap();
    let sql = "SELECT * FROM t WHERE A = 'a1'";
    let old = session.run(sql).unwrap();
    assert_eq!(session.run(sql).unwrap(), old);
    let (_, misses, clears) = counts(&engine);

    // The same name with the attributes the other way round.
    let script = "CREATE TABLE t (B, A);
                  INSERT INTO t VALUES ('b3', 'a1'), ('b1', 'a2');";
    session.run("DROP TABLE t").unwrap();
    session.run_script(script).unwrap();
    let new = session.run(sql).unwrap();
    assert_eq!(counts(&engine).1, misses + 1, "DDL forces a re-plan");
    assert_eq!(counts(&engine).2, clears + 1, "the stale plan was dropped");

    // Another engine interns other atoms: compare the text.
    let fresh = Engine::new();
    fresh.session().run_script(script).unwrap();
    let expected = fresh.session().run(sql).unwrap();
    assert_eq!(new.to_text(), expected.to_text());
    assert_ne!(new.to_text(), old.to_text());

    // A dropped table is an error again, not a cached answer.
    session.run("DROP TABLE t").unwrap();
    assert!(session.run(sql).is_err());
}

#[test]
fn literals_resolve_against_the_dictionary_of_each_execution() {
    let engine = Engine::new();
    let mut session = engine.session();
    session
        .run_script(
            "CREATE TABLE t (A, B);
             INSERT INTO t VALUES ('a1', 'b1');",
        )
        .unwrap();
    // Cache the shape with a literal that is interned, then run it with
    // one that is not: the answer is the statically-empty one a fresh
    // plan gives.
    session.run("SELECT B FROM t WHERE A = 'a1'").unwrap();
    let sql = "SELECT B FROM t WHERE A = 'late'";
    let empty = session.run(sql).unwrap();
    let mut prepared = session.prepare("SELECT B FROM t WHERE A = ?").unwrap();
    assert_eq!(empty, prepared.execute(&mut session, &["late"]).unwrap());
    assert_eq!(empty.to_text(), "t_proj\n+---+\n| B |\n+---+\n+---+\n");
    assert_eq!(session.query(sql).unwrap().count(), 0);
    assert_eq!(counts(&engine), (2, 1, 0));

    // Interned after its shape was cached, the literal is found.
    session.run("INSERT INTO t VALUES ('late', 'b9')").unwrap();
    let found = session.run(sql).unwrap();
    assert_eq!(found, prepared.execute(&mut session, &["late"]).unwrap());
    assert!(found.to_text().contains("b9"), "{}", found.to_text());
    assert_eq!(counts(&engine), (3, 1, 0));
}

#[test]
fn a_full_cache_is_cleared_and_still_answers() {
    let engine = Engine::new();
    let mut session = engine.session();
    let rows: Vec<String> = (0..40)
        .map(|i| format!("('s{i:02}', 'c{}')", i % 7))
        .collect();
    session
        .run_script(&format!(
            "CREATE TABLE t (Student, Course);
             INSERT INTO t VALUES {};",
            rows.join(", ")
        ))
        .unwrap();
    // `LIMIT k` is part of the shape: each k is a plan of its own.
    let shapes = PLAN_CACHE_CAPACITY + 10;
    let mut prepared_rows = Vec::new();
    for k in 1..=shapes {
        let sql = format!(
            "SELECT Student FROM t WHERE Course IN ('c1', 'c2') ORDER BY Student LIMIT {k}"
        );
        let out = session.run(&sql).unwrap();
        let mut prepared = session
            .prepare(&sql.replace("('c1', 'c2')", "(?, ?)"))
            .unwrap();
        assert_eq!(
            out,
            prepared.execute(&mut session, &["c1", "c2"]).unwrap(),
            "{sql}"
        );
        prepared_rows.push(out);
    }
    let misses = shapes as u64;
    assert_eq!(counts(&engine), (0, misses, 1));

    // The shapes planned since the clear are still cached; the ones
    // before it are planned again.
    let tail = PLAN_CACHE_CAPACITY + 1;
    for k in tail..=shapes {
        let sql = format!(
            "SELECT Student FROM t WHERE Course IN ('c2', 'c1') ORDER BY Student LIMIT {k}"
        );
        assert_eq!(session.run(&sql).unwrap(), prepared_rows[k - 1], "{sql}");
    }
    assert_eq!(counts(&engine), ((shapes - tail + 1) as u64, misses, 1));
    let sql = "SELECT Student FROM t WHERE Course IN ('c1', 'c2') ORDER BY Student LIMIT 1";
    assert_eq!(session.run(sql).unwrap(), prepared_rows[0]);
    assert_eq!(counts(&engine).1, misses + 1);
}

#[test]
fn a_non_ascii_literal_finds_its_row_cold_and_warm() {
    let engine = Engine::new();
    let rows = vec![vec!["é", "b1"], vec!["e", "b2"]];
    let table = NfTable::bulk_load_strs(
        "t",
        &["A", "B"],
        rows,
        NestOrder::identity(2),
        engine.dict().clone(),
    )
    .unwrap();
    engine.attach_table(table).unwrap();
    let mut session = engine.session();
    let sql = "SELECT B FROM t WHERE A = 'é'";
    let found = |out: &Output| out.to_text().contains("b1") && !out.to_text().contains("b2");

    let cold = session.run(sql).unwrap();
    assert!(found(&cold), "{}", cold.to_text());
    let warm = session.run(sql).unwrap();
    assert_eq!(warm, cold);
    assert_eq!(counts(&engine), (1, 1, 0));

    let Output::Relation { relation, .. } = &cold else {
        panic!("a relation: {cold:?}")
    };
    let streamed = session.query(sql).unwrap().into_relation().unwrap();
    assert_eq!(&streamed, relation);
    assert_eq!(counts(&engine), (2, 1, 0));
    bump_epoch(&mut session);
    let streamed = session.query(sql).unwrap().into_relation().unwrap();
    assert_eq!(&streamed, relation);
    assert_eq!(counts(&engine).1, 2, "query planned the shape afresh");
}

/// A text with a `?`, one that does not lex and one of two statements
/// fail as the parser makes them fail, through `run` and `query`, and
/// none of them is planned or hits.
#[test]
fn texts_without_a_shape_fail_as_the_parser_fails_them() {
    let engine = Engine::new();
    let mut session = engine.session();
    session
        .run_script("CREATE TABLE t (A, B); INSERT INTO t VALUES ('a', 'b');")
        .unwrap();
    let bound = "SELECT * FROM t WHERE A = 'a'";
    session.run(bound).unwrap();
    let cached = counts(&engine);

    let unbound = "SELECT * FROM t WHERE A = ?";
    for _ in 0..2 {
        let err = session.run(unbound).unwrap_err();
        assert!(matches!(err, QueryError::Unbound { count: 1 }), "{err:?}");
        let err = session.query(unbound).unwrap_err();
        assert!(matches!(err, QueryError::Unbound { count: 1 }), "{err:?}");
    }
    let unterminated = "SELECT * FROM t WHERE A = 'a";
    let two = "SELECT * FROM t WHERE A = 'a'; SELECT * FROM t WHERE A = 'b'";
    for text in [unterminated, two] {
        let parse_error = nf2_query::parse(text).unwrap_err();
        for err in [
            session.run(text).unwrap_err(),
            session.query(text).unwrap_err(),
        ] {
            assert!(
                matches!(&err, QueryError::Parse(e) if *e == parse_error),
                "{text}: {err:?}"
            );
        }
    }
    assert_eq!(counts(&engine), cached, "nothing planned, nothing hit");
}

#[test]
fn ddl_between_two_identical_texts_is_a_miss_and_a_clear() {
    let engine = Engine::new();
    let mut session = engine.session();
    session
        .run_script("CREATE TABLE t (A, B); INSERT INTO t VALUES ('a', 'b');")
        .unwrap();
    let sql = "SELECT B FROM t WHERE A = 'a'";
    let first = session.run(sql).unwrap();
    assert_eq!(counts(&engine), (0, 1, 0));
    session.run("CREATE TABLE other (X)").unwrap();
    assert_eq!(session.run(sql).unwrap(), first);
    assert_eq!(counts(&engine), (0, 2, 1));
}
