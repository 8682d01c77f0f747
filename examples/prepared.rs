//! Prepared statements and streaming cursors — the serving-path API.
//!
//! A REPL-style tour of the three-stage surface: build an [`Engine`],
//! open a [`Session`], `prepare` parameterized statements once, then
//! execute them many times with bound `?` parameters — including a hot
//! loop that shows why the serving tier never re-parses, and a cursor
//! pass that consumes a result tuple-by-tuple without materializing it.
//!
//! Run with: `cargo run --release --example prepared`

use std::time::Instant;

use nf2::query::{Engine, Output, Param};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The engine owns tables + dictionary; the builder configures
    //    persistence (none here: purely in-memory).
    let engine = Engine::builder().build().unwrap();
    let mut session = engine.session();
    session.run_script(
        "CREATE TABLE sc (Student, Course) NEST ORDER (Student, Course);
         CREATE TABLE cp (Course, Prof);
         INSERT INTO cp VALUES ('c1','p1'), ('c2','p2'), ('c3','p1');",
    )?;

    // 2. Prepared DML: one INSERT template, many bindings.
    let mut insert = session.prepare("INSERT INTO sc VALUES (?, ?)")?;
    for (s, c) in [
        ("s1", "c1"),
        ("s1", "c2"),
        ("s2", "c1"),
        ("s3", "c3"),
        ("s3", "c1"),
    ] {
        insert.execute(&mut session, &[s, c])?;
    }
    println!(
        "loaded {} rows into sc\n",
        session.engine().table("sc")?.flat_count()
    );

    // 3. A prepared query, REPL-style: the statement is compiled once,
    //    each "input" only binds the parameter.
    let mut courses_of = session.prepare("SELECT Course FROM sc WHERE Student = ?")?;
    for student in ["s1", "s2", "s3", "ghost"] {
        println!("nf2> SELECT Course FROM sc WHERE Student = '{student}'");
        let out = courses_of.execute(&mut session, &[student])?;
        match &out {
            Output::Relation { relation, .. } if !relation.is_empty() => println!("{out}"),
            _ => println!("(empty)\n"),
        }
    }

    // 4. The cached plan is observable — and stable across executions.
    let mut profs_of = session.prepare("SELECT Prof FROM sc JOIN cp WHERE Student = ?")?;
    let plan_text = profs_of.explain(&session)?;
    println!("cached plan for {:?}:\n{plan_text}\n", profs_of.sql());

    // 5. Streaming: a cursor yields NF² tuples as the scan reaches them;
    //    `flat_rows()` adapts to 1NF rows. Nothing is materialized or
    //    rendered unless asked.
    let cursor = profs_of.query(&session, &[Param::from("s1")])?;
    println!("s1's profs, streamed flat:");
    for row in cursor.flat_rows() {
        println!("  {row:?} (atom ids)");
    }

    // 6. The hot loop: parse-per-call vs the prepared handle.
    let students: Vec<String> = (1..=3).map(|i| format!("s{i}")).collect();
    let iters = 2_000;
    let start = Instant::now();
    for i in 0..iters {
        let s = &students[i % students.len()];
        session.run(&format!(
            "SELECT COUNT(*) FROM sc JOIN cp WHERE Student = '{s}'"
        ))?;
    }
    let parse_per_call = start.elapsed();
    let mut counted = session.prepare("SELECT COUNT(*) FROM sc JOIN cp WHERE Student = ?")?;
    let start = Instant::now();
    for i in 0..iters {
        let s = &students[i % students.len()];
        counted.execute(&mut session, &[s.as_str()])?;
    }
    let prepared = start.elapsed();
    println!(
        "\n{iters} point lookups: parse-per-call {:?}, prepared {:?} ({:.1}x)",
        parse_per_call,
        prepared,
        parse_per_call.as_secs_f64() / prepared.as_secs_f64().max(1e-12)
    );

    // 7. DDL invalidates cached plans transparently: the handle replans.
    session.run("CREATE TABLE audit (Who, What)")?;
    counted.execute(&mut session, &["s1"])?;
    println!("plan survived DDL via transparent re-plan (epoch check)");
    Ok(())
}
