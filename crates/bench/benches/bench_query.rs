//! End-to-end DML latency: parse + plan + execute against the storage
//! engine.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use nf2_query::Engine;

fn seeded_db(students: usize) -> Engine {
    let engine = Engine::new();
    let mut db = engine.session();
    db.run("CREATE TABLE sc (Student, Course, Club) NEST ORDER (Course, Student, Club)")
        .unwrap();
    for s in 0..students {
        for c in 0..4 {
            db.run(&format!(
                "INSERT INTO sc VALUES ('s{s}','c{}','b{}')",
                (s + c) % 25,
                s % 6
            ))
            .unwrap();
        }
    }
    engine
}

fn bench_statements(c: &mut Criterion) {
    let mut group = c.benchmark_group("dml");

    group.bench_function("parse_select", |b| {
        b.iter(|| nf2_query::parse("SELECT Course FROM sc WHERE Student = 's1'").unwrap())
    });

    group.bench_function("select_by_student", |b| {
        let engine = seeded_db(200);
        let mut db = engine.session();
        let mut i = 0usize;
        b.iter(|| {
            let stmt = format!("SELECT Course FROM sc WHERE Student = 's{}'", i % 200);
            i += 1;
            db.run(&stmt).unwrap()
        });
    });

    group.bench_function("insert_delete_pair", |b| {
        b.iter_batched(
            || seeded_db(50),
            |engine| {
                let mut db = engine.session();
                db.run("INSERT INTO sc VALUES ('sx','cx','bx')").unwrap();
                db.run("DELETE FROM sc WHERE Student = 'sx'").unwrap();
                engine
            },
            BatchSize::LargeInput,
        );
    });

    group.bench_function("show_table", |b| {
        let engine = seeded_db(100);
        let mut db = engine.session();
        b.iter(|| db.run("SHOW sc").unwrap());
    });
    group.finish();
}

criterion_group!(benches, bench_statements);
criterion_main!(benches);
