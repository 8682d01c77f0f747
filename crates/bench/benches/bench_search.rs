//! E9 timing companion: scan-lookup latency on the NF² realization view
//! vs the 1NF baseline.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use nf2_bench::flat_table::FlatTable;
use nf2_core::schema::NestOrder;
use nf2_core::value::Atom;
use nf2_storage::{NfTable, SharedDictionary};
use nf2_workload as workload;
use std::collections::BTreeSet;

fn setup(students: usize) -> (NfTable, FlatTable, Vec<Atom>) {
    let w = workload::university(students, 4, 50, 2, 10, 21);
    let nf = NfTable::from_flat(
        "r1",
        &w.flat,
        NestOrder::identity(3),
        SharedDictionary::new(),
    )
    .unwrap();
    let flat = FlatTable::from_flat(&w.flat).unwrap();
    let courses: Vec<Atom> = w
        .flat
        .rows()
        .map(|r| r[1])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    (nf, flat, courses)
}

fn bench_scan_lookup(c: &mut Criterion) {
    let mut group = c.benchmark_group("lookup_scan");
    for &students in &[100usize, 400] {
        let (nf, flat, courses) = setup(students);
        group.bench_with_input(BenchmarkId::new("nf2_table", students), &nf, |b, nf| {
            let mut i = 0usize;
            b.iter(|| {
                let course = courses[i % courses.len()];
                i += 1;
                let course = std::hint::black_box(course);
                nf.scan()
                    .filter(|t| t.component(1).contains(course))
                    .count()
            });
        });
        group.bench_with_input(
            BenchmarkId::new("flat_table", students),
            &flat,
            |b, flat| {
                let mut i = 0usize;
                b.iter(|| {
                    let course = courses[i % courses.len()];
                    i += 1;
                    flat.lookup_scan(1, std::hint::black_box(course))
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_scan_lookup);
criterion_main!(benches);
