//! §4 incremental maintenance vs the re-nest baseline (E7, E10):
//! per-update wall time as the relation grows, and the degree sweep.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use nf2_core::maintenance::CanonicalRelation;
use nf2_core::nest::canonical_of_flat;
use nf2_core::relation::FlatRelation;
use nf2_core::schema::NestOrder;
use nf2_core::tuple::FlatTuple;
use nf2_workload as workload;

fn sized_relation(size: usize, seed: u64) -> FlatRelation {
    workload::relationship(size, (size as u32 / 4).max(8), 40, 6, seed).flat
}

fn bench_incremental_insert_delete(c: &mut Criterion) {
    let mut group = c.benchmark_group("incremental_update");
    for &size in &[500usize, 2_000, 8_000] {
        let flat = sized_relation(size, 7);
        let order = NestOrder::identity(3);
        let canon = CanonicalRelation::from_flat(&flat, order).unwrap();
        let rows: Vec<FlatTuple> = flat.rows().cloned().collect();
        group.bench_with_input(
            BenchmarkId::new("delete_insert_pair", size),
            &size,
            |b, _| {
                let mut i = 0usize;
                b.iter_batched(
                    || canon.clone(),
                    |mut canon| {
                        let row = rows[(i * 7919) % rows.len()].clone();
                        i += 1;
                        canon.delete(&row).unwrap();
                        canon.insert(row).unwrap();
                        canon
                    },
                    BatchSize::LargeInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_renest_baseline(c: &mut Criterion) {
    let mut group = c.benchmark_group("renest_baseline");
    group.sample_size(10);
    for &size in &[500usize, 2_000, 8_000] {
        let flat = sized_relation(size, 7);
        let order = NestOrder::identity(3);
        group.bench_with_input(BenchmarkId::new("full_renest", size), &flat, |b, flat| {
            b.iter(|| canonical_of_flat(std::hint::black_box(flat), &order));
        });
    }
    group.finish();
}

fn bench_degree_sweep(c: &mut Criterion) {
    // Theorem A-4's second axis: cost grows with the degree n only.
    let mut group = c.benchmark_group("update_vs_degree");
    for n in 2..=5usize {
        let domains: Vec<u32> = vec![14; n];
        let flat = workload::uniform(
            1_500.min(14usize.pow(n as u32) / 2),
            &domains,
            90 + n as u64,
        )
        .flat;
        let order = NestOrder::identity(n);
        let canon = CanonicalRelation::from_flat(&flat, order).unwrap();
        let rows: Vec<FlatTuple> = flat.rows().cloned().collect();
        group.bench_with_input(BenchmarkId::new("delete_insert_pair", n), &n, |b, _| {
            let mut i = 0usize;
            b.iter_batched(
                || canon.clone(),
                |mut canon| {
                    let row = rows[(i * 104729) % rows.len()].clone();
                    i += 1;
                    canon.delete(&row).unwrap();
                    canon.insert(row).unwrap();
                    canon
                },
                BatchSize::LargeInput,
            );
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_incremental_insert_delete,
    bench_renest_baseline,
    bench_degree_sweep
);
criterion_main!(benches);
