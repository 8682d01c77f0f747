//! Nest / canonicalize throughput (supports E8): how fast the §3.3
//! transformation from 1NF to canonical NF² runs across workload shapes
//! and sizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use nf2_core::kernel::NestKernel;
use nf2_core::nest::{canonical_of_flat, canonicalize, nest};
use nf2_core::relation::NfRelation;
use nf2_core::schema::NestOrder;
use nf2_workload as workload;

fn bench_single_nest(c: &mut Criterion) {
    let mut group = c.benchmark_group("nest_single_attr");
    for &size in &[1_000usize, 5_000, 20_000] {
        let w = workload::relationship(size, (size / 8) as u32, 50, 6, 7);
        let base = NfRelation::from_flat(&w.flat);
        group.throughput(Throughput::Elements(size as u64));
        group.bench_with_input(BenchmarkId::new("relationship", size), &base, |b, base| {
            b.iter(|| nest(std::hint::black_box(base), 0));
        });
    }
    group.finish();
}

fn bench_canonicalize(c: &mut Criterion) {
    let mut group = c.benchmark_group("canonicalize");
    let order = NestOrder::identity(3);
    let workloads = vec![
        workload::university(400, 4, 60, 2, 12, 11),
        workload::relationship(4_000, 300, 60, 6, 12),
        workload::uniform(4_000, &[80, 80, 80], 14),
        workload::zipf(4_000, &[200, 200, 200], 1.1, 15),
    ];
    for w in &workloads {
        let label = w.label.split('(').next().unwrap_or("w").to_owned();
        group.throughput(Throughput::Elements(w.flat.len() as u64));
        group.bench_with_input(BenchmarkId::new(label, w.flat.len()), &w.flat, |b, flat| {
            b.iter(|| canonical_of_flat(std::hint::black_box(flat), &order));
        });
    }
    group.finish();
}

fn bench_order_sensitivity(c: &mut Criterion) {
    // Canonicalization cost across all 6 orders on the same data (E8's
    // best/worst spread has a time dimension too).
    let mut group = c.benchmark_group("canonicalize_orders");
    let w = workload::university(400, 4, 60, 2, 12, 11);
    for order in NestOrder::all(3) {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{order}")),
            &order,
            |b, order| {
                b.iter(|| canonical_of_flat(std::hint::black_box(&w.flat), order));
            },
        );
    }
    group.finish();
}

fn bench_kernel_vs_legacy(c: &mut Criterion) {
    // The headline refactor: single-pass kernel vs the n-pass ν cascade,
    // plus the amortized path reusing one kernel's scratch buffers.
    let mut group = c.benchmark_group("canonicalize_impl");
    let order = NestOrder::identity(3);
    let workloads = vec![
        workload::university(400, 4, 60, 2, 12, 11),
        workload::relationship(4_000, 300, 60, 6, 12),
        workload::uniform(4_000, &[80, 80, 80], 14),
    ];
    for w in &workloads {
        let label = w.label.split('(').next().unwrap_or("w").to_owned();
        group.throughput(Throughput::Elements(w.flat.len() as u64));
        group.bench_with_input(
            BenchmarkId::new(format!("kernel/{label}"), w.flat.len()),
            &w.flat,
            |b, flat| {
                b.iter(|| canonical_of_flat(std::hint::black_box(flat), &order));
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("kernel_reused/{label}"), w.flat.len()),
            &w.flat,
            |b, flat| {
                let mut kernel = NestKernel::new();
                b.iter(|| kernel.canonical_of_flat(std::hint::black_box(flat), &order));
            },
        );
        group.bench_with_input(
            BenchmarkId::new(format!("legacy/{label}"), w.flat.len()),
            &w.flat,
            |b, flat| {
                b.iter(|| canonicalize(&NfRelation::from_flat(std::hint::black_box(flat)), &order));
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_single_nest,
    bench_canonicalize,
    bench_order_sensitivity,
    bench_kernel_vs_legacy
);
criterion_main!(benches);
