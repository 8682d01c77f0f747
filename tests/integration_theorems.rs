//! The paper's theorems exercised across crates on generated workloads —
//! the "does the whole system obey the theory" layer.

use nf2::core::irreducible::{is_irreducible, minimum_partition};
use nf2::core::nest::{canonical_of_flat, is_canonical};
use nf2::core::prelude::*;
use nf2::deps::{check_theorem5, holds_mvd, mine_fds, mine_mvds, suggest_nest_order, Mvd};
use nf2::workload;

#[test]
fn university_data_satisfies_its_designed_mvd() {
    let w = workload::university(25, 3, 10, 2, 4, 31);
    assert!(
        holds_mvd(&w.flat, &Mvd::new([0], [1])),
        "Student ->-> Course"
    );
    assert!(holds_mvd(&w.flat, &Mvd::new([0], [2])), "Student ->-> Club");
}

#[test]
fn mined_dependencies_drive_fixed_canonical_forms() {
    let w = workload::university(30, 2, 8, 2, 4, 33);
    let fds = mine_fds(&w.flat);
    let mvds = mine_mvds(&w.flat, &fds);
    assert!(
        mvds.iter().any(|m| m.lhs == nf2::deps::AttrSet::single(0)),
        "the student MVD must be discovered: {mvds:?}"
    );
    let order = suggest_nest_order(3, &fds, &mvds);
    let canon = canonical_of_flat(&w.flat, &order);
    assert!(
        nf2::core::properties::is_fixed_on(&canon, &[0]),
        "suggested order yields a form fixed on the determinant"
    );
}

#[test]
fn theorem5_on_every_workload_family() {
    let workloads = vec![
        workload::university(15, 2, 8, 2, 4, 41),
        workload::relationship(80, 12, 12, 3, 42),
        workload::block_product(6, &[3, 3, 2], 43),
        workload::uniform(60, &[8, 8, 8], 44),
        workload::zipf(60, &[20, 20, 20], 1.2, 45),
    ];
    for w in &workloads {
        for order in NestOrder::all(w.flat.schema().arity()) {
            assert!(check_theorem5(&w.flat, &order), "{} under {order}", w.label);
        }
    }
}

#[test]
fn canonical_forms_are_canonical_and_irreducible_everywhere() {
    let workloads = vec![
        workload::relationship(100, 15, 15, 4, 51),
        workload::uniform(80, &[10, 10, 10], 52),
    ];
    for w in &workloads {
        for order in NestOrder::all(3) {
            let canon = canonical_of_flat(&w.flat, &order);
            assert!(is_canonical(&canon, &order), "{} / {order}", w.label);
            assert!(is_irreducible(&canon), "{} / {order}", w.label);
            assert_eq!(canon.expand(), w.flat, "{} / {order}", w.label);
        }
    }
}

#[test]
fn block_data_minimum_matches_block_count() {
    // Ground-truth compressibility: each generated block is one rectangle.
    let w = workload::block_product(4, &[2, 3], 61);
    let min = minimum_partition(&w.flat);
    assert_eq!(min.tuple_count(), 4);
    // And the canonical form (any order) recovers it too, since blocks
    // are value-disjoint.
    for order in NestOrder::all(2) {
        let canon = canonical_of_flat(&w.flat, &order);
        assert_eq!(canon.tuple_count(), 4, "order {order}");
    }
}

#[test]
fn incremental_build_agrees_across_every_workload_family() {
    let workloads = vec![
        workload::university(10, 2, 6, 2, 3, 71),
        workload::relationship(60, 10, 10, 3, 72),
        workload::zipf(50, &[12, 12, 12], 1.3, 73),
    ];
    for w in &workloads {
        let order = NestOrder::identity(w.flat.schema().arity());
        let mut canon = CanonicalRelation::new(w.flat.schema().clone(), order.clone()).unwrap();
        for row in w.flat.rows() {
            canon.insert(row.to_vec()).unwrap();
        }
        assert_eq!(
            canon.relation(),
            &canonical_of_flat(&w.flat, &order),
            "incremental == from scratch for {}",
            w.label
        );
    }
}
