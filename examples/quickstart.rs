//! Quickstart: the NF² model in five minutes.
//!
//! Builds the paper's student/course relation, nests it into canonical
//! form, updates it incrementally, and shows that nothing is ever lost
//! (Theorem 1).
//!
//! Run with: `cargo run --example quickstart`

use nf2::core::display::render_nf;
use nf2::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A 1NF relation: students taking courses.
    let mut dict = Dictionary::new();
    let schema = Schema::new("SC", &["Student", "Course"])?;
    let pairs = [
        ("s1", "c1"),
        ("s2", "c1"),
        ("s3", "c1"),
        ("s1", "c2"),
        ("s2", "c2"),
        ("s3", "c2"),
        ("s1", "c3"),
    ];
    let flat = FlatRelation::from_rows(
        schema.clone(),
        pairs
            .iter()
            .map(|(s, c)| vec![dict.intern(s), dict.intern(c)]),
    )?;
    println!("1NF relation: {} rows", flat.len());

    // 2. Canonical form ν_P (Def. 5): nest Student first, Course last.
    let order = NestOrder::identity(2);
    let nfr = canonical_of_flat(&flat, &order);
    println!("\nCanonical NFR ({} tuples):", nfr.tuple_count());
    println!("{}", render_nf(&nfr, &dict));

    // 3. Theorem 1: the expansion recovers the 1NF relation exactly.
    assert_eq!(nfr.expand(), flat);
    println!("Theorem 1 holds: expansion == original 1NF relation\n");

    // 4. Incremental updates (§4): insertion and deletion operate on the
    //    NFR directly and keep it canonical.
    let mut canon = CanonicalRelation::from_flat(&flat, order)?;
    let s4 = dict.intern("s4");
    let c1 = dict.lookup("c1").expect("interned above");
    let mut cost = CostCounter::new();
    canon.insert_counted(&[s4, c1], &mut cost)?;
    println!(
        "Inserted (s4, c1) with {} compositions / {} decompositions:",
        cost.compositions, cost.decompositions
    );
    println!("{}", render_nf(canon.relation(), &dict));

    let s1 = dict.lookup("s1").expect("interned above");
    let c3 = dict.lookup("c3").expect("interned above");
    canon.delete(&[s1, c3])?;
    println!("Deleted (s1, c3):");
    println!("{}", render_nf(canon.relation(), &dict));

    // 5. The maintained form always equals re-nesting from scratch.
    canon.verify()?;
    println!("Canonical invariant verified.");
    Ok(())
}
