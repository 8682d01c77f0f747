//! A tour of the NF² algebra: interaction laws and the plan optimizer.
//!
//! Walks the Jaeschke–Schek laws (reference [7]) on live data — where
//! NEST/UNNEST invert each other and where they don't — then lets the
//! rule-based optimizer rewrite a select-over-join plan and verifies the
//! rewrite is tuple-identical.
//!
//! Run with: `cargo run --example algebra_tour`

use std::collections::HashMap;

use nf2::algebra::laws;
use nf2::algebra::optimize::{estimate, optimize, SchemaCatalog};
use nf2::core::display::render_nf;
use nf2::core::nest::nest;
use nf2::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's Example 1 relation — the canonical nest-order witness.
    let rel = laws::example1_counterexample();
    let mut dict = Dictionary::new();
    for v in ["a1", "a2", "a3"] {
        dict.intern(v);
    }
    // Example 1 uses atoms 1..3 and 11..12; re-intern for display.
    println!("Example 1 relation (flat):\n{}", render_nf(&rel, &dict));

    // L1/L2: unnest∘nest collapses to unnest; nest∘unnest to nest.
    assert!(laws::law_unnest_nest(&rel, 0).holds());
    assert!(laws::law_nest_unnest(&rel, 0).holds());
    println!("L1 (μ∘ν = μ) and L2 (ν∘μ = ν) hold on attribute A.");

    // L4: nest orders do NOT commute — Example 1 separates them.
    let ab = nest(&nest(&rel, 1), 0);
    let ba = nest(&nest(&rel, 0), 1);
    assert!(!laws::nests_commute(&rel, 0, 1));
    println!(
        "\nν_A(ν_B): {} tuples, ν_B(ν_A): {} tuples — nest order matters,",
        ab.tuple_count(),
        ba.tuple_count()
    );
    assert_eq!(ab.expand(), ba.expand());
    println!("but both expand to the same R* (realization view, Theorem 1).");

    // L7's structural counterexample: selection before vs after a nest.
    let (r, nest_attr, sel_attr, allow) = laws::select_nest_structural_counterexample();
    let constraint = [(sel_attr, allow)];
    let lhs = nf2::algebra::select_box(&nest(&r, nest_attr), &constraint)?;
    let rhs = nest(&nf2::algebra::select_box(&r, &constraint)?, nest_attr);
    assert_ne!(lhs, rhs);
    assert_eq!(lhs.expand(), rhs.expand());
    println!(
        "\nL7: σ then ν groups tighter than ν then σ ({} vs {} tuples) —\n\
         same R*, different structure. This is why the optimizer never\n\
         moves a selection through a nest: it only merges selections and\n\
         pushes them into the sides of a join.",
        rhs.tuple_count(),
        lhs.tuple_count()
    );

    // The full law battery, as the property tests run it.
    let failures = laws::check_all(&rel);
    assert!(failures.is_empty());
    println!("\nAll universally-quantified laws hold on Example 1: {failures:?}");

    // Optimizer: push a selection below a join, tuple-identically.
    let mut env = Env::new();
    let sc = Schema::new("sc", &["Student", "Course"])?;
    let rows: Vec<Vec<Atom>> = (0..60u32)
        .flat_map(|s| (0..3u32).map(move |c| vec![Atom(s), Atom(1000 + (s + c) % 20)]))
        .collect();
    let sc_flat = FlatRelation::from_rows(sc, rows)?;
    env.insert("sc", canonical_of_flat(&sc_flat, &NestOrder::identity(2)));
    let cp = Schema::new("cp", &["Course", "Prof"])?;
    let cp_flat = FlatRelation::from_rows(
        cp,
        (0..20u32)
            .map(|c| vec![Atom(1000 + c), Atom(2000 + c % 4)])
            .collect::<Vec<_>>(),
    )?;
    env.insert("cp", canonical_of_flat(&cp_flat, &NestOrder::identity(2)));

    let plan = Expr::SelectBox {
        input: Box::new(Expr::Join(
            Box::new(Expr::rel("sc")),
            Box::new(Expr::rel("cp")),
        )),
        constraints: vec![("Prof".into(), vec![Atom(2000)])],
    };
    let catalog = SchemaCatalog::from_env(&env);
    let optimized = optimize(&plan, &catalog);
    println!("\noriginal plan:  {plan}");
    println!("optimized plan: {}", optimized.expr);
    for step in &optimized.trace {
        println!("  applied [{}]", step.rule);
    }
    let sizes: HashMap<String, usize> = [("sc".to_string(), 60), ("cp".to_string(), 20)].into();
    println!(
        "estimated work: {:.0} -> {:.0}",
        estimate(&plan, &sizes).total_work,
        estimate(&optimized.expr, &sizes).total_work
    );
    let a = plan.eval(&env)?;
    let b = optimized.expr.eval(&env)?;
    assert_eq!(a, b);
    println!(
        "results are tuple-identical ({} tuples, {} flat rows).",
        a.tuple_count(),
        a.flat_count()
    );
    Ok(())
}
