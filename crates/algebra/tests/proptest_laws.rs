//! Property tests for the algebra laws (`nf2_algebra::laws`) and the
//! rewrite soundness of the optimizer (`nf2_algebra::optimize`).
//!
//! * Every universally-quantified law must hold on arbitrary NFRs,
//!   whichever way they were produced (canonical forms, greedy
//!   irreducible reductions, raw singleton embeddings).
//! * Optimizing a random well-typed expression must preserve the result
//!   exactly, tuple for tuple.

use proptest::prelude::*;

use nf2_algebra::laws;
use nf2_algebra::optimize::{optimize, SchemaCatalog};
use nf2_algebra::{Env, Expr};
use nf2_core::irreducible::{reduce, ReduceStrategy};
use nf2_core::nest::canonical_of_flat;
use nf2_core::relation::{FlatRelation, NfRelation};
use nf2_core::schema::{NestOrder, Schema};
use nf2_core::tuple::FlatTuple;
use nf2_core::value::Atom;

/// Random flat relation over (A, B, C) with small, per-attribute-offset
/// domains so values collide across tuples but never across attributes.
fn arb_flat(name: &'static str) -> impl Strategy<Value = FlatRelation> {
    proptest::collection::vec(proptest::collection::vec(0u32..4, 3), 0..16).prop_map(move |rows| {
        let schema = Schema::new(name, &["A", "B", "C"]).unwrap();
        FlatRelation::from_rows(
            schema,
            rows.into_iter().map(|r| {
                r.into_iter()
                    .enumerate()
                    .map(|(i, v)| Atom(v + 10 * i as u32))
                    .collect::<FlatTuple>()
            }),
        )
        .unwrap()
    })
}

/// An NFR derived from `flat` by one of the reachable construction
/// paths: singleton embedding, a canonical form, or a greedy reduction.
fn arb_nfr(name: &'static str) -> impl Strategy<Value = NfRelation> {
    (arb_flat(name), any::<u64>(), 0usize..3).prop_map(|(flat, seed, kind)| match kind {
        0 => NfRelation::from_flat(&flat),
        1 => {
            let orders = NestOrder::all(3);
            canonical_of_flat(&flat, &orders[(seed as usize) % orders.len()])
        }
        _ => reduce(&NfRelation::from_flat(&flat), ReduceStrategy::FirstFit),
    })
}

/// Well-typed random expressions over two same-schema relations `r`/`s`.
/// Projections permute all attributes (never drop), so every node keeps
/// the (A, B, C) schema and any operator can stack on any subtree; a join
/// of two such subtrees shares every attribute, so a selection above it
/// reaches both sides.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![Just(Expr::rel("r")), Just(Expr::rel("s"))];
    leaf.prop_recursive(4, 24, 3, |inner| {
        let attr = prop_oneof![
            Just("A".to_string()),
            Just("B".to_string()),
            Just("C".to_string())
        ];
        let values = proptest::collection::vec(0u32..4, 1..3);
        prop_oneof![
            (inner.clone(), attr.clone(), values).prop_map(|(e, a, vs)| {
                let offset = match a.as_str() {
                    "A" => 0,
                    "B" => 10,
                    _ => 20,
                };
                Expr::SelectBox {
                    input: Box::new(e),
                    constraints: vec![(a, vs.into_iter().map(|v| Atom(v + offset)).collect())],
                }
            }),
            (inner.clone(), 0usize..6).prop_map(|(e, p)| {
                let perms: [[&str; 3]; 6] = [
                    ["A", "B", "C"],
                    ["A", "C", "B"],
                    ["B", "A", "C"],
                    ["B", "C", "A"],
                    ["C", "A", "B"],
                    ["C", "B", "A"],
                ];
                Expr::Project {
                    input: Box::new(e),
                    attrs: perms[p].iter().map(|s| s.to_string()).collect(),
                }
            }),
            (inner.clone(), attr.clone()).prop_map(|(e, a)| Expr::Nest {
                input: Box::new(e),
                attr: a
            }),
            (inner.clone(), attr.clone()).prop_map(|(e, a)| Expr::Unnest {
                input: Box::new(e),
                attr: a
            }),
            (inner.clone(), 0usize..6).prop_map(|(e, p)| {
                let perms: [[&str; 3]; 6] = [
                    ["A", "B", "C"],
                    ["A", "C", "B"],
                    ["B", "A", "C"],
                    ["B", "C", "A"],
                    ["C", "A", "B"],
                    ["C", "B", "A"],
                ];
                Expr::Canonicalize {
                    input: Box::new(e),
                    order: perms[p].iter().map(|s| s.to_string()).collect(),
                }
            }),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Expr::Union(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Expr::Difference(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone())
                .prop_map(|(l, r)| Expr::Intersect(Box::new(l), Box::new(r))),
            (inner.clone(), inner).prop_map(|(l, r)| Expr::Join(Box::new(l), Box::new(r))),
        ]
    })
}

fn env_for(r: &FlatRelation, s: &FlatRelation) -> Env {
    let mut env = Env::new();
    env.insert("r", NfRelation::from_flat(r));
    env.insert("s", canonical_of_flat(s, &NestOrder::identity(3)));
    env
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Projection permutations can change attribute *positions*; the
    /// law checker is position-based, so feed it same-schema relations.
    #[test]
    fn all_laws_hold_on_arbitrary_nfrs(rel in arb_nfr("R")) {
        let failures = laws::check_all(&rel);
        prop_assert!(failures.is_empty(), "violated: {failures:?} on {rel:?}");
    }

    /// L4 witness frequency: whenever the two nest orders disagree, both
    /// must still expand to the same flat relation.
    #[test]
    fn nest_order_sensitivity_is_realization_safe(rel in arb_nfr("R"), a in 0usize..3, b in 0usize..3) {
        prop_assume!(a != b);
        let ab = nf2_core::nest::nest(&nf2_core::nest::nest(&rel, b), a);
        let ba = nf2_core::nest::nest(&nf2_core::nest::nest(&rel, a), b);
        prop_assert_eq!(ab.expand(), ba.expand());
    }

    /// Optimization returns a tuple-identical result.
    #[test]
    fn structural_rewrites_are_exact(
        r in arb_flat("R"),
        s in arb_flat("S"),
        expr in arb_expr(),
    ) {
        let env = env_for(&r, &s);
        let catalog = SchemaCatalog::from_env(&env);
        let optimized = optimize(&expr, &catalog);
        // Permuted projections can make set operands schema-incompatible;
        // then both the original and the optimized plan must report it.
        match (expr.eval(&env), optimized.expr.eval(&env)) {
            (Ok(base), Ok(opt)) => {
                prop_assert_eq!(base, opt, "plan {} vs {}", expr, optimized.expr)
            }
            (Err(_), Err(_)) => {}
            (base, opt) => prop_assert!(
                false,
                "error behaviour diverged: {base:?} vs {opt:?} for {} vs {}",
                expr,
                optimized.expr
            ),
        }
    }

    /// The optimizer never loses selections: a plan with a selective
    /// conjunct must evaluate to a subset of the unconstrained plan.
    #[test]
    fn selections_never_dropped(
        r in arb_flat("R"),
        s in arb_flat("S"),
        v in 0u32..4,
    ) {
        let env = env_for(&r, &s);
        let catalog = SchemaCatalog::from_env(&env);
        let base = Expr::Union(Box::new(Expr::rel("r")), Box::new(Expr::rel("s")));
        let constrained = Expr::SelectBox {
            input: Box::new(base.clone()),
            constraints: vec![("B".into(), vec![Atom(v + 10)])],
        };
        let opt = optimize(&constrained, &catalog).expr.eval(&env).unwrap();
        for row in opt.expand().rows() {
            prop_assert_eq!(row[1], Atom(v + 10), "selection survived");
        }
    }
}
