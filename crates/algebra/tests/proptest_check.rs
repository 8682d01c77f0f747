//! Property tests for the typed-IR checker and the rewrite-soundness
//! gate: over randomly composed well-typed plans,
//!
//! 1. [`try_optimize`] never rejects — the gate has **zero false
//!    positives** on legal plans;
//! 2. optimization preserves the inferred output attributes;
//! 3. the optimized plan evaluates to exactly the original's tuples
//!    (and fails exactly when the original fails);
//! 4. the static form of Def. 7 is sound: wherever [`infer`] types a
//!    projection *fixed by construction*, its evaluated input is fixed
//!    on the kept attributes (`is_fixed_on`, the all-pairs test) and the
//!    componentwise projection is exactly [`ops::project`]'s result —
//!    with named cases for where the rule must stay conservative.
//!
//! Plans are grown instruction-by-instruction from two base relations,
//! each step tracking the live attribute list so every constructed
//! operator is schema-legal — the space the checker must accept.

use std::collections::BTreeSet;

use proptest::prelude::*;

use nf2_algebra::{infer, ops, try_optimize, CheckCatalog, Env, Expr, SchemaCatalog};
use nf2_core::nest::canonical_of_flat;
use nf2_core::properties::is_fixed_on;
use nf2_core::relation::FlatRelation;
use nf2_core::schema::{NestOrder, Schema};
use nf2_core::tuple::{FlatTuple, NfTuple};
use nf2_core::value::Atom;

/// Attribute domains are disjoint decades so natural joins share
/// exactly the intended attributes: A ∈ 0..4, B ∈ 10..14, C ∈ 20..24,
/// D ∈ 30..34.
fn domain_base(attr: &str) -> u32 {
    match attr {
        "A" => 0,
        "B" => 10,
        "C" => 20,
        _ => 30,
    }
}

fn load(name: &str, attrs: &[&str], rows: &[Vec<u32>]) -> nf2_core::relation::NfRelation {
    let schema = Schema::new(name, attrs).unwrap();
    let flat = FlatRelation::from_rows(
        schema,
        rows.iter().map(|r| {
            r.iter()
                .zip(attrs)
                .map(|(v, a)| Atom(domain_base(a) + v))
                .collect::<FlatTuple>()
        }),
    )
    .unwrap();
    canonical_of_flat(&flat, &NestOrder::identity(attrs.len()))
}

/// One growth step; fields are raw entropy interpreted modulo the
/// current schema, so every instruction is legal wherever it lands.
#[derive(Debug, Clone, Copy)]
struct Instr {
    op: u8,
    x: u8,
    y: u8,
}

fn arb_instr() -> impl Strategy<Value = Instr> {
    (0u8..9, any::<u8>(), any::<u8>()).prop_map(|(op, x, y)| Instr { op, x, y })
}

/// Applies instructions to `Rel(r)`, tracking attribute names.
fn grow(instrs: &[Instr]) -> (Expr, Vec<String>) {
    let mut expr = Expr::rel("r");
    let mut names: Vec<String> = ["A", "B", "C"].iter().map(|s| s.to_string()).collect();
    for &Instr { op, x, y } in instrs {
        match op {
            0 => {
                // σ on one live attribute with a 1–2 value box.
                let attr = names[x as usize % names.len()].clone();
                let base = domain_base(&attr);
                let mut values = vec![Atom(base + u32::from(y % 4))];
                if y % 3 == 0 {
                    values.push(Atom(base + (u32::from(y) + 1) % 4));
                }
                expr = Expr::SelectBox {
                    input: Box::new(expr),
                    constraints: vec![(attr, values)],
                };
            }
            1 => {
                // π keeping a non-empty bitmask of the live attributes.
                let mask = (x as usize % ((1 << names.len()) - 1)) + 1;
                let kept: Vec<String> = names
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, n)| n.clone())
                    .collect();
                names = kept.clone();
                expr = Expr::Project {
                    input: Box::new(expr),
                    attrs: kept,
                };
            }
            2 => {
                // ⋈ with the second base relation (shared attrs by name).
                for extra in ["B", "C", "D"] {
                    if !names.iter().any(|n| n == extra) {
                        names.push(extra.to_string());
                    }
                }
                expr = Expr::Join(Box::new(expr), Box::new(Expr::rel("s")));
            }
            op @ 3..=5 => {
                // Set op against a selection of the same subtree — both
                // sides share schema and nest structure by construction.
                let attr = names[x as usize % names.len()].clone();
                let filtered = Expr::SelectBox {
                    input: Box::new(expr.clone()),
                    constraints: vec![(
                        attr.clone(),
                        vec![Atom(domain_base(&attr) + u32::from(y % 4))],
                    )],
                };
                let (l, r) = (Box::new(expr), Box::new(filtered));
                expr = match op {
                    3 => Expr::Union(l, r),
                    4 => Expr::Intersect(l, r),
                    _ => Expr::Difference(l, r),
                };
            }
            op @ 6..=8 => {
                // Re-nesting on a live attribute (ν, μ) or all of them
                // (ν_P under a rotation of the live order).
                let at = x as usize % names.len();
                let (input, attr) = (Box::new(expr), names[at].clone());
                expr = match op {
                    6 => Expr::Nest { input, attr },
                    7 => Expr::Unnest { input, attr },
                    _ => Expr::Canonicalize {
                        input,
                        order: names[at..].iter().chain(&names[..at]).cloned().collect(),
                    },
                };
            }
            _ => unreachable!("op is drawn from 0..9"),
        }
    }
    (expr, names)
}

fn catalog() -> SchemaCatalog {
    let mut cat = SchemaCatalog::new();
    cat.insert("r", vec!["A".into(), "B".into(), "C".into()]);
    cat.insert("s", vec!["B".into(), "C".into(), "D".into()]);
    cat
}

fn env(r_rows: &[Vec<u32>], s_rows: &[Vec<u32>]) -> Env {
    let mut env = Env::new();
    env.insert("r", load("r", &["A", "B", "C"], r_rows));
    env.insert("s", load("s", &["B", "C", "D"], s_rows));
    env
}

/// Property 4 over every projection node of `expr`: a π typed fixed by
/// construction must be fixed on its instance, and must be computed by
/// the componentwise projection alone. Returns how many it found.
fn check_static_fixedness(expr: &Expr, cat: &CheckCatalog, env: &Env) -> Result<usize, String> {
    let mut found = 0;
    let children: Vec<&Expr> = match expr {
        Expr::Rel(_) => vec![],
        Expr::SelectBox { input, .. }
        | Expr::Project { input, .. }
        | Expr::Nest { input, .. }
        | Expr::Unnest { input, .. }
        | Expr::Canonicalize { input, .. } => vec![input],
        Expr::Union(l, r) | Expr::Difference(l, r) | Expr::Intersect(l, r) | Expr::Join(l, r) => {
            vec![l, r]
        }
    };
    for child in children {
        found += check_static_fixedness(child, cat, env)?;
    }
    let Expr::Project { input, attrs } = expr else {
        return Ok(found);
    };
    let input_ty = infer(input, cat).map_err(|e| e.to_string())?;
    if input_ty.unpinned_drop(attrs).is_some() {
        return Ok(found);
    }
    let rel = input.eval(env).map_err(|e| e.to_string())?;
    let kept: Vec<usize> = attrs
        .iter()
        .map(|a| input_ty.attr_index(a).unwrap())
        .collect();
    if !is_fixed_on(&rel, &kept) {
        return Err(format!(
            "{expr} is typed fixed by construction, but {rel:?} is not fixed on {attrs:?}"
        ));
    }
    let componentwise: BTreeSet<NfTuple> = rel
        .tuples()
        .iter()
        .map(|t| kept.iter().map(|&a| t.component(a).clone()).collect())
        .collect();
    if componentwise.len() != rel.tuple_count() {
        return Err(format!(
            "{expr}: two input tuples project to the same tuple"
        ));
    }
    let reference =
        ops::project(&rel, &kept, &NestOrder::identity(kept.len())).map_err(|e| e.to_string())?;
    if componentwise != reference.tuples().iter().cloned().collect() {
        return Err(format!(
            "{expr}: componentwise projection differs from ops::project"
        ));
    }
    Ok(found + 1)
}

/// `r` for the named cases: canonical form `({a0,a1}, b0, c0)`,
/// `(a0, b0, c1)` — **not** fixed on `(A, B)`, so a projection onto them
/// may only be typed fixed if a selection really pins `C`.
fn named_env() -> (Env, CheckCatalog) {
    let env = env(&[vec![0, 0, 0], vec![1, 0, 0], vec![0, 0, 1]], &[]);
    assert!(!is_fixed_on(env.get("r").unwrap(), &[0, 1]));
    (env, CheckCatalog::from_schema_catalog(&catalog()))
}

fn select_c(input: Expr, values: &[u32]) -> Expr {
    Expr::SelectBox {
        input: Box::new(input),
        constraints: vec![("C".into(), values.iter().map(|v| Atom(20 + v)).collect())],
    }
}

fn project_ab(input: Expr) -> Expr {
    Expr::Project {
        input: Box::new(input),
        attrs: vec!["A".into(), "B".into()],
    }
}

#[test]
fn one_value_selection_makes_the_projection_fixed() {
    let (env, cat) = named_env();
    let plan = project_ab(select_c(Expr::rel("r"), &[0]));
    assert_eq!(check_static_fixedness(&plan, &cat, &env), Ok(1));
}

#[test]
fn two_value_in_list_must_not_be_typed_fixed() {
    let (env, cat) = named_env();
    let input = select_c(Expr::rel("r"), &[0, 1]);
    assert_eq!(
        infer(&input, &cat).unwrap().unpinned_drop(&["A", "B"]),
        Some("C")
    );
    // And it must not: both tuples survive and overlap on (A, B).
    assert!(!is_fixed_on(&input.eval(&env).unwrap(), &[0, 1]));
    assert_eq!(
        check_static_fixedness(&project_ab(input), &cat, &env),
        Ok(0)
    );
}

#[test]
fn union_must_lose_the_pin() {
    let (env, cat) = named_env();
    let both = Expr::Union(
        Box::new(select_c(Expr::rel("r"), &[0])),
        Box::new(select_c(Expr::rel("r"), &[1])),
    );
    assert_eq!(
        infer(&both, &cat).unwrap().unpinned_drop(&["A", "B"]),
        Some("C")
    );
    assert!(!is_fixed_on(&both.eval(&env).unwrap(), &[0, 1]));
}

/// ν, μ, ν_P and − regroup or shrink `R*` but never widen a column, so
/// the pin — a property of `R*` — survives them, and the projection
/// above stays fixed on every instance (checked by the all-pairs test).
#[test]
fn renesting_keeps_the_pin_and_the_projection_stays_fixed() {
    let (env, cat) = named_env();
    let pinned = || Box::new(select_c(Expr::rel("r"), &[0]));
    let attr = || "A".to_owned();
    for input in [
        Expr::Nest {
            input: pinned(),
            attr: attr(),
        },
        Expr::Unnest {
            input: pinned(),
            attr: attr(),
        },
        Expr::Canonicalize {
            input: pinned(),
            order: vec!["C".into(), "A".into(), "B".into()],
        },
        Expr::Difference(pinned(), Box::new(select_c(Expr::rel("r"), &[1]))),
    ] {
        let plan = project_ab(input);
        assert_eq!(check_static_fixedness(&plan, &cat, &env), Ok(1), "{plan}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn projections_typed_fixed_are_fixed_on_every_instance(
        instrs in proptest::collection::vec(arb_instr(), 0..4),
        pin in any::<u8>(),
        keep in any::<u8>(),
        r_rows in proptest::collection::vec(proptest::collection::vec(0u32..4, 3), 0..12),
        s_rows in proptest::collection::vec(proptest::collection::vec(0u32..4, 3), 0..12),
    ) {
        // A random plan, then a one-value σ and a π above it, so most
        // cases reach the rule (`grow` reads both modulo the live schema).
        let mut instrs = instrs;
        instrs.push(Instr { op: 0, x: pin, y: 1 + 3 * (pin % 4) });
        instrs.push(Instr { op: 1, x: keep, y: 0 });
        let (expr, _) = grow(&instrs);
        let check_cat = CheckCatalog::from_schema_catalog(&catalog());
        let checked = check_static_fixedness(&expr, &check_cat, &env(&r_rows, &s_rows));
        prop_assert!(checked.is_ok(), "{}", checked.unwrap_err());
    }

    #[test]
    fn gate_accepts_and_preserves_random_well_typed_plans(
        instrs in proptest::collection::vec(arb_instr(), 0..5),
        r_rows in proptest::collection::vec(proptest::collection::vec(0u32..4, 3), 0..12),
        s_rows in proptest::collection::vec(proptest::collection::vec(0u32..4, 3), 0..12),
    ) {
        let (expr, names) = grow(&instrs);
        let cat = catalog();
        let check_cat = CheckCatalog::from_schema_catalog(&cat);

        // The generator only emits well-typed plans; the checker must
        // agree and report exactly the tracked attribute list.
        let ty = infer(&expr, &check_cat).expect("generated plan is well-typed");
        prop_assert_eq!(ty.names(), names.iter().map(String::as_str).collect::<Vec<_>>());

        let env = env(&r_rows, &s_rows);
        // Property 1: zero false positives from the soundness gate.
        let result = try_optimize(&expr, &cat);
        prop_assert!(
            result.is_ok(),
            "gate rejected a sound plan: {}\nplan: {}",
            result.as_ref().unwrap_err(),
            &expr
        );
        let opt = result.unwrap();

        // Property 2: output attributes survive optimization.
        let opt_ty = infer(&opt.expr, &check_cat).expect("optimized plan is well-typed");
        prop_assert_eq!(opt_ty.names(), ty.names());

        // Property 3: the optimized plan computes the same tuples, and
        // fails only when the original fails.
        match expr.eval(&env) {
            Ok(base) => {
                let opt_rel = opt.expr.eval(&env).expect("optimized plan evaluates");
                prop_assert_eq!(&base, &opt_rel, "plan {}", &expr);
            }
            Err(_) => prop_assert!(
                opt.expr.eval(&env).is_err(),
                "optimization repaired a failing plan {}", &expr
            ),
        }
    }
}
