//! Executable algebraic laws of the NF² operators.
//!
//! The paper builds on the Jaeschke–Schek algebra (reference \[7\]), whose
//! central results are *interaction laws* between NEST, UNNEST and the
//! classical operators. This module states each law as an executable
//! checker so that the test suite (and the `repro laws` experiment) can
//! witness them on arbitrary relations rather than trusting the prose.
//!
//! Two strengths of equality appear, and keeping them apart is the whole
//! point of §2's "realization view":
//!
//! * **structural** equality — same NF² tuples (`NfRelation::eq`);
//! * **realization** equality — same underlying 1NF relation `R*`
//!   (Theorem 1 makes this well-defined).
//!
//! A structural law licenses a plan rewrite that preserves the
//! user-visible grouping; a realization law only one whose output is
//! re-canonicalized afterwards. The optimizer applies two rewrites, both
//! structural (see [`crate::optimize`](mod@crate::optimize)); every law
//! here stays an executable check of the paper.
//!
//! | Law | Statement | Strength |
//! |-----|-----------|----------|
//! | L1 | `μ_E(ν_E(R)) = μ_E(R)` (so `= R` when `R` is E-flat) | structural |
//! | L2 | `ν_E(μ_E(R)) = ν_E(R)` (so `= R` when `R` is E-nested) | structural |
//! | L3 | `μ_A(μ_B(R)) = μ_B(μ_A(R))` | structural |
//! | L4 | `ν_A(ν_B(R)) ≠ ν_B(ν_A(R))` in general | counterexample |
//! | L5 | `ν_E(ν_E(R)) = ν_E(R)` | structural |
//! | L6 | `σ[E∈S](ν_E(R)) = ν_E(σ[E∈S](R))` — selection on the nest attribute | structural |
//! | L7 | `σ[F∈S](ν_E(R)) ≈ ν_E(σ[F∈S](R))` for `F ≠ E` | realization only |
//! | L8 | `(L ⋈ R)* = L* ⋈ R*` — join is computed on rectangles but means the flat join | realization (soundness) |
//! | L9 | `σ` distributes over `∪, −, ∩` | realization |
//! | L10 | `ν_P(R)` is irreducible (Def. 5 claim) | structural property |

use nf2_core::irreducible::is_irreducible;
use nf2_core::nest::{canonicalize, nest, unnest};
use nf2_core::relation::{FlatRelation, NfRelation};
use nf2_core::schema::{AttrId, NestOrder};
use nf2_core::tuple::{NfTuple, ValueSet};

use crate::ops;

/// Outcome of checking one law on one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LawOutcome {
    /// The law held on this input.
    Holds,
    /// The law failed; the two sides that differed are carried for
    /// diagnosis.
    Violated {
        /// Result of evaluating the left-hand side.
        left: Box<NfRelation>,
        /// Result of evaluating the right-hand side.
        right: Box<NfRelation>,
    },
}

impl LawOutcome {
    fn of_structural(left: NfRelation, right: NfRelation) -> LawOutcome {
        if left == right {
            LawOutcome::Holds
        } else {
            LawOutcome::Violated {
                left: Box::new(left),
                right: Box::new(right),
            }
        }
    }

    fn of_realization(left: NfRelation, right: NfRelation) -> LawOutcome {
        if left.expand() == right.expand() {
            LawOutcome::Holds
        } else {
            LawOutcome::Violated {
                left: Box::new(left),
                right: Box::new(right),
            }
        }
    }

    /// Whether the law held.
    pub fn holds(&self) -> bool {
        matches!(self, LawOutcome::Holds)
    }
}

/// L1 — `μ_E(ν_E(R)) = μ_E(R)`.
///
/// Grouping by the non-`E` components and then splitting `E` into
/// singletons is the same as splitting directly: within a group the
/// `E`-sets are pairwise disjoint (the partition invariant forces it), so
/// unioning before splitting changes nothing.
pub fn law_unnest_nest(rel: &NfRelation, attr: AttrId) -> LawOutcome {
    LawOutcome::of_structural(unnest(&nest(rel, attr), attr), unnest(rel, attr))
}

/// L2 — `ν_E(μ_E(R)) = ν_E(R)`.
///
/// Splitting `E` into singletons and regrouping reaches the same `ν_E`
/// fixpoint as nesting directly. Consequently `ν_E(μ_E(R)) = R` exactly
/// when `R` is already `E`-nested — the Jaeschke–Schek observation that
/// NEST is *not* a left inverse of UNNEST in general.
pub fn law_nest_unnest(rel: &NfRelation, attr: AttrId) -> LawOutcome {
    LawOutcome::of_structural(nest(&unnest(rel, attr), attr), nest(rel, attr))
}

/// L3 — `μ_A(μ_B(R)) = μ_B(μ_A(R))`.
///
/// Unnests commute: both sides replace every rectangle by its grid of
/// `A×B`-singletons.
pub fn law_unnest_commutes(rel: &NfRelation, a: AttrId, b: AttrId) -> LawOutcome {
    LawOutcome::of_structural(unnest(&unnest(rel, b), a), unnest(&unnest(rel, a), b))
}

/// L4 — nests do **not** commute in general: `ν_A(ν_B(R))` and
/// `ν_B(ν_A(R))` are the two canonical forms of a 2-attribute relation,
/// and Example 1 already separates them. Returns whether the two orders
/// agree *on this input* (so tests can both confirm the counterexample
/// and measure how often real workloads are order-sensitive).
pub fn nests_commute(rel: &NfRelation, a: AttrId, b: AttrId) -> bool {
    nest(&nest(rel, b), a) == nest(&nest(rel, a), b)
}

/// The paper's Example 1 instance — the canonical witness that nest order
/// matters (`ν_A∘ν_B ≠ ν_B∘ν_A`).
pub fn example1_counterexample() -> NfRelation {
    let schema = nf2_core::schema::Schema::new("Ex1", &["A", "B"]).expect("valid schema");
    let rows = [[1u32, 11], [2, 11], [2, 12], [3, 12]];
    let flat = FlatRelation::from_rows(
        schema,
        rows.iter()
            .map(|r| r.iter().map(|&v| nf2_core::value::Atom(v)).collect()),
    )
    .expect("valid rows");
    NfRelation::from_flat(&flat)
}

/// L5 — `ν_E(ν_E(R)) = ν_E(R)` (nest is idempotent: it is a fixpoint
/// operator by Def. 4).
pub fn law_nest_idempotent(rel: &NfRelation, attr: AttrId) -> LawOutcome {
    let once = nest(rel, attr);
    let twice = nest(&once, attr);
    LawOutcome::of_structural(twice, once)
}

/// L6 — `σ[E∈S](ν_E(R)) = ν_E(σ[E∈S](R))`: box selection **on the nest
/// attribute** commutes with nesting *structurally*.
///
/// Nesting groups by the non-`E` components, which the selection does not
/// touch; and intersecting each `E`-set with `S` before or after taking
/// the group union is the same because `∩` distributes over `∪`.
pub fn law_select_nest_same_attr(rel: &NfRelation, attr: AttrId, allow: &ValueSet) -> LawOutcome {
    let constraint = [(attr, allow.clone())];
    let lhs = match ops::select_box(&nest(rel, attr), &constraint) {
        Ok(r) => r,
        Err(_) => return LawOutcome::Holds, // out-of-bounds attr: vacuous
    };
    let rhs = nest(
        &ops::select_box(rel, &constraint).expect("attr checked above"),
        attr,
    );
    LawOutcome::of_structural(lhs, rhs)
}

/// L7 — `σ[F∈S](ν_E(R)) ≈ ν_E(σ[F∈S](R))` for `F ≠ E`: selection on a
/// *grouping* attribute commutes with nesting only up to realization
/// view. (Removing values from `F`-components can make previously
/// distinct group keys equal, so the right-hand side may be *more*
/// composed.)
pub fn law_select_nest_other_attr(
    rel: &NfRelation,
    nest_attr: AttrId,
    sel_attr: AttrId,
    allow: &ValueSet,
) -> LawOutcome {
    debug_assert_ne!(nest_attr, sel_attr);
    let constraint = [(sel_attr, allow.clone())];
    let lhs = match ops::select_box(&nest(rel, nest_attr), &constraint) {
        Ok(r) => r,
        Err(_) => return LawOutcome::Holds,
    };
    let rhs = nest(
        &ops::select_box(rel, &constraint).expect("attr checked above"),
        nest_attr,
    );
    LawOutcome::of_realization(lhs, rhs)
}

/// A structural counterexample to L7: selecting on `B` *before* nesting
/// `A` merges two groups that were distinct only through a filtered-out
/// `B` value. Returns `(relation, nest_attr, sel_attr, allow)` with
/// `σ(ν(R)) ≠ ν(σ(R))` structurally.
pub fn select_nest_structural_counterexample() -> (NfRelation, AttrId, AttrId, ValueSet) {
    use nf2_core::value::Atom;
    let schema = nf2_core::schema::Schema::new("L7", &["A", "B"]).expect("valid schema");
    // R = { [A(1) B(10)], [A(2) B(10, 11)] }. Nest A groups by B-set:
    // keys {10} and {10,11} differ, so ν_A(R) = R. Selecting B ∈ {10}
    // afterwards keeps two tuples [A(1) B(10)], [A(2) B(10)].
    // Selecting first makes the keys equal, so ν_A merges: [A(1,2) B(10)].
    let tuples = vec![
        NfTuple::new(vec![
            ValueSet::singleton(Atom(1)),
            ValueSet::singleton(Atom(10)),
        ]),
        NfTuple::new(vec![
            ValueSet::singleton(Atom(2)),
            ValueSet::new(vec![Atom(10), Atom(11)]).expect("literal value list is non-empty"),
        ]),
    ];
    let rel = NfRelation::from_tuples(schema, tuples).expect("disjoint by construction");
    (rel, 0, 1, ValueSet::singleton(Atom(10)))
}

/// L8 — join soundness: the realization view of the rectangle-level
/// [`ops::natural_join`] equals the classical 1NF natural join of the
/// realization views.
pub fn law_join_realization(left: &NfRelation, right: &NfRelation) -> LawOutcome {
    let joined = match ops::natural_join(left, right) {
        Ok(j) => j,
        Err(_) => return LawOutcome::Holds, // incompatible schemas: vacuous
    };
    // Flat-side oracle: nested-loop join on the expansions.
    let lschema = left.schema();
    let rschema = right.schema();
    let mut shared: Vec<(AttrId, AttrId)> = Vec::new();
    let mut right_only: Vec<AttrId> = Vec::new();
    for (r_id, r_name) in rschema.attr_names().enumerate() {
        match lschema.attr_id(r_name) {
            Ok(l_id) => shared.push((r_id, l_id)),
            Err(_) => right_only.push(r_id),
        }
    }
    let right_rows = right.expand();
    let mut rows = Vec::new();
    for l in left.expand().rows() {
        for r in right_rows.rows() {
            if shared.iter().all(|&(r_id, l_id)| l[l_id] == r[r_id]) {
                let mut row = l.to_vec();
                for &r_id in &right_only {
                    row.push(r[r_id]);
                }
                rows.push(row);
            }
        }
    }
    let oracle = FlatRelation::from_rows(joined.schema().clone(), rows).expect("oracle rows");
    if joined.expand() == oracle {
        LawOutcome::Holds
    } else {
        LawOutcome::Violated {
            left: Box::new(joined),
            // The oracle as a relation, for the report.
            right: Box::new(NfRelation::from_flat(&oracle)),
        }
    }
}

/// L9 — box selection distributes over the set operators at realization
/// view: `σ(L ∪ R) ≈ σ(L) ∪ σ(R)`, and likewise for `−` and `∩`.
pub fn law_select_distributes(
    left: &NfRelation,
    right: &NfRelation,
    attr: AttrId,
    allow: &ValueSet,
) -> LawOutcome {
    let order = NestOrder::identity(left.arity());
    let constraint = [(attr, allow.clone())];
    let all = [
        (
            ops::union(left, right, &order).and_then(|u| ops::select_box(&u, &constraint)),
            ops::select_box(left, &constraint).and_then(|l| {
                ops::select_box(right, &constraint).and_then(|r| ops::union(&l, &r, &order))
            }),
        ),
        (
            ops::difference(left, right, &order).and_then(|u| ops::select_box(&u, &constraint)),
            ops::select_box(left, &constraint).and_then(|l| {
                ops::select_box(right, &constraint).and_then(|r| ops::difference(&l, &r, &order))
            }),
        ),
        (
            ops::intersect(left, right).and_then(|u| ops::select_box(&u, &constraint)),
            ops::select_box(left, &constraint).and_then(|l| {
                ops::select_box(right, &constraint).and_then(|r| ops::intersect(&l, &r))
            }),
        ),
    ];
    for (lhs, rhs) in all {
        match (lhs, rhs) {
            (Ok(l), Ok(r)) => {
                if l.expand() != r.expand() {
                    return LawOutcome::Violated {
                        left: Box::new(l),
                        right: Box::new(r),
                    };
                }
            }
            (Err(_), Err(_)) => continue, // both reject (schema mismatch): vacuous
            _ => unreachable!("sides agree on schema validity"),
        }
    }
    LawOutcome::Holds
}

/// L10 — every canonical form is irreducible (the claim under Def. 5:
/// "it is easy to show that ν_P(R) is irreducible").
pub fn law_canonical_is_irreducible(rel: &NfRelation, order: &NestOrder) -> bool {
    is_irreducible(&canonicalize(rel, order))
}

/// Runs every universally-quantified law (L1–L3, L5–L10) on one relation,
/// returning the labels of any that failed. Used by property tests and
/// the `repro laws` experiment; an empty vector means all laws held.
pub fn check_all(rel: &NfRelation) -> Vec<&'static str> {
    let mut failures = Vec::new();
    let arity = rel.arity();
    // A selection set that actually bites: the first two values seen on
    // each attribute.
    let sample_set = |attr: AttrId| -> Option<ValueSet> {
        let mut vals = Vec::new();
        for t in rel.tuples() {
            for v in t.component(attr).iter() {
                vals.push(v);
                if vals.len() == 2 {
                    return ValueSet::new(vals);
                }
            }
        }
        ValueSet::new(vals)
    };
    for a in 0..arity {
        if !law_unnest_nest(rel, a).holds() {
            failures.push("L1 unnest∘nest");
        }
        if !law_nest_unnest(rel, a).holds() {
            failures.push("L2 nest∘unnest");
        }
        if !law_nest_idempotent(rel, a).holds() {
            failures.push("L5 nest idempotent");
        }
        if let Some(set) = sample_set(a) {
            if !law_select_nest_same_attr(rel, a, &set).holds() {
                failures.push("L6 select/nest same attr");
            }
        }
        for b in 0..arity {
            if a == b {
                continue;
            }
            if !law_unnest_commutes(rel, a, b).holds() {
                failures.push("L3 unnest commutes");
            }
            if let Some(set) = sample_set(b) {
                if !law_select_nest_other_attr(rel, a, b, &set).holds() {
                    failures.push("L7 select/nest other attr (realization)");
                }
            }
        }
    }
    if !law_join_realization(rel, rel).holds() {
        failures.push("L8 join realization (self-join)");
    }
    if let Some(set) = sample_set(0) {
        if !law_select_distributes(rel, rel, 0, &set).holds() {
            failures.push("L9 select distributes");
        }
    }
    for order in NestOrder::all(arity.min(3)) {
        if order.arity() == arity && !law_canonical_is_irreducible(rel, &order) {
            failures.push("L10 canonical irreducible");
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf2_core::schema::Schema;
    use nf2_core::value::Atom;
    use std::sync::Arc;

    fn schema(attrs: &[&str]) -> Arc<Schema> {
        Schema::new("R", attrs).unwrap()
    }

    fn vs(ids: &[u32]) -> ValueSet {
        ValueSet::new(ids.iter().map(|&i| Atom(i)).collect()).unwrap()
    }

    fn t(comps: &[&[u32]]) -> NfTuple {
        NfTuple::new(comps.iter().map(|c| vs(c)).collect())
    }

    fn rel(attrs: &[&str], tuples: Vec<NfTuple>) -> NfRelation {
        NfRelation::from_tuples(schema(attrs), tuples).unwrap()
    }

    /// A small mixed relation used across the tests: some nesting already
    /// present, overlapping values across tuples.
    fn mixed() -> NfRelation {
        rel(
            &["A", "B", "C"],
            vec![
                t(&[&[1, 2], &[10], &[100]]),
                t(&[&[3], &[10, 11], &[100]]),
                t(&[&[1], &[12], &[101]]),
            ],
        )
    }

    #[test]
    fn l1_unnest_nest_equals_unnest() {
        for a in 0..3 {
            assert!(law_unnest_nest(&mixed(), a).holds(), "attr {a}");
        }
    }

    #[test]
    fn l1_specializes_to_identity_on_flat_component() {
        // When every E-component is a singleton, μ_E(ν_E(R)) = R.
        let r = rel(&["A", "B"], vec![t(&[&[1], &[10]]), t(&[&[2], &[10]])]);
        let back = unnest(&nest(&r, 0), 0);
        assert_eq!(back, r);
    }

    #[test]
    fn l2_nest_unnest_equals_nest() {
        for a in 0..3 {
            assert!(law_nest_unnest(&mixed(), a).holds(), "attr {a}");
        }
    }

    #[test]
    fn l2_nest_is_not_left_inverse_of_unnest() {
        // R not nested over A: ν_A(μ_A(R)) ≠ R.
        let r = rel(&["A", "B"], vec![t(&[&[1], &[10]]), t(&[&[2], &[10]])]);
        let round = nest(&unnest(&r, 0), 0);
        assert_ne!(round, r);
        assert_eq!(round.expand(), r.expand(), "realization view survives");
    }

    #[test]
    fn l3_unnests_commute() {
        assert!(law_unnest_commutes(&mixed(), 0, 1).holds());
        assert!(law_unnest_commutes(&mixed(), 1, 2).holds());
        assert!(law_unnest_commutes(&mixed(), 0, 2).holds());
    }

    #[test]
    fn l4_example1_separates_nest_orders() {
        let r = example1_counterexample();
        assert!(!nests_commute(&r, 0, 1), "Example 1 is the counterexample");
    }

    #[test]
    fn l4_nests_commute_on_product_data() {
        // A full product has an MVD both ways; nest order is irrelevant.
        let r = rel(
            &["A", "B"],
            vec![
                t(&[&[1], &[10]]),
                t(&[&[1], &[11]]),
                t(&[&[2], &[10]]),
                t(&[&[2], &[11]]),
            ],
        );
        assert!(nests_commute(&r, 0, 1));
    }

    #[test]
    fn l5_nest_idempotent() {
        for a in 0..3 {
            assert!(law_nest_idempotent(&mixed(), a).holds());
        }
    }

    #[test]
    fn l6_select_on_nest_attr_commutes_structurally() {
        assert!(law_select_nest_same_attr(&mixed(), 0, &vs(&[1, 3])).holds());
        assert!(law_select_nest_same_attr(&mixed(), 1, &vs(&[10])).holds());
        // Selection that empties the relation.
        assert!(law_select_nest_same_attr(&mixed(), 0, &vs(&[99])).holds());
    }

    #[test]
    fn l7_select_on_other_attr_holds_at_realization() {
        assert!(law_select_nest_other_attr(&mixed(), 0, 1, &vs(&[10])).holds());
        assert!(law_select_nest_other_attr(&mixed(), 2, 0, &vs(&[1])).holds());
    }

    #[test]
    fn l7_structural_counterexample_is_real() {
        let (r, nest_attr, sel_attr, allow) = select_nest_structural_counterexample();
        let constraint = [(sel_attr, allow)];
        let lhs = ops::select_box(&nest(&r, nest_attr), &constraint).unwrap();
        let rhs = nest(&ops::select_box(&r, &constraint).unwrap(), nest_attr);
        assert_ne!(lhs, rhs, "structurally different");
        assert_eq!(lhs.expand(), rhs.expand(), "same realization view");
        assert_eq!(lhs.tuple_count(), 2);
        assert_eq!(rhs.tuple_count(), 1, "selecting first enables a merge");
    }

    #[test]
    fn l8_join_matches_flat_oracle() {
        let sc = rel(&["S", "C"], vec![t(&[&[1], &[10, 11]]), t(&[&[2], &[11]])]);
        let cp = NfRelation::from_tuples(
            Schema::new("CP", &["C", "P"]).unwrap(),
            vec![t(&[&[10], &[90]]), t(&[&[11], &[91, 92]])],
        )
        .unwrap();
        assert!(law_join_realization(&sc, &cp).holds());
    }

    #[test]
    fn l9_select_distributes_over_set_ops() {
        let l = rel(&["A", "B"], vec![t(&[&[1, 2], &[10]])]);
        let r = rel(&["A", "B"], vec![t(&[&[2, 3], &[10]])]);
        assert!(law_select_distributes(&l, &r, 0, &vs(&[2])).holds());
        assert!(law_select_distributes(&l, &r, 1, &vs(&[10])).holds());
    }

    #[test]
    fn l10_canonical_forms_are_irreducible() {
        let r = mixed();
        for order in NestOrder::all(3) {
            assert!(law_canonical_is_irreducible(&r, &order), "order {order}");
        }
    }

    #[test]
    fn check_all_passes_on_mixed_relation() {
        assert!(check_all(&mixed()).is_empty());
    }

    #[test]
    fn check_all_passes_on_example1() {
        assert!(check_all(&example1_counterexample()).is_empty());
    }

    #[test]
    fn check_all_passes_on_empty_relation() {
        let r = rel(&["A", "B"], vec![]);
        assert!(check_all(&r).is_empty());
    }

    #[test]
    fn law_outcome_reports_sides() {
        let l = rel(&["A"], vec![t(&[&[1]])]);
        let r = rel(&["A"], vec![t(&[&[2]])]);
        let out = LawOutcome::of_structural(l.clone(), r.clone());
        match out {
            LawOutcome::Violated { left, right } => {
                assert_eq!(*left, l);
                assert_eq!(*right, r);
            }
            LawOutcome::Holds => panic!("distinct relations must violate"),
        }
        assert!(LawOutcome::of_structural(l.clone(), l).holds());
    }
}
