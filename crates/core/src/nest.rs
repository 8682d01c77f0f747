//! Nest, unnest and canonical forms (Definitions 4–5, Theorem 2).
//!
//! `ν_E(R)` applies compositions over `E` "as many as possible" (Def. 4).
//! Because composition over `E` merges tuples that agree on everything but
//! `E`, the fixpoint is exactly: group tuples by their non-`E` components
//! and union the `E`-sets per group — computed here with a single hash pass
//! (DESIGN.md D3). A slower pairwise-composition variant with a caller-
//! chosen order is provided to *test* Theorem 2 (the fixpoint is unique,
//! independent of composition order).
//!
//! A canonical form `ν_P(R)` (Def. 5) folds nests over a [`NestOrder`].

use std::collections::HashMap;

use crate::compose::{compose, find_composable_pair_over};
use crate::relation::{FlatRelation, NfRelation};
use crate::schema::NestOrder;
use crate::tuple::{NfTuple, ValueSet};

/// Def. 4 — the nested relation `ν_attr(R)`: all compositions over `attr`
/// applied to fixpoint.
///
/// Runs in `O(T · n)` expected time via grouping, where `T` is the tuple
/// count and `n` the arity.
pub fn nest(rel: &NfRelation, attr: usize) -> NfRelation {
    let mut groups: HashMap<Vec<ValueSet>, ValueSet> = HashMap::with_capacity(rel.tuple_count());
    // Preserve first-seen order for stable output.
    let mut order: Vec<Vec<ValueSet>> = Vec::new();
    for t in rel.tuples() {
        let mut key: Vec<ValueSet> = t.components().to_vec();
        let e_set = key.remove(attr);
        match groups.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut o) => {
                let merged = o.get().union(&e_set);
                *o.get_mut() = merged;
            }
            std::collections::hash_map::Entry::Vacant(v) => {
                order.push(v.key().clone());
                v.insert(e_set);
            }
        }
    }
    let tuples = order
        .into_iter()
        .map(|key| {
            let e_set = groups.remove(&key).expect("group recorded at first sight");
            let mut comps = key;
            comps.insert(attr, e_set);
            NfTuple::new(comps)
        })
        .collect();
    NfRelation::from_tuples_unchecked(rel.schema().clone(), tuples)
}

/// Def. 4 by literal pairwise composition, merging pairs in the order
/// chosen by `pick`.
///
/// `pick(k)` must return an index `< k`, selecting which of the currently
/// composable pairs to merge next. Exists to validate Theorem 2: for every
/// choice function the fixpoint equals [`nest`]. Quadratic; not a
/// production path.
pub fn nest_pairwise<F>(rel: &NfRelation, attr: usize, mut pick: F) -> NfRelation
where
    F: FnMut(usize) -> usize,
{
    let mut tuples: Vec<NfTuple> = rel.tuples().to_vec();
    loop {
        // Collect all currently composable pairs over `attr`.
        let mut pairs = Vec::new();
        for i in 0..tuples.len() {
            for j in (i + 1)..tuples.len() {
                if crate::compose::composable(&tuples[i], &tuples[j], attr) {
                    pairs.push((i, j));
                }
            }
        }
        if pairs.is_empty() {
            break;
        }
        let (i, j) = pairs[pick(pairs.len()) % pairs.len()];
        let merged = compose(&tuples[i], &tuples[j], attr).expect("pair pre-checked composable");
        // j > i always, so removing j first keeps i valid.
        tuples.swap_remove(j);
        tuples.swap_remove(i);
        tuples.push(merged);
    }
    NfRelation::from_tuples_unchecked(rel.schema().clone(), tuples)
}

/// Relation-level UNNEST: splits the `attr` component of every tuple into
/// singletons (the inverse direction of [`nest`], as in the
/// Jaeschke–Schek algebra the paper builds on).
pub fn unnest(rel: &NfRelation, attr: usize) -> NfRelation {
    let mut tuples = Vec::with_capacity(rel.tuple_count());
    for t in rel.tuples() {
        for v in t.component(attr).iter() {
            tuples.push(t.with_component(attr, ValueSet::singleton(v)));
        }
    }
    NfRelation::from_tuples_unchecked(rel.schema().clone(), tuples)
}

/// Def. 5 — the canonical form `ν_P(R)`: nests applied in the order's
/// application sequence (first entry nested first; DESIGN.md D2).
pub fn canonicalize(rel: &NfRelation, order: &NestOrder) -> NfRelation {
    debug_assert_eq!(order.arity(), rel.arity());
    let mut out = rel.clone();
    for &attr in order.as_slice() {
        out = nest(&out, attr);
    }
    out
}

/// Canonical form of a 1NF relation (the common entry point: "every 1NF
/// relation can always be transformed into canonical ones").
///
/// Routed through the single-pass [`kernel`](crate::kernel): one sort of
/// the flat rows plus a bottom-up fold replaces the n-pass ν cascade.
/// The cascade itself — [`canonicalize`] over [`NfRelation::from_flat`] —
/// is the oracle the property tests pin the kernel against.
pub fn canonical_of_flat(flat: &FlatRelation, order: &NestOrder) -> NfRelation {
    crate::kernel::NestKernel::new().canonical_of_flat(flat, order)
}

/// Whether `rel` is already in canonical form for `order`.
pub fn is_canonical(rel: &NfRelation, order: &NestOrder) -> bool {
    canonical_of_flat(&rel.expand(), order) == *rel
}

/// Whether no composition over `attr` applies (i.e. `rel` is a fixpoint of
/// `ν_attr`).
pub fn is_nested_over(rel: &NfRelation, attr: usize) -> bool {
    find_composable_pair_over(rel.tuples(), attr).is_none()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use crate::tuple::ValueSet;
    use crate::value::Atom;
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

    fn flat(schema: Arc<Schema>, rows: &[&[u32]]) -> FlatRelation {
        FlatRelation::from_rows(
            schema,
            rows.iter().map(|r| r.iter().map(|&v| Atom(v)).collect()),
        )
        .unwrap()
    }

    #[test]
    fn nest_groups_by_other_components() {
        let s = schema(&["A", "B"]);
        let f = flat(s, &[&[1, 10], &[2, 10], &[3, 20]]);
        let nested = nest(&NfRelation::from_flat(&f), 0);
        let expected = NfRelation::from_tuples(
            f.schema().clone(),
            vec![t(&[&[1, 2], &[10]]), t(&[&[3], &[20]])],
        )
        .unwrap();
        assert_eq!(nested, expected);
    }

    #[test]
    fn nest_preserves_expansion() {
        let s = schema(&["A", "B", "C"]);
        let f = flat(
            s,
            &[&[1, 10, 100], &[2, 10, 100], &[1, 20, 100], &[2, 20, 200]],
        );
        let nested = nest(&NfRelation::from_flat(&f), 1);
        assert_eq!(nested.expand(), f);
    }

    #[test]
    fn nest_is_idempotent() {
        let s = schema(&["A", "B"]);
        let f = flat(s, &[&[1, 10], &[2, 10], &[3, 20]]);
        let once = nest(&NfRelation::from_flat(&f), 0);
        let twice = nest(&once, 0);
        assert_eq!(once, twice);
    }

    #[test]
    fn unnest_inverts_nest_on_flat_relations() {
        let s = schema(&["A", "B"]);
        let f = flat(s, &[&[1, 10], &[2, 10], &[3, 20]]);
        let nested = nest(&NfRelation::from_flat(&f), 0);
        let unnested = unnest(&nested, 0);
        assert_eq!(unnested.expand(), f);
        assert_eq!(unnested.tuple_count(), 3);
    }

    #[test]
    fn canonicalize_example1_order_a_first() {
        // Example 1: R = {(a1,b1),(a2,b1),(a2,b2),(a3,b2)}.
        // Composing over A gives R1 = {[A(a1,a2) B(b1)], [A(a2,a3) B(b2)]}.
        let s = schema(&["A", "B"]);
        let f = flat(s, &[&[1, 11], &[2, 11], &[2, 12], &[3, 12]]);
        let order = NestOrder::identity(2); // nest A first, then B
        let r1 = canonical_of_flat(&f, &order);
        let expected = NfRelation::from_tuples(
            f.schema().clone(),
            vec![t(&[&[1, 2], &[11]]), t(&[&[2, 3], &[12]])],
        )
        .unwrap();
        assert_eq!(r1, expected);
    }

    #[test]
    fn canonical_forms_differ_across_orders() {
        // Example 1 under nest-B-first yields a 3-tuple irreducible form
        // different from nest-A-first's 2-tuple form... B-first:
        // νB: a1:{b1}, a2:{b1,b2}, a3:{b2} → νA merges none (B-sets differ).
        let s = schema(&["A", "B"]);
        let f = flat(s, &[&[1, 11], &[2, 11], &[2, 12], &[3, 12]]);
        let b_first = NestOrder::new(vec![1, 0], 2).unwrap();
        let r2 = canonical_of_flat(&f, &b_first);
        let expected = NfRelation::from_tuples(
            f.schema().clone(),
            vec![t(&[&[1], &[11]]), t(&[&[2], &[11, 12]]), t(&[&[3], &[12]])],
        )
        .unwrap();
        assert_eq!(r2, expected);
        let a_first = NestOrder::identity(2);
        assert_ne!(r2, canonical_of_flat(&f, &a_first));
    }

    #[test]
    fn canonical_preserves_expansion_for_all_orders() {
        let s = schema(&["A", "B", "C"]);
        let f = flat(
            s,
            &[
                &[1, 11, 21],
                &[1, 12, 21],
                &[2, 11, 22],
                &[2, 12, 21],
                &[1, 11, 22],
            ],
        );
        for order in NestOrder::all(3) {
            let c = canonical_of_flat(&f, &order);
            assert_eq!(c.expand(), f, "order {order}");
            assert!(is_canonical(&c, &order));
        }
    }

    #[test]
    fn theorem2_pairwise_order_does_not_matter() {
        // Merge pairs in several different orders; the ν_E fixpoint must
        // always equal the group-by nest.
        let s = schema(&["A", "B", "C"]);
        let f = flat(
            s,
            &[
                &[1, 11, 21],
                &[2, 11, 21],
                &[3, 11, 21],
                &[1, 12, 21],
                &[2, 12, 22],
            ],
        );
        let base = NfRelation::from_flat(&f);
        let expected = nest(&base, 0);
        // first-pair strategy
        assert_eq!(nest_pairwise(&base, 0, |_| 0), expected);
        // last-pair strategy
        assert_eq!(nest_pairwise(&base, 0, |k| k - 1), expected);
        // pseudo-random strategy
        let mut state = 7usize;
        assert_eq!(
            nest_pairwise(&base, 0, move |k| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state % k
            }),
            expected
        );
    }

    #[test]
    fn is_nested_over_detects_fixpoints() {
        let s = schema(&["A", "B"]);
        let f = flat(s, &[&[1, 11], &[2, 11]]);
        let base = NfRelation::from_flat(&f);
        assert!(!is_nested_over(&base, 0));
        let nested = nest(&base, 0);
        assert!(is_nested_over(&nested, 0));
    }

    #[test]
    fn canonical_of_empty_is_empty() {
        let s = schema(&["A", "B"]);
        let f = FlatRelation::new(s);
        let c = canonical_of_flat(&f, &NestOrder::identity(2));
        assert!(c.is_empty());
    }
}
