//! Irreducible forms (Definition 3) and minimal-partition search.
//!
//! A relation is *irreducible* when no further composition applies without
//! first decomposing. Example 1 shows irreducible forms are not unique and
//! can differ in size; Example 2 shows an irreducible form can be strictly
//! smaller than *every* canonical form. Finding the minimum number of NF²
//! tuples is a minimum partition of `R*` into combinatorial rectangles —
//! we provide greedy/random reduction strategies plus an exact
//! branch-and-bound search for small relations.

use crate::compose::{composable_over, compose, find_composable_pair};
use crate::relation::{FlatRelation, NfRelation};
use crate::tuple::{NfTuple, ValueSet};
use crate::value::Atom;

/// Whether no composition applies to any pair of tuples (Def. 3).
pub fn is_irreducible(rel: &NfRelation) -> bool {
    find_composable_pair(rel.tuples()).is_none()
}

/// Strategy for choosing which composable pair to merge next while
/// reducing a relation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceStrategy {
    /// Always merge the first composable pair in scan order.
    /// Deterministic; mirrors a naive implementation.
    FirstFit,
    /// Merge a pseudo-randomly chosen composable pair, seeded for
    /// reproducibility. Samples the space of irreducible forms.
    Random(u64),
    /// Merge the pair whose merged tuple covers the most flat tuples,
    /// a greedy heuristic towards small irreducible forms.
    GreedyLargest,
}

/// Applies compositions until irreducible, choosing pairs by `strategy`.
///
/// The result is always an irreducible form of the same `R*` (Def. 3);
/// which one depends on the strategy — that non-uniqueness is the point of
/// Example 1.
pub fn reduce(rel: &NfRelation, strategy: ReduceStrategy) -> NfRelation {
    let mut tuples: Vec<NfTuple> = rel.tuples().to_vec();
    let mut rng_state = match strategy {
        ReduceStrategy::Random(seed) => seed ^ 0x9e3779b97f4a7c15,
        _ => 0,
    };
    loop {
        let mut pairs: Vec<(usize, usize, usize)> = Vec::new();
        for i in 0..tuples.len() {
            for j in (i + 1)..tuples.len() {
                if let Some(attr) = composable_over(&tuples[i], &tuples[j]) {
                    pairs.push((i, j, attr));
                    if matches!(strategy, ReduceStrategy::FirstFit) {
                        break;
                    }
                }
            }
            if matches!(strategy, ReduceStrategy::FirstFit) && !pairs.is_empty() {
                break;
            }
        }
        if pairs.is_empty() {
            break;
        }
        let (i, j, attr) = match strategy {
            ReduceStrategy::FirstFit => pairs[0],
            ReduceStrategy::Random(_) => {
                rng_state = rng_state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                pairs[(rng_state >> 33) as usize % pairs.len()]
            }
            ReduceStrategy::GreedyLargest => *pairs
                .iter()
                .max_by_key(|(i, j, _)| tuples[*i].expansion_count() + tuples[*j].expansion_count())
                .expect("pairs is non-empty"),
        };
        let merged = compose(&tuples[i], &tuples[j], attr).expect("pair pre-checked");
        tuples.swap_remove(j); // j > i: i stays valid
        tuples.swap_remove(i);
        tuples.push(merged);
    }
    NfRelation::from_tuples_unchecked(rel.schema().clone(), tuples)
}

/// The bitmask of rows a rectangle covers, or `None` if it reaches
/// outside `rows` — if fewer rows lie in it than it expands to.
fn rect_mask(tuple: &NfTuple, rows: &FlatRelation) -> Option<u32> {
    let mut mask = 0u32;
    for (i, r) in rows.rows().enumerate() {
        if tuple.contains_flat(r) {
            mask |= 1 << i;
        }
    }
    (u128::from(mask.count_ones()) == tuple.expansion_count()).then_some(mask)
}

/// All rectangles inside `rows` that contain the pivot row, avoid already
/// covered rows, sorted largest first.
fn rectangles_through(
    rows: &FlatRelation,
    covered: u32,
    pivot: usize,
    n: usize,
) -> Vec<(NfTuple, u32)> {
    let pivot_row = rows.block().row(pivot);
    // Candidate values per attribute among uncovered rows.
    let mut per_attr: Vec<Vec<Atom>> = vec![Vec::new(); n];
    for (i, r) in rows.rows().enumerate() {
        if covered & (1 << i) != 0 {
            continue;
        }
        for k in 0..n {
            if !per_attr[k].contains(&r[k]) {
                per_attr[k].push(r[k]);
            }
        }
    }
    // Enumerate products of non-empty subsets containing the pivot's
    // value on each attribute.
    let mut result = Vec::new();
    let mut choice: Vec<Vec<Atom>> = vec![Vec::new(); n];
    #[allow(clippy::too_many_arguments)]
    fn rec(
        k: usize,
        n: usize,
        pivot_row: &[Atom],
        per_attr: &[Vec<Atom>],
        choice: &mut Vec<Vec<Atom>>,
        rows: &FlatRelation,
        covered: u32,
        pivot: usize,
        out: &mut Vec<(NfTuple, u32)>,
    ) {
        if k == n {
            let comps: Vec<ValueSet> = choice
                .iter()
                .map(|c| ValueSet::new(c.clone()).expect("choice sets non-empty"))
                .collect();
            let t = NfTuple::new(comps);
            if let Some(mask) = rect_mask(&t, rows) {
                if mask & covered == 0 && mask & (1 << pivot) != 0 {
                    out.push((t, mask));
                }
            }
            return;
        }
        let others: Vec<Atom> = per_attr[k]
            .iter()
            .copied()
            .filter(|v| *v != pivot_row[k])
            .collect();
        let m = others.len().min(16);
        for bits in 0..(1u32 << m) {
            let mut set = vec![pivot_row[k]];
            for (b, v) in others.iter().take(m).enumerate() {
                if bits & (1 << b) != 0 {
                    set.push(*v);
                }
            }
            choice[k] = set;
            rec(
                k + 1,
                n,
                pivot_row,
                per_attr,
                choice,
                rows,
                covered,
                pivot,
                out,
            );
        }
        choice[k].clear();
    }
    rec(
        0,
        n,
        pivot_row,
        &per_attr,
        &mut choice,
        rows,
        covered,
        pivot,
        &mut result,
    );
    result.sort_by_key(|(_, mask)| std::cmp::Reverse(mask.count_ones()));
    result
}

/// Exact minimum partition of a 1NF relation into NF² tuples
/// (rectangles), by branch-and-bound.
///
/// Every partition of `R*` into rectangles is reachable from the singleton
/// NFR by compositions, so this is the true "minimum NFR" the paper calls
/// hard to find (§4: "it's hard to find the minimum NFR"). Exponential —
/// intended for `|R*|` up to a few dozen flat tuples (Example 2 has 6).
pub fn minimum_partition(flat: &FlatRelation) -> NfRelation {
    let rows = flat;
    if rows.is_empty() {
        return NfRelation::new(flat.schema().clone());
    }
    assert!(
        rows.len() <= 24,
        "minimum_partition is exponential; got {} rows (max 24)",
        rows.len()
    );
    let n = flat.schema().arity();
    let full: u32 = (1u32 << rows.len()) - 1;

    // Upper bound from the best greedy reduction over a few strategies.
    let base = NfRelation::from_flat(flat);
    let mut best: Vec<NfTuple> = reduce(&base, ReduceStrategy::GreedyLargest).into_tuples();
    for seed in 0..4u64 {
        let cand = reduce(&base, ReduceStrategy::Random(seed)).into_tuples();
        if cand.len() < best.len() {
            best = cand;
        }
    }

    fn dfs(
        rows: &FlatRelation,
        n: usize,
        covered: u32,
        full: u32,
        current: &mut Vec<NfTuple>,
        best: &mut Vec<NfTuple>,
    ) {
        if covered == full {
            if current.len() < best.len() {
                *best = current.clone();
            }
            return;
        }
        if current.len() + 1 >= best.len() {
            return; // bound: even one more rectangle cannot beat best
        }
        let pivot = (!covered).trailing_zeros() as usize;
        for (t, mask) in rectangles_through(rows, covered, pivot, n) {
            current.push(t);
            dfs(rows, n, covered | mask, full, current, best);
            current.pop();
        }
    }

    let mut current = Vec::new();
    dfs(rows, n, 0, full, &mut current, &mut best);
    NfRelation::from_tuples_unchecked(flat.schema().clone(), best)
}

/// Enumerates **every** partition of `R*` into rectangles — every NFR
/// representing the relation (all points of Fig. 3's universe).
///
/// Severely exponential; capped at 16 rows and `limit` partitions. Used
/// by the Fig. 3 region census (experiment E11).
pub fn enumerate_partitions(flat: &FlatRelation, limit: usize) -> Vec<NfRelation> {
    let rows = flat;
    if rows.is_empty() {
        return vec![NfRelation::new(flat.schema().clone())];
    }
    assert!(
        rows.len() <= 16,
        "enumerate_partitions is severely exponential; got {} rows (max 16)",
        rows.len()
    );
    let n = flat.schema().arity();
    let full: u32 = (1u32 << rows.len()) - 1;
    let mut out = Vec::new();

    fn dfs(
        rows: &FlatRelation,
        n: usize,
        covered: u32,
        full: u32,
        current: &mut Vec<NfTuple>,
        out: &mut Vec<Vec<NfTuple>>,
        limit: usize,
    ) {
        if out.len() >= limit {
            return;
        }
        if covered == full {
            out.push(current.clone());
            return;
        }
        let pivot = (!covered).trailing_zeros() as usize;
        for (t, mask) in rectangles_through(rows, covered, pivot, n) {
            current.push(t);
            dfs(rows, n, covered | mask, full, current, out, limit);
            current.pop();
        }
    }

    let mut current = Vec::new();
    let mut partitions = Vec::new();
    dfs(rows, n, 0, full, &mut current, &mut partitions, limit);
    for tuples in partitions {
        out.push(NfRelation::from_tuples_unchecked(
            flat.schema().clone(),
            tuples,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;
    use std::sync::Arc;

    fn schema(attrs: &[&str]) -> Arc<Schema> {
        Schema::new("R", attrs).unwrap()
    }

    fn flat(schema: Arc<Schema>, rows: &[&[u32]]) -> FlatRelation {
        FlatRelation::from_rows(
            schema,
            rows.iter().map(|r| r.iter().map(|&v| Atom(v)).collect()),
        )
        .unwrap()
    }

    /// The Example 1 instance: rl..r4 over A, B.
    fn example1() -> FlatRelation {
        flat(
            schema(&["A", "B"]),
            &[&[1, 11], &[2, 11], &[2, 12], &[3, 12]],
        )
    }

    /// The Example 2 instance: 6 tuples over A, B, C.
    fn example2() -> FlatRelation {
        flat(
            schema(&["A", "B", "C"]),
            &[
                &[1, 11, 22], // [A(a1) B(b1) C(c2)]
                &[1, 12, 22], // [A(a1) B(b2) C(c2)]
                &[1, 12, 21], // [A(a1) B(b2) C(c1)]
                &[2, 11, 22], // [A(a2) B(b1) C(c2)]
                &[2, 11, 21], // [A(a2) B(b1) C(c1)]
                &[2, 12, 21], // [A(a2) B(b2) C(c1)]
            ],
        )
    }

    #[test]
    fn singleton_relations_with_distinct_rows_can_still_reduce() {
        let base = NfRelation::from_flat(&example1());
        assert!(!is_irreducible(&base));
        let reduced = reduce(&base, ReduceStrategy::FirstFit);
        assert!(is_irreducible(&reduced));
        assert_eq!(reduced.expand(), example1());
    }

    #[test]
    fn example1_has_irreducible_forms_of_sizes_two_and_three() {
        // The paper derives R1 (2 tuples, composing over A) and R2
        // (3 tuples, composing over B first).
        let base = NfRelation::from_flat(&example1());
        let mut sizes = std::collections::HashSet::new();
        for seed in 0..40 {
            let r = reduce(&base, ReduceStrategy::Random(seed));
            assert!(is_irreducible(&r));
            assert_eq!(r.expand(), example1());
            sizes.insert(r.tuple_count());
        }
        assert!(
            sizes.contains(&2),
            "some order reaches the 2-tuple form: {sizes:?}"
        );
        assert!(
            sizes.contains(&3),
            "some order reaches the 3-tuple form: {sizes:?}"
        );
    }

    #[test]
    fn example2_minimum_partition_has_three_tuples() {
        // Example 2: an irreducible form with 3 tuples exists while every
        // canonical form has 4.
        let min = minimum_partition(&example2());
        assert_eq!(min.tuple_count(), 3);
        assert_eq!(min.expand(), example2());
        assert!(is_irreducible(&min));
    }

    #[test]
    fn example2_every_canonical_form_has_four_tuples() {
        use crate::nest::canonical_of_flat;
        use crate::schema::NestOrder;
        let f = example2();
        for order in NestOrder::all(3) {
            let c = canonical_of_flat(&f, &order);
            assert_eq!(c.tuple_count(), 4, "order {order} should give 4 tuples");
        }
    }

    #[test]
    fn greedy_matches_or_beats_first_fit_on_blocks() {
        let f = flat(
            schema(&["A", "B"]),
            &[&[1, 11], &[1, 12], &[2, 11], &[2, 12], &[3, 13]],
        );
        let base = NfRelation::from_flat(&f);
        let greedy = reduce(&base, ReduceStrategy::GreedyLargest);
        assert!(is_irreducible(&greedy));
        assert_eq!(greedy.expand(), f);
        assert!(greedy.tuple_count() <= reduce(&base, ReduceStrategy::FirstFit).tuple_count());
    }

    #[test]
    fn minimum_partition_of_full_grid_is_one_tuple() {
        let f = flat(
            schema(&["A", "B"]),
            &[&[1, 11], &[1, 12], &[2, 11], &[2, 12]],
        );
        let min = minimum_partition(&f);
        assert_eq!(min.tuple_count(), 1);
    }

    #[test]
    fn minimum_partition_of_empty_is_empty() {
        let f = FlatRelation::new(schema(&["A", "B"]));
        assert!(minimum_partition(&f).is_empty());
    }

    #[test]
    fn reduce_on_irreducible_is_identity() {
        let f = flat(schema(&["A", "B"]), &[&[1, 11], &[2, 12]]);
        let base = NfRelation::from_flat(&f);
        assert!(is_irreducible(&base));
        assert_eq!(reduce(&base, ReduceStrategy::FirstFit), base);
    }
}

#[cfg(test)]
mod enumerate_tests {
    use super::*;
    use crate::schema::Schema;

    fn flat2(rows: &[&[u32]]) -> FlatRelation {
        FlatRelation::from_rows(
            Schema::new("R", &["A", "B"]).unwrap(),
            rows.iter().map(|r| r.iter().map(|&v| Atom(v)).collect()),
        )
        .unwrap()
    }

    #[test]
    fn enumerate_covers_singletons_and_merged_forms() {
        // Two composable rows: exactly two partitions — split and merged.
        let f = flat2(&[&[1, 10], &[2, 10]]);
        let parts = enumerate_partitions(&f, 1000);
        assert_eq!(parts.len(), 2);
        for p in &parts {
            assert_eq!(p.expand(), f);
            assert!(p.validate().is_ok());
        }
    }

    #[test]
    fn enumerate_respects_limit() {
        let f = flat2(&[&[1, 10], &[2, 10], &[1, 11], &[2, 11]]);
        let parts = enumerate_partitions(&f, 3);
        assert_eq!(parts.len(), 3);
    }

    #[test]
    fn enumerate_of_2x2_grid_counts_partitions() {
        // The 2x2 grid has a known small set of rectangle partitions:
        // 1 full grid, 2 two-row splits (by A or by B),
        // 4 partitions of one pair + two singletons, 1 all-singletons,
        // plus 2 "L-shaped" impossible (not rectangles) — total 8... the
        // exact census is asserted to stay stable as a regression check.
        let f = flat2(&[&[1, 10], &[2, 10], &[1, 11], &[2, 11]]);
        let parts = enumerate_partitions(&f, 10_000);
        for p in &parts {
            assert_eq!(p.expand(), f);
        }
        // Distinct partitions only.
        for (i, a) in parts.iter().enumerate() {
            for b in parts.iter().skip(i + 1) {
                assert_ne!(a, b);
            }
        }
        assert_eq!(parts.len(), 8);
    }

    #[test]
    fn enumerate_empty_relation() {
        let f = flat2(&[]);
        let parts = enumerate_partitions(&f, 10);
        assert_eq!(parts.len(), 1);
        assert!(parts[0].is_empty());
    }
}
