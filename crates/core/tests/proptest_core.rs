//! Property-based tests for the NF² core model.
//!
//! These encode the paper's theorems as executable laws over randomly
//! generated relations:
//!
//! * Theorem 1 — `R*` is invariant under composition/decomposition;
//! * Theorem 2 — the nest fixpoint is unique regardless of composition
//!   order;
//! * Def. 5 — canonical forms are irreducible;
//! * §4 — incremental insert/delete equals re-nesting from scratch;
//! * Theorem 5 — a canonical form is fixed on all attributes but the
//!   first-nested one;
//! * D1 — every public operation preserves the partition invariant;
//! * §3.1 — a component is a set: `ValueSet` against a `BTreeSet` model,
//!   across the boundary between its two representations; and so is a
//!   1NF relation: `FlatRelation` against a `BTreeSet` of rows;
//! * §3.1 — a domain's elements are interned as atoms: the `Dictionary`
//!   arena against a `Vec<String>` and a `HashMap` model.

use proptest::prelude::*;

use nf2_core::error::NfError;
use nf2_core::irreducible::{is_irreducible, reduce, ReduceStrategy};
use nf2_core::maintenance::{CanonicalRelation, CostCounter};
use nf2_core::nest::{canonical_of_flat, nest, nest_pairwise, unnest};
use nf2_core::properties::is_fixed_on;
use nf2_core::relation::{FlatRelation, NfRelation};
use nf2_core::schema::{NestOrder, Schema};
use nf2_core::tuple::{NfTuple, ValueSet};
use nf2_core::value::{Atom, Dictionary, PAGE_BYTES};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A random small flat relation: arity 2–4, values per attribute 1–4,
/// up to 24 rows.
fn arb_flat() -> impl Strategy<Value = FlatRelation> {
    (2usize..=4)
        .prop_flat_map(|arity| {
            let row = proptest::collection::vec(0u32..4, arity);
            proptest::collection::vec(row, 0..24).prop_map(move |rows| (arity, rows))
        })
        .prop_map(|(arity, rows)| {
            let names: Vec<String> = (0..arity).map(|i| format!("E{i}")).collect();
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let schema = Schema::new("R", &name_refs).unwrap();
            FlatRelation::from_rows(
                schema,
                rows.into_iter().map(|r| {
                    r.into_iter()
                        .enumerate()
                        // Offset values per attribute so domains are disjoint,
                        // mirroring distinct simple domains.
                        .map(|(i, v)| Atom(v + 10 * i as u32))
                        .collect::<Vec<Atom>>()
                }),
            )
            .unwrap()
        })
}

/// A random nest order for a given arity, as a seed-driven permutation.
fn order_from_seed(arity: usize, seed: u64) -> NestOrder {
    let all = NestOrder::all(arity);
    all[(seed as usize) % all.len()].clone()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Theorem 1: nesting never changes the underlying 1NF relation.
    #[test]
    fn nest_preserves_expansion(flat in arb_flat(), attr_seed in 0usize..4, seed in any::<u64>()) {
        let attr = attr_seed % flat.schema().arity();
        let base = NfRelation::from_flat(&flat);
        let nested = nest(&base, attr);
        prop_assert_eq!(nested.expand(), flat.clone());
        let order = order_from_seed(flat.schema().arity(), seed);
        let canon = canonical_of_flat(&flat, &order);
        prop_assert_eq!(canon.expand(), flat);
    }

    /// Theorem 1 (other direction): unnest restores singleton granularity
    /// without changing R*.
    #[test]
    fn unnest_preserves_expansion(flat in arb_flat(), attr_seed in 0usize..4, seed in any::<u64>()) {
        let attr = attr_seed % flat.schema().arity();
        let order = order_from_seed(flat.schema().arity(), seed);
        let canon = canonical_of_flat(&flat, &order);
        let un = unnest(&canon, attr);
        prop_assert!(un.validate().is_ok());
        prop_assert_eq!(un.expand(), flat);
    }

    /// Theorem 2: the ν_E fixpoint does not depend on the order in which
    /// composable pairs are merged.
    #[test]
    fn theorem2_nest_fixpoint_unique(flat in arb_flat(), attr_seed in 0usize..4, seed in any::<u64>()) {
        let attr = attr_seed % flat.schema().arity();
        let base = NfRelation::from_flat(&flat);
        let expected = nest(&base, attr);
        let mut state = seed | 1;
        let random_pick = move |k: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % k
        };
        prop_assert_eq!(nest_pairwise(&base, attr, random_pick), expected);
    }

    /// Canonical forms are irreducible (claim inside Def. 5: "it is easy
    /// to show that VP(R) is irreducible").
    #[test]
    fn canonical_forms_are_irreducible(flat in arb_flat(), seed in any::<u64>()) {
        let order = order_from_seed(flat.schema().arity(), seed);
        let canon = canonical_of_flat(&flat, &order);
        prop_assert!(is_irreducible(&canon));
        prop_assert!(canon.validate().is_ok());
    }

    /// Every reduction strategy reaches an irreducible form with the same
    /// R* (Def. 3), and never more tuples than the flat relation.
    #[test]
    fn reductions_reach_irreducible_forms(flat in arb_flat(), seed in any::<u64>()) {
        let base = NfRelation::from_flat(&flat);
        for strategy in [
            ReduceStrategy::FirstFit,
            ReduceStrategy::Random(seed),
            ReduceStrategy::GreedyLargest,
        ] {
            let r = reduce(&base, strategy);
            prop_assert!(is_irreducible(&r));
            prop_assert!(r.validate().is_ok());
            prop_assert_eq!(r.expand(), flat.clone());
            prop_assert!(r.tuple_count() <= flat.len());
        }
    }

    /// §4 insertion: building a canonical relation row by row equals
    /// nesting the final 1NF relation from scratch — for every nest order.
    #[test]
    fn incremental_insert_matches_oracle(flat in arb_flat(), seed in any::<u64>()) {
        let order = order_from_seed(flat.schema().arity(), seed);
        let mut canon = CanonicalRelation::new(flat.schema().clone(), order.clone()).unwrap();
        for r in flat.rows() {
            prop_assert!(canon.insert(r.to_vec()).unwrap());
        }
        let oracle = canonical_of_flat(&flat, &order);
        prop_assert_eq!(canon.relation(), &oracle);
        prop_assert!(canon.verify().is_ok());
    }

    /// §4 deletion: deleting a random subset incrementally equals nesting
    /// the remaining rows from scratch.
    #[test]
    fn incremental_delete_matches_oracle(
        flat in arb_flat(),
        seed in any::<u64>(),
        keep_mask in any::<u64>(),
    ) {
        let order = order_from_seed(flat.schema().arity(), seed);
        let mut canon = CanonicalRelation::from_flat(&flat, order.clone()).unwrap();
        let mut remaining = Vec::new();
        for (i, r) in flat.rows().enumerate() {
            if keep_mask & (1 << (i % 64)) != 0 {
                remaining.push(r.to_vec());
            } else {
                prop_assert!(canon.delete(r).unwrap());
            }
        }
        let remaining = FlatRelation::from_rows(flat.schema().clone(), remaining).unwrap();
        let oracle = canonical_of_flat(&remaining, &order);
        prop_assert_eq!(canon.relation(), &oracle);
    }

    /// Theorem 5: the canonical form is fixed on every attribute set that
    /// excludes the first-nested attribute — in particular on U − E_first.
    #[test]
    fn theorem5_fixed_on_complement_of_first_nested(flat in arb_flat(), seed in any::<u64>()) {
        let arity = flat.schema().arity();
        let order = order_from_seed(arity, seed);
        let canon = canonical_of_flat(&flat, &order);
        let rest: Vec<usize> = (0..arity).filter(|&a| a != order.attr_at(0)).collect();
        prop_assert!(
            is_fixed_on(&canon, &rest),
            "canonical for {} must be fixed on {:?}",
            order,
            rest
        );
    }

    /// Mixed random workload equivalence, the strongest §4 law: any
    /// interleaving of inserts and deletes tracks the from-scratch oracle.
    #[test]
    fn mixed_workload_matches_oracle(
        flat in arb_flat(),
        ops in proptest::collection::vec((any::<bool>(), proptest::collection::vec(0u32..4, 4)), 0..30),
        seed in any::<u64>(),
    ) {
        let arity = flat.schema().arity();
        let order = order_from_seed(arity, seed);
        let mut canon = CanonicalRelation::from_flat(&flat, order.clone()).unwrap();
        let mut shadow: BTreeSet<Vec<Atom>> = flat.rows().map(<[Atom]>::to_vec).collect();
        for (is_insert, raw) in ops {
            let row: Vec<Atom> = raw
                .iter()
                .take(arity)
                .enumerate()
                .map(|(i, &v)| Atom(v + 10 * i as u32))
                .collect();
            if is_insert {
                let expected = !shadow.contains(&row);
                prop_assert_eq!(canon.insert(row.clone()).unwrap(), expected);
                shadow.insert(row);
            } else {
                let expected = shadow.contains(&row);
                prop_assert_eq!(canon.delete(&row).unwrap(), expected);
                shadow.remove(&row);
            }
        }
        let shadow = FlatRelation::from_rows(flat.schema().clone(), shadow).unwrap();
        prop_assert_eq!(canon.relation(), &canonical_of_flat(&shadow, &order));
    }

    /// Cost counters are monotone and structural ops stay plausibly
    /// bounded by the Theorem A-4 budget (loose sanity bound: exponential
    /// in arity, never proportional to rows).
    #[test]
    fn costs_bounded_by_degree_budget(flat in arb_flat(), seed in any::<u64>()) {
        let arity = flat.schema().arity();
        let order = order_from_seed(arity, seed);
        let mut canon = CanonicalRelation::new(flat.schema().clone(), order).unwrap();
        let mut worst = 0u64;
        for r in flat.rows() {
            let mut cost = CostCounter::new();
            canon.insert_counted(r, &mut cost).unwrap();
            worst = worst.max(cost.structural_ops());
        }
        // Theorem A-4: ops bounded by a function of arity alone. With
        // arity ≤ 4 and domains of 4 values the observed worst case is far
        // below this loose budget; what matters is it cannot scale with
        // rows (24 max here, bound stays fixed as row count grows).
        let budget = 3u64.saturating_pow(arity as u32 + 2);
        prop_assert!(worst <= budget, "worst {} exceeds degree budget {}", worst, budget);
    }

    /// Bulk maintenance: a random op stream applied by §4 replay and by
    /// the re-nest oracle lands on the same canonical vector (and it
    /// verifies). The keyed procedure joins them in
    /// `keyed_batches_agree_with_replay_and_renest` below.
    #[test]
    fn bulk_strategies_agree(
        flat in arb_flat(),
        raw_ops in proptest::collection::vec((any::<bool>(), proptest::collection::vec(0u32..4, 4)), 0..30),
        seed in any::<u64>(),
    ) {
        use nf2_core::bulk::{apply_batch, rebuild_batch, Op};
        let arity = flat.schema().arity();
        let order = order_from_seed(arity, seed);
        let base = CanonicalRelation::from_flat(&flat, order).unwrap();
        let ops: Vec<Op> = raw_ops
            .into_iter()
            .map(|(is_insert, vals)| {
                let row: Vec<Atom> = vals
                    .into_iter()
                    .take(arity)
                    .enumerate()
                    .map(|(i, v)| Atom(v + 10 * i as u32))
                    .collect();
                if is_insert { Op::Insert(row) } else { Op::Delete(row) }
            })
            .collect();

        let mut incremental = base.clone();
        let mut cost = CostCounter::new();
        apply_batch(&mut incremental, &ops, &mut cost).unwrap();
        incremental.verify().unwrap();

        let rebuilt = rebuild_batch(&base, &ops).unwrap();
        prop_assert_eq!(incremental.relation().tuples(), rebuilt.relation().tuples());
    }
}

/// The validator's reference: every pair of tuples, in tuple order —
/// what [`NfRelation::validate`] did before it compared only the tuples
/// sharing a value on one attribute.
fn validate_all_pairs(arity: usize, tuples: &[NfTuple]) -> Result<(), NfError> {
    for t in tuples {
        if t.arity() != arity {
            return Err(NfError::ArityMismatch {
                expected: arity,
                got: t.arity(),
            });
        }
    }
    for i in 0..tuples.len() {
        for j in (i + 1)..tuples.len() {
            if tuples[i] == tuples[j] {
                return Err(NfError::DuplicateFlatTuple);
            }
            if tuples[i].overlaps(&tuples[j]) {
                return Err(NfError::OverlappingTuples);
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `validate` agrees with the all-pairs loop — same verdict, same
    /// error when several pairs conflict — on a canonical (valid) tuple
    /// vector with random rectangles, copies of existing tuples and
    /// sometimes a wrong-arity tuple spliced in anywhere.
    #[test]
    fn validate_matches_the_all_pairs_loop(
        flat in arb_flat(),
        seed in any::<u64>(),
        extra in proptest::collection::vec(
            (proptest::collection::vec(proptest::collection::vec(0u32..4, 1..=3), 4), any::<usize>()),
            0..4,
        ),
        copies in proptest::collection::vec((any::<usize>(), any::<usize>()), 0..3),
        short in (any::<usize>(), 0u8..6),
    ) {
        let arity = flat.schema().arity();
        let mut tuples = canonical_of_flat(&flat, &order_from_seed(arity, seed)).into_tuples();
        prop_assert_eq!(validate_all_pairs(arity, &tuples), Ok(()));
        let rect = |comps: &[Vec<u32>], take: usize| -> NfTuple {
            comps
                .iter()
                .take(take)
                .enumerate()
                .map(|(i, vs)| {
                    let atoms = vs.iter().map(|&v| Atom(v + 10 * i as u32)).collect();
                    ValueSet::new(atoms).expect("1..=3 values")
                })
                .collect()
        };
        for (comps, at) in &extra {
            tuples.insert(at % (tuples.len() + 1), rect(comps, arity));
        }
        for &(from, at) in &copies {
            if !tuples.is_empty() {
                let copy = tuples[from % tuples.len()].clone();
                tuples.insert(at % (tuples.len() + 1), copy);
            }
        }
        if short.1 == 0 {
            let t = rect(&[vec![0], vec![0], vec![0], vec![0]], arity - 1);
            tuples.insert(short.0 % (tuples.len() + 1), t);
        }
        let expected = validate_all_pairs(arity, &tuples);
        let got = NfRelation::from_tuples(flat.schema().clone(), tuples).map(|_| ());
        prop_assert_eq!(got, expected);
    }
}

/// Build of Arc<Schema> must be cheap to clone across relations — sanity
/// compile-time usage of shared schemas in tests.
#[test]
fn shared_schema_across_relations() {
    let schema = Schema::new("R", &["A", "B"]).unwrap();
    let f1 = FlatRelation::new(schema.clone());
    let f2 = FlatRelation::new(schema.clone());
    assert!(Arc::ptr_eq(f1.schema(), f2.schema()));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The three batch procedures are one function: for arity 1–4, every
    /// nest order, one shard and four, and op streams dense in
    /// duplicates, absent deletes and rows inserted and taken back
    /// inside the batch, the keyed batch ≡ §4 replay ≡ the kernel's
    /// vector for the resulting rows — tuple for tuple, in kernel order,
    /// per shard — with the sequential `BatchSummary` and segments that
    /// tile the result exactly.
    #[test]
    fn keyed_batches_agree_with_replay_and_renest(
        arity in 1usize..=4,
        rows in proptest::collection::vec(proptest::collection::vec(0u32..4, 4), 0..24),
        raw_ops in proptest::collection::vec((0u8..3, proptest::collection::vec(0u32..4, 4)), 0..30),
    ) {
        use nf2_core::bulk::{apply_batch, rebuild_batch, Op};
        use nf2_core::shard::{ShardSpec, ShardedCanonical};
        let names: Vec<String> = (0..arity).map(|i| format!("E{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let schema = Schema::new("R", &name_refs).unwrap();
        let row = |vals: &[u32]| -> Vec<Atom> {
            vals.iter().take(arity).enumerate().map(|(i, &v)| Atom(v + 10 * i as u32)).collect()
        };
        let flat = FlatRelation::from_rows(schema, rows.iter().map(|r| row(r))).unwrap();
        let mut ops: Vec<Op> = Vec::new();
        for (kind, vals) in &raw_ops {
            match kind {
                0 => ops.push(Op::Insert(row(vals))),
                1 => ops.push(Op::Delete(row(vals))),
                _ => ops.extend([Op::Insert(row(vals)), Op::Delete(row(vals))]),
            }
        }
        for order in NestOrder::all(arity) {
            let base = CanonicalRelation::from_flat(&flat, order.clone()).unwrap();
            let mut replayed = base.clone();
            let summary = apply_batch(&mut replayed, &ops, &mut CostCounter::new()).unwrap();
            let renested = rebuild_batch(&base, &ops).unwrap();
            prop_assert_eq!(replayed.relation().tuples(), renested.relation().tuples());
            for shards in [1usize, 4] {
                let spec = ShardSpec::hash(shards).unwrap();
                let mut keyed = ShardedCanonical::from_flat(&flat, order.clone(), spec).unwrap();
                keyed.set_segment_rows(3);
                let report = keyed.apply_batch(&ops).unwrap();
                prop_assert_eq!(report.summary, summary, "order {} shards {}", &order, shards);
                // Per shard: the kernel's vector for the shard's rows,
                // segments an exact encoding of it; merged: ν_P(R*).
                keyed.verify().unwrap();
                prop_assert_eq!(&keyed.to_relation(), replayed.relation());
                if shards == 1 {
                    prop_assert_eq!(
                        keyed.shard(0).relation().tuples(),
                        replayed.relation().tuples(),
                        "order {}", &order
                    );
                }
            }
        }
    }
}

/// The members of a set as the model sees them.
fn model_of(set: Option<&ValueSet>) -> BTreeSet<u32> {
    set.map_or_else(BTreeSet::new, |s| s.iter().map(Atom::id).collect())
}

fn hash_of(set: &ValueSet) -> u64 {
    let mut hasher = DefaultHasher::new();
    set.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `ValueSet` against a `BTreeSet<u32>` model. Vectors of 0–10 atoms
    /// over 12 values put operands on both sides of the inline capacity
    /// (4) and make results cross it in both directions; whatever route
    /// built a set, it is one value: equal members are `==`, `Equal`,
    /// hash alike and print alike, and the order is the member slices'.
    #[test]
    fn value_sets_agree_with_the_set_model(
        xs in proptest::collection::vec(0u32..12, 0..=10),
        ys in proptest::collection::vec(0u32..12, 0..=10),
        probe in 0u32..12,
    ) {
        let atoms = |ids: &[u32]| -> Vec<Atom> { ids.iter().copied().map(Atom).collect() };
        let (mx, my): (BTreeSet<u32>, BTreeSet<u32>) =
            (xs.iter().copied().collect(), ys.iter().copied().collect());
        let (x, y) = (ValueSet::new(atoms(&xs)), ValueSet::new(atoms(&ys)));
        prop_assert_eq!(model_of(x.as_ref()), mx.clone());
        prop_assert_eq!(x.is_none(), xs.is_empty());
        prop_assume!(!xs.is_empty() && !ys.is_empty());
        let (x, y) = (x.unwrap(), y.unwrap());
        prop_assert!(x.as_slice().windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(x.len(), mx.len());
        prop_assert_eq!(x.contains(Atom(probe)), mx.contains(&probe));
        prop_assert_eq!(x.is_subset_of(&y), mx.is_subset(&my));
        prop_assert_eq!(x.is_disjoint_from(&y), mx.is_disjoint(&my));
        prop_assert_eq!(model_of(Some(&x.union(&y))), &mx | &my);
        prop_assert_eq!(model_of(x.intersection(&y).as_ref()), &mx & &my);
        prop_assert_eq!(model_of(x.difference(&y).as_ref()), &mx - &my);
        prop_assert_eq!(x.cmp(&y), x.as_slice().cmp(y.as_slice()));
        prop_assert_eq!(x == y, mx == my);

        // The same members by other routes: the vector reversed, a union
        // with a subset of itself, an intersection of two larger sets.
        let mut routes = vec![ValueSet::new(atoms(&xs).into_iter().rev().collect()).unwrap()];
        routes.push(x.union(&ValueSet::singleton(x.as_slice()[0])));
        if let Some(rest) = y.difference(&x) {
            // (x ∪ rest) ∩ (x ∪ {12, 13, …}) = x, both operands larger.
            let fresh = ValueSet::new((12..18).map(Atom).collect()).unwrap();
            routes.push(x.union(&rest).intersection(&x.union(&fresh)).unwrap());
        }
        for other in &routes {
            prop_assert_eq!(other, &x);
            prop_assert_eq!(other.cmp(&x), std::cmp::Ordering::Equal);
            prop_assert_eq!(hash_of(other), hash_of(&x));
            prop_assert_eq!(format!("{other:?}"), format!("{x:?}"));
        }
        prop_assert_eq!(format!("{x:?}"), format!("ValueSet({:?})", x.as_slice()));
    }

    /// `FlatRelation` against a `BTreeSet` model. Built from every row
    /// one to three times, shuffled, it holds the model's rows in the
    /// model's (lexicographic) order, each once; `contains` answers as
    /// the model does for rows present and absent (value 4 is in no
    /// row); and the canonical form of it expands back to the model
    /// (Theorem 1).
    #[test]
    fn flat_relations_agree_with_the_set_model(
        rows in proptest::collection::vec((proptest::collection::vec(0u32..4, 3), 1usize..=3), 0..24),
        probes in proptest::collection::vec(proptest::collection::vec(0u32..5, 3), 0..12),
        seed in any::<u64>(),
    ) {
        let atoms = |ids: &[u32]| -> Vec<Atom> { ids.iter().copied().map(Atom).collect() };
        let model: BTreeSet<Vec<Atom>> = rows.iter().map(|(row, _)| atoms(row)).collect();
        let mut input: Vec<Vec<Atom>> = rows
            .iter()
            .flat_map(|(row, times)| std::iter::repeat_n(atoms(row), *times))
            .collect();
        let mut state = seed | 1;
        for at in (1..input.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            input.swap(at, (state >> 33) as usize % (at + 1));
        }
        let schema = Schema::new("R", &["A", "B", "C"]).unwrap();
        let flat = FlatRelation::from_rows(schema, input).unwrap();
        prop_assert_eq!(flat.len(), model.len());
        prop_assert_eq!(flat.is_empty(), model.is_empty());
        prop_assert!(flat.rows().eq(model.iter().map(Vec::as_slice)));
        for row in model.iter().cloned().chain(probes.iter().map(|p| atoms(p))) {
            prop_assert_eq!(flat.contains(&row), model.contains(&row), "{:?}", row);
        }
        let canon = canonical_of_flat(&flat, &order_from_seed(3, seed));
        prop_assert!(canon.expand().rows().eq(model.iter().map(Vec::as_slice)));
    }
}

/// One step of a dictionary's life.
#[derive(Debug, Clone)]
enum DictStep {
    Intern(String),
    Lookup(String),
    Resolve(u32),
    /// Take a copy of the live dictionary.
    Copy,
    /// Bring the copy up to the live dictionary.
    CatchUp,
}

/// Names that stress the arena: the empty name, short ASCII names,
/// multi-byte UTF-8, names longer than a page, and names that differ
/// only in their first or only in their last byte (short and long).
fn arb_dict_name() -> impl Strategy<Value = String> {
    let differing = |base: String, first: bool, byte: u8| {
        let mut bytes = base.into_bytes();
        let at = if first { 0 } else { bytes.len() - 1 };
        bytes[at] = b'a' + byte;
        String::from_utf8(bytes).unwrap()
    };
    prop_oneof![
        Just(String::new()),
        (0u32..24).prop_map(|i| format!("n{i}")),
        (0usize..6).prop_map(|i| ["é", "日本", "🦀", "ß", "Ω≈", "a\u{301}"][i].to_owned()),
        (any::<bool>(), 0u8..3).prop_map(move |(first, byte)| differing(
            "y".repeat(PAGE_BYTES + 3),
            first,
            byte
        )),
        (any::<bool>(), 0u8..4).prop_map(move |(first, byte)| differing(
            "k".repeat(15),
            first,
            byte
        )),
    ]
}

fn arb_dict_step() -> impl Strategy<Value = DictStep> {
    prop_oneof![
        arb_dict_name().prop_map(DictStep::Intern),
        arb_dict_name().prop_map(DictStep::Intern),
        arb_dict_name().prop_map(DictStep::Lookup),
        (0u32..64).prop_map(DictStep::Resolve),
        Just(DictStep::Copy),
        Just(DictStep::CatchUp),
    ]
}

/// The model of a dictionary: its names in atom order, the atom of each,
/// and whether the names were interned in strictly ascending order.
#[derive(Clone, Default)]
struct DictModel {
    names: Vec<String>,
    ids: HashMap<String, Atom>,
    ordered: bool,
}

impl DictModel {
    fn intern(&mut self, name: &str) -> Atom {
        if let Some(&atom) = self.ids.get(name) {
            return atom;
        }
        if self.names.last().is_some_and(|last| name < last.as_str()) {
            self.ordered = false;
        }
        let atom = Atom(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.ids.insert(name.to_owned(), atom);
        atom
    }

    /// Whether `dict` holds exactly the model's names, each at its atom,
    /// and the model's order flag.
    fn agrees(&self, dict: &Dictionary) -> bool {
        dict.len() == self.names.len()
            && dict.is_id_ordered() == self.ordered
            && dict.names().eq(self.names.iter().map(String::as_str))
            && self.names.iter().enumerate().all(|(id, name)| {
                dict.resolve(Atom(id as u32)) == Some(name.as_str())
                    && dict.lookup(name) == Some(Atom(id as u32))
            })
            && dict.resolve(Atom(self.names.len() as u32)).is_none()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The arena against a `Vec<String>` + `HashMap` model: intern,
    /// lookup and resolve answer as the model does, ids are dense in
    /// first-intern order, `is_id_ordered` is exact, and a copy — taken
    /// by `clone`, brought forward by `catch_up` — holds the model's
    /// names as of its last step, whatever the live dictionary did since.
    #[test]
    fn dictionaries_agree_with_the_vec_and_map_model(
        steps in proptest::collection::vec(arb_dict_step(), 0..48),
    ) {
        let mut live = Dictionary::new();
        let mut model = DictModel { ordered: true, ..DictModel::default() };
        let (mut copy, mut copy_model) = (live.clone(), model.clone());
        for step in &steps {
            match step {
                DictStep::Intern(name) => {
                    prop_assert_eq!(live.intern(name), model.intern(name));
                }
                DictStep::Lookup(name) => {
                    prop_assert_eq!(live.lookup(name), model.ids.get(name).copied());
                }
                DictStep::Resolve(id) => {
                    let expected = model.names.get(*id as usize).map(String::as_str);
                    prop_assert_eq!(live.resolve(Atom(*id)), expected);
                }
                DictStep::Copy => (copy, copy_model) = (live.clone(), model.clone()),
                DictStep::CatchUp => {
                    copy.catch_up(&live);
                    copy_model = model.clone();
                }
            }
            prop_assert_eq!(live.len(), model.names.len());
            prop_assert_eq!(live.is_id_ordered(), model.ordered);
        }
        prop_assert!(model.agrees(&live));
        prop_assert!(copy_model.agrees(&copy));
    }
}
