//! Property tests: every algebra operator agrees with its 1NF (flat)
//! semantics on random relations, and rectangle-level fast paths preserve
//! the partition invariant.

use std::collections::BTreeSet;

use proptest::prelude::*;

use nf2_algebra::{difference, intersect, natural_join, project, select_box, union, unnest};
use nf2_core::nest::{canonical_of_flat, nest};
use nf2_core::relation::{FlatRelation, NfRelation};
use nf2_core::schema::{NestOrder, Schema};
use nf2_core::tuple::{FlatTuple, ValueSet};
use nf2_core::value::Atom;

/// Random flat relation over a fixed 3-attribute schema with small
/// domains (so operators hit overlapping values often).
fn arb_flat(name: &'static str) -> impl Strategy<Value = FlatRelation> {
    proptest::collection::vec(proptest::collection::vec(0u32..4, 3), 0..20).prop_map(move |rows| {
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

/// The rows of `flat`, as a set.
fn row_set(flat: &FlatRelation) -> BTreeSet<FlatTuple> {
    flat.rows().map(<[Atom]>::to_vec).collect()
}

fn nested(flat: &FlatRelation, seed: u64) -> NfRelation {
    let orders = NestOrder::all(3);
    canonical_of_flat(flat, &orders[(seed as usize) % orders.len()])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// σ by value box == flat filter.
    #[test]
    fn select_box_matches_flat_filter(flat in arb_flat("R"), seed in any::<u64>(), v in 0u32..4) {
        let rel = nested(&flat, seed);
        let value = Atom(v + 10); // attribute B's domain
        let selected = select_box(&rel, &[(1, ValueSet::singleton(value))]).unwrap();
        let expected: BTreeSet<FlatTuple> =
            flat.rows().filter(|r| r[1] == value).map(<[Atom]>::to_vec).collect();
        prop_assert_eq!(row_set(&selected.expand()), expected);
        prop_assert!(selected.validate().is_ok());
    }

    /// π == flat projection with duplicate elimination, whichever path
    /// (fixed fast path or expansion) was taken.
    #[test]
    fn project_matches_flat_projection(flat in arb_flat("R"), seed in any::<u64>(), keep in 0usize..3) {
        let rel = nested(&flat, seed);
        let p = project(&rel, &[keep], &NestOrder::identity(1)).unwrap();
        let expected: BTreeSet<FlatTuple> = flat.rows().map(|r| vec![r[keep]]).collect();
        prop_assert_eq!(row_set(&p.expand()), expected);
        prop_assert!(p.validate().is_ok());
    }

    /// ∪, −, ∩ == flat set algebra.
    #[test]
    fn set_ops_match_flat_semantics(
        a in arb_flat("R"),
        b in arb_flat("S"),
        seed in any::<u64>(),
    ) {
        let (ra, rb) = (nested(&a, seed), nested(&b, seed.wrapping_add(1)));
        let order = NestOrder::identity(3);

        let u = union(&ra, &rb, &order).unwrap();
        let mut expected = row_set(&a);
        expected.extend(row_set(&b));
        prop_assert_eq!(row_set(&u.expand()), expected);

        let d = difference(&ra, &rb, &order).unwrap();
        let b_rows = row_set(&b);
        let expected: BTreeSet<FlatTuple> =
            a.rows().filter(|r| !b_rows.contains(*r)).map(<[Atom]>::to_vec).collect();
        prop_assert_eq!(row_set(&d.expand()), expected);

        let i = intersect(&ra, &rb).unwrap();
        let expected: BTreeSet<FlatTuple> =
            a.rows().filter(|r| b_rows.contains(*r)).map(<[Atom]>::to_vec).collect();
        prop_assert_eq!(row_set(&i.expand()), expected);
        prop_assert!(i.validate().is_ok());
    }

    /// ⋈ == flat natural join, and the rectangle-level output is a valid
    /// partition without re-nesting.
    #[test]
    fn join_matches_flat_join(a in arb_flat("R"), seed in any::<u64>()) {
        // Join R(A,B,C) with S(C,D): build S from R's C values.
        let ra = nested(&a, seed);
        let schema = Schema::new("S", &["C", "D"]).unwrap();
        let s_flat = FlatRelation::from_rows(
            schema,
            a.rows()
                .map(|r| r[2])
                .collect::<BTreeSet<_>>()
                .into_iter()
                .enumerate()
                .map(|(i, c)| vec![c, Atom(100 + (i as u32 % 2))]),
        )
        .unwrap();
        let rs = canonical_of_flat(&s_flat, &NestOrder::identity(2));

        let joined = natural_join(&ra, &rs).unwrap();
        let mut expected = BTreeSet::new();
        for l in a.rows() {
            for r in s_flat.rows() {
                if l[2] == r[0] {
                    expected.insert(vec![l[0], l[1], l[2], r[1]]);
                }
            }
        }
        prop_assert_eq!(row_set(&joined.expand()), expected);
        prop_assert!(joined.validate().is_ok());
    }

    /// NEST then UNNEST on the same attribute is identity on R*, and
    /// UNNEST of a nested relation has one tuple per (attr value, rest)
    /// combination.
    #[test]
    fn nest_unnest_laws(flat in arb_flat("R"), seed in any::<u64>(), attr in 0usize..3) {
        let rel = nested(&flat, seed);
        let nested_rel = nest(&rel, attr);
        let unnested = unnest(&nested_rel, attr);
        prop_assert_eq!(unnested.expand(), flat);
        // Every unnested tuple has a singleton attr component.
        prop_assert!(unnested
            .tuples()
            .iter()
            .all(|t| t.component(attr).is_singleton()));
    }

    /// Per-tuple `filter_box` over a scan ≡ strict `select_box`, tuple for
    /// tuple — single conjuncts, several attributes, the same attribute
    /// twice, and value sets that miss the data entirely.
    #[test]
    fn filter_box_matches_select_box(
        flat in arb_flat("R"),
        seed in any::<u64>(),
        v in 0u32..4,
        shape in 0usize..4,
    ) {
        use nf2_algebra::stream::filter_box;
        use nf2_algebra::RelStream;
        let rel = nested(&flat, seed);
        let vs = |ids: &[u32]| ValueSet::new(ids.iter().map(|&i| Atom(i)).collect()).unwrap();
        let constraints = match shape {
            0 => vec![(1, vs(&[v + 10, 10]))],
            1 => vec![(1, vs(&[v + 10, 10])), (2, vs(&[20, 21 + v % 3]))],
            2 => vec![(1, vs(&[v + 10, 10, 11])), (1, vs(&[10, 12]))],
            _ => vec![(0, vs(&[99])), (1, vs(&[v + 10]))],
        };
        let strict = select_box(&rel, &constraints).unwrap();
        let kept = RelStream::scan(&rel).filter_map(|t| filter_box(t, &constraints));
        let streamed = RelStream::new(rel.schema().clone(), Box::new(kept))
            .into_relation()
            .unwrap();
        prop_assert_eq!(&strict, &streamed, "shape {}", shape);
        prop_assert!(streamed.validate().is_ok(), "filtering preserved the invariant");
    }

    /// `select_project` ≡ `filter_box` followed by the streaming π's
    /// build, tuple for tuple: conjuncts on attributes π drops and on
    /// attributes it keeps, and several conjuncts on one attribute —
    /// among them two that each meet a `{10, 11}` set but whose folded
    /// intersection is empty, so that tuple is still rejected.
    #[test]
    fn select_project_matches_filter_box_then_project(
        flat in arb_flat("R"),
        seed in any::<u64>(),
        v in 0u32..4,
        shape in 0usize..5,
        keep in 0usize..5,
    ) {
        use nf2_algebra::stream::{filter_box, select_project};
        use nf2_core::tuple::{NfTuple, TupleView};
        let rel = nested(&flat, seed);
        let vs = |ids: &[u32]| ValueSet::new(ids.iter().map(|&i| Atom(i)).collect()).unwrap();
        let constraints = match shape {
            0 => vec![(1, vs(&[v + 10]))],
            1 => vec![(1, vs(&[v + 10, 10])), (2, vs(&[20, 21 + v % 3]))],
            2 => vec![(1, vs(&[v + 10, 10, 11])), (1, vs(&[10, 12]))],
            3 => vec![(1, vs(&[10])), (1, vs(&[11]))],
            _ => vec![(0, vs(&[v])), (2, vs(&[20 + v])), (0, vs(&[0, 1, v]))],
        };
        let attrs: &[usize] = match keep {
            0 => &[0],
            1 => &[2, 0],
            2 => &[1],
            3 => &[0, 1, 2],
            _ => &[2, 1],
        };
        for t in rel.tuples() {
            let fused = select_project(&TupleView::Borrowed(t), &constraints, attrs);
            let apart = filter_box(TupleView::Borrowed(t), &constraints).map(|kept| {
                attrs.iter().map(|&a| kept.as_ref().component(a).to_set()).collect::<NfTuple>()
            });
            prop_assert_eq!(fused, apart, "shape {} keep {}", shape, keep);
        }
    }

    /// The located rule `SelectProject::write` ≡ its references, tuple
    /// for tuple: `filter_box` where it keeps every attribute in order
    /// (and it leaves exactly the tuples `filter_box` keeps whole
    /// unwritten), `select_project` otherwise; every tuple it writes
    /// goes into one block, which reads back what was written.
    #[test]
    fn the_located_rule_matches_filter_box_and_select_project(
        flat in arb_flat("R"),
        seed in any::<u64>(),
        v in 0u32..4,
        shape in 0usize..5,
        keep in 0usize..6,
    ) {
        use std::sync::Arc;
        use nf2_algebra::stream::{filter_box, select_project, SelectProject};
        use nf2_core::chunk::{ChunkBuilder, Rewrite};
        use nf2_core::tuple::{NfTuple, TupleView};
        let rel = nested(&flat, seed);
        let vs = |ids: &[u32]| ValueSet::new(ids.iter().map(|&i| Atom(i)).collect()).unwrap();
        let constraints = match shape {
            0 => vec![(1, vs(&[v + 10]))],
            1 => vec![(1, vs(&[v + 10, 10])), (2, vs(&[20, 21 + v % 3]))],
            2 => vec![(1, vs(&[v + 10, 10, 11])), (1, vs(&[10, 12]))],
            3 => vec![(1, vs(&[10])), (1, vs(&[11]))],
            _ => vec![(0, vs(&[v])), (2, vs(&[20 + v])), (0, vs(&[0, 1, v]))],
        };
        let attrs: Option<&[usize]> = match keep {
            0 => Some(&[0]),
            1 => Some(&[2, 0]),
            2 => Some(&[1]),
            3 => Some(&[0, 1, 2]),
            4 => Some(&[2, 1]),
            _ => None,
        };
        let rule = SelectProject::new(
            constraints.clone(),
            attrs.map(|a| Arc::new(a.to_vec())),
            3,
        );
        // A π keeping every attribute in order is no π.
        let projects = attrs.is_some_and(|a| a != [0, 1, 2]);
        let mut block = ChunkBuilder::empty(rule.arity());
        block.reserve(1, 1);
        let mut written = Vec::new();
        for t in rel.tuples() {
            let reference = match attrs {
                Some(attrs) if projects => {
                    select_project(&TupleView::Borrowed(t), &constraints, attrs)
                }
                _ => filter_box(TupleView::Borrowed(t), &constraints).map(TupleView::into_owned),
            };
            let whole = filter_box(TupleView::Borrowed(t), &constraints)
                .is_some_and(|kept| kept.is_borrowed());
            let got = match rule.write(t.as_ref(), &mut block) {
                Rewrite::Rejected => None,
                Rewrite::Unchanged => {
                    prop_assert!(whole && !projects, "unchanged is filter_box's borrow");
                    Some(t.clone())
                }
                Rewrite::Appended => {
                    prop_assert!(!whole || projects, "a whole tuple σ alone leaves is not copied");
                    let out: NfTuple = block.tuple(block.rows() - 1).into_owned();
                    written.push(out.clone());
                    Some(out)
                }
            };
            prop_assert_eq!(got, reference, "shape {} keep {}", shape, keep);
        }
        let sealed = block.finish();
        prop_assert!(sealed.tuples().eq(written.iter().map(NfTuple::as_ref)));
    }

    /// `JoinLayout::probe` of every left tuple against a materialized
    /// right side ≡ strict `natural_join` — same schema, same tuples in
    /// the same order — with right-only attributes and without.
    #[test]
    fn join_layout_probe_matches_natural_join(
        a in arb_flat("R"),
        b in arb_flat("S"),
        seed in any::<u64>(),
        all_shared in any::<bool>(),
    ) {
        use nf2_algebra::{JoinLayout, RelStream};
        use nf2_core::tuple::TupleView;
        let left = nested(&a, seed);
        let right = if all_shared {
            nested(&b, seed / 3)
        } else {
            // Shares C with the left side, appends D.
            let schema = Schema::new("S", &["C", "D"]).unwrap();
            let rows = b.rows().map(|r| vec![r[2], Atom(r[0].id() + 30)]);
            let flat = FlatRelation::from_rows(schema, rows).unwrap();
            canonical_of_flat(&flat, &NestOrder::all(2)[(seed % 2) as usize])
        };
        let strict = natural_join(&left, &right).unwrap();
        let layout = JoinLayout::of(left.schema(), right.schema()).unwrap();
        let build: Vec<TupleView<'_>> = RelStream::scan(&right).collect();
        let mut joined = Vec::new();
        for l in RelStream::scan(&left) {
            layout.probe(&l, &build, &mut joined);
        }
        let streamed = RelStream::new(layout.schema.clone(), Box::new(joined.into_iter()))
            .into_relation()
            .unwrap();
        prop_assert_eq!(strict.schema().attr_names().collect::<Vec<_>>(),
            streamed.schema().attr_names().collect::<Vec<_>>());
        prop_assert_eq!(&strict, &streamed);
        prop_assert!(streamed.validate().is_ok(), "probing preserved the invariant");
    }
}
