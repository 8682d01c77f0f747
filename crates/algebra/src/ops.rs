//! NF² relational algebra operators.
//!
//! The paper builds on the Jaeschke–Schek algebra of NF² relations
//! (reference \[7\]): ordinary relational operators extended with NEST and
//! UNNEST. Every operator here is defined by its effect on the underlying
//! 1NF relation `R*` (the realization view), with fast tuple-level
//! ("rectangle") implementations used whenever they provably preserve the
//! partition invariant:
//!
//! * selection by per-attribute value sets intersects rectangles directly;
//! * projection uses tuple-level projection when the kept attributes are
//!   *fixed* (Def. 7) — fixedness is exactly pairwise disjointness of the
//!   projections — and falls back to expansion otherwise. [`project`]
//!   tests Def. 7 on the instance (`is_fixed_on`, all pairs): it is §3's
//!   reference and [`Expr::eval`](crate::Expr::eval)'s oracle. The
//!   engine's compiled plans decide the same question once, at prepare
//!   time, from the plan ([`RelType::unpinned_drop`](crate::RelType::unpinned_drop)),
//!   and only their blocking arm still lands here;
//! * natural join intersects shared components pairwise (disjointness of
//!   the inputs carries over to the output);
//! * union/difference work on `R*` and re-nest: their rows go into one
//!   [`RowBlock`], and the kernel's sort drops repeats.

use std::cell::RefCell;
use std::sync::Arc;

use nf2_core::error::{NfError, Result};
use nf2_core::kernel::NestKernel;
use nf2_core::properties::is_fixed_on;
use nf2_core::relation::{NfRelation, RowBlock};
use nf2_core::schema::{AttrId, NestOrder, Schema};
use nf2_core::tuple::{NfTuple, ValueSet};
use nf2_core::value::Atom;

/// Re-exported relation-level NEST (Def. 4) for algebra users.
pub use nf2_core::nest::nest;
/// Re-exported relation-level UNNEST for algebra users.
pub use nf2_core::nest::unnest;

/// Selection by per-attribute membership: keeps the flat tuples whose
/// `attr` value lies in the given set, for every listed constraint.
///
/// Implemented by intersecting each rectangle with the constraint box —
/// the intersection of disjoint rectangles stays disjoint, so no
/// re-nesting is needed.
pub fn select_box(rel: &NfRelation, constraints: &[(AttrId, ValueSet)]) -> Result<NfRelation> {
    for (attr, _) in constraints {
        if *attr >= rel.arity() {
            return Err(NfError::AttrOutOfBounds {
                attr: *attr,
                arity: rel.arity(),
            });
        }
    }
    let mut tuples = Vec::new();
    'tuple: for t in rel.tuples() {
        let mut out = t.clone();
        for (attr, set) in constraints {
            match out.component(*attr).intersection(set) {
                Some(reduced) => out = out.with_component(*attr, reduced),
                None => continue 'tuple,
            }
        }
        tuples.push(out);
    }
    NfRelation::from_tuples(rel.schema().clone(), tuples)
}

/// Selection by an arbitrary predicate over flat tuples (realization-view
/// semantics): expands, filters, and re-nests with `order`.
pub fn select_where<F>(rel: &NfRelation, pred: F, order: &NestOrder) -> NfRelation
where
    F: Fn(&[Atom]) -> bool,
{
    let rows = expansion(rel);
    let mut kept = RowBlock::with_capacity(rel.schema().clone(), rows.len());
    for row in rows.rows().filter(|row| pred(row)) {
        kept.push_row(row).expect("row arity matches schema");
    }
    renest(&kept, order)
}

thread_local! {
    /// One nest kernel per thread: its scratch outlives a call, so the
    /// blocking operators below grow it once per thread, not once per
    /// call.
    static KERNEL: RefCell<NestKernel> = RefCell::new(NestKernel::new());
}

/// `ν_order` of the rows `rows` holds, on this thread's kernel.
fn renest(rows: &RowBlock, order: &NestOrder) -> NfRelation {
    KERNEL.with(|kernel| kernel.borrow_mut().canonical_of_rows(rows, order))
}

/// `R*` of `rel`, tuple after tuple, in one block.
fn expansion(rel: &NfRelation) -> RowBlock {
    let count = usize::try_from(rel.flat_count()).expect("an expansion that fits in memory");
    let mut rows = RowBlock::with_capacity(rel.schema().clone(), count);
    for t in rel.tuples() {
        rows.push_expansion(t.as_ref())
            .expect("every tuple has the schema's arity");
    }
    rows
}

/// Builds the schema of a projection.
fn project_schema(schema: &Schema, attrs: &[AttrId]) -> Result<Arc<Schema>> {
    let names = attrs
        .iter()
        .map(|&a| schema.attr_name(a))
        .collect::<Result<Vec<_>>>()?;
    Schema::new(format!("{}_proj", schema.name()), &names)
}

/// Projection onto `attrs` (duplicates eliminated on `R*`, as in 1NF
/// algebra).
///
/// When the relation is fixed on `attrs` (Def. 7) the projections of
/// distinct tuples are pairwise disjoint, so tuple-level projection is
/// sound and no expansion happens — the paper's fixedness notion doing
/// real optimizer work. Otherwise the projection is computed on `R*` and
/// re-nested with `order`.
pub fn project(rel: &NfRelation, attrs: &[AttrId], order: &NestOrder) -> Result<NfRelation> {
    let schema = project_schema(rel.schema(), attrs)?;
    if order.arity() != attrs.len() {
        return Err(NfError::InvalidNestOrder(format!(
            "projection keeps {} attributes but order covers {}",
            attrs.len(),
            order.arity()
        )));
    }
    if is_fixed_on(rel, attrs) {
        // Fast path: componentwise projection of each rectangle.
        let mut tuples: Vec<NfTuple> = rel
            .tuples()
            .iter()
            .map(|t| attrs.iter().map(|&a| t.component(a).clone()).collect())
            .collect();
        tuples.sort();
        tuples.dedup();
        return NfRelation::from_tuples(schema, tuples);
    }
    let full = expansion(rel);
    let mut rows = RowBlock::with_capacity(schema, full.len());
    for row in full.rows() {
        rows.push_row_from(attrs.iter().map(|&a| row[a]))?;
    }
    Ok(renest(&rows, order))
}

fn require_compatible(left: &NfRelation, right: &NfRelation) -> Result<()> {
    if !left.schema().compatible_with(right.schema()) {
        return Err(NfError::SchemaMismatch {
            left: left.schema().to_string(),
            right: right.schema().to_string(),
        });
    }
    Ok(())
}

/// Set union on `R*`, re-nested with `order`.
pub fn union(left: &NfRelation, right: &NfRelation, order: &NestOrder) -> Result<NfRelation> {
    require_compatible(left, right)?;
    let mut rows = expansion(left);
    for t in right.tuples() {
        rows.push_expansion(t.as_ref())?;
    }
    Ok(renest(&rows, order))
}

/// Set difference `left* − right*`, re-nested with `order`.
pub fn difference(left: &NfRelation, right: &NfRelation, order: &NestOrder) -> Result<NfRelation> {
    require_compatible(left, right)?;
    let right_rows = right.expand();
    let left_rows = expansion(left);
    let mut rows = RowBlock::with_capacity(left.schema().clone(), left_rows.len());
    for row in left_rows.rows().filter(|row| !right_rows.contains(row)) {
        rows.push_row(row)?;
    }
    Ok(renest(&rows, order))
}

/// Set intersection on `R*`.
///
/// Computed tuple-level: the intersection of two rectangles is a
/// rectangle, and intersections inherit disjointness from the left input.
pub fn intersect(left: &NfRelation, right: &NfRelation) -> Result<NfRelation> {
    require_compatible(left, right)?;
    let mut tuples = Vec::new();
    for l in left.tuples() {
        for r in right.tuples() {
            let mut comps = Vec::with_capacity(l.arity());
            let mut ok = true;
            for a in 0..l.arity() {
                match l.component(a).intersection(r.component(a)) {
                    Some(c) => comps.push(c),
                    None => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                tuples.push(NfTuple::new(comps));
            }
        }
    }
    NfRelation::from_tuples(left.schema().clone(), tuples)
}

/// Natural join on shared attribute *names*.
///
/// Output schema: all of `left`'s attributes followed by `right`'s
/// non-shared attributes. Tuple-level: for each pair of rectangles,
/// intersect the shared components; if none is empty, emit the combined
/// rectangle. Disjointness of the inputs implies disjointness of the
/// output, so the result is a valid NFR without re-nesting.
pub fn natural_join(left: &NfRelation, right: &NfRelation) -> Result<NfRelation> {
    let lschema = left.schema();
    let rschema = right.schema();
    // Map of right attr -> left attr for shared names; list of right-only attrs.
    let mut shared: Vec<(AttrId, AttrId)> = Vec::new(); // (right, left)
    let mut right_only: Vec<AttrId> = Vec::new();
    for (r_id, r_name) in rschema.attr_names().enumerate() {
        match lschema.attr_id(r_name) {
            Ok(l_id) => shared.push((r_id, l_id)),
            Err(_) => right_only.push(r_id),
        }
    }
    let mut names: Vec<&str> = lschema.attr_names().collect();
    let right_names: Vec<&str> = rschema.attr_names().collect();
    for &r_id in &right_only {
        names.push(right_names[r_id]);
    }
    let schema = Schema::new(
        format!("{}_join_{}", lschema.name(), rschema.name()),
        &names,
    )?;

    let mut tuples = Vec::new();
    for l in left.tuples() {
        'pair: for r in right.tuples() {
            let mut comps: Vec<ValueSet> = l.components().to_vec();
            for &(r_id, l_id) in &shared {
                match comps[l_id].intersection(r.component(r_id)) {
                    Some(c) => comps[l_id] = c,
                    None => continue 'pair,
                }
            }
            for &r_id in &right_only {
                comps.push(r.component(r_id).clone());
            }
            tuples.push(NfTuple::new(comps));
        }
    }
    NfRelation::from_tuples(schema, tuples)
}

/// Cartesian product — natural join of relations with disjoint attribute
/// names.
pub fn product(left: &NfRelation, right: &NfRelation) -> Result<NfRelation> {
    for name in right.schema().attr_names() {
        if left.schema().attr_id(name).is_ok() {
            return Err(NfError::SchemaMismatch {
                left: left.schema().to_string(),
                right: format!("{} (shares attribute {name})", right.schema()),
            });
        }
    }
    natural_join(left, right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf2_core::tuple::FlatTuple;
    use std::collections::BTreeSet;

    fn schema(name: &str, attrs: &[&str]) -> Arc<Schema> {
        Schema::new(name, attrs).unwrap()
    }

    fn vs(ids: &[u32]) -> ValueSet {
        ValueSet::new(ids.iter().map(|&i| Atom(i)).collect()).unwrap()
    }

    fn t(comps: &[&[u32]]) -> NfTuple {
        NfTuple::new(comps.iter().map(|c| vs(c)).collect())
    }

    fn rel(s: Arc<Schema>, tuples: Vec<NfTuple>) -> NfRelation {
        NfRelation::from_tuples(s, tuples).unwrap()
    }

    fn flat_of(rel: &NfRelation) -> BTreeSet<FlatTuple> {
        rel.expand().rows().map(<[Atom]>::to_vec).collect()
    }

    #[test]
    fn select_box_intersects_rectangles() {
        let r = rel(
            schema("R", &["A", "B"]),
            vec![t(&[&[1, 2], &[10, 11]]), t(&[&[3], &[10]])],
        );
        let sel = select_box(&r, &[(0, vs(&[2, 3]))]).unwrap();
        assert_eq!(
            flat_of(&sel),
            BTreeSet::from([
                vec![Atom(2), Atom(10)],
                vec![Atom(2), Atom(11)],
                vec![Atom(3), Atom(10)]
            ])
        );
    }

    #[test]
    fn select_box_drops_empty_tuples() {
        let r = rel(schema("R", &["A", "B"]), vec![t(&[&[1], &[10]])]);
        let sel = select_box(&r, &[(0, vs(&[9]))]).unwrap();
        assert!(sel.is_empty());
        assert!(select_box(&r, &[(7, vs(&[1]))]).is_err());
    }

    #[test]
    fn select_where_matches_flat_semantics() {
        let r = rel(schema("R", &["A", "B"]), vec![t(&[&[1, 2], &[10, 11]])]);
        let sel = select_where(
            &r,
            |row| row[0] == Atom(1) || row[1] == Atom(11),
            &NestOrder::identity(2),
        );
        assert_eq!(sel.expand().len(), 3);
        assert!(sel.validate().is_ok());
    }

    #[test]
    fn project_fixed_fast_path() {
        // Fixed on {B}: B-sets disjoint — tuple-level projection sound.
        let r = rel(
            schema("R", &["A", "B"]),
            vec![t(&[&[1, 2], &[10]]), t(&[&[2, 3], &[11]])],
        );
        assert!(is_fixed_on(&r, &[1]));
        let p = project(&r, &[1], &NestOrder::identity(1)).unwrap();
        assert_eq!(p.tuple_count(), 2);
        assert_eq!(
            flat_of(&p),
            BTreeSet::from([vec![Atom(10)], vec![Atom(11)]])
        );
    }

    #[test]
    fn project_unfixed_falls_back_to_expansion() {
        // Not fixed on {A}: a2 in both tuples; expansion dedup needed.
        let r = rel(
            schema("R", &["A", "B"]),
            vec![t(&[&[1, 2], &[10]]), t(&[&[2, 3], &[11]])],
        );
        assert!(!is_fixed_on(&r, &[0]));
        let p = project(&r, &[0], &NestOrder::identity(1)).unwrap();
        assert_eq!(
            flat_of(&p),
            BTreeSet::from([vec![Atom(1)], vec![Atom(2)], vec![Atom(3)]])
        );
        assert!(p.validate().is_ok());
    }

    #[test]
    fn project_reorders_attributes() {
        let r = rel(schema("R", &["A", "B"]), vec![t(&[&[1], &[10]])]);
        let p = project(&r, &[1, 0], &NestOrder::identity(2)).unwrap();
        assert_eq!(p.schema().attr_names().collect::<Vec<_>>(), vec!["B", "A"]);
        assert_eq!(flat_of(&p), BTreeSet::from([vec![Atom(10), Atom(1)]]));
    }

    #[test]
    fn union_difference_intersect_flat_semantics() {
        let s = schema("R", &["A", "B"]);
        let l = rel(s.clone(), vec![t(&[&[1, 2], &[10]])]);
        let r = rel(schema("S", &["A", "B"]), vec![t(&[&[2, 3], &[10]])]);
        let order = NestOrder::identity(2);
        let u = union(&l, &r, &order).unwrap();
        assert_eq!(u.expand().len(), 3);
        let d = difference(&l, &r, &order).unwrap();
        assert_eq!(flat_of(&d), BTreeSet::from([vec![Atom(1), Atom(10)]]));
        let i = intersect(&l, &r).unwrap();
        assert_eq!(flat_of(&i), BTreeSet::from([vec![Atom(2), Atom(10)]]));
    }

    #[test]
    fn set_ops_reject_incompatible_schemas() {
        let l = rel(schema("R", &["A", "B"]), vec![]);
        let r = rel(schema("S", &["A", "C"]), vec![]);
        let order = NestOrder::identity(2);
        assert!(union(&l, &r, &order).is_err());
        assert!(difference(&l, &r, &order).is_err());
        assert!(intersect(&l, &r).is_err());
    }

    #[test]
    fn natural_join_matches_flat_join() {
        // SC(Student, Course) ⋈ CP(Course, Prereq).
        let sc = rel(
            schema("SC", &["Student", "Course"]),
            vec![t(&[&[1], &[10, 11]]), t(&[&[2], &[11]])],
        );
        let cp = rel(
            schema("CP", &["Course", "Prereq"]),
            vec![t(&[&[10], &[90]]), t(&[&[11], &[91, 92]])],
        );
        let j = natural_join(&sc, &cp).unwrap();
        assert_eq!(
            j.schema().attr_names().collect::<Vec<_>>(),
            vec!["Student", "Course", "Prereq"]
        );
        // Flat check: (1,10,90), (1,11,91), (1,11,92), (2,11,91), (2,11,92).
        assert_eq!(j.expand().len(), 5);
        assert!(j.validate().is_ok());
    }

    #[test]
    fn join_with_no_shared_attrs_is_product() {
        let l = rel(schema("L", &["A"]), vec![t(&[&[1, 2]])]);
        let r = rel(schema("R", &["B"]), vec![t(&[&[10]]), t(&[&[11]])]);
        let p = product(&l, &r).unwrap();
        assert_eq!(p.expand().len(), 4);
    }

    #[test]
    fn product_rejects_shared_names() {
        let l = rel(schema("L", &["A"]), vec![]);
        let r = rel(schema("R", &["A"]), vec![]);
        assert!(product(&l, &r).is_err());
    }

    #[test]
    fn join_disjointness_carries_to_output() {
        // Two left rectangles sharing course sets but disjoint students.
        let sc = rel(
            schema("SC", &["S", "C"]),
            vec![t(&[&[1], &[10, 11]]), t(&[&[2], &[10, 11]])],
        );
        let cd = rel(schema("CD", &["C", "D"]), vec![t(&[&[10, 11], &[5]])]);
        let j = natural_join(&sc, &cd).unwrap();
        assert!(j.validate().is_ok(), "output tuples must stay disjoint");
        assert_eq!(j.tuple_count(), 2);
    }
}
