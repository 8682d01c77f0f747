//! 4NF decomposition (Fagin 1977, the paper's reference \[2\]).
//!
//! §2 of the paper argues NFRs "may throw away the 4NF concept": instead
//! of decomposing `R1(Student, Course, Club)` on its MVD, one nests it.
//! To *measure* that claim (experiment E12) we need the thing being
//! thrown away — the classical 4NF decomposition — implemented for real:
//! repeatedly split a fragment on a non-trivial MVD whose left side is
//! not a superkey, until none remains.
//!
//! MVD candidates inside a fragment come from the projected dependency
//! basis: by Beeri's completeness theorem, `X →→ Y` holds in `π_S(R)`
//! exactly when `Y` is a union of `S`-projections of `DEP(X)` blocks.
//! Superkey tests use the [`crate::chase`] (complete for the mixed
//! FD+MVD theory, including coalescence-derived FDs).

use std::fmt;

use crate::attrset::AttrSet;
use crate::basis::dependency_basis;
use crate::chase::chase_implies_fd;
use crate::fd::Fd;
use crate::mvd::Mvd;

/// One binary split performed by the decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitStep {
    /// The fragment that was split.
    pub fragment: AttrSet,
    /// Left side of the violating MVD.
    pub lhs: AttrSet,
    /// The (projected) right side it was split on.
    pub rhs: AttrSet,
    /// Resulting fragment `lhs ∪ rhs`.
    pub left: AttrSet,
    /// Resulting fragment `fragment − rhs`.
    pub right: AttrSet,
}

impl fmt::Display for SplitStep {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} --[{} ->-> {}]--> {} , {}",
            self.fragment, self.lhs, self.rhs, self.left, self.right
        )
    }
}

/// The result of [`decompose_4nf`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decomposition {
    /// Final fragments, each in 4NF under the projected dependencies.
    pub fragments: Vec<AttrSet>,
    /// The splits that produced them, in application order.
    pub steps: Vec<SplitStep>,
}

impl fmt::Display for Decomposition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let frags: Vec<String> = self.fragments.iter().map(AttrSet::to_string).collect();
        write!(f, "{}", frags.join(" ⋈ "))
    }
}

/// Whether `x` is a superkey of the fragment `s`: every attribute of
/// `s − x` is functionally determined (in the mixed FD+MVD theory).
pub fn is_superkey_in(arity: usize, fds: &[Fd], mvds: &[Mvd], x: AttrSet, s: AttrSet) -> bool {
    s.minus(x).iter().all(|a| {
        chase_implies_fd(
            arity,
            fds,
            mvds,
            &Fd {
                lhs: x,
                rhs: AttrSet::single(a),
            },
        )
    })
}

/// Finds a 4NF violation inside fragment `s`: a non-trivial projected
/// MVD `x →→ b` (with `b` a projected dependency-basis block) whose left
/// side is not a superkey of `s`. Deterministic: smallest `x` (by size,
/// then mask), then smallest block.
pub fn find_violation(
    arity: usize,
    fds: &[Fd],
    mvds: &[Mvd],
    s: AttrSet,
) -> Option<(AttrSet, AttrSet)> {
    if s.len() <= 2 {
        return None; // a binary fragment has no non-trivial MVD
    }
    let mut candidates: Vec<AttrSet> = s.subsets().filter(|x| *x != s).collect();
    candidates.sort_by_key(|x| (x.len(), x.mask()));
    for x in candidates {
        // Projected basis: DEP(x) blocks intersected with s.
        let mut blocks: Vec<AttrSet> = dependency_basis(x, arity, fds, mvds)
            .into_iter()
            .map(|b| b.intersect(s))
            .filter(|b| !b.is_empty())
            .collect();
        blocks.sort_by_key(|b| b.mask());
        if blocks.len() < 2 {
            continue; // only the trivial split exists inside s
        }
        if is_superkey_in(arity, fds, mvds, x, s) {
            continue;
        }
        // Any single block is a non-trivial violating MVD.
        return blocks.first().map(|b| (x, *b));
    }
    None
}

/// Whether fragment `s` is in 4NF under the projected dependencies.
pub fn is_4nf_fragment(arity: usize, fds: &[Fd], mvds: &[Mvd], s: AttrSet) -> bool {
    find_violation(arity, fds, mvds, s).is_none()
}

/// Decomposes the full relation (over `arity` attributes) into 4NF
/// fragments by repeated binary splits. Every split is lossless by
/// Fagin's theorem, so the overall decomposition is lossless (the test
/// suite re-verifies this with the chase tableau and on instances).
pub fn decompose_4nf(arity: usize, fds: &[Fd], mvds: &[Mvd]) -> Decomposition {
    let mut worklist = vec![AttrSet::full(arity)];
    let mut fragments = Vec::new();
    let mut steps = Vec::new();
    while let Some(s) = worklist.pop() {
        match find_violation(arity, fds, mvds, s) {
            Some((x, b)) => {
                let left = x.union(b);
                let right = s.minus(b);
                steps.push(SplitStep {
                    fragment: s,
                    lhs: x,
                    rhs: b,
                    left,
                    right,
                });
                worklist.push(left);
                worklist.push(right);
            }
            None => fragments.push(s),
        }
    }
    // Drop fragments subsumed by others (can arise when splits share
    // attributes), then sort for determinism.
    fragments.sort_by_key(|f| (std::cmp::Reverse(f.len()), f.mask()));
    let mut kept: Vec<AttrSet> = Vec::new();
    for f in fragments {
        if !kept.iter().any(|k| f.is_subset_of(*k)) {
            kept.push(f);
        }
    }
    kept.sort_by_key(|f| f.mask());
    Decomposition {
        fragments: kept,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chase::is_lossless_join;
    use nf2_core::relation::FlatRelation;
    use nf2_core::schema::Schema;
    use nf2_core::value::Atom;
    use std::collections::BTreeSet;

    fn fd(lhs: &[usize], rhs: &[usize]) -> Fd {
        Fd::new(lhs.iter().copied(), rhs.iter().copied())
    }

    fn mvd(lhs: &[usize], rhs: &[usize]) -> Mvd {
        Mvd::new(lhs.iter().copied(), rhs.iter().copied())
    }

    #[test]
    fn paper_r1_splits_on_the_student_mvd() {
        // R1(Student, Course, Club), Student ->-> Course | Club:
        // classical 4NF schema = SC(Student, Course) ⋈ SB(Student, Club).
        let d = decompose_4nf(3, &[], &[mvd(&[0], &[1])]);
        assert_eq!(
            d.fragments,
            vec![AttrSet::from_attrs([0, 1]), AttrSet::from_attrs([0, 2])]
        );
        assert_eq!(d.steps.len(), 1);
        assert_eq!(d.steps[0].lhs, AttrSet::single(0));
    }

    #[test]
    fn relation_already_in_4nf_stays_whole() {
        // Fig. 1 R2(Student, Course, Semester) has no dependency: 4NF.
        let d = decompose_4nf(3, &[], &[]);
        assert_eq!(d.fragments, vec![AttrSet::full(3)]);
        assert!(d.steps.is_empty());
    }

    #[test]
    fn key_mvd_does_not_split() {
        // A ->-> B but A is a key (A -> BC): no violation.
        let fds = [fd(&[0], &[1, 2])];
        let d = decompose_4nf(3, &fds, &[mvd(&[0], &[1])]);
        assert_eq!(d.fragments, vec![AttrSet::full(3)]);
    }

    #[test]
    fn fd_violation_splits_like_bcnf() {
        // R(A,B,C) with B -> C (B not a key): the FD's MVD image splits
        // into BC and AB.
        let fds = [fd(&[1], &[2])];
        let d = decompose_4nf(3, &fds, &[]);
        assert_eq!(
            d.fragments,
            vec![AttrSet::from_attrs([0, 1]), AttrSet::from_attrs([1, 2])]
        );
    }

    #[test]
    fn nested_splits_reach_all_fragments() {
        // R(A,B,C,D): A ->-> B, and inside {A,C,D}: C -> D.
        let fds = [fd(&[2], &[3])];
        let mvds = [mvd(&[0], &[1])];
        let d = decompose_4nf(4, &fds, &mvds);
        assert!(d.fragments.len() >= 2, "{d}");
        for f in &d.fragments {
            assert!(is_4nf_fragment(4, &fds, &mvds, *f), "fragment {f} not 4NF");
        }
        assert!(is_lossless_join(4, &fds, &mvds, &d.fragments));
    }

    #[test]
    fn every_decomposition_is_lossless_by_tableau() {
        let cases: Vec<(usize, Vec<Fd>, Vec<Mvd>)> = vec![
            (3, vec![], vec![mvd(&[0], &[1])]),
            (3, vec![fd(&[1], &[2])], vec![]),
            (4, vec![fd(&[2], &[3])], vec![mvd(&[0], &[1])]),
            (4, vec![], vec![mvd(&[0], &[1]), mvd(&[0], &[2])]),
            (5, vec![fd(&[0], &[4])], vec![mvd(&[0], &[1, 2])]),
        ];
        for (arity, fds, mvds) in cases {
            let d = decompose_4nf(arity, &fds, &mvds);
            assert!(
                is_lossless_join(arity, &fds, &mvds, &d.fragments),
                "lossy: arity={arity} fds={fds:?} mvds={mvds:?} → {d}"
            );
            for f in &d.fragments {
                assert!(
                    is_4nf_fragment(arity, &fds, &mvds, *f),
                    "{f} not 4NF in {d}"
                );
            }
        }
    }

    #[test]
    fn binary_fragments_never_split() {
        assert!(is_4nf_fragment(
            2,
            &[],
            &[mvd(&[0], &[1])],
            AttrSet::full(2)
        ));
    }

    #[test]
    fn superkey_in_fragment_uses_mixed_theory() {
        // Coalescence: A ->-> B, C -> B imply A -> B; inside {A,B}
        // A is then a superkey.
        let fds = [fd(&[2], &[1])];
        let mvds = [mvd(&[0], &[1])];
        assert!(is_superkey_in(
            3,
            &fds,
            &mvds,
            AttrSet::single(0),
            AttrSet::from_attrs([0, 1])
        ));
        // Without the MVD the coalescence rule has no premise.
        assert!(!is_superkey_in(
            3,
            &fds,
            &[],
            AttrSet::single(0),
            AttrSet::from_attrs([0, 1])
        ));
    }

    /// Instance-level losslessness: project a satisfying instance onto
    /// the fragments and join back; the original rows must reappear.
    #[test]
    fn instance_round_trip_on_paper_r1() {
        let schema = Schema::new("R1", &["Student", "Course", "Club"]).unwrap();
        // Product-per-student data (satisfies Student ->-> Course).
        let mut rows = Vec::new();
        for s in 0..3u32 {
            for c in 0..2u32 {
                for b in 0..2u32 {
                    rows.push(vec![Atom(s), Atom(10 + c + s), Atom(20 + b)]);
                }
            }
        }
        let rel = FlatRelation::from_rows(schema, rows).unwrap();
        let mvds = [mvd(&[0], &[1])];
        let d = decompose_4nf(3, &[], &mvds);

        // Project each fragment.
        let project = |attrs: AttrSet| -> BTreeSet<Vec<Atom>> {
            rel.rows()
                .map(|r| attrs.iter().map(|a| r[a]).collect())
                .collect()
        };
        let frags: Vec<(Vec<usize>, BTreeSet<Vec<Atom>>)> = d
            .fragments
            .iter()
            .map(|f| (f.iter().collect::<Vec<_>>(), project(*f)))
            .collect();

        // Join all fragments on shared original attribute indices.
        let mut acc: Vec<Vec<Option<Atom>>> = vec![vec![None; 3]];
        for (attrs, rows) in &frags {
            let mut next = Vec::new();
            for partial in &acc {
                'row: for row in rows {
                    let mut merged = partial.clone();
                    for (pos, &attr) in attrs.iter().enumerate() {
                        match merged[attr] {
                            Some(v) if v != row[pos] => continue 'row,
                            _ => merged[attr] = Some(row[pos]),
                        }
                    }
                    next.push(merged);
                }
            }
            acc = next;
        }
        let joined: BTreeSet<Vec<Atom>> = acc
            .into_iter()
            .map(|r| {
                r.into_iter()
                    .map(|v| v.expect("all attrs covered"))
                    .collect()
            })
            .collect();
        let original: BTreeSet<Vec<Atom>> = rel.rows().map(<[Atom]>::to_vec).collect();
        assert_eq!(
            joined, original,
            "4NF decomposition must be lossless on instances"
        );
    }

    #[test]
    fn display_renders_steps_and_fragments() {
        let d = decompose_4nf(3, &[], &[mvd(&[0], &[1])]);
        assert!(d.to_string().contains('⋈'), "{d}");
        assert!(d.steps[0].to_string().contains("->->"), "{}", d.steps[0]);
    }
}
