//! # nf2-workload — deterministic workload generators
//!
//! The paper has no machine evaluation; these generators instantiate its
//! own motivating schemas at parameterised scale so the bench harness can
//! measure the claims (DESIGN.md §7):
//!
//! * [`university`] — Fig. 1's `R1`: entity data where each student's
//!   courses × clubs form a product (`Student →→ Course | Club` holds);
//! * [`relationship`] — Fig. 1's `R2`: relationship data with no MVD;
//! * [`block_product`] — a union of disjoint rectangles with known
//!   compressibility (ground truth for nest quality);
//! * [`uniform`] — uniform random tuples (worst case for nesting);
//! * [`zipf`] — skewed value distributions (realistic co-occurrence);
//! * [`prerequisites`] — §2's `CP(Course, Prerequisite)` with power-set
//!   prerequisite values interned as atoms;
//! * [`anti_correlated`] — sliding-window pairs that defeat nesting by
//!   construction;
//! * [`op_trace`] — replayable mixed insert/delete streams for the
//!   maintenance experiments.
//!
//! All generators are seeded and reproducible.

#![forbid(unsafe_code)]

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use nf2_core::relation::FlatRelation;
use nf2_core::schema::Schema;
use nf2_core::value::Atom;
use std::collections::BTreeSet;
use std::sync::Arc;

/// A generated workload: the flat relation plus its generator label.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable generator description (appears in reports).
    pub label: String,
    /// The generated 1NF relation.
    pub flat: FlatRelation,
}

fn schema(name: &str, attrs: &[&str]) -> Arc<Schema> {
    Schema::new(name, attrs).expect("generator schemas are valid")
}

/// Every relation generator at property-test scale, driven by one seed so
/// each case explores a different instance of each shape — what the
/// cross-generator property suites iterate over.
pub fn all_generators(seed: u64) -> Vec<Workload> {
    vec![
        university(8 + (seed % 13) as usize, 3, 10, 2, 4, seed),
        relationship(40 + (seed % 37) as usize, 12, 10, 3, seed),
        block_product(2 + (seed % 4) as usize, &[2, 3, 2], seed),
        uniform(30 + (seed % 21) as usize, &[8, 8, 8], seed),
        zipf(40, &[16, 16, 16], 1.1, seed),
        anti_correlated(8 + (seed % 9) as u32, 3, seed),
        prerequisites(8, 2, 2, seed).0,
    ]
}

/// Fig. 1 `R1`-style entity data over (Student, Course, Club).
///
/// Each of `students` students takes a random set of `courses_per` courses
/// (from a pool of `course_pool`) and belongs to `clubs_per` clubs (pool
/// `club_pool`); rows are the full product per student, so
/// `Student →→ Course | Club` holds by construction.
pub fn university(
    students: usize,
    courses_per: usize,
    course_pool: u32,
    clubs_per: usize,
    club_pool: u32,
    seed: u64,
) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = schema("R1", &["Student", "Course", "Club"]);
    let mut rows = Vec::new();
    for student in 0..students as u32 {
        let courses = sample_distinct(&mut rng, courses_per, course_pool);
        let clubs = sample_distinct(&mut rng, clubs_per, club_pool);
        for &c in &courses {
            for &b in &clubs {
                rows.push(vec![
                    Atom(student),
                    Atom(1_000_000 + c),
                    Atom(2_000_000 + b),
                ]);
            }
        }
    }
    Workload {
        label: format!("university(students={students}, courses={courses_per}, clubs={clubs_per})"),
        flat: FlatRelation::from_rows(s, rows).expect("arity 3 rows"),
    }
}

/// Fig. 1 `R2`-style relationship data over (Student, Course, Semester):
/// independent (student, course, semester) facts with **no** product
/// structure, so no non-trivial MVD holds in general.
pub fn relationship(
    rows_target: usize,
    students: u32,
    courses: u32,
    semesters: u32,
    seed: u64,
) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = schema("R2", &["Student", "Course", "Semester"]);
    let mut rows = BTreeSet::new();
    while rows.len() < rows_target {
        rows.insert(vec![
            Atom(rng.gen_range(0..students)),
            Atom(1_000_000 + rng.gen_range(0..courses)),
            Atom(2_000_000 + rng.gen_range(0..semesters)),
        ]);
    }
    Workload {
        label: format!("relationship(rows={rows_target})"),
        flat: FlatRelation::from_rows(s, rows).expect("arity 3 rows"),
    }
}

/// A union of `blocks` disjoint rectangles over `dims.len()` attributes,
/// each rectangle spanning `dims[i]` fresh values on attribute `i`.
///
/// The minimum NFR has exactly `blocks` tuples, so nest quality is
/// measurable against ground truth.
pub fn block_product(blocks: usize, dims: &[usize], seed: u64) -> Workload {
    let _ = seed; // deterministic by construction; seed kept for API symmetry
    let names: Vec<String> = (0..dims.len()).map(|i| format!("E{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let s = schema("BLK", &name_refs);
    let mut rows = Vec::new();
    let mut next: u32 = 0;
    for _ in 0..blocks {
        // Fresh value ranges per attribute keep blocks disjoint.
        let ranges: Vec<Vec<Atom>> = dims
            .iter()
            .map(|&d| {
                let vals: Vec<Atom> = (0..d as u32).map(|v| Atom(next + v)).collect();
                next += d as u32;
                vals
            })
            .collect();
        // Cartesian product of ranges.
        let mut stack = vec![Vec::new()];
        for r in &ranges {
            let mut grown = Vec::with_capacity(stack.len() * r.len());
            for partial in &stack {
                for &v in r {
                    let mut row = partial.clone();
                    row.push(v);
                    grown.push(row);
                }
            }
            stack = grown;
        }
        rows.extend(stack);
    }
    Workload {
        label: format!("block_product(blocks={blocks}, dims={dims:?})"),
        flat: FlatRelation::from_rows(s, rows).expect("uniform arity"),
    }
}

/// `rows` uniform-random distinct tuples over the given per-attribute
/// domain sizes — the adversarial case for nesting.
pub fn uniform(rows_target: usize, domain_sizes: &[u32], seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let names: Vec<String> = (0..domain_sizes.len()).map(|i| format!("E{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let s = schema("UNI", &name_refs);
    let capacity: u128 = domain_sizes.iter().map(|&d| d as u128).product();
    assert!(
        (rows_target as u128) <= capacity,
        "cannot draw {rows_target} distinct rows from a {capacity}-row space"
    );
    let mut rows = BTreeSet::new();
    while rows.len() < rows_target {
        let row: Vec<Atom> = domain_sizes
            .iter()
            .enumerate()
            .map(|(i, &d)| Atom(1_000_000 * i as u32 + rng.gen_range(0..d)))
            .collect();
        rows.insert(row);
    }
    Workload {
        label: format!("uniform(rows={rows_target}, domains={domain_sizes:?})"),
        flat: FlatRelation::from_rows(s, rows).expect("uniform arity"),
    }
}

/// `rows` distinct tuples with Zipf-distributed values per attribute
/// (exponent `s`), modelling skewed co-occurrence.
pub fn zipf(rows_target: usize, domain_sizes: &[u32], s_exp: f64, seed: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed);
    let names: Vec<String> = (0..domain_sizes.len()).map(|i| format!("E{i}")).collect();
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let s = schema("ZIPF", &name_refs);
    // Precompute inverse-CDF tables per attribute.
    let tables: Vec<Vec<f64>> = domain_sizes
        .iter()
        .map(|&d| {
            let mut cum = Vec::with_capacity(d as usize);
            let mut total = 0.0;
            for k in 1..=d {
                total += 1.0 / (k as f64).powf(s_exp);
                cum.push(total);
            }
            for c in &mut cum {
                *c /= total;
            }
            cum
        })
        .collect();
    let mut rows = BTreeSet::new();
    let mut attempts = 0usize;
    let max_attempts = rows_target.saturating_mul(200).max(10_000);
    while rows.len() < rows_target && attempts < max_attempts {
        attempts += 1;
        let row: Vec<Atom> = tables
            .iter()
            .enumerate()
            .map(|(i, cum)| {
                let u: f64 = rng.gen();
                let idx = cum.partition_point(|&c| c < u) as u32;
                Atom(1_000_000 * i as u32 + idx.min(domain_sizes[i] - 1))
            })
            .collect();
        rows.insert(row);
    }
    Workload {
        label: format!(
            "zipf(rows={}, s={s_exp}, domains={domain_sizes:?})",
            rows.len()
        ),
        flat: FlatRelation::from_rows(s, rows).expect("uniform arity"),
    }
}

/// §2's `CP(Course, Prerequisite)` example: `Prerequisite` ranges over
/// the **power set** of `Course`, so a value like `{c1, c2}` is one
/// indivisible atom — the paper's second kind of compoundness, which
/// must *not* be split into rows. Each prerequisite set is interned as a
/// single atom; `set_names` returns the decoded sets for display.
///
/// Each course gets 1–`alts_per` alternative prerequisite sets of up to
/// `set_size` courses.
pub fn prerequisites(
    courses: u32,
    alts_per: usize,
    set_size: usize,
    seed: u64,
) -> (Workload, Vec<Vec<u32>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = schema("CP", &["Course", "Prerequisite"]);
    // Intern prerequisite sets: each distinct set of course ids becomes
    // one atom (ids offset by 1_000_000).
    let mut interned: Vec<Vec<u32>> = Vec::new();
    let mut rows = BTreeSet::new();
    for course in 0..courses {
        let alts = 1 + rng.gen_range(0..alts_per.max(1));
        for _ in 0..alts {
            let k = 1 + rng.gen_range(0..set_size.max(1));
            let mut set = sample_distinct(&mut rng, k, courses);
            set.retain(|&c| c != course); // no self-prerequisite
            if set.is_empty() {
                continue;
            }
            let set_id = match interned.iter().position(|s| *s == set) {
                Some(i) => i as u32,
                None => {
                    interned.push(set);
                    (interned.len() - 1) as u32
                }
            };
            rows.insert(vec![Atom(course), Atom(1_000_000 + set_id)]);
        }
    }
    let w = Workload {
        label: format!("prerequisites(courses={courses}, alts={alts_per}, set={set_size})"),
        flat: FlatRelation::from_rows(s, rows).expect("arity 2 rows"),
    };
    (w, interned)
}

/// Anti-correlated data: attribute 1 is a sliding window of attribute 0
/// (`b ∈ {a, a+1, …, a+width−1} mod domain`), so every `A`-value sees a
/// *different* `B`-set and nesting buys almost nothing — the structured
/// adversarial case (uniform random can still collide by luck).
pub fn anti_correlated(domain: u32, width: u32, seed: u64) -> Workload {
    let _ = seed; // deterministic by construction; kept for API symmetry
    let s = schema("ANTI", &["A", "B"]);
    let mut rows = Vec::new();
    for a in 0..domain {
        for j in 0..width {
            rows.push(vec![Atom(a), Atom(1_000_000 + (a + j) % domain)]);
        }
    }
    Workload {
        label: format!("anti_correlated(domain={domain}, width={width})"),
        flat: FlatRelation::from_rows(s, rows).expect("arity 2 rows"),
    }
}

/// A mixed insert/delete stream against (and beyond) a base relation:
/// `delete_pct` percent of the `ops` delete a current row, the rest
/// insert fresh or re-insert deleted rows. Drives experiment E10 and the
/// maintenance benches.
pub fn op_trace(
    base: &Workload,
    ops: usize,
    delete_pct: u32,
    seed: u64,
) -> Vec<nf2_core::bulk::Op> {
    use nf2_core::bulk::Op;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut present: Vec<Vec<Atom>> = base.flat.rows().map(<[Atom]>::to_vec).collect();
    let mut absent: Vec<Vec<Atom>> = Vec::new();
    let arity = base.flat.schema().arity();
    let mut trace = Vec::with_capacity(ops);
    for i in 0..ops {
        let do_delete = !present.is_empty() && rng.gen_range(0..100u32) < delete_pct;
        if do_delete {
            let idx = rng.gen_range(0..present.len());
            let row = present.swap_remove(idx);
            absent.push(row.clone());
            trace.push(Op::Delete(row));
        } else if !absent.is_empty() && rng.gen_bool(0.5) {
            let idx = rng.gen_range(0..absent.len());
            let row = absent.swap_remove(idx);
            present.push(row.clone());
            trace.push(Op::Insert(row));
        } else {
            // A fresh row outside every generator's value ranges.
            let row: Vec<Atom> = (0..arity)
                .map(|a| Atom(9_000_000 + a as u32 * 100_000 + i as u32))
                .collect();
            present.push(row.clone());
            trace.push(Op::Insert(row));
        }
    }
    trace
}

/// `trace` (every op of which is effective, as [`op_trace`] makes them)
/// with no-ops worked in: every fourth op twice in a row — a duplicate
/// insert, a delete of a row just deleted — and, after the eighth, a
/// row outside every generator's value ranges inserted and taken back.
pub fn with_noops(trace: Vec<nf2_core::bulk::Op>) -> Vec<nf2_core::bulk::Op> {
    use nf2_core::bulk::Op;
    let arity = trace.first().map_or(0, |op| op.row().len());
    let passing: Vec<Atom> = (0..arity).map(|a| Atom(8_000_000 + a as u32)).collect();
    let mut out = Vec::with_capacity(trace.len() * 5 / 4 + 2);
    for (i, op) in trace.into_iter().enumerate() {
        if i % 4 == 0 {
            out.push(op.clone());
        }
        out.push(op);
        if i == 8 {
            out.push(Op::Insert(passing.clone()));
            out.push(Op::Delete(passing.clone()));
        }
    }
    out
}

/// The rows of `w`, each one to three times, in a seeded shuffle — the
/// input a cold load may hand the kernel, whose sort must drop the
/// repeats and forget the order.
pub fn repeated_and_shuffled(w: &Workload, seed: u64) -> Vec<Vec<Atom>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rows: Vec<Vec<Atom>> = Vec::with_capacity(w.flat.len() * 2);
    for row in w.flat.rows() {
        for _ in 0..rng.gen_range(1..=3u32) {
            rows.push(row.to_vec());
        }
    }
    for at in (1..rows.len()).rev() {
        rows.swap(at, rng.gen_range(0..=at));
    }
    rows
}

/// Draws `k` distinct values from `0..pool` (or all of them if the pool is
/// smaller).
fn sample_distinct(rng: &mut StdRng, k: usize, pool: u32) -> Vec<u32> {
    let k = k.min(pool as usize);
    let mut chosen = BTreeSet::new();
    while chosen.len() < k {
        chosen.insert(rng.gen_range(0..pool));
    }
    chosen.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf2_deps_check::*;

    /// Minimal local MVD check to avoid a dependency cycle with nf2-deps:
    /// verifies Student ->-> Course | Club group-wise.
    mod nf2_deps_check {
        use super::*;
        use std::collections::{HashMap, HashSet};

        pub fn student_mvd_holds(flat: &FlatRelation) -> bool {
            let mut groups: HashMap<Atom, (HashSet<Atom>, HashSet<Atom>, usize)> = HashMap::new();
            for row in flat.rows() {
                let g = groups.entry(row[0]).or_default();
                g.0.insert(row[1]);
                g.1.insert(row[2]);
                g.2 += 1;
            }
            groups.values().all(|(c, b, n)| c.len() * b.len() == *n)
        }
    }

    #[test]
    fn university_has_product_structure() {
        let w = university(20, 3, 50, 2, 10, 7);
        assert!(student_mvd_holds(&w.flat), "Student ->-> Course must hold");
        assert_eq!(w.flat.schema().arity(), 3);
        assert!(!w.flat.is_empty());
    }

    #[test]
    fn university_is_deterministic() {
        let a = university(10, 2, 20, 2, 5, 42);
        let b = university(10, 2, 20, 2, 5, 42);
        assert_eq!(a.flat, b.flat);
        let c = university(10, 2, 20, 2, 5, 43);
        assert_ne!(a.flat, c.flat, "different seeds should differ");
    }

    #[test]
    fn relationship_hits_row_target() {
        let w = relationship(200, 30, 30, 4, 9);
        assert_eq!(w.flat.len(), 200);
    }

    #[test]
    fn block_product_row_count_is_exact() {
        let w = block_product(5, &[3, 4], 0);
        assert_eq!(w.flat.len(), 5 * 12);
        // Blocks are disjoint: nesting recovers exactly 5 tuples.
        let nfr =
            nf2_core::nest::canonical_of_flat(&w.flat, &nf2_core::schema::NestOrder::identity(2));
        assert_eq!(nfr.tuple_count(), 5);
    }

    #[test]
    fn uniform_produces_distinct_rows() {
        let w = uniform(100, &[50, 50], 3);
        assert_eq!(w.flat.len(), 100);
    }

    #[test]
    #[should_panic(expected = "cannot draw")]
    fn uniform_rejects_impossible_targets() {
        let _ = uniform(100, &[3, 3], 3);
    }

    #[test]
    fn zipf_skews_values() {
        let w = zipf(300, &[100, 100], 1.2, 5);
        assert!(w.flat.len() > 200, "should reach close to target");
        // The most frequent value should dominate: count occurrences of
        // attribute 0's hottest value.
        let mut counts = std::collections::HashMap::new();
        for r in w.flat.rows() {
            *counts.entry(r[0]).or_insert(0usize) += 1;
        }
        let max = counts.values().max().copied().unwrap_or(0);
        assert!(max * 100 / w.flat.len() >= 10, "hot value below 10%: {max}");
    }

    #[test]
    fn sample_distinct_caps_at_pool() {
        let mut rng = StdRng::seed_from_u64(1);
        let vals = sample_distinct(&mut rng, 10, 4);
        assert_eq!(vals.len(), 4);
    }

    #[test]
    fn prerequisites_intern_sets_as_atoms() {
        let (w, sets) = prerequisites(10, 3, 3, 11);
        assert!(!w.flat.is_empty());
        assert!(!sets.is_empty());
        for row in w.flat.rows() {
            let set_id = (row[1].id() - 1_000_000) as usize;
            let set = &sets[set_id];
            assert!(!set.is_empty());
            assert!(
                !set.contains(&row[0].id()),
                "course {} must not be its own prerequisite",
                row[0].id()
            );
        }
        // A course may have several alternative sets — the paper's point
        // that CP can hold (c0,{c1,c2}) and (c0,{c1,c3}) side by side.
        let mut per_course = std::collections::HashMap::new();
        for row in w.flat.rows() {
            *per_course.entry(row[0]).or_insert(0usize) += 1;
        }
        assert!(
            per_course.values().any(|&n| n > 1),
            "some course has alternatives"
        );
    }

    #[test]
    fn prerequisites_are_deterministic() {
        let (a, sa) = prerequisites(8, 2, 2, 3);
        let (b, sb) = prerequisites(8, 2, 2, 3);
        assert_eq!(a.flat, b.flat);
        assert_eq!(sa, sb);
    }

    #[test]
    fn anti_correlated_resists_nesting() {
        let w = anti_correlated(30, 3, 0);
        assert_eq!(w.flat.len(), 90);
        let nfr =
            nf2_core::nest::canonical_of_flat(&w.flat, &nf2_core::schema::NestOrder::identity(2));
        // Every A-value has a distinct B-window: nesting A collapses
        // nothing (tuples = rows after νA ∘ νB ≥ domain).
        assert!(
            nfr.tuple_count() >= 30,
            "anti-correlated data must stay near-incompressible: {}",
            nfr.tuple_count()
        );
    }

    #[test]
    fn op_trace_is_replayable_and_consistent() {
        use nf2_core::bulk::Op;
        let base = university(10, 2, 20, 2, 5, 42);
        let trace = op_trace(&base, 200, 40, 7);
        assert_eq!(trace.len(), 200);
        // Replaying against a set model: deletes always hit, inserts
        // never duplicate (the generator tracks present/absent rows).
        let mut model: BTreeSet<Vec<Atom>> = base.flat.rows().map(<[Atom]>::to_vec).collect();
        for op in &trace {
            match op {
                Op::Insert(row) => assert!(model.insert(row.clone()), "duplicate insert {row:?}"),
                Op::Delete(row) => assert!(model.remove(row), "delete of absent {row:?}"),
            }
        }
    }

    #[test]
    fn op_trace_respects_delete_percentage_roughly() {
        use nf2_core::bulk::Op;
        let base = relationship(300, 30, 30, 4, 9);
        let trace = op_trace(&base, 400, 50, 13);
        let deletes = trace.iter().filter(|o| matches!(o, Op::Delete(_))).count();
        assert!(
            (100..=300).contains(&deletes),
            "50% nominal deletes landed at {deletes}/400"
        );
    }
}
