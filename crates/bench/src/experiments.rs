//! The experiment suite: one function per paper artifact (DESIGN.md §6).
//!
//! Each function regenerates a table or figure of the paper (or a
//! quantitative claim the paper states in prose) and returns a
//! [`Report`]. The `repro` binary prints them all; unit tests pin the
//! qualitative shapes (who wins, where the paper's claims hold).

use std::collections::BTreeSet;

use std::time::Instant;

use nf2_core::decompose;
use nf2_core::display::render_nf;
use nf2_core::irreducible::{
    enumerate_partitions, is_irreducible, minimum_partition, reduce, ReduceStrategy,
};
use nf2_core::maintenance::{CanonicalRelation, CostCounter};
use nf2_core::nest::{canonical_of_flat, nest, nest_pairwise};
use nf2_core::properties::{classify, is_fixed_on};
use nf2_core::relation::{FlatRelation, NfRelation};
use nf2_core::schema::{NestOrder, Schema};
use nf2_core::tuple::{FlatTuple, NfTuple, ValueSet};
use nf2_core::value::{Atom, Dictionary};
use nf2_deps::{check_theorem3, check_theorem4, check_theorem5, suggest_nest_order, Fd, Mvd};
use nf2_storage::{NfTable, SharedDictionary};
use nf2_workload as workload;

use crate::flat_table::FlatTable;
use crate::report::Report;

/// The Fig. 1 university instance: dictionary plus the two relations.
pub struct Fig1Data {
    /// Shared name dictionary (s1…, c1…, b1…, t1…).
    pub dict: Dictionary,
    /// `R1(Student, Course, Club)` as in Fig. 1.
    pub r1: NfRelation,
    /// `R2(Student, Course, Semester)` as in Fig. 1.
    pub r2: NfRelation,
}

/// Builds the exact Fig. 1 instance.
pub fn fig1_data() -> Fig1Data {
    let mut dict = Dictionary::new();
    let s: Vec<Atom> = (1..=3).map(|i| dict.intern(&format!("s{i}"))).collect();
    let c: Vec<Atom> = (1..=3).map(|i| dict.intern(&format!("c{i}"))).collect();
    let b: Vec<Atom> = (1..=2).map(|i| dict.intern(&format!("b{i}"))).collect();
    let t: Vec<Atom> = (1..=2).map(|i| dict.intern(&format!("t{i}"))).collect();

    let schema1 = Schema::new("R1", &["Student", "Course", "Club"]).unwrap();
    // Fig. 1 R1: each student takes c1,c2,c3; s1,s3 in club b1; s2 in b2.
    let r1 = NfRelation::from_tuples(
        schema1,
        vec![
            NfTuple::new(vec![
                ValueSet::singleton(s[0]),
                ValueSet::new(vec![c[0], c[1], c[2]]).unwrap(),
                ValueSet::singleton(b[0]),
            ]),
            NfTuple::new(vec![
                ValueSet::singleton(s[1]),
                ValueSet::new(vec![c[0], c[1], c[2]]).unwrap(),
                ValueSet::singleton(b[1]),
            ]),
            NfTuple::new(vec![
                ValueSet::singleton(s[2]),
                ValueSet::new(vec![c[0], c[1], c[2]]).unwrap(),
                ValueSet::singleton(b[0]),
            ]),
        ],
    )
    .unwrap();

    let schema2 = Schema::new("R2", &["Student", "Course", "Semester"]).unwrap();
    // Fig. 1 R2: [s1,s2,s3 | c1,c2 | t1], [s1,s3 | c3 | t1], [s2 | c3 | t2].
    let r2 = NfRelation::from_tuples(
        schema2,
        vec![
            NfTuple::new(vec![
                ValueSet::new(vec![s[0], s[1], s[2]]).unwrap(),
                ValueSet::new(vec![c[0], c[1]]).unwrap(),
                ValueSet::singleton(t[0]),
            ]),
            NfTuple::new(vec![
                ValueSet::new(vec![s[0], s[2]]).unwrap(),
                ValueSet::singleton(c[2]),
                ValueSet::singleton(t[0]),
            ]),
            NfTuple::new(vec![
                ValueSet::singleton(s[1]),
                ValueSet::singleton(c[2]),
                ValueSet::singleton(t[1]),
            ]),
        ],
    )
    .unwrap();

    Fig1Data { dict, r1, r2 }
}

/// E1 — Figs. 1 and 2: dropping `(s1, c1, ·)` from `R1` and `R2`.
///
/// Reproduces the §2 hand edit exactly with Def. 1–2 operations, and runs
/// the §4 canonical maintenance alongside for comparison.
pub fn e01_fig1_2() -> Report {
    let Fig1Data { dict, r1, r2 } = fig1_data();
    let s1 = dict.lookup("s1").unwrap();
    let c1 = dict.lookup("c1").unwrap();
    let t1 = dict.lookup("t1").unwrap();

    let mut report = Report::new(
        "E1",
        "Figs. 1–2: drop (s1, c1, ·) from R1 and R2",
        &["relation", "stage", "nf-tuples", "flat rows"],
    );
    report.push_row(vec![
        "R1".into(),
        "Fig. 1 (before)".into(),
        r1.tuple_count().to_string(),
        r1.expand().len().to_string(),
    ]);
    report.push_row(vec![
        "R2".into(),
        "Fig. 1 (before)".into(),
        r2.tuple_count().to_string(),
        r2.expand().len().to_string(),
    ]);

    // R1 hand edit: remove c1 from the first tuple's Course set
    // (decompose on Course(c1), drop the isolated part).
    let mut r1_tuples = r1.tuples().to_vec();
    let victim_idx = r1_tuples
        .iter()
        .position(|t| t.component(0).contains(s1) && t.component(1).contains(c1))
        .expect("Fig. 1 R1 contains (s1, c1, ·)");
    let victim = r1_tuples.remove(victim_idx);
    let split = decompose(&victim, 1, c1).expect("c1 in Course set");
    if let Some(rest) = split.remainder {
        r1_tuples.push(rest);
    }
    let r1_after = NfRelation::from_tuples(r1.schema().clone(), r1_tuples).unwrap();
    report.push_row(vec![
        "R1".into(),
        "Fig. 2 (hand edit)".into(),
        r1_after.tuple_count().to_string(),
        r1_after.expand().len().to_string(),
    ]);

    // R2 hand edit (§2): split the first tuple, drop (s1, c1, t1), keep
    // [s2,s3|c1,c2|t1] and [s1|c2|t1].
    let mut r2_tuples = r2.tuples().to_vec();
    let victim_idx = r2_tuples
        .iter()
        .position(|t| t.component(0).contains(s1) && t.component(1).contains(c1))
        .expect("Fig. 1 R2 contains (s1, c1, ·)");
    let victim = r2_tuples.remove(victim_idx);
    let by_student = decompose(&victim, 0, s1).expect("s1 in Student set");
    if let Some(rest) = by_student.remainder {
        r2_tuples.push(rest); // [s2,s3 | c1,c2 | t1]
    }
    let by_course = decompose(&by_student.isolated, 1, c1).expect("c1 in Course set");
    if let Some(rest) = by_course.remainder {
        r2_tuples.push(rest); // [s1 | c2 | t1]
    }
    // by_course.isolated == [s1 | c1 | t1]: dropped.
    let r2_after = NfRelation::from_tuples(r2.schema().clone(), r2_tuples).unwrap();
    report.push_row(vec![
        "R2".into(),
        "Fig. 2 (hand edit)".into(),
        r2_after.tuple_count().to_string(),
        r2_after.expand().len().to_string(),
    ]);

    // §4 canonical maintenance on R2 for comparison (order: Student first,
    // Semester last — the order Fig. 1's R2 is canonical for).
    let order = NestOrder::identity(3);
    let mut canon = CanonicalRelation::from_flat(&r2.expand(), order).unwrap();
    assert_eq!(
        canon.relation(),
        &r2,
        "Fig. 1 R2 is canonical for Student->Course->Semester"
    );
    let mut cost = CostCounter::new();
    canon.delete_counted(&[s1, c1, t1], &mut cost).unwrap();
    report.push_row(vec![
        "R2".into(),
        "Fig. 2 (§4 canonical maintenance)".into(),
        canon.tuple_count().to_string(),
        canon.flat_count().to_string(),
    ]);
    report.note(format!(
        "§4 maintenance used {} compositions and {} decompositions; the hand edit and the \
         canonical form are different 4-tuple irreducible forms of the same R* (the paper's \
         Fig. 2 edit is minimal, not canonical).",
        cost.compositions, cost.decompositions
    ));
    report.note(format!("R1 after:\n{}", render_nf(&r1_after, &dict)));
    report.note(format!(
        "R2 after (hand edit):\n{}",
        render_nf(&r2_after, &dict)
    ));
    report.note(format!(
        "R2 after (canonical):\n{}",
        render_nf(canon.relation(), &dict)
    ));
    report
}

/// The Example 1 instance over (A, B).
pub fn example1_flat() -> FlatRelation {
    let schema = Schema::new("R", &["A", "B"]).unwrap();
    FlatRelation::from_rows(
        schema,
        [[1u32, 11], [2, 11], [2, 12], [3, 12]]
            .iter()
            .map(|r| r.iter().map(|&v| Atom(v)).collect::<FlatTuple>()),
    )
    .unwrap()
}

/// The Example 2 instance over (A, B, C).
pub fn example2_flat() -> FlatRelation {
    let schema = Schema::new("R3", &["A", "B", "C"]).unwrap();
    FlatRelation::from_rows(
        schema,
        [
            [1u32, 11, 22],
            [1, 12, 22],
            [1, 12, 21],
            [2, 11, 22],
            [2, 11, 21],
            [2, 12, 21],
        ]
        .iter()
        .map(|r| r.iter().map(|&v| Atom(v)).collect::<FlatTuple>()),
    )
    .unwrap()
}

/// The Example 3 instance over (A, B, C) with MVD `A →→ B | C`.
pub fn example3_flat() -> FlatRelation {
    let schema = Schema::new("R5", &["A", "B", "C"]).unwrap();
    FlatRelation::from_rows(
        schema,
        [[1u32, 11, 21], [1, 12, 21], [2, 11, 21], [2, 11, 22]]
            .iter()
            .map(|r| r.iter().map(|&v| Atom(v)).collect::<FlatTuple>()),
    )
    .unwrap()
}

/// E2 — Example 1: irreducible forms are not unique (sizes 2 and 3).
pub fn e02_example1() -> Report {
    let flat = example1_flat();
    let base = NfRelation::from_flat(&flat);
    let mut report = Report::new(
        "E2",
        "Example 1: distinct irreducible forms from one 1NF relation",
        &["strategy", "tuples", "irreducible", "same R*"],
    );
    let mut sizes = BTreeSet::new();
    let mut strategies: Vec<(String, ReduceStrategy)> = vec![
        ("first-fit".into(), ReduceStrategy::FirstFit),
        ("greedy-largest".into(), ReduceStrategy::GreedyLargest),
    ];
    for seed in 0..12u64 {
        strategies.push((format!("random(seed={seed})"), ReduceStrategy::Random(seed)));
    }
    for (name, strategy) in strategies {
        let r = reduce(&base, strategy);
        sizes.insert(r.tuple_count());
        report.push_row(vec![
            name,
            r.tuple_count().to_string(),
            is_irreducible(&r).to_string(),
            (r.expand() == flat).to_string(),
        ]);
    }
    report.note(format!(
        "Distinct irreducible sizes observed: {sizes:?} — the paper's R1 (2 tuples, composed \
         over A) and R2 (3 tuples, composed over B first) both arise."
    ));
    report
}

/// E3 — Example 2: a 3-tuple irreducible form beats every canonical form
/// (all of which have 4 tuples).
pub fn e03_example2() -> Report {
    let flat = example2_flat();
    let mut report = Report::new(
        "E3",
        "Example 2: minimum irreducible form vs every canonical form",
        &["form", "tuples"],
    );
    for order in NestOrder::all(3) {
        let c = canonical_of_flat(&flat, &order);
        report.push_row(vec![
            format!("canonical ν_P, P = {order}"),
            c.tuple_count().to_string(),
        ]);
    }
    let min = minimum_partition(&flat);
    report.push_row(vec![
        "minimum partition (branch & bound)".into(),
        min.tuple_count().to_string(),
    ]);
    report.note(
        "Paper: the 6-tuple R3 has an irreducible form with 3 tuples, while \"every canonical \
         form contains 4 tuples\". Both reproduced exactly.",
    );
    report
}

/// E4 — Theorem 2: the canonical form is independent of composition order.
pub fn e04_theorem2() -> Report {
    let mut report = Report::new(
        "E4",
        "Theorem 2: ν_E fixpoint unique regardless of pair order",
        &["workload", "attr", "pair orders tried", "mismatches"],
    );
    let workloads = vec![
        workload::university(12, 3, 12, 2, 4, 41),
        workload::relationship(60, 10, 10, 3, 42),
        workload::uniform(40, &[6, 6, 6], 43),
    ];
    for w in &workloads {
        let base = NfRelation::from_flat(&w.flat);
        for attr in 0..w.flat.schema().arity() {
            let expected = nest(&base, attr);
            let mut mismatches = 0;
            let tried = 16u64;
            for seed in 0..tried {
                let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
                let got = nest_pairwise(&base, attr, move |k| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) as usize % k
                });
                if got != expected {
                    mismatches += 1;
                }
            }
            report.push_row(vec![
                w.label.clone(),
                format!("E{attr}"),
                tried.to_string(),
                mismatches.to_string(),
            ]);
        }
    }
    report.note("Zero mismatches: every random merge order reaches the same nested relation.");
    report
}

/// E5 — Theorems 3 & 4 / Example 3: FD vs MVD fixedness across
/// irreducible forms.
pub fn e05_theorem3_4() -> Report {
    let mut report = Report::new(
        "E5",
        "Theorems 3–4: fixedness of irreducible forms under FD vs MVD",
        &[
            "instance",
            "dependency",
            "holds",
            "forms sampled",
            "fixed on LHS",
        ],
    );
    // FD instance on a 3NF fragment: U = F ∪ E exactly (the §3.4 setting:
    // "we suppose all the relations are in 3NF").
    let schema = Schema::new("RFD", &["A", "B"]).unwrap();
    let fd_flat = FlatRelation::from_rows(
        schema,
        [[1u32, 11], [2, 11], [3, 12], [4, 12], [5, 11]]
            .iter()
            .map(|r| r.iter().map(|&v| Atom(v)).collect::<FlatTuple>()),
    )
    .unwrap();
    let fd = Fd::new([0], [1]);
    let t3 = check_theorem3(&fd_flat, &fd, 32);
    report.push_row(vec![
        "3NF fragment R(A,B)".into(),
        "FD A -> B".into(),
        t3.fd_holds.to_string(),
        t3.forms_sampled.to_string(),
        format!(
            "{} of {}",
            if t3.all_fixed { t3.forms_sampled } else { 0 },
            t3.forms_sampled
        ),
    ]);
    // The same FD with a free attribute C outside F ∪ E: Theorem 3's
    // conclusion fails, which is why §3.4 assumes 3NF fragments (D9).
    let schema = Schema::new("RFDC", &["A", "B", "C"]).unwrap();
    let free_flat = FlatRelation::from_rows(
        schema,
        [
            [1u32, 11, 21],
            [1, 11, 22],
            [2, 12, 21],
            [3, 11, 23],
            [3, 11, 21],
        ]
        .iter()
        .map(|r| r.iter().map(|&v| Atom(v)).collect::<FlatTuple>()),
    )
    .unwrap();
    let t3_free = check_theorem3(&free_flat, &fd, 32);
    report.push_row(vec![
        "R(A,B,C), C free".into(),
        "FD A -> B".into(),
        t3_free.fd_holds.to_string(),
        t3_free.forms_sampled.to_string(),
        format!(
            "{} of {}",
            if t3_free.all_fixed {
                t3_free.forms_sampled
            } else {
                0
            },
            t3_free.forms_sampled
        ),
    ]);
    // MVD instance: Example 3.
    let mvd = Mvd::new([0], [1]);
    let t4 = check_theorem4(&example3_flat(), &mvd, 32);
    report.push_row(vec![
        "Example 3 instance".into(),
        "MVD A ->-> B \\| C".into(),
        t4.mvd_holds.to_string(),
        t4.forms_sampled.to_string(),
        format!("{} of {}", t4.fixed_count, t4.forms_sampled),
    ]);
    report.note(format!(
        "Theorem 3 (FD, on a 3NF fragment where U = F ∪ E): every sampled irreducible form \
         fixed on the determinant = {}. With a free attribute outside F ∪ E the conclusion \
         fails (all fixed = {}), which is exactly why §3.4 assumes 3NF schemas (DESIGN.md D9). \
         Theorem 4 (MVD): a fixed form exists = {}, and (Example 3) an unfixed form also \
         exists = {} — existence, not universality.",
        t3.all_fixed,
        t3_free.all_fixed,
        t4.exists_fixed(),
        t4.exists_unfixed()
    ));
    report
}

/// E6 — Theorem 5: canonical forms are fixed on the n−1 attributes other
/// than the first-nested one, across degrees.
pub fn e06_theorem5() -> Report {
    let mut report = Report::new(
        "E6",
        "Theorem 5: fixed canonical form on n−1 domains",
        &["degree n", "|R*|", "orders checked", "fixed on U − first"],
    );
    for n in 2..=5usize {
        let domains: Vec<u32> = vec![5; n];
        let w = workload::uniform(60.min(5usize.pow(n as u32) / 2), &domains, 60 + n as u64);
        let mut ok = 0;
        let orders = NestOrder::all(n);
        for order in &orders {
            if check_theorem5(&w.flat, order) {
                ok += 1;
            }
        }
        report.push_row(vec![
            n.to_string(),
            w.flat.len().to_string(),
            orders.len().to_string(),
            format!("{ok}/{}", orders.len()),
        ]);
    }
    report.note("Every canonical form is fixed on the complement of its first-nested attribute, as Theorem 5 predicts.");
    report
}

/// E7 — Theorem A-4: update cost (compositions + decompositions) is
/// independent of |R*| and grows only with the degree.
pub fn e07_theorem_a4() -> Report {
    let mut report = Report::new(
        "E7",
        "Theorem A-4: update cost vs relation size and degree",
        &[
            "sweep",
            "parameter",
            "|R*|",
            "avg ops/insert",
            "max ops/insert",
            "avg ops/delete",
            "max ops/delete",
        ],
    );

    // (a) Fix degree 3, sweep |R*|.
    for &size in &[200usize, 1_000, 5_000, 20_000] {
        let w = workload::relationship(size, (size as u32 / 4).max(8), 40, 6, 7);
        let (ins, del) = probe_costs(&w.flat, 40, 1234);
        report.push_row(vec![
            "|R*| sweep (n=3)".into(),
            format!("size={size}"),
            w.flat.len().to_string(),
            format!("{:.2}", ins.0),
            ins.1.to_string(),
            format!("{:.2}", del.0),
            del.1.to_string(),
        ]);
    }

    // (b) Fix |R*| ≈ 2048, sweep degree on block-product data: every row
    // sits inside a 2^n rectangle, so a deletion must split (and a
    // re-insertion re-merge) along every attribute — the workload that
    // actually exercises the Theorem A-4 recurrence.
    for n in 2..=7usize {
        let blocks = (2048usize >> n).max(1);
        let dims: Vec<usize> = vec![2; n];
        let w = workload::block_product(blocks, &dims, 0);
        let (ins, del) = probe_costs(&w.flat, 40, 99);
        report.push_row(vec![
            "degree sweep (blocks of 2^n)".into(),
            format!("n={n}"),
            w.flat.len().to_string(),
            format!("{:.2}", ins.0),
            ins.1.to_string(),
            format!("{:.2}", del.0),
            del.1.to_string(),
        ]);
    }
    report.note(
        "Structural operations per update stay flat as |R*| grows 100x (the paper's central \
         complexity claim). On block data where every update must split/merge along each \
         attribute, cost grows with the degree n — and only with n, matching Theorem A-4's \
         bound as a function of the degree alone.",
    );
    report
}

/// Measures average/max structural ops for `probes` random insertions and
/// deletions against the canonical form of `flat`.
fn probe_costs(flat: &FlatRelation, probes: usize, seed: u64) -> ((f64, u64), (f64, u64)) {
    let order = NestOrder::identity(flat.schema().arity());
    let mut canon = CanonicalRelation::from_flat(flat, order).unwrap();
    let rows: Vec<FlatTuple> = flat.rows().cloned().collect();
    let mut state = seed | 1;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 17) as usize
    };
    let mut ins = (0.0f64, 0u64);
    let mut del = (0.0f64, 0u64);
    let mut count = 0u64;
    for _ in 0..probes {
        // Delete an existing row, then re-insert it: symmetric probes that
        // keep the relation stable.
        let row = rows[next() % rows.len()].clone();
        let mut dc = CostCounter::new();
        if !canon.delete_counted(&row, &mut dc).unwrap() {
            continue;
        }
        let mut ic = CostCounter::new();
        canon.insert_counted(row, &mut ic).unwrap();
        del.0 += dc.structural_ops() as f64;
        del.1 = del.1.max(dc.structural_ops());
        ins.0 += ic.structural_ops() as f64;
        ins.1 = ins.1.max(ic.structural_ops());
        count += 1;
    }
    if count > 0 {
        ins.0 /= count as f64;
        del.0 /= count as f64;
    }
    (ins, del)
}

/// E8 — §1/§2 claim: NFRs have far fewer tuples than 1NF.
pub fn e08_compression() -> Report {
    let mut report = Report::new(
        "E8",
        "Compression: NF² tuple count vs 1NF rows across workloads",
        &[
            "workload",
            "|R*| rows",
            "best canonical",
            "worst canonical",
            "best ratio",
        ],
    );
    let workloads = vec![
        workload::university(400, 4, 60, 2, 12, 11),
        workload::relationship(4_000, 300, 60, 6, 12),
        workload::block_product(40, &[4, 5, 5], 13),
        workload::uniform(4_000, &[80, 80, 80], 14),
        workload::zipf(4_000, &[200, 200, 200], 1.1, 15),
    ];
    let mut kernel = nf2_core::kernel::NestKernel::new();
    for w in &workloads {
        // The sweep runs on the single-pass kernel; pin it tuple-identical
        // to the legacy ν cascade — on every workload in debug builds
        // (what the test suite runs), and on the cheapest workload in
        // release so the timed sweep stays a kernel measurement. The full
        // generator × order cross-product lives in the property suite.
        if cfg!(debug_assertions) || w.label.starts_with("university") {
            let check = NestOrder::identity(w.flat.schema().arity());
            assert_eq!(
                kernel.canonical_of_flat(&w.flat, &check),
                nf2_core::nest::canonicalize(&NfRelation::from_flat(&w.flat), &check),
                "kernel must match the Def. 5 cascade on {}",
                w.label
            );
        }
        let mut best = usize::MAX;
        let mut worst = 0usize;
        for order in NestOrder::all(w.flat.schema().arity()) {
            let c = kernel.canonical_of_flat(&w.flat, &order);
            best = best.min(c.tuple_count());
            worst = worst.max(c.tuple_count());
        }
        report.push_row(vec![
            w.label.clone(),
            w.flat.len().to_string(),
            best.to_string(),
            worst.to_string(),
            format!("{:.2}x", w.flat.len() as f64 / best as f64),
        ]);
    }
    report.note(
        "Product-structured data (university, blocks) compresses heavily; uniform random data \
         barely compresses — matching the paper's framing that NFR pays off when MVD-style \
         structure exists. All canonical forms computed by the single-pass nest kernel, \
         cross-checked tuple-identical against the legacy ν cascade (one workload in release, \
         all of them in debug builds, every generator × order in the property suite).",
    );
    report
}

/// E9 — §2/§5 claim: reduction of logical search space on the
/// realization view.
pub fn e09_search_space() -> Report {
    let mut report = Report::new(
        "E9",
        "Search space: probes and bytes, NF² table vs 1NF table",
        &[
            "metric",
            "NF² (realization view)",
            "1NF baseline",
            "reduction",
        ],
    );
    let w = workload::university(300, 4, 50, 2, 10, 21);
    let dict = SharedDictionary::new();
    let nf = NfTable::from_flat("r1", &w.flat, NestOrder::identity(3), dict).unwrap();
    let flat_table = FlatTable::from_flat(&w.flat).unwrap();

    // Probe a set of course values by scan on both engines.
    let courses: Vec<Atom> = w
        .flat
        .rows()
        .map(|r| r[1])
        .collect::<BTreeSet<_>>()
        .into_iter()
        .take(25)
        .collect();
    for &course in &courses {
        let _ = nf
            .scan()
            .filter(|t| t.component(1).contains(course))
            .count();
        let _ = flat_table.lookup_scan(1, course);
    }
    let nf_stats = nf.stats();
    report.push_row(vec![
        "units probed / lookup".into(),
        format!(
            "{:.0}",
            nf_stats.units_probed as f64 / nf_stats.lookups as f64
        ),
        format!(
            "{:.0}",
            flat_table.units_probed() as f64 / flat_table.lookups() as f64
        ),
        format!(
            "{:.2}x",
            flat_table.units_probed() as f64 / nf_stats.units_probed.max(1) as f64
        ),
    ]);

    // Byte footprint: checkpoint both to pages.
    let dir = std::env::temp_dir().join("nf2_e9");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let nf_mut = nf;
    nf_mut.checkpoint(&dir).unwrap();
    let nf_bytes = std::fs::metadata(dir.join("r1.pages"))
        .map(|m| m.len())
        .unwrap_or(0);
    let flat_bytes = flat_table.size_bytes() as u64;
    report.push_row(vec![
        "page bytes".into(),
        nf_bytes.to_string(),
        flat_bytes.to_string(),
        format!("{:.2}x", flat_bytes as f64 / nf_bytes.max(1) as f64),
    ]);
    // Exact encoded payload (page-granularity effects removed).
    let mut nf_payload = 0usize;
    {
        let mut buf = bytes::BytesMut::new();
        for t in nf_mut.relation().tuples() {
            buf.clear();
            nf2_storage::codec::encode_nf_tuple(t, &mut buf);
            nf_payload += buf.len();
        }
    }
    let mut flat_payload = 0usize;
    {
        let mut buf = bytes::BytesMut::new();
        for row in w.flat.rows() {
            buf.clear();
            nf2_storage::codec::encode_flat_tuple(row, &mut buf);
            flat_payload += buf.len();
        }
    }
    report.push_row(vec![
        "encoded payload bytes".into(),
        nf_payload.to_string(),
        flat_payload.to_string(),
        format!("{:.2}x", flat_payload as f64 / nf_payload.max(1) as f64),
    ]);
    report.push_row(vec![
        "logical units".into(),
        nf_mut.tuple_count().to_string(),
        flat_table.row_count().to_string(),
        format!(
            "{:.2}x",
            flat_table.row_count() as f64 / nf_mut.tuple_count().max(1) as f64
        ),
    ]);
    report.note(
        "The NF² realization view scans and stores one unit per NF² tuple; the 1NF baseline \
         pays per flat row — the paper's \"reduction of logical search space\".",
    );
    report
}

/// E10 — §4 premise: incremental maintenance beats re-nesting from
/// scratch.
pub fn e10_update_cost() -> Report {
    let mut report = Report::new(
        "E10",
        "Update cost: §4 incremental maintenance vs re-nest baseline",
        &[
            "|R*|",
            "incremental avg µs/op",
            "re-nest avg µs/op",
            "speedup",
        ],
    );
    let mut kernel = nf2_core::kernel::NestKernel::new();
    for &size in &[500usize, 2_000, 8_000] {
        let w = workload::relationship(size, (size as u32 / 4).max(8), 40, 6, 31);
        let order = NestOrder::identity(3);
        if size == 500 {
            // Pin the kernel-built baseline against the legacy cascade
            // once (cheap at the smallest size).
            assert_eq!(
                canonical_of_flat(&w.flat, &order),
                nf2_core::nest::canonicalize(&NfRelation::from_flat(&w.flat), &order),
                "kernel must match the Def. 5 cascade"
            );
        }
        let mut canon = CanonicalRelation::from_flat(&w.flat, order.clone()).unwrap();
        let rows: Vec<FlatTuple> = w.flat.rows().cloned().collect();
        let probes = 24usize;

        let start = Instant::now();
        for i in 0..probes {
            let row = rows[(i * 7919) % rows.len()].clone();
            canon.delete(&row).unwrap();
            canon.insert(row).unwrap();
        }
        let incr = start.elapsed().as_micros() as f64 / (probes * 2) as f64;

        // Baseline: recompute the canonical form from scratch per update
        // (one shared kernel keeps the comparison honest — the re-nester
        // gets every amortization the production rebuild path has).
        let mut flat = w.flat.clone();
        let start = Instant::now();
        let baseline_probes = 4usize; // re-nesting is slow; fewer probes suffice
        for i in 0..baseline_probes {
            let row = rows[(i * 104729) % rows.len()].clone();
            flat.remove(&row);
            let _ = kernel.canonical_of_flat(&flat, &order);
            flat.insert(row).unwrap();
            let _ = kernel.canonical_of_flat(&flat, &order);
        }
        let renest = start.elapsed().as_micros() as f64 / (baseline_probes * 2) as f64;

        report.push_row(vec![
            size.to_string(),
            format!("{incr:.1}"),
            format!("{renest:.1}"),
            format!("{:.1}x", renest / incr.max(0.001)),
        ]);
    }
    report.note(
        "Incremental cost is flat in |R*| (Theorem A-4); the re-nest baseline grows linearly, \
         so the speedup widens with relation size. The baseline runs on the single-pass nest \
         kernel — the honest strongest version of re-nesting from scratch.",
    );
    report
}

/// E11 — Fig. 3: census of canonical / irreducible / fixed regions over
/// **all** NFRs of the Example 2 relation (whose 3-tuple minimum is the
/// paper's witness that irreducible ⊋ canonical).
pub fn e11_fig3() -> Report {
    let flat = example2_flat();
    let all = enumerate_partitions(&flat, 100_000);
    let mut total = 0usize;
    let mut irreducible = 0usize;
    let mut canonical = 0usize;
    let mut fixed_proper = 0usize;
    let mut canonical_and_fixed = 0usize;
    let mut irreducible_not_canonical = 0usize;
    let n = flat.schema().arity();
    for rel in &all {
        total += 1;
        let c = classify(rel);
        // "Fixed" in Fig. 3's sense: fixed on some proper subset of at
        // most n−1 attributes (fixedness on all of U is vacuous).
        let fixed = (0..n).any(|skip| {
            let rest: Vec<usize> = (0..n).filter(|&a| a != skip).collect();
            is_fixed_on(rel, &rest)
        });
        if c.irreducible {
            irreducible += 1;
            if !c.is_canonical() {
                irreducible_not_canonical += 1;
            }
        }
        if c.is_canonical() {
            canonical += 1;
            if fixed {
                canonical_and_fixed += 1;
            }
        }
        if fixed {
            fixed_proper += 1;
        }
    }
    let mut report = Report::new(
        "E11",
        "Fig. 3: region census over all NFRs of the Example 2 relation",
        &["region", "count"],
    );
    report.push_row(vec![
        "all NFRs (rectangle partitions of R*, Example 2 instance)".into(),
        total.to_string(),
    ]);
    report.push_row(vec!["irreducible (Def. 3)".into(), irreducible.to_string()]);
    report.push_row(vec![
        "canonical for ≥1 order (Def. 5)".into(),
        canonical.to_string(),
    ]);
    report.push_row(vec![
        "fixed on some n−1 attrs (Def. 7)".into(),
        fixed_proper.to_string(),
    ]);
    report.push_row(vec![
        "canonical ∧ fixed".into(),
        canonical_and_fixed.to_string(),
    ]);
    report.push_row(vec![
        "irreducible ∧ ¬canonical".into(),
        irreducible_not_canonical.to_string(),
    ]);
    report.note(format!(
        "Fig. 3's containments hold on this census: canonical ({canonical}) ⊆ irreducible \
         ({irreducible}) ⊆ all ({total}); the gap irreducible ∧ ¬canonical = \
         {irreducible_not_canonical} is the paper's Example 2 phenomenon; {fixed_proper} NFRs \
         are fixed on some n−1 attribute subset."
    ));
    report
}

/// E12 — §3.4: dependency-driven nest-order choice.
pub fn e12_permutation_choice() -> Report {
    let mut report = Report::new(
        "E12",
        "§3.4: dependency-driven permutation vs all orders",
        &[
            "order (application)",
            "tuples",
            "fixed on determinant {Student}",
            "suggested",
        ],
    );
    // University data with MVD Student ->-> Course | Club.
    let w = workload::university(120, 3, 25, 2, 8, 77);
    let mvds = vec![Mvd::new([0], [1])];
    let suggested = suggest_nest_order(3, &[], &mvds);
    for order in NestOrder::all(3) {
        let c = canonical_of_flat(&w.flat, &order);
        let fixed = is_fixed_on(&c, &[0]);
        report.push_row(vec![
            order.to_string(),
            c.tuple_count().to_string(),
            fixed.to_string(),
            (order == suggested).to_string(),
        ]);
    }
    report.note(format!(
        "Suggested order (dependents first, determinants last): {suggested}. Its canonical \
         form is fixed on the MVD determinant, enabling key-style access — \"nesting on \
         left-side attributes of FDs or MVDs allows us to get to better NFRs\".",
    ));
    report
}

/// E13 — §5's open "optimization strategy": rule-based plan rewriting.
///
/// Measures the structural-mode optimizer on select-over-join plans:
/// estimated work, wall time, and the rewrites that fired. Structural
/// rewrites are tuple-identical, so the result check is exact equality.
pub fn e13_optimizer() -> Report {
    use nf2_algebra::optimize::{estimate, optimize, RewriteMode, SchemaCatalog};
    use nf2_algebra::{Env, Expr};

    let mut report = Report::new(
        "E13",
        "§5 optimization strategy: plan rewriting on σ(sc ⋈ cp)",
        &[
            "selectivity",
            "rewrites",
            "est. work before",
            "est. work after",
            "µs before",
            "µs after",
        ],
    );

    // sc(Student, Course) from the university workload; cp(Course, Prof).
    let w = workload::university(400, 4, 60, 1, 1, 55);
    let sc_flat = {
        let schema = Schema::new("sc", &["Student", "Course"]).unwrap();
        FlatRelation::from_rows(
            schema,
            w.flat
                .rows()
                .map(|r| vec![r[0], r[1]])
                .collect::<BTreeSet<_>>(),
        )
        .unwrap()
    };
    let cp_flat = {
        let schema = Schema::new("cp", &["Course", "Prof"]).unwrap();
        let courses: BTreeSet<Atom> = sc_flat.rows().map(|r| r[1]).collect();
        FlatRelation::from_rows(
            schema,
            courses
                .into_iter()
                .enumerate()
                .map(|(i, c)| vec![c, Atom(3_000_000 + (i as u32 % 7))]),
        )
        .unwrap()
    };
    let mut env = Env::new();
    env.insert("sc", canonical_of_flat(&sc_flat, &NestOrder::identity(2)));
    env.insert("cp", canonical_of_flat(&cp_flat, &NestOrder::identity(2)));
    let catalog = SchemaCatalog::from_env(&env);
    let sizes: std::collections::HashMap<String, usize> = env
        .names()
        .iter()
        .map(|n| {
            (
                n.to_string(),
                env.get(n).map(|r| r.tuple_count()).unwrap_or(0),
            )
        })
        .collect();

    // One Prof value selects ~1/7 of courses; stacking Student narrows more.
    let plans: Vec<(&str, Expr)> = vec![
        (
            "Prof = p0",
            Expr::SelectBox {
                input: Box::new(Expr::Join(
                    Box::new(Expr::rel("sc")),
                    Box::new(Expr::rel("cp")),
                )),
                constraints: vec![("Prof".into(), vec![Atom(3_000_000)])],
            },
        ),
        (
            "Prof = p0 ∧ Student ∈ {0..9}",
            Expr::SelectBox {
                input: Box::new(Expr::SelectBox {
                    input: Box::new(Expr::Join(
                        Box::new(Expr::rel("sc")),
                        Box::new(Expr::rel("cp")),
                    )),
                    constraints: vec![("Prof".into(), vec![Atom(3_000_000)])],
                }),
                constraints: vec![("Student".into(), (0..10).map(Atom).collect())],
            },
        ),
    ];

    for (label, plan) in &plans {
        let opt = optimize(plan, &catalog, RewriteMode::Structural);
        let before = estimate(plan, &sizes);
        let after = estimate(&opt.expr, &sizes);

        let start = Instant::now();
        let base_result = plan.eval(&env).unwrap();
        let t_before = start.elapsed().as_micros();
        let start = Instant::now();
        let opt_result = opt.expr.eval(&env).unwrap();
        let t_after = start.elapsed().as_micros();
        assert_eq!(base_result, opt_result, "structural rewrites are exact");

        report.push_row(vec![
            (*label).to_string(),
            opt.trace
                .iter()
                .map(|s| s.rule)
                .collect::<Vec<_>>()
                .join(", "),
            format!("{:.0}", before.total_work),
            format!("{:.0}", after.total_work),
            t_before.to_string(),
            t_after.to_string(),
        ]);
    }
    report.note(
        "Selection pushdown below the join fires in every plan; the optimized plan \
         intersects rectangles before pairing them, cutting both the cost estimate and \
         the measured time. Results verified tuple-identical.",
    );
    report
}

/// E14 — batch maintenance crossover: §4 incremental vs re-nest, as the
/// batch grows relative to the relation.
pub fn e14_batch_crossover() -> Report {
    use nf2_core::bulk::{apply_batch, rebuild_batch_with, should_rebuild};

    let mut report = Report::new(
        "E14",
        "Batch updates: incremental §4 maintenance vs re-nest, by batch size",
        &[
            "batch (% of |R*|)",
            "incremental µs",
            "re-nest µs",
            "faster",
            "auto picks",
        ],
    );
    let w = workload::university(150, 3, 30, 2, 8, 91);
    let base_rows = w.flat.len();
    let order = NestOrder::identity(3);
    let base = CanonicalRelation::from_flat(&w.flat, order).unwrap();
    let mut kernel = nf2_core::kernel::NestKernel::new();

    for &pct in &[1usize, 5, 20, 50, 100] {
        let ops = workload::op_trace(&w, (base_rows * pct / 100).max(1), 40, pct as u64);

        let mut inc = base.clone();
        let mut cost = CostCounter::new();
        let start = Instant::now();
        apply_batch(&mut inc, &ops, &mut cost).unwrap();
        let t_inc = start.elapsed().as_micros();

        let start = Instant::now();
        let rebuilt = rebuild_batch_with(&mut kernel, &base, &ops).unwrap();
        let t_re = start.elapsed().as_micros();
        assert_eq!(inc.relation(), rebuilt.relation(), "strategies must agree");

        let faster = if t_inc <= t_re {
            "incremental"
        } else {
            "re-nest"
        };
        let auto = if should_rebuild(ops.len(), base.flat_count()) {
            "re-nest"
        } else {
            "incremental"
        };
        report.push_row(vec![
            format!("{pct}%"),
            t_inc.to_string(),
            t_re.to_string(),
            faster.to_string(),
            auto.to_string(),
        ]);
    }
    report.note(
        "Small batches favour §4 incremental maintenance; once a batch rewrites a large \
         fraction of R*, one re-nest beats many recons cascades. `should_rebuild`'s \
         conservative 50% threshold sits on the correct side in this sweep. The re-nest arm \
         runs on the single-pass kernel and is asserted tuple-identical to the incremental \
         result at every batch size.",
    );
    report
}

/// E15 — §2's "NFR may throw away the 4NF concept": one nested relation
/// vs the classical 4NF decomposition of the university schema.
pub fn e15_4nf_vs_nfr() -> Report {
    use bytes::BytesMut;
    use nf2_deps::decompose_4nf;
    use nf2_storage::codec::{encode_flat_tuple, encode_nf_tuple};

    let mut report = Report::new(
        "E15",
        "§2: one NFR vs the 4NF decomposition (Student ->-> Course | Club)",
        &[
            "design",
            "relations",
            "stored units",
            "payload bytes",
            "probes: s's full profile",
        ],
    );
    let w = workload::university(200, 3, 40, 2, 10, 17);
    let mvds = vec![Mvd::new([0], [1])];

    // 4NF route: split on the MVD, store both fragments flat.
    let d = decompose_4nf(3, &[], &mvds);
    assert_eq!(d.fragments.len(), 2, "classical SC/SB split");
    let mut frag_tables = Vec::new();
    for frag in &d.fragments {
        let attrs: Vec<usize> = frag.iter().collect();
        let names: Vec<String> = attrs.iter().map(|&a| format!("E{a}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let schema = Schema::new("frag", &refs).unwrap();
        let rows: BTreeSet<FlatTuple> = w
            .flat
            .rows()
            .map(|r| attrs.iter().map(|&a| r[a]).collect())
            .collect();
        frag_tables.push(FlatRelation::from_rows(schema, rows).unwrap());
    }
    let rows_4nf: usize = frag_tables.iter().map(FlatRelation::len).sum();
    let mut buf = BytesMut::new();
    let mut bytes_4nf = 0usize;
    for t in &frag_tables {
        for row in t.rows() {
            buf.clear();
            encode_flat_tuple(row, &mut buf);
            bytes_4nf += buf.len();
        }
    }
    // Full profile of one student = one probe per fragment table (scan
    // counted in rows touched) — plus the join to recombine.
    let target = w.flat.rows().next().expect("non-empty")[0];
    let probes_4nf: usize = frag_tables
        .iter()
        .map(|t| t.rows().filter(|_| true).count()) // full scan per fragment
        .sum();
    let _ = target;

    // NFR route: nest Course and Club under Student (suggested order).
    let order = suggest_nest_order(3, &[], &mvds);
    let nfr = canonical_of_flat(&w.flat, &order);
    let mut bytes_nfr = 0usize;
    for t in nfr.tuples() {
        buf.clear();
        encode_nf_tuple(t, &mut buf);
        bytes_nfr += buf.len();
    }
    // Full profile of one student = scan NF² tuples (one contains it all).
    let probes_nfr = nfr.tuple_count();

    report.push_row(vec![
        "4NF (SC ⋈ SB)".into(),
        d.fragments.len().to_string(),
        format!("{rows_4nf} rows"),
        bytes_4nf.to_string(),
        format!("{probes_4nf} rows + join"),
    ]);
    report.push_row(vec![
        format!("NFR ν_{order}"),
        "1".into(),
        format!("{} nf-tuples", nfr.tuple_count()),
        bytes_nfr.to_string(),
        format!("{probes_nfr} tuples, no join"),
    ]);
    report.note(format!(
        "The single NFR stores the same information in {} tuples vs {} fragment rows, \
         and answers an entity lookup without a join — \"NFR allows database users to \
         take away such decompositions … and to discard join operations\" (§5). \
         The 4NF route remains fully lossless (tableau-verified in nf2-deps).",
        nfr.tuple_count(),
        rows_4nf
    ));
    report
}

/// E16 — streaming/batched ingest at scale (the ROADMAP's first new
/// workload): a large op trace replayed through `apply_batch_auto`, with
/// one shared nest kernel amortizing every rebuild's scratch buffers.
///
/// `NF2_E16_OPS` overrides the trace length (default 10⁶ flat rows); CI
/// smoke-runs the experiment at a reduced count.
pub fn e16_streaming_ingest() -> Report {
    let ops = std::env::var("NF2_E16_OPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000usize);
    e16_with(ops)
}

/// [`e16_streaming_ingest`] at an explicit scale (tests run it small).
pub fn e16_with(total_ops: usize) -> Report {
    use nf2_core::bulk::{apply_batch, apply_batch_auto_with, replay_adaptive_with, Op};
    use nf2_core::kernel::NestKernel;

    let total_ops = total_ops.max(1_000);
    let mut report = Report::new(
        "E16",
        "Streaming ingest: op trace replayed through apply_batch_auto",
        &[
            "phase",
            "ops",
            "batches",
            "rebuilds",
            "elapsed ms",
            "Kops/s",
            "nf-tuples",
            "|R*|",
        ],
    );

    // Product-structured base (Fig. 1 R1 shape) so nesting pays off at
    // scale: `students × courses_per × clubs_per` rows ≈ `total_ops`.
    let students = (total_ops / 10).max(10);
    let gen_start = Instant::now();
    let w = workload::university(students, 5, 400, 2, 40, 16);
    let gen_ms = gen_start.elapsed().as_secs_f64() * 1e3;
    let order = NestOrder::identity(3);
    let schema = w.flat.schema().clone();
    let mut kernel = NestKernel::new();
    let mut cost = CostCounter::new();

    // Phase 1 — cold ingest: the base rows as a shuffled insert stream,
    // replayed from empty in adaptive batches (each batch grows with the
    // relation, so the auto strategy keeps choosing the kernel rebuild).
    let mut stream: Vec<Op> = w.flat.rows().cloned().map(Op::Insert).collect();
    let mut state = 0x1657_u64;
    for i in (1..stream.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        stream.swap(i, (state >> 33) as usize % (i + 1));
    }
    let mut canon = CanonicalRelation::new(schema, order.clone()).unwrap();
    let min_batch = 4_096usize.min(stream.len());
    let start = Instant::now();
    let (batches, rebuilds) =
        replay_adaptive_with(&mut kernel, &mut canon, &stream, min_batch, &mut cost).unwrap();
    let ingest_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        canon.flat_count(),
        w.flat.len() as u128,
        "every streamed row must land"
    );
    report.push_row(vec![
        "cold ingest (adaptive batches)".into(),
        stream.len().to_string(),
        batches.to_string(),
        rebuilds.to_string(),
        format!("{ingest_ms:.1}"),
        format!("{:.0}", stream.len() as f64 / ingest_ms.max(0.001)),
        canon.tuple_count().to_string(),
        canon.flat_count().to_string(),
    ]);

    // Phase 2 — steady-state churn: a mixed trace rewriting ~60% of R*,
    // applied as one batch; `should_rebuild` picks the kernel re-nest.
    let churn_ops = workload::op_trace(&w, (w.flat.len() * 3 / 5).max(1), 30, 61);
    let start = Instant::now();
    let (_, rebuilt) =
        apply_batch_auto_with(&mut kernel, &mut canon, &churn_ops, &mut cost).unwrap();
    let churn_ms = start.elapsed().as_secs_f64() * 1e3;
    assert!(rebuilt, "a 60% churn batch must take the rebuild arm");
    report.push_row(vec![
        "steady churn (auto -> re-nest)".into(),
        churn_ops.len().to_string(),
        "1".into(),
        "1".into(),
        format!("{churn_ms:.1}"),
        format!("{:.0}", churn_ops.len() as f64 / churn_ms.max(0.001)),
        canon.tuple_count().to_string(),
        canon.flat_count().to_string(),
    ]);

    // Phase 3 — the §4 scale limit: a small forced-incremental batch.
    // Every recons pays a candidate scan over all NF² tuples, so the
    // per-op cost grows with the relation — the wall the ROADMAP's
    // sharded-ingest follow-up has to break through.
    let probe_ops = workload::op_trace(&w, 128.min(total_ops), 50, 62);
    let mut probe_cost = CostCounter::new();
    let start = Instant::now();
    apply_batch(&mut canon, &probe_ops, &mut probe_cost).unwrap();
    let probe_ms = start.elapsed().as_secs_f64() * 1e3;
    report.push_row(vec![
        "§4 incremental probe".into(),
        probe_ops.len().to_string(),
        "1".into(),
        "0".into(),
        format!("{probe_ms:.1}"),
        format!("{:.0}", probe_ops.len() as f64 / probe_ms.max(0.001)),
        canon.tuple_count().to_string(),
        canon.flat_count().to_string(),
    ]);

    // Small runs re-verify canonicity from scratch; full-scale runs rely
    // on the property suite (the re-check would double the runtime).
    if total_ops <= 50_000 {
        canon.verify().unwrap();
    }
    report.note(format!(
        "Base workload generated in {gen_ms:.1} ms ({} rows; seed-deterministic). One shared \
         NestKernel served every rebuild, so batch N reuses batch N-1's sort/intern buffers. \
         The incremental probe averaged {:.0} candidate probes/op over {} nf-tuples — \
         §4 maintenance cost scales with the tuple count, which is the scale wall the \
         sharded-ingest follow-up targets (set NF2_E16_OPS to rescale this experiment).",
        w.flat.len(),
        probe_cost.candidate_probes as f64 / probe_ops.len().max(1) as f64,
        canon.tuple_count(),
    ));
    report
}

/// E17 — the Engine/Session API payoff: a point-SELECT hot loop served
/// three ways.
///
/// The one-shot `Session::run` path re-lexes, re-parses and re-optimizes
/// every call and materializes + renders the full result relation before
/// the caller sees a row. `Prepared::execute` compiles once and only
/// binds `?` parameters per call; `Prepared::query` additionally streams
/// the result through a cursor instead of rendering it. Same statement,
/// same results (asserted), different APIs — the speedup column is the
/// cost of the string-in/string-out surface.
///
/// `NF2_E17_ITERS` overrides the per-arm call count (default 3000).
pub fn e17_prepared_hot_loop() -> Report {
    let iters = std::env::var("NF2_E17_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3_000usize);
    e17_with(iters)
}

/// [`e17_prepared_hot_loop`] at an explicit call count (tests run it
/// small). Returns the report; the `speedup` column of the
/// `count: Prepared::execute` row is the acceptance number.
pub fn e17_with(iters: usize) -> Report {
    use nf2_query::{Engine, Output};

    let iters = iters.max(100);
    let mut report = Report::new(
        "E17",
        "Prepared-statement hot loop: parse-per-call vs Prepared::execute vs Cursor",
        &["arm", "calls", "total ms", "us/call", "speedup vs run"],
    );

    // A small serving-shaped instance: point lookups on it are
    // plan-bound, which is exactly the regime prepared statements exist
    // for. 64 students x 3 courses drawn from a 16-course pool, each
    // course taught by one of four profs (the joined dimension table).
    let engine = Engine::new();
    let students = 64u32;
    let sc_rows: Vec<Vec<String>> = (0..students)
        .flat_map(|s| (0..3u32).map(move |c| vec![format!("s{s}"), format!("c{}", (s + c) % 16)]))
        .collect();
    {
        let mut session = engine.session();
        session
            .run("CREATE TABLE sc (Student, Course) NEST ORDER (Student, Course)")
            .unwrap();
        session.run("CREATE TABLE cp (Course, Prof)").unwrap();
        session.run("CREATE TABLE pd (Prof, Dept)").unwrap();
        for row in &sc_rows {
            session
                .run(&format!(
                    "INSERT INTO sc VALUES ('{}', '{}')",
                    row[0], row[1]
                ))
                .unwrap();
        }
        for c in 0..16u32 {
            session
                .run(&format!("INSERT INTO cp VALUES ('c{c}', 'p{}')", c % 4))
                .unwrap();
        }
        for p in 0..4u32 {
            session
                .run(&format!("INSERT INTO pd VALUES ('p{p}', 'd{}')", p % 2))
                .unwrap();
        }
    }
    let session = &mut engine.session();
    // The hot statement: a point lookup joining the dimension table with
    // an IN filter, as a serving tier would issue it — the plan is where
    // the one-shot path pays (selection pushdown re-derived per call).
    // COUNT for the acceptance loop (both arms do identical result work:
    // none), plus a fetch variant for materialize-vs-stream.
    let where_tail =
        "Dept = 'd0' AND Prof IN ('p0', 'p1') AND Course IN ('c0', 'c1', 'c2', 'c3', 'c4', 'c5')";
    let count_sql = |s: &str| {
        format!("SELECT COUNT(*) FROM sc JOIN cp JOIN pd WHERE Student = '{s}' AND {where_tail}")
    };
    let fetch_sql = |s: &str| {
        format!(
            "SELECT Course, Prof FROM sc JOIN cp JOIN pd WHERE Student = '{s}' AND {where_tail}"
        )
    };
    let count_prepared =
        format!("SELECT COUNT(*) FROM sc JOIN cp JOIN pd WHERE Student = ? AND {where_tail}");
    let fetch_prepared =
        format!("SELECT Course, Prof FROM sc JOIN cp JOIN pd WHERE Student = ? AND {where_tail}");
    let student_of = |i: usize| format!("s{}", i as u32 % students);

    // Results must agree before anything is timed.
    let mut count_stmt = session.prepare(&count_prepared).unwrap();
    let mut fetch_stmt = session.prepare(&fetch_prepared).unwrap();
    for i in 0..8 {
        let s = student_of(i);
        assert_eq!(
            session.run(&count_sql(&s)).unwrap(),
            count_stmt.execute(session, &[s.as_str()]).unwrap(),
            "count arms must agree on {s}"
        );
        assert_eq!(
            session.run(&fetch_sql(&s)).unwrap(),
            fetch_stmt.execute(session, &[s.as_str()]).unwrap(),
            "fetch arms must agree on {s}"
        );
    }

    let timed = |f: &mut dyn FnMut(usize)| -> f64 {
        let start = Instant::now();
        for i in 0..iters {
            f(i);
        }
        start.elapsed().as_secs_f64() * 1e3
    };

    // Group 1 — the acceptance loop: COUNT point lookup.
    let count_run_ms = timed(&mut |i| {
        let out = session.run(&count_sql(&student_of(i))).unwrap();
        assert!(matches!(out, Output::Count(_)));
    });
    let count_exec_ms = timed(&mut |i| {
        let s = student_of(i);
        let out = count_stmt.execute(session, &[s.as_str()]).unwrap();
        assert!(matches!(out, Output::Count(_)));
    });

    // Group 2 — the fetch loop: same lookup returning its rows.
    let fetch_run_ms = timed(&mut |i| {
        let out = session.run(&fetch_sql(&student_of(i))).unwrap();
        assert!(matches!(out, Output::Relation { .. }));
    });
    let fetch_exec_ms = timed(&mut |i| {
        let s = student_of(i);
        let out = fetch_stmt.execute(session, &[s.as_str()]).unwrap();
        assert!(matches!(out, Output::Relation { .. }));
    });
    let mut streamed_tuples = 0usize;
    let fetch_cursor_ms = timed(&mut |i| {
        let s = student_of(i);
        let cursor = fetch_stmt.query(session, &[s.as_str()]).unwrap();
        streamed_tuples += cursor.count();
    });
    assert!(streamed_tuples > 0, "cursors produced tuples");

    for (arm, ms, base) in [
        ("count: run (parse per call)", count_run_ms, count_run_ms),
        ("count: Prepared::execute", count_exec_ms, count_run_ms),
        ("fetch: run (parse per call)", fetch_run_ms, fetch_run_ms),
        ("fetch: Prepared::execute", fetch_exec_ms, fetch_run_ms),
        (
            "fetch: Prepared::query (cursor)",
            fetch_cursor_ms,
            fetch_run_ms,
        ),
    ] {
        report.push_row(vec![
            arm.into(),
            iters.to_string(),
            format!("{ms:.1}"),
            format!("{:.2}", ms * 1e3 / iters as f64),
            format!("{:.1}x", base / ms.max(1e-9)),
        ]);
    }
    report.note(format!(
        "Same point lookup (join + equality + IN filters) on every arm over {} sc rows \
         ({} NF² tuples); outputs asserted identical before timing. Prepared::execute \
         skips lex/parse/plan/optimize — in particular the per-call selection-pushdown \
         rewrite — binding slots into the cached plan in place (re-planning only on \
         DDL). In the fetch group, Prepared::query additionally skips result \
         materialization and rendering by streaming NF² tuples through the scan-counted \
         cursor pipeline. Set NF2_E17_ITERS to rescale.",
        sc_rows.len(),
        session
            .engine()
            .table("sc")
            .map(|t| t.tuple_count())
            .unwrap_or(0),
    ));
    report
}

/// E18 — the sharded canonical store: ingest and point maintenance,
/// sharded vs unsharded.
///
/// The same workload runs twice through `nf2_core::shard`'s
/// `ShardedCanonical` — once with one shard (the unsharded baseline:
/// identical code path, no threads) and once with several. Two phases
/// per arm:
///
/// * **cold ingest** — the base rows as a shuffled insert stream through
///   `replay_adaptive` (adaptive batches; the rebuild arm re-nests each
///   shard on its own kernel, shards in parallel under
///   `std::thread::scope`);
/// * **§4 point-maintenance probe** — a mixed insert/delete trace
///   applied incrementally; `candt`/`searcht` scan only the routed
///   shard, so candidate probes per op drop by ~the shard count (the
///   E16 scale wall, broken).
///
/// `NF2_E18_OPS` overrides the base row count (default 500 000); CI
/// smoke-runs it reduced. The per-shard probe/recons breakdown is
/// reported so the JSON baseline captures the shard balance.
pub fn e18_sharded_maintenance() -> Report {
    let ops = std::env::var("NF2_E18_OPS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(500_000usize);
    e18_with(ops)
}

/// [`e18_sharded_maintenance`] at an explicit scale (tests run it
/// small). Small runs (≤ 50 000 rows) also assert sharded ≡ unsharded
/// tuple-identity and re-verify every shard invariant from scratch.
pub fn e18_with(total_ops: usize) -> Report {
    use nf2_core::bulk::Op;
    use nf2_core::shard::{ShardSpec, ShardedCanonical};

    let total_ops = total_ops.max(2_000);
    const PROBE_OPS: usize = 96;
    let mut report = Report::new(
        "E18",
        "Sharded canonical store: parallel ingest + routed §4 maintenance",
        &[
            "arm",
            "shards",
            "ops",
            "elapsed ms",
            "Kops/s",
            "probes/op",
            "nf-tuples (stored)",
        ],
    );

    // The E16 workload shape: product-structured rows whose outermost
    // nest attribute (Club under the identity order) spreads across a
    // pool wide enough to hash-balance.
    let students = (total_ops / 10).max(10);
    let w = workload::university(students, 5, 400, 2, 64, 18);
    let order = NestOrder::identity(3);
    let schema = w.flat.schema().clone();

    // One shuffled insert stream, shared by every arm.
    let mut stream: Vec<Op> = w.flat.rows().cloned().map(Op::Insert).collect();
    let mut state = 0x18E8u64;
    for i in (1..stream.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        stream.swap(i, (state >> 33) as usize % (i + 1));
    }
    let probe_trace = workload::op_trace(&w, PROBE_OPS, 50, 181);

    let shard_counts = [1usize, 4];
    let mut ingest_ms = Vec::new();
    let mut probes_per_op = Vec::new();
    let mut relations = Vec::new();
    for &shards in &shard_counts {
        let spec = ShardSpec::hash(shards).expect("positive shard count");
        let mut canon = ShardedCanonical::new(schema.clone(), order.clone(), spec).unwrap();

        // Phase 1 — cold ingest through adaptive parallel batches.
        let start = Instant::now();
        let (_, rebuilds) = canon
            .replay_adaptive(&stream, 4_096.min(stream.len()))
            .unwrap();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(canon.flat_count(), w.flat.len() as u128, "every row lands");
        assert!(rebuilds > 0, "cold ingest exercises the rebuild arm");
        ingest_ms.push(ms);
        report.push_row(vec![
            "cold ingest (parallel rebuild)".into(),
            shards.to_string(),
            stream.len().to_string(),
            format!("{ms:.1}"),
            format!("{:.0}", stream.len() as f64 / ms.max(0.001)),
            "-".into(),
            canon.tuple_count().to_string(),
        ]);

        // Phase 2 — §4 incremental probe: candt routed to one shard.
        canon.reset_maintenance_cost();
        let start = Instant::now();
        for op in &probe_trace {
            match op {
                Op::Insert(row) => {
                    canon.insert(row.clone()).unwrap();
                }
                Op::Delete(row) => {
                    canon.delete(row).unwrap();
                }
            }
        }
        let probe_ms = start.elapsed().as_secs_f64() * 1e3;
        let probe_cost = canon.maintenance_cost();
        let per_op = probe_cost.total.candidate_probes as f64 / probe_trace.len() as f64;
        probes_per_op.push(per_op);
        report.push_row(vec![
            "§4 incremental probe".into(),
            shards.to_string(),
            probe_trace.len().to_string(),
            format!("{probe_ms:.1}"),
            format!("{:.0}", probe_trace.len() as f64 / probe_ms.max(0.001)),
            format!("{per_op:.0}"),
            canon.tuple_count().to_string(),
        ]);

        // Per-shard breakdown (multi-shard arms): balance is visible in
        // the committed JSON baseline. The `ops` column is the number of
        // trace ops routed to the shard; `probes/op` divides by the whole
        // trace, so the column sums to the aggregate row above.
        if shards > 1 {
            let mut routed = vec![0usize; shards];
            for op in &probe_trace {
                routed[canon.router().route_row(op.row())] += 1;
            }
            for (idx, c) in probe_cost.per_shard.iter().enumerate() {
                report.push_row(vec![
                    format!("probe breakdown: shard {idx}"),
                    shards.to_string(),
                    routed[idx].to_string(),
                    "-".into(),
                    "-".into(),
                    format!(
                        "{:.0}",
                        c.candidate_probes as f64 / probe_trace.len() as f64
                    ),
                    canon.shard(idx).tuple_count().to_string(),
                ]);
            }
        }
        relations.push(canon);
    }

    // Small-scale runs prove exactness end to end; full-scale runs lean
    // on the property suite (the O(T²) re-validation would dominate).
    if total_ops <= 50_000 {
        let merged: Vec<_> = relations.iter().map(|c| c.to_relation()).collect();
        for (i, rel) in merged.iter().enumerate().skip(1) {
            assert_eq!(
                rel, &merged[0],
                "sharded ({} shards) and unsharded canonical forms must be tuple-identical",
                shard_counts[i]
            );
        }
        for canon in &relations {
            canon.verify().unwrap();
        }
    }

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let speedup = ingest_ms[0] / ingest_ms[1].max(1e-9);
    let probe_drop = probes_per_op[0] / probes_per_op[1].max(1e-9);
    report.note(format!(
        "{} base rows; identical code path for every arm (1 shard = the unsharded \
         baseline, no threads). Parallel batch-rebuild ingest speedup at {} shards: \
         {speedup:.2}x on {cores} available core(s) — thread-level speedup requires \
         cores; the candidate-probe drop is machine-independent: {:.0} -> {:.0} \
         probes/op ({probe_drop:.2}x, ~proportional to the shard count). Set \
         NF2_E18_OPS to rescale.",
        w.flat.len(),
        shard_counts[1],
        probes_per_op[0],
        probes_per_op[1],
    ));
    report
}

/// E19 — ORDER BY as a streaming top-k, and shard-pruned scans.
///
/// Two phases, matching the two PR-5 operators:
///
/// * **top-k vs full sort** — the same `ORDER BY`-shaped workload over
///   one borrowed scan: the blocking sort drains and sorts every tuple;
///   the bounded-heap top-k pulls the same scan exactly once but
///   retains ≤ k tuples (`TopKStats` pins both the single pull and the
///   heap bound). Wall-clock and the retained-tuple ceiling are
///   reported per k.
/// * **shard-pruned scans** — a 4-shard engine answering outer-
///   attribute equality / IN queries through the compiled cursor
///   pipeline: the predicate routes to its shard set and the probe
///   counter shows ~(values / shards) of the stored tuples touched,
///   against the full-scan baseline.
///
/// `NF2_E19_ROWS` overrides the base row count (default 300 000); CI
/// smoke-runs it reduced. Small runs (≤ 50 000 rows) also assert
/// top-k ≡ sort-then-truncate tuple-identity and pruned ≡ unpruned
/// row-identity.
pub fn e19_topk_pruning() -> Report {
    let rows = std::env::var("NF2_E19_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(300_000usize);
    e19_with(rows)
}

/// [`e19_topk_pruning`] at an explicit scale (tests run it small).
pub fn e19_with(total_rows: usize) -> Report {
    use nf2_algebra::stream::{RelStream, SortDir, TopKStats, TupleOrder};
    use nf2_core::shard::ShardSpec;
    use nf2_query::Engine;
    use std::sync::Arc;

    let total_rows = total_rows.max(2_000);
    let mut report = Report::new(
        "E19",
        "ORDER BY top-k streaming + shard-pruned scans",
        &[
            "arm",
            "k / predicate",
            "tuples stored",
            "elapsed ms",
            "Ktuples/s",
            "retained / probes",
        ],
    );

    // ---- Phase 1: top-k vs full sort over one canonical relation. ----
    // `groups` tuples of 5 rows each; every group gets its own B-window
    // so canonicalization folds it into exactly one NF² tuple.
    let groups = (total_rows / 5).max(400);
    let schema = Schema::new("big", &["A", "B"]).unwrap();
    let flat = FlatRelation::from_rows(
        schema,
        (0..groups as u32)
            .flat_map(|g| (0..5u32).map(move |i| vec![Atom(g), Atom(1_000_000 + g * 5 + i)])),
    )
    .unwrap();
    let rel = canonical_of_flat(&flat, &NestOrder::identity(2));
    assert_eq!(rel.tuple_count(), groups);

    let sort_order = TupleOrder::by_atom_id(0, SortDir::Desc);
    let start = Instant::now();
    let sorted: Vec<NfTuple> = RelStream::scan(&rel)
        .sorted(sort_order.clone())
        .map(|t| t.into_owned())
        .collect();
    let sort_ms = start.elapsed().as_secs_f64() * 1e3;
    assert_eq!(sorted.len(), groups);
    report.push_row(vec![
        "full blocking sort".into(),
        "-".into(),
        groups.to_string(),
        format!("{sort_ms:.2}"),
        format!("{:.0}", groups as f64 / sort_ms.max(0.001)),
        groups.to_string(),
    ]);

    let mut topk10_ms = f64::NAN;
    for k in [1usize, 10, 100] {
        let stats = Arc::new(TopKStats::default());
        let start = Instant::now();
        let top: Vec<NfTuple> = RelStream::scan(&rel)
            .top_k_with_stats(sort_order.clone(), k, stats.clone())
            .map(|t| t.into_owned())
            .collect();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if k == 10 {
            topk10_ms = ms;
        }
        let peak = stats
            .peak_retained
            .load(std::sync::atomic::Ordering::Relaxed);
        let pulled = stats.pulled.load(std::sync::atomic::Ordering::Relaxed);
        assert!(peak <= k, "heap bound violated: {peak} > {k}");
        assert_eq!(pulled, groups, "the scan is pulled exactly once");
        assert_eq!(top.len(), k.min(groups));
        // Exactness: the top-k prefix IS the sorted prefix.
        assert_eq!(top.as_slice(), &sorted[..k.min(groups)]);
        report.push_row(vec![
            "streaming top-k (bounded heap)".into(),
            format!("k={k}"),
            groups.to_string(),
            format!("{ms:.2}"),
            format!("{:.0}", groups as f64 / ms.max(0.001)),
            format!("{peak} retained"),
        ]);
    }
    let sort_speedup = sort_ms / topk10_ms.max(1e-9);
    if groups >= 20_000 {
        // The heap does strictly less work than the sort at scale; the
        // bar is deliberately modest so machine noise cannot trip it.
        assert!(
            sort_speedup > 1.2,
            "top-10 must beat the full sort at {groups} tuples: \
             sort {sort_ms:.2} ms vs top-k {topk10_ms:.2} ms"
        );
    }

    // ---- Phase 2: shard-pruned scans through the SQL surface. ----
    const SHARDS: usize = 4;
    const OUTER_VALUES: usize = 64;
    let engine = Engine::builder().shards(SHARDS).build().unwrap();
    let srows: Vec<Vec<String>> = (0..total_rows)
        .map(|i| vec![format!("a{i:07}"), format!("b{:03}", i % OUTER_VALUES)])
        .collect();
    let srefs: Vec<Vec<&str>> = srows
        .iter()
        .map(|r| r.iter().map(String::as_str).collect())
        .collect();
    let table = NfTable::bulk_load_strs_sharded(
        "t",
        &["A", "B"],
        srefs,
        NestOrder::identity(2),
        ShardSpec::hash(SHARDS).unwrap(),
        engine.dict().clone(),
    )
    .unwrap();
    engine.attach_table(table).unwrap();
    let session = engine.session();
    let stored: usize = session.engine().table("t").unwrap().sharded().tuple_count();

    let mut probe_counts: Vec<(String, u64, f64, u128)> = Vec::new();
    for (label, sql) in [
        ("full scan", "SELECT COUNT(*) FROM t".to_owned()),
        (
            "outer equality (1 value)",
            "SELECT COUNT(*) FROM t WHERE B = 'b007'".to_owned(),
        ),
        (
            "outer IN (2 values)",
            "SELECT COUNT(*) FROM t WHERE B IN ('b007', 'b033')".to_owned(),
        ),
    ] {
        let before = session.engine().table("t").unwrap().stats().units_probed;
        let start = Instant::now();
        let n = session.query(&sql).unwrap().flat_count();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let probed = session.engine().table("t").unwrap().stats().units_probed - before;
        probe_counts.push((label.to_owned(), probed, ms, n));
        report.push_row(vec![
            "pruned scan".into(),
            label.into(),
            stored.to_string(),
            format!("{ms:.2}"),
            format!("{:.0}", probed as f64 / ms.max(0.001)),
            format!("{probed} probes"),
        ]);
    }
    let full = probe_counts[0].1.max(1);
    let eq = probe_counts[1].1.max(1);
    let in2 = probe_counts[2].1.max(1);
    // Each B value nests into its own tuple (the A sets are disjoint),
    // and a pruned scan probes exactly the tuples its segments locate.
    assert_eq!(stored, OUTER_VALUES);
    assert_eq!(
        (eq, in2),
        (1, 2),
        "equality on the outer attribute probes the tuples holding the \
         value, not their shards ({full} tuples stored)"
    );
    // Row counts are exact regardless of pruning.
    let b007_rows = (0..total_rows).filter(|i| i % OUTER_VALUES == 7).count();
    assert_eq!(probe_counts[1].3, b007_rows as u128);

    if total_rows <= 50_000 {
        // Small-scale runs re-verify pruned ≡ unpruned end to end.
        let plain = Engine::builder().shards(1).build().unwrap();
        let srefs: Vec<Vec<&str>> = srows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect())
            .collect();
        let table = NfTable::bulk_load_strs(
            "t",
            &["A", "B"],
            srefs,
            NestOrder::identity(2),
            plain.dict().clone(),
        )
        .unwrap();
        plain.attach_table(table).unwrap();
        let psession = plain.session();
        for sql in [
            "SELECT COUNT(*) FROM t WHERE B = 'b007'",
            "SELECT COUNT(*) FROM t WHERE B IN ('b007', 'b033')",
        ] {
            assert_eq!(
                session.query(sql).unwrap().flat_count(),
                psession.query(sql).unwrap().flat_count(),
                "{sql}"
            );
        }
    }

    report.note(format!(
        "Phase 1: {groups} canonical tuples; the bounded-heap top-k pulls the scan \
         exactly once and retains ≤ k tuples (asserted via TopKStats), vs the blocking \
         sort's full materialization — top-10 speedup {sort_speedup:.2}x. Phase 2: \
         {total_rows} rows hash-partitioned on the outer attribute across {SHARDS} \
         shards; probes full scan {} -> equality {} ({:.2}x drop: the routed \
         shard's segments locate the one tuple holding the value) -> IN(2) {}. \
         Set NF2_E19_ROWS to rescale.",
        full,
        eq,
        full as f64 / eq as f64,
        in2,
    ));
    report
}

/// E20 — segment-merge top-k and zone-map segment skipping.
///
/// Exercises the PR 7 segment subsystem end to end through the SQL
/// surface:
///
/// * **k-way segment merge vs bounded heap** — an
///   `ORDER BY B, A LIMIT 10` cursor on engines of 1, 4 and 16 shards.
///   With an id-ordered dictionary the cursor runs the streaming k-way
///   merge, which stops after ~(k + shards) pulls — and keeps doing so
///   after a point INSERT, because §4 maintenance leaves the shard
///   sorted and its segments repaired: the very same SQL must return
///   identical tuples for the same handful of probes. A `DESC` key is
///   not streamable and takes the bounded heap, which drains every
///   tuple; probe counters pin the asymmetry.
/// * **located reads** — equality on the *non-routing* attribute of a
///   clustered 4-shard table: shard pruning cannot help (the predicate
///   does not route), but every segment's value-major column answers
///   which of its rows hold the value. Exactly one segment does, with
///   exactly one row: every other segment is skipped, one tuple is
///   probed, and both counts are cross-checked against the
///   `zone_skip_counts` predictor.
///
/// `NF2_E20_ROWS` overrides the base row count (default 1 000 000); CI
/// smoke-runs it reduced. The wall-clock bar (merge beats heap at 4
/// shards) is asserted at ≥ 150 000 canonical tuples only; every
/// probe-count and identity invariant asserts at all scales.
pub fn e20_topk_merge_zones() -> Report {
    let rows = std::env::var("NF2_E20_ROWS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_000_000usize);
    e20_with(rows)
}

/// [`e20_topk_merge_zones`] at an explicit scale (tests run it small).
pub fn e20_with(total_rows: usize) -> Report {
    use nf2_core::shard::ShardSpec;
    use nf2_query::Engine;

    let total_rows = total_rows.max(4_000);
    let mut report = Report::new(
        "E20",
        "segment merge top-k + zone-map segment skipping",
        &[
            "arm",
            "shards / predicate",
            "tuples stored",
            "elapsed ms",
            "probes",
            "segments skipped",
        ],
    );

    // ---- Phase 1: streaming k-way merge vs the bounded heap. ----
    // 5-row groups fold into one canonical tuple per distinct B value.
    // Every string is interned in ascending order *before* the load so
    // the dictionary stays id-ordered — a dynamic precondition of the
    // merge path (`a…` values first, then `g…` groups, both monotone).
    let groups = (total_rows / 5).max(800);
    let rows_p1: Vec<[String; 2]> = (0..groups)
        .flat_map(|g| (0..5usize).map(move |i| [format!("a{:08}", g * 5 + i), format!("g{g:07}")]))
        .collect();
    let sql = "SELECT * FROM t ORDER BY B, A LIMIT 10";
    let mut merge_ms_at_4 = f64::NAN;
    let mut heap_ms_at_4 = f64::NAN;
    for shards in [1usize, 4, 16] {
        let engine = Engine::builder().shards(shards).build().unwrap();
        for r in &rows_p1 {
            engine.dict().intern(&r[0]);
        }
        for r in &rows_p1 {
            engine.dict().intern(&r[1]);
        }
        assert!(
            engine.dict().is_id_ordered(),
            "the pre-interned universe is sorted, so ids follow strings"
        );
        let srefs: Vec<Vec<&str>> = rows_p1
            .iter()
            .map(|r| vec![r[0].as_str(), r[1].as_str()])
            .collect();
        let table = NfTable::bulk_load_strs_sharded(
            "t",
            &["A", "B"],
            srefs,
            NestOrder::identity(2),
            ShardSpec::hash(shards).unwrap(),
            engine.dict().clone(),
        )
        .unwrap();
        engine.attach_table(table).unwrap();
        let mut session = engine.session();
        let mut prep = session.prepare(sql).unwrap();
        let plan = prep.explain(&session).unwrap();
        assert!(
            plan.contains("streaming k-way segment merge, limit 10"),
            "a sort-key-prefix ORDER BY over a bare scan must plan the merge:\n{plan}"
        );
        let stored = session.engine().table("t").unwrap().sharded().tuple_count();
        assert_eq!(stored, groups);
        // Every ORDER BY compares values through the cached dictionary
        // snapshot. Take it before the clock starts, so the first timed
        // arm is not charged for copying the bulk load's strings.
        drop(session.engine().dict().snapshot());

        let stats0 = session.engine().table("t").unwrap().stats();
        let start = Instant::now();
        let merged: Vec<NfTuple> = session
            .query(sql)
            .unwrap()
            .map(|t| t.into_owned())
            .collect();
        let merge_ms = start.elapsed().as_secs_f64() * 1e3;
        let stats1 = session.engine().table("t").unwrap().stats();
        let merge_probed = stats1.units_probed - stats0.units_probed;
        let merge_lookups = stats1.lookups - stats0.lookups;
        assert_eq!(merged.len(), 10);
        assert_eq!(
            merge_lookups, shards as u64,
            "the merge opens one probe-counted scan per shard"
        );

        // One §4 point insert: both new values sort after the existing
        // universe, so the dictionary stays id-ordered and the top-10
        // answer is unchanged. The write leaves its shard sorted and
        // tiled, so the same SQL still streams the merge.
        session
            .run("INSERT INTO t VALUES ('zz_a', 'zz_b')")
            .unwrap();
        session
            .engine()
            .table("t")
            .unwrap()
            .sharded()
            .verify()
            .expect("a point write leaves every shard sorted and tiled");
        let stats0 = session.engine().table("t").unwrap().stats();
        let start = Instant::now();
        let written: Vec<NfTuple> = session
            .query(sql)
            .unwrap()
            .map(|t| t.into_owned())
            .collect();
        let written_ms = start.elapsed().as_secs_f64() * 1e3;
        let stats1 = session.engine().table("t").unwrap().stats();
        let written_probed = stats1.units_probed - stats0.units_probed;
        assert_eq!(written, merged, "a point write must not change the answer");
        assert_eq!(
            stats1.lookups - stats0.lookups,
            shards as u64,
            "still one scan per shard: the merge path survives the write"
        );
        assert!(
            written_probed <= merge_probed + 1,
            "the merge must still stop early after a write: \
             {written_probed} vs {merge_probed} probes at {shards} shard(s)"
        );

        // The cost the merge avoids: a DESC key cannot stream off the
        // stored order, so the bounded heap drains every tuple.
        let heap_sql = "SELECT * FROM t ORDER BY B DESC, A LIMIT 10";
        let stats0 = session.engine().table("t").unwrap().stats();
        let start = Instant::now();
        let heaped = session.query(heap_sql).unwrap().count();
        let heap_ms = start.elapsed().as_secs_f64() * 1e3;
        let stats1 = session.engine().table("t").unwrap().stats();
        let heap_probed = stats1.units_probed - stats0.units_probed;
        assert_eq!(heaped, 10);
        assert!(
            merge_probed * 10 <= heap_probed,
            "the merge must stop early: {merge_probed} vs heap {heap_probed} \
             probes at {shards} shard(s)"
        );

        report.push_row(vec![
            "streaming k-way merge".into(),
            format!("{shards} shard(s)"),
            stored.to_string(),
            format!("{merge_ms:.3}"),
            format!("{merge_probed} probes"),
            "-".into(),
        ]);
        report.push_row(vec![
            "k-way merge after a point write".into(),
            format!("{shards} shard(s)"),
            (stored + 1).to_string(),
            format!("{written_ms:.3}"),
            format!("{written_probed} probes"),
            "-".into(),
        ]);
        report.push_row(vec![
            "bounded heap (DESC key)".into(),
            format!("{shards} shard(s)"),
            (stored + 1).to_string(),
            format!("{heap_ms:.3}"),
            format!("{heap_probed} probes"),
            "-".into(),
        ]);
        if shards == 4 {
            merge_ms_at_4 = merge_ms;
            heap_ms_at_4 = heap_ms;
        }
    }
    if groups >= 150_000 {
        assert!(
            merge_ms_at_4 < heap_ms_at_4,
            "the k-way merge must beat the heap at 4 shards at full scale: \
             merge {merge_ms_at_4:.3} ms vs heap {heap_ms_at_4:.3} ms"
        );
    }

    // ---- Phase 2: zone-map skipping on a non-routing predicate. ----
    // 512 B-groups with A strictly increasing over (group, row), so the
    // canonical sort clusters each shard's A ranges and per-segment
    // min/max metadata is tight. The predicate is on A — the
    // *non*-routing attribute — so shard pruning is no help and any
    // probe drop is the zone maps' doing.
    const ZSHARDS: usize = 4;
    const ZGROUPS: usize = 512;
    let per_group = (total_rows / ZGROUPS).max(4);
    let zrows: Vec<[String; 2]> = (0..ZGROUPS)
        .flat_map(|g| {
            (0..per_group).map(move |j| [format!("a{:09}", g * per_group + j), format!("g{g:04}")])
        })
        .collect();
    let engine = Engine::builder().shards(ZSHARDS).build().unwrap();
    let srefs: Vec<Vec<&str>> = zrows
        .iter()
        .map(|r| vec![r[0].as_str(), r[1].as_str()])
        .collect();
    let table = NfTable::bulk_load_strs_sharded(
        "t",
        &["A", "B"],
        srefs,
        NestOrder::identity(2),
        ShardSpec::hash(ZSHARDS).unwrap(),
        engine.dict().clone(),
    )
    .unwrap();
    engine.attach_table(table).unwrap();
    // Re-tile to ~8 segments per shard so skipping stays observable at
    // CI's reduced scale.
    let tuples_per_shard = (ZGROUPS / ZSHARDS).max(1);
    engine
        .table("t")
        .unwrap()
        .set_segment_rows((tuples_per_shard / 8).max(1));
    let session = engine.session();
    let total_segments: usize = {
        let t = session.engine().table("t").unwrap();
        (0..t.shard_count())
            .map(|s| t.sharded().shard_segments(s).segment_count())
            .sum()
    };
    assert!(
        total_segments >= 8,
        "re-tiling must produce enough segments to skip: {total_segments}"
    );

    let stats0 = session.engine().table("t").unwrap().stats();
    let start = Instant::now();
    let full_rows = session
        .query("SELECT COUNT(*) FROM t")
        .unwrap()
        .flat_count();
    let full_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats1 = session.engine().table("t").unwrap().stats();
    let full_probed = stats1.units_probed - stats0.units_probed;
    assert_eq!(full_rows, (ZGROUPS * per_group) as u128);
    report.push_row(vec![
        "full scan".into(),
        "COUNT(*)".into(),
        ZGROUPS.to_string(),
        format!("{full_ms:.3}"),
        format!("{full_probed} probes"),
        format!("0/{total_segments}"),
    ]);

    let needle = format!("a{:09}", (ZGROUPS * per_group) / 2);
    let zsql = format!("SELECT COUNT(*) FROM t WHERE A = '{needle}'");
    let stats0 = session.engine().table("t").unwrap().stats();
    let start = Instant::now();
    let eq_rows = session.query(&zsql).unwrap().flat_count();
    let eq_ms = start.elapsed().as_secs_f64() * 1e3;
    let stats1 = session.engine().table("t").unwrap().stats();
    let eq_probed = stats1.units_probed - stats0.units_probed;
    let skipped = stats1.segments_skipped - stats0.segments_skipped;
    assert_eq!(eq_rows, 1, "A values are unique");
    assert_eq!(
        (skipped as usize, eq_probed),
        (total_segments - 1, 1),
        "one segment holds the value and locates its one tuple \
         ({total_segments} segments, {full_probed} tuples)"
    );
    // The dry-run predictor agrees with what execution actually skipped.
    {
        let t = session.engine().table("t").unwrap();
        let atom = session
            .engine()
            .dict()
            .lookup(&needle)
            .expect("needle was loaded");
        let zones = vec![(0, ValueSet::singleton(atom))];
        let shards_all: Vec<usize> = (0..t.shard_count()).collect();
        let per_shard = t.zone_skip_counts(&shards_all, &zones);
        let (sk, tot, located) = per_shard.iter().fold((0, 0, 0), |(a, b, c), z| {
            (a + z.skipped, b + z.segments, c + z.located)
        });
        assert_eq!(tot, total_segments);
        assert_eq!(sk as u64, skipped, "predictor must match executed skips");
        assert_eq!(located as u64, eq_probed, "and executed probes");
    }
    report.push_row(vec![
        "zoned equality (non-routing attr)".into(),
        format!("A = '{needle}'"),
        ZGROUPS.to_string(),
        format!("{eq_ms:.3}"),
        format!("{eq_probed} probes"),
        format!("{skipped}/{total_segments}"),
    ]);

    report.note(format!(
        "Phase 1: {groups} canonical tuples per engine; the cursor runs the \
         k-way merge (one probe-counted scan per shard, stops after ~k+shards \
         pulls) before and after a §4 point insert — tuple-identical, same \
         probes — while a DESC key takes the bounded heap and drains the \
         store: a ≥10x probe drop asserted at 1/4/16 shards. Phase 2: {ZGROUPS} clustered tuples across {ZSHARDS} \
         shards re-tiled into {total_segments} segments; a non-routing equality \
         skipped {skipped}/{total_segments} segments ({eq_probed} of \
         {full_probed} probes). Set NF2_E20_ROWS to rescale.",
    ));
    report
}

/// E21 — shard-snapshot MVCC: concurrent readers under a §4 op storm.
///
/// The concurrency subsystem's two load-bearing claims, measured:
///
/// * **Phase A (scaling)** — N reader threads share one `Arc<Engine>`
///   and hammer the E17 prepared point lookup while a writer thread
///   storms single-row INSERT/DELETEs at the same table. Readers pin
///   epoch snapshots instead of locking the table, so they never wait
///   on the writer and aggregate throughput grows with threads. Every
///   lookup's result is asserted against the serial answer — the storm
///   only touches rows outside the probed students, and snapshot
///   isolation keeps half-applied states invisible (the full
///   tuple-identity property is proptested in `tests/proptest_mvcc.rs`).
/// * **Phase B (per-shard isolation)** — the writer is confined to one
///   shard (all its rows route there through the Course routing
///   attribute) while readers run shard-pruned lookups against a
///   *different* shard. Installing a new shard-B version never touches
///   the pinned shard-A version, so the readers' probe counts during
///   the storm are asserted **exactly equal** to the serial baseline —
///   per query, not on average.
///
/// `NF2_E21_ITERS` overrides the per-thread lookup count (default 2000).
pub fn e21_mvcc_snapshot_readers() -> Report {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    use nf2_query::{Engine, Output};

    let iters = std::env::var("NF2_E21_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000usize)
        .max(100);
    let mut report = Report::new(
        "E21",
        "Shard-snapshot MVCC: reader scaling and per-shard writer isolation",
        &["arm", "work", "total ms", "rate", "check"],
    );

    // The E17 serving instance: 64 students x 3 courses from a 16-course
    // pool, on a 4-shard table routed by Course.
    let engine = Arc::new(Engine::builder().shards(4).build().unwrap());
    let students = 64u32;
    {
        let mut session = engine.session();
        session
            .run("CREATE TABLE sc (Student, Course) NEST ORDER (Student, Course)")
            .unwrap();
        for s in 0..students {
            for c in 0..3u32 {
                session
                    .run(&format!(
                        "INSERT INTO sc VALUES ('s{s}', 'c{}')",
                        (s + c) % 16
                    ))
                    .unwrap();
            }
        }
    }
    let student_of = |i: usize| format!("s{}", i as u32 % students);

    // Phase A: N readers + 1 writer. The writer churns rows of students
    // the readers never probe ('w…'), so every lookup has one correct
    // answer (3 enrollments per student) at every epoch.
    let run_phase_a = |n_readers: usize| -> (f64, u64) {
        let done = AtomicBool::new(false);
        let writer_ops = AtomicU64::new(0);
        let start = Instant::now();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let mut session = engine.session();
                let mut i = 0u64;
                while !done.load(Ordering::Relaxed) {
                    let (w, c) = (i % 8, i % 16);
                    session
                        .run(&format!("INSERT INTO sc VALUES ('w{w}', 'c{c}')"))
                        .unwrap();
                    session
                        .run(&format!(
                            "DELETE FROM sc WHERE Student = 'w{w}' AND Course = 'c{c}'"
                        ))
                        .unwrap();
                    writer_ops.fetch_add(2, Ordering::Relaxed);
                    i += 1;
                }
            });
            let readers: Vec<_> = (0..n_readers)
                .map(|r| {
                    let engine = Arc::clone(&engine);
                    scope.spawn(move || {
                        let mut session = engine.session();
                        let mut stmt = session
                            .prepare("SELECT COUNT(*) FROM sc WHERE Student = ?")
                            .unwrap();
                        for i in 0..iters {
                            let s = student_of(r * 17 + i);
                            let out = stmt.execute(&mut session, &[s.as_str()]).unwrap();
                            assert_eq!(
                                out,
                                Output::Count(3),
                                "snapshot lookup of {s} under the storm"
                            );
                        }
                    })
                })
                .collect();
            for r in readers {
                r.join().expect("reader thread panicked");
            }
            done.store(true, Ordering::Relaxed);
        });
        let ms = start.elapsed().as_secs_f64() * 1e3;
        (ms, writer_ops.load(Ordering::Relaxed))
    };

    let mut base_rate = 0f64;
    let mut last_rate = 0f64;
    for n in [1usize, 2, 4] {
        let (ms, ops) = run_phase_a(n);
        let rate = (n * iters) as f64 / (ms / 1e3);
        if n == 1 {
            base_rate = rate;
        }
        last_rate = rate;
        report.push_row(vec![
            format!("A: {n} reader(s) + writer storm"),
            format!("{} lookups", n * iters),
            format!("{ms:.1}"),
            format!("{rate:.0}/s"),
            format!("{:.2}x vs 1 reader, {ops} writer ops", rate / base_rate),
        ]);
    }
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    if cores >= 4 {
        assert!(
            last_rate > 1.2 * base_rate,
            "snapshot readers must scale: 4 threads {last_rate:.0}/s vs 1 thread {base_rate:.0}/s"
        );
    }

    // Phase B: writer confined to one shard, readers pruned to another.
    // Pick two course values routing to different shards.
    let t = engine.table("sc").unwrap();
    let router = t.routing().clone();
    let course_shard = |c: u32| {
        let atom = engine
            .dict()
            .lookup(&format!("c{c}"))
            .expect("course interned by the seed");
        router.shards_for_values(&[atom])[0]
    };
    let read_course = 0u32;
    let read_shard = course_shard(read_course);
    let write_course = (1..16u32)
        .find(|&c| course_shard(c) != read_shard)
        .expect("4 hash shards cannot all coincide");
    let write_shard = course_shard(write_course);

    let probes_of = |queries: usize, concurrent_writer: bool| -> (u64, u64) {
        let done = AtomicBool::new(false);
        let writer_ops = AtomicU64::new(0);
        let before = engine.table("sc").unwrap().stats();
        std::thread::scope(|scope| {
            if concurrent_writer {
                scope.spawn(|| {
                    // §4 ops through the storage API: a SQL DELETE would
                    // add its own routed, probe-counted victim scan to
                    // the table-wide counter this phase compares.
                    let table = engine.table("sc").unwrap();
                    let course = format!("c{write_course}");
                    let mut i = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        let student = format!("w{}", i % 8);
                        table.insert_row(&[&student, &course]).unwrap();
                        table.delete_row(&[&student, &course]).unwrap();
                        writer_ops.fetch_add(2, Ordering::Relaxed);
                        i += 1;
                    }
                });
            }
            let readers: Vec<_> = (0..2usize)
                .map(|_| {
                    let engine = Arc::clone(&engine);
                    scope.spawn(move || {
                        let mut session = engine.session();
                        let mut stmt = session
                            .prepare("SELECT COUNT(*) FROM sc WHERE Course = ?")
                            .unwrap();
                        let c = format!("c{read_course}");
                        for _ in 0..queries / 2 {
                            let out = stmt.execute(&mut session, &[c.as_str()]).unwrap();
                            assert!(
                                matches!(out, Output::Count(n) if n > 0),
                                "pruned lookup must keep finding its rows"
                            );
                        }
                    })
                })
                .collect();
            for r in readers {
                r.join().expect("reader thread panicked");
            }
            done.store(true, Ordering::Relaxed);
        });
        let after = engine.table("sc").unwrap().stats();
        (
            after.units_probed - before.units_probed,
            writer_ops.load(Ordering::Relaxed),
        )
    };

    let queries = 400usize;
    let (serial_probes, _) = probes_of(queries, false);
    let (storm_probes, storm_ops) = probes_of(queries, true);
    assert!(
        storm_ops > 0,
        "the shard-{write_shard} writer must have run"
    );
    // The §4 storm never installs a shard-`read_shard` version, so the
    // pruned readers probed exactly what they probe serially.
    assert_eq!(
        storm_probes, serial_probes,
        "a writer on shard {write_shard} must not change probe counts of \
         readers pruned to shard {read_shard}"
    );
    report.push_row(vec![
        "B: pruned readers, serial".into(),
        format!("{queries} lookups on shard {read_shard}"),
        "-".into(),
        format!("{} probes/query", serial_probes as usize / queries),
        format!("{serial_probes} probes total"),
    ]);
    report.push_row(vec![
        format!("B: + writer storm on shard {write_shard}"),
        format!("{queries} lookups on shard {read_shard}"),
        "-".into(),
        format!("{} probes/query", storm_probes as usize / queries),
        format!("{storm_probes} probes total ({storm_ops} writer ops) — equal"),
    ]);

    report.note(format!(
        "One Arc<Engine>, 4 hash shards routed by Course. Phase A: each reader \
         thread runs the E17 prepared point lookup against snapshots pinned per \
         statement while a writer storms single-row §4 inserts/deletes; results \
         asserted correct at every epoch{}. Phase B: the writer's rows all route \
         to shard {write_shard}, the readers' queries prune to shard \
         {read_shard}; probe counts under the storm equal the serial baseline \
         exactly ({serial_probes} probes for {queries} lookups), because \
         installing a new shard version never disturbs a pinned one. Snapshot ≡ \
         serial-oracle tuple identity is proptested in tests/proptest_mvcc.rs. \
         Set NF2_E21_ITERS to rescale.",
        if cores >= 4 {
            ", and 4-reader throughput asserted > 1.2x the 1-reader rate"
        } else {
            " (scaling assertion skipped: fewer than 4 cores)"
        },
    ));
    report
}

/// E22 — observability overhead and `EXPLAIN ANALYZE` exactness.
///
/// Phase A re-runs the E17 acceptance loop (prepared COUNT point
/// lookup) with the metrics pipeline in both states — enabled (the
/// default: statement latency histograms recorded, subscriber absent)
/// and killed via `Obs::set_metrics_enabled(false)` — interleaved,
/// best-of-rounds, and asserts the enabled/disabled ratio stays ≤ 1.05.
/// Phase B runs `EXPLAIN ANALYZE` on the fetch statement and asserts
/// its actuals are *exact*: the summary row count equals an independent
/// cursor drain of the same statement, and each scan's `actual rows`
/// equals that table's `units_probed` delta read from one
/// [`nf2_storage::table::TableStats`] snapshot pair around the run (never re-loaded fields
/// — see the tearing note on the type).
///
/// `NF2_E22_ITERS` overrides the per-round call count (default 2000).
pub fn e22_obs_overhead() -> Report {
    let iters = std::env::var("NF2_E22_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2_000usize);
    e22_with(iters)
}

/// [`e22_obs_overhead`] at an explicit per-round call count (tests and
/// the CI smoke leg run it small).
pub fn e22_with(iters: usize) -> Report {
    use nf2_query::{Engine, Output};

    let iters = iters.max(200);
    let mut report = Report::new(
        "E22",
        "Observability: metrics on/off overhead on the E17 hot loop, EXPLAIN ANALYZE exactness",
        &["arm", "calls", "best round ms", "us/call", "on/off ratio"],
    );

    // The E17 serving-shaped instance: 64 students x 3 courses from a
    // 16-course pool, each course taught by one of four profs.
    let engine = Engine::new();
    {
        let mut session = engine.session();
        session
            .run("CREATE TABLE sc (Student, Course) NEST ORDER (Student, Course)")
            .unwrap();
        session.run("CREATE TABLE cp (Course, Prof)").unwrap();
        for s in 0..64u32 {
            for c in 0..3u32 {
                session
                    .run(&format!(
                        "INSERT INTO sc VALUES ('s{s}', 'c{}')",
                        (s + c) % 16
                    ))
                    .unwrap();
            }
        }
        for c in 0..16u32 {
            session
                .run(&format!("INSERT INTO cp VALUES ('c{c}', 'p{}')", c % 4))
                .unwrap();
        }
    }
    let session = &mut engine.session();
    let count_prepared =
        "SELECT COUNT(*) FROM sc JOIN cp WHERE Student = ? AND Prof IN ('p0', 'p1')";
    let mut stmt = session.prepare(count_prepared).unwrap();
    let student_of = |i: usize| format!("s{}", i as u32 % 64);

    // Phase A: interleaved best-of-rounds, metrics on vs off. The
    // subscriber stays absent in both arms (the production default);
    // the off arm additionally throws the registry kill switch, so the
    // delta is exactly the per-statement clock + histogram record.
    let mut round = |on: bool| -> f64 {
        engine.obs().set_metrics_enabled(on);
        let start = Instant::now();
        for i in 0..iters {
            let s = student_of(i);
            let out = stmt.execute(session, &[s.as_str()]).unwrap();
            assert!(matches!(out, Output::Count(_)));
        }
        start.elapsed().as_secs_f64() * 1e3
    };
    // Warm both paths before timing anything.
    round(true);
    round(false);
    const ROUNDS: usize = 5;
    // Best-of-rounds interleaving cancels drift; shared runners still
    // wobble, so the 5% bar gets three attempts before it's binding.
    let (mut on_best, mut off_best, mut ratio) = (0.0, 0.0, f64::INFINITY);
    for attempt in 0..3 {
        (on_best, off_best) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..ROUNDS {
            on_best = on_best.min(round(true));
            off_best = off_best.min(round(false));
        }
        ratio = on_best / off_best.max(1e-9);
        if ratio <= 1.05 {
            break;
        }
        eprintln!("e22 attempt {attempt}: on/off {ratio:.3}x — retrying");
    }
    engine.obs().set_metrics_enabled(true);
    assert!(
        ratio <= 1.05,
        "metrics-enabled hot loop must stay within 5% of the kill-switch arm: \
         on {on_best:.2}ms vs off {off_best:.2}ms ({ratio:.3}x)"
    );
    for (arm, ms) in [("metrics enabled", on_best), ("metrics killed", off_best)] {
        report.push_row(vec![
            arm.into(),
            iters.to_string(),
            format!("{ms:.2}"),
            format!("{:.2}", ms * 1e3 / iters as f64),
            format!("{ratio:.3}x"),
        ]);
    }

    // Phase B: ANALYZE exactness. One stats snapshot per table before
    // and after (whole-snapshot deltas — the counters tear field-wise).
    let analyze_sql = "EXPLAIN ANALYZE SELECT Student FROM sc JOIN cp WHERE Prof = 'p0'";
    let drain_sql = "SELECT Student FROM sc JOIN cp WHERE Prof = 'p0'";
    let mut drain_stmt = session.prepare(drain_sql).unwrap();
    let expected_rows = drain_stmt.query(session, &[] as &[&str]).unwrap().count() as u64;
    let before_sc = engine.table("sc").unwrap().stats();
    let before_cp = engine.table("cp").unwrap().stats();
    let out = session.run(analyze_sql).unwrap();
    let after_sc = engine.table("sc").unwrap().stats();
    let after_cp = engine.table("cp").unwrap().stats();
    let text = out.to_text();
    let actual_of = |needle: &str| -> u64 {
        text.lines()
            .find(|l| l.contains(needle))
            .and_then(|l| l.split("actual rows=").nth(1))
            .and_then(|r| r.split_whitespace().next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("no `{needle}` actuals in:\n{text}"))
    };
    let summary_rows: u64 = text
        .lines()
        .find(|l| l.starts_with("analyze: "))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no analyze summary in:\n{text}"));
    assert_eq!(
        summary_rows, expected_rows,
        "ANALYZE result count must equal an independent cursor drain"
    );
    let sc_scanned = actual_of("scan[sc");
    let cp_scanned = actual_of("scan[cp");
    assert_eq!(
        sc_scanned,
        after_sc.units_probed - before_sc.units_probed,
        "sc scan actuals must equal the one-snapshot units_probed delta"
    );
    assert_eq!(
        cp_scanned,
        after_cp.units_probed - before_cp.units_probed,
        "cp scan actuals must equal the one-snapshot units_probed delta"
    );
    report.push_row(vec![
        "EXPLAIN ANALYZE exactness".into(),
        "1 statement".into(),
        "-".into(),
        format!("{summary_rows} rows out"),
        format!("scan actuals sc={sc_scanned} cp={cp_scanned} == probe deltas"),
    ]);

    report.note(format!(
        "Phase A interleaves {ROUNDS} best-of rounds of the E17 prepared COUNT lookup \
         ({iters} calls/round) with the metrics registry enabled vs killed \
         (subscriber absent in both — the silent default); enabled/killed = {ratio:.3}x, \
         asserted ≤ 1.05x. The per-statement cost when enabled is one monotonic clock \
         read plus one log₂-bucket histogram record (3 relaxed atomic adds). Phase B \
         asserts EXPLAIN ANALYZE actuals exactly: {summary_rows} result rows equal the \
         cursor drain, and per-scan actual rows ({sc_scanned} sc, {cp_scanned} cp) \
         equal whole-snapshot units_probed deltas. Engine metrics export:\n{}",
        engine.metrics().to_text(),
    ));
    // The machine-readable form rides the BENCH json too.
    report.note(format!("metrics.json: {}", engine.metrics().to_json()));
    report
}

/// E23 — routed write concurrency: N writers on N distinct shards.
///
/// The per-shard commit pipeline's two load-bearing claims, measured:
///
/// * **Exactness (every machine)** — the same four per-shard §4 op
///   streams are applied twice: serially by one writer, and by four
///   concurrent writers (one per shard). Because writers on distinct
///   shards never share a lane, the concurrent run must be *bitwise
///   the same work*: per-shard maintenance-cost counters (the ops done
///   inside each shard's critical section), insert/delete tallies, and
///   committed-publication counts all asserted exactly equal to the
///   serial baseline, and the final relations tuple-identical. The
///   live epoch may be *smaller* than the publication count — racing
///   commits coalesce into one bump — and that inequality is asserted
///   too.
/// * **Scaling (gated on cores)** — with at least as many cores as
///   writers, the concurrent arm must beat the serial arm wall-clock
///   (best-of-rounds; the bar is a conservative 1.5x so shared runners
///   don't flake, with per-arm rates reported for the near-linear
///   eyeball).
///
/// `NF2_E23_ITERS` overrides the per-writer insert/delete pair count
/// (default 1500).
pub fn e23_writer_scaling() -> Report {
    let iters = std::env::var("NF2_E23_ITERS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1_500usize)
        .max(50);
    e23_with(iters)
}

/// [`e23_writer_scaling`] at an explicit pair count (tests run it
/// small; the default entry point reads `NF2_E23_ITERS`).
pub fn e23_with(iters: usize) -> Report {
    use std::sync::Arc;

    use nf2_query::Engine;

    let writers = 4usize;
    let mut report = Report::new(
        "E23",
        "Routed write concurrency: N writers on N distinct shards",
        &["arm", "work", "total ms", "rate", "check"],
    );

    // Identical engines for every arm: same shard count, same interning
    // order, so atom ids — and therefore routing — agree across runs.
    let setup = || -> Arc<Engine> {
        let engine = Arc::new(
            Engine::builder()
                .shards(writers)
                .build()
                .expect("default engine config builds"),
        );
        engine
            .session()
            .run("CREATE TABLE sc (Student, Course) NEST ORDER (Student, Course)")
            .expect("DDL on a fresh engine");
        for c in 0..16u32 {
            engine.dict().intern(&format!("c{c}"));
        }
        for x in 0..8u32 {
            engine.dict().intern(&format!("x{x}"));
        }
        engine
    };

    // One course value per shard: each writer's rows all route to its
    // own shard, so no two writers ever contend on a lane.
    let probe = setup();
    let router = probe
        .table("sc")
        .expect("table just created")
        .routing()
        .clone();
    let mut course_of_shard: Vec<Option<u32>> = vec![None; writers];
    for c in 0..16u32 {
        let atom = probe
            .dict()
            .lookup(&format!("c{c}"))
            .expect("course interned by the seed");
        let s = router.shards_for_values(&[atom])[0];
        course_of_shard[s].get_or_insert(c);
    }
    let courses: Vec<u32> = course_of_shard
        .into_iter()
        .map(|c| c.expect("16 hashed courses cover all 4 shards"))
        .collect();

    // Each writer's stream alternates insert/delete of the same row, so
    // every op changes state: op counts, publication counts and cost
    // counters are exact, not probabilistic.
    let streams: Vec<Vec<String>> = (0..writers)
        .map(|s| {
            let c = courses[s];
            (0..iters)
                .flat_map(|i| {
                    let x = i % 8;
                    [
                        format!("INSERT INTO sc VALUES ('x{x}', 'c{c}')"),
                        format!("DELETE FROM sc WHERE Student = 'x{x}' AND Course = 'c{c}'"),
                    ]
                })
                .collect()
        })
        .collect();
    let total_ops = writers * iters * 2;

    let run_serial = || -> (f64, Arc<Engine>) {
        let engine = setup();
        let start = Instant::now();
        let mut session = engine.session();
        for stream in &streams {
            for stmt in stream {
                session.run(stmt).expect("serial §4 op");
            }
        }
        (start.elapsed().as_secs_f64() * 1e3, engine)
    };
    let run_concurrent = || -> (f64, Arc<Engine>) {
        let engine = setup();
        let start = Instant::now();
        std::thread::scope(|scope| {
            for stream in &streams {
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    let mut session = engine.session();
                    for stmt in stream {
                        session.run(stmt).expect("concurrent §4 op");
                    }
                });
            }
        });
        (start.elapsed().as_secs_f64() * 1e3, engine)
    };

    // Best-of-rounds, arms interleaved so machine noise hits both.
    const ROUNDS: usize = 3;
    let (mut serial_ms, mut conc_ms) = (f64::INFINITY, f64::INFINITY);
    let (mut serial_engine, mut conc_engine) = (None, None);
    for _ in 0..ROUNDS {
        let (ms, engine) = run_serial();
        if ms < serial_ms {
            serial_ms = ms;
        }
        serial_engine = Some(engine);
        let (ms, engine) = run_concurrent();
        if ms < conc_ms {
            conc_ms = ms;
        }
        conc_engine = Some(engine);
    }
    let serial_engine = serial_engine.expect("ROUNDS >= 1 ran the serial arm");
    let conc_engine = conc_engine.expect("ROUNDS >= 1 ran the concurrent arm");

    // Exactness: concurrency must not change what any shard *did*.
    let st = serial_engine.table("sc").expect("serial table exists");
    let ct = conc_engine.table("sc").expect("concurrent table exists");
    let (ss, cs) = (st.stats(), ct.stats());
    assert_eq!(
        (ss.inserts, ss.deletes),
        (cs.inserts, cs.deletes),
        "identical streams must tally identical §4 ops"
    );
    assert_eq!(
        cs.inserts as usize + cs.deletes as usize,
        total_ops,
        "alternating insert/delete makes every op effective"
    );
    assert_eq!(
        ss.epoch_installs, cs.epoch_installs,
        "every effective op publishes exactly once, writer concurrency or not"
    );
    let (sb, cb) = (st.maintenance_breakdown(), ct.maintenance_breakdown());
    assert_eq!(
        sb.per_shard, cb.per_shard,
        "per-shard critical-section op counts must not depend on writer concurrency"
    );
    assert_eq!(
        st.epoch(),
        ss.epoch_installs,
        "a lone writer never coalesces: one bump per publication"
    );
    assert!(
        ct.epoch() <= cs.epoch_installs,
        "concurrent commits may coalesce bumps, never mint extra ones"
    );
    assert_eq!(
        st.relation(),
        ct.relation(),
        "serial and concurrent runs must drain to the identical relation"
    );
    let coalesced = cs.epoch_installs - ct.epoch();

    let serial_rate = total_ops as f64 / (serial_ms / 1e3);
    let conc_rate = total_ops as f64 / (conc_ms / 1e3);
    let speedup = serial_ms / conc_ms;
    report.push_row(vec![
        "serial: 1 writer, 4 shards".into(),
        format!("{total_ops} ops"),
        format!("{serial_ms:.1}"),
        format!("{serial_rate:.0}/s"),
        format!("{} publications", ss.epoch_installs),
    ]);
    report.push_row(vec![
        format!("concurrent: {writers} writers, 1 shard each"),
        format!("{total_ops} ops"),
        format!("{conc_ms:.1}"),
        format!("{conc_rate:.0}/s"),
        format!(
            "{speedup:.2}x vs serial, {coalesced} bumps coalesced, per-shard \
             costs == serial"
        ),
    ]);

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // The scaling bar needs a core per writer and enough work per
    // stream that thread startup is noise; smoke runs keep only the
    // exactness assertions (which hold at any scale, on any machine).
    let scaling_asserted = cores >= writers && iters >= 500;
    if scaling_asserted {
        assert!(
            speedup > 1.5,
            "distinct-shard writers must scale on {cores} cores: \
             {conc_ms:.1}ms concurrent vs {serial_ms:.1}ms serial"
        );
    }

    report.note(format!(
        "Four per-shard op streams ({iters} insert/delete pairs each, all rows \
         routing to the writer's own shard via Course), applied serially vs by \
         4 concurrent writers, best of {ROUNDS} interleaved rounds. Exactness \
         asserted on every machine: per-shard maintenance counters, op tallies \
         and publication counts equal the serial baseline, final relations \
         tuple-identical, and the concurrent epoch ({}) never exceeds its \
         publications ({} — {coalesced} commits coalesced into shared bumps). \
         Wall-clock{}: serial {serial_ms:.1}ms vs concurrent {conc_ms:.1}ms \
         ({speedup:.2}x). Set NF2_E23_ITERS to rescale.",
        ct.epoch(),
        cs.epoch_installs,
        if scaling_asserted {
            " (asserted > 1.5x: cores >= writers)"
        } else {
            " (scaling assertion skipped: fewer cores than writers, or smoke scale)"
        },
    ));
    report
}

/// An experiment registry entry: id plus the function reproducing it.
type Experiment = (&'static str, fn() -> Report);

/// The experiment registry, in id order: the single source of truth for
/// `run_all`, `run_one`, and the `repro` binary's id listing.
const EXPERIMENTS: &[Experiment] = &[
    ("E1", e01_fig1_2),
    ("E2", e02_example1),
    ("E3", e03_example2),
    ("E4", e04_theorem2),
    ("E5", e05_theorem3_4),
    ("E6", e06_theorem5),
    ("E7", e07_theorem_a4),
    ("E8", e08_compression),
    ("E9", e09_search_space),
    ("E10", e10_update_cost),
    ("E11", e11_fig3),
    ("E12", e12_permutation_choice),
    ("E13", e13_optimizer),
    ("E14", e14_batch_crossover),
    ("E15", e15_4nf_vs_nfr),
    ("E16", e16_streaming_ingest),
    ("E17", e17_prepared_hot_loop),
    ("E18", e18_sharded_maintenance),
    ("E19", e19_topk_pruning),
    ("E20", e20_topk_merge_zones),
    ("E21", e21_mvcc_snapshot_readers),
    ("E22", e22_obs_overhead),
    ("E23", e23_writer_scaling),
];

/// All experiment ids, in run order.
pub fn experiment_ids() -> Vec<&'static str> {
    EXPERIMENTS.iter().map(|(id, _)| *id).collect()
}

/// Runs every experiment in id order.
pub fn run_all() -> Vec<Report> {
    // Experiments are independent; run them on scoped threads to keep
    // the repro binary snappy.
    let mut results: Vec<Option<Report>> = (0..EXPERIMENTS.len()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for (slot, (_, f)) in results.iter_mut().zip(EXPERIMENTS.iter()) {
            let f = *f;
            handles.push(scope.spawn(move || {
                *slot = Some(f());
            }));
        }
        for h in handles {
            h.join().expect("experiment thread panicked");
        }
    });
    results.into_iter().map(|r| r.expect("filled")).collect()
}

/// Looks up one experiment by id (case-insensitive).
pub fn run_one(id: &str) -> Option<Report> {
    let id = id.to_ascii_uppercase();
    let f = EXPERIMENTS
        .iter()
        .find(|(eid, _)| *eid == id)
        .map(|(_, f)| *f)?;
    Some(f())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_instances_match_paper_counts() {
        let d = fig1_data();
        assert_eq!(d.r1.tuple_count(), 3);
        assert_eq!(d.r1.expand().len(), 9, "3 students x 3 courses");
        assert_eq!(d.r2.tuple_count(), 3);
        assert_eq!(d.r2.expand().len(), 9);
    }

    #[test]
    fn e01_reproduces_fig2_shapes() {
        let r = e01_fig1_2();
        // R1 keeps 3 tuples; R2's hand edit has 4.
        let r1_after: usize = r
            .rows
            .iter()
            .find(|row| row[1].contains("Fig. 2 (hand edit)") && row[0] == "R1")
            .unwrap()[2]
            .parse()
            .unwrap();
        let r2_after: usize = r
            .rows
            .iter()
            .find(|row| row[1].contains("Fig. 2 (hand edit)") && row[0] == "R2")
            .unwrap()[2]
            .parse()
            .unwrap();
        assert_eq!(r1_after, 3, "Fig. 2 R1 still has 3 tuples");
        assert_eq!(r2_after, 4, "Fig. 2 R2 has 4 tuples");
        // Flat counts drop by 1 (R1: 9->8) and 1 (R2: 9->8).
        let r1_flat: usize = r
            .rows
            .iter()
            .find(|row| row[1].contains("Fig. 2 (hand edit)") && row[0] == "R1")
            .unwrap()[3]
            .parse()
            .unwrap();
        assert_eq!(r1_flat, 8);
    }

    #[test]
    fn e02_finds_both_paper_sizes() {
        let r = e02_example1();
        let sizes: BTreeSet<usize> = r.rows.iter().map(|row| row[1].parse().unwrap()).collect();
        assert!(sizes.contains(&2), "paper's R1 (2 tuples): {sizes:?}");
        assert!(sizes.contains(&3), "paper's R2 (3 tuples): {sizes:?}");
    }

    #[test]
    fn e03_matches_paper_exactly() {
        let r = e03_example2();
        let canon_sizes: Vec<usize> = r
            .rows
            .iter()
            .filter(|row| row[0].starts_with("canonical"))
            .map(|row| row[1].parse().unwrap())
            .collect();
        assert_eq!(canon_sizes.len(), 6);
        assert!(
            canon_sizes.iter().all(|&s| s == 4),
            "every canonical form has 4 tuples"
        );
        let min: usize = r.rows.last().unwrap()[1].parse().unwrap();
        assert_eq!(min, 3, "the 3-tuple irreducible form");
    }

    #[test]
    fn e04_has_no_mismatches() {
        let r = e04_theorem2();
        assert!(r.rows.iter().all(|row| row[3] == "0"));
    }

    #[test]
    fn e05_shapes() {
        let r = e05_theorem3_4();
        let note = &r.notes[0];
        assert!(
            note.contains("fixed on the determinant = true"),
            "Theorem 3 must hold on the fragment: {note}"
        );
        assert!(
            note.contains("(all fixed = false)"),
            "the free-attribute counterexample must appear: {note}"
        );
        assert!(note.contains("a fixed form exists = true"), "{note}");
        assert!(
            note.contains("an unfixed form also exists = true"),
            "{note}"
        );
    }

    #[test]
    fn e06_all_orders_fixed() {
        let r = e06_theorem5();
        for row in &r.rows {
            let parts: Vec<&str> = row[3].split('/').collect();
            assert_eq!(parts[0], parts[1], "all orders fixed for degree {}", row[0]);
        }
    }

    #[test]
    fn e07_cost_flat_in_relation_size() {
        let r = e07_theorem_a4();
        let size_rows: Vec<&Vec<String>> = r
            .rows
            .iter()
            .filter(|row| row[0].starts_with("|R*|"))
            .collect();
        let first: f64 = size_rows.first().unwrap()[3].parse().unwrap();
        let last: f64 = size_rows.last().unwrap()[3].parse().unwrap();
        // 100x more rows must not mean even 3x more compositions.
        assert!(
            last <= (first + 1.0) * 3.0,
            "avg insert ops grew with |R*|: first={first}, last={last}"
        );
    }

    #[test]
    fn e08_university_compresses_most() {
        let r = e08_compression();
        let ratio = |label: &str| -> f64 {
            let row = r.rows.iter().find(|row| row[0].starts_with(label)).unwrap();
            row[4].trim_end_matches('x').parse().unwrap()
        };
        assert!(
            ratio("university") > ratio("uniform"),
            "structured >> random"
        );
        assert!(ratio("block_product") > 2.0);
    }

    #[test]
    fn e09_nf_probes_fewer_units() {
        let r = e09_search_space();
        let probes = &r.rows[0];
        let nf: f64 = probes[1].parse().unwrap();
        let flat: f64 = probes[2].parse().unwrap();
        assert!(nf < flat, "NF² must probe fewer units: {nf} vs {flat}");
    }

    #[test]
    fn e11_fig3_containments() {
        let r = e11_fig3();
        let count = |label: &str| -> usize {
            r.rows.iter().find(|row| row[0].starts_with(label)).unwrap()[1]
                .parse()
                .unwrap()
        };
        let total = count("all NFRs");
        let irr = count("irreducible (");
        let canon = count("canonical for");
        assert!(canon <= irr, "canonical ⊆ irreducible");
        assert!(irr <= total);
        assert!(
            count("irreducible ∧ ¬canonical") > 0,
            "Example 2's gap exists already here"
        );
    }

    #[test]
    fn e12_suggested_order_is_fixed_on_determinant() {
        let r = e12_permutation_choice();
        let suggested_row = r.rows.iter().find(|row| row[3] == "true").unwrap();
        assert_eq!(suggested_row[2], "true", "suggested order fixed on Student");
    }

    #[test]
    fn run_one_resolves_ids() {
        assert!(run_one("e2").is_some());
        assert!(run_one("e15").is_some());
        assert!(run_one("E99").is_none());
    }

    #[test]
    fn e17_prepared_execution_is_5x_faster_than_parse_per_call() {
        // The >=5x acceptance bar holds for optimized builds (the repro
        // binary measures ~6-7x); debug builds shift the cost profile,
        // so assert a looser sanity floor there. Wall-clock ratios on a
        // shared runner are noisy, so take the best of three attempts
        // before declaring a regression.
        let bar = if cfg!(debug_assertions) { 2.0 } else { 5.0 };
        let speedup_of = |row: &[String]| -> f64 { row[4].trim_end_matches('x').parse().unwrap() };
        let mut last = (0.0, 0.0, 0.0);
        for attempt in 0..3 {
            let r = e17_with(600);
            assert_eq!(r.rows.len(), 5);
            let execute = speedup_of(&r.rows[1]);
            let fetch_exec = speedup_of(&r.rows[3]);
            let fetch_cursor = speedup_of(&r.rows[4]);
            last = (execute, fetch_exec, fetch_cursor);
            // The streaming cursor must be in the same league as
            // materialized execute (it skips render + materialization,
            // but scheduling noise can cost a few percent).
            if execute >= bar && fetch_exec > 1.0 && fetch_cursor >= 0.8 * fetch_exec {
                return;
            }
            eprintln!("e17 attempt {attempt}: execute {execute}x, fetch {fetch_exec}x / cursor {fetch_cursor}x — retrying");
        }
        panic!(
            "Prepared::execute must be >= {bar}x faster than parse-per-call run on the \
             point-SELECT hot loop (and the cursor must not trail materialized execute); \
             best of 3 attempts ended at execute {:.1}x, fetch {:.1}x, cursor {:.1}x",
            last.0, last.1, last.2
        );
    }

    #[test]
    fn e16_small_scale_ingest_is_canonical_and_complete() {
        let r = e16_with(3_000);
        assert_eq!(r.rows.len(), 3);
        // Cold ingest lands every row, entirely through rebuild batches.
        let cold = &r.rows[0];
        assert_eq!(cold[2], cold[3], "all adaptive batches rebuild: {cold:?}");
        let tuples: usize = cold[6].parse().unwrap();
        let flats: usize = cold[7].parse().unwrap();
        assert!(tuples < flats, "university data must compress");
        // The churn batch takes the rebuild arm; the probe stays
        // incremental (e16_with verifies canonicity at this scale).
        assert_eq!(r.rows[1][3], "1");
        assert_eq!(r.rows[2][3], "0");
    }

    #[test]
    fn e18_probes_drop_proportionally_and_forms_agree() {
        // Small scale: e18_with itself asserts sharded ≡ unsharded
        // tuple-identity and re-verifies every shard invariant. Here we
        // pin the acceptance shape: per-op candidate probes at 4 shards
        // must be at most half the 1-shard count (the expected drop is
        // ~4x; 2x leaves room for hash imbalance on small relations).
        let r = e18_with(4_000);
        let probe_rows: Vec<&Vec<String>> = r
            .rows
            .iter()
            .filter(|row| row[0] == "§4 incremental probe")
            .collect();
        assert_eq!(probe_rows.len(), 2);
        let p1: f64 = probe_rows[0][5].parse().unwrap();
        let p4: f64 = probe_rows[1][5].parse().unwrap();
        assert!(
            p4 * 2.0 <= p1,
            "4 shards must cut candidate probes at least in half: {p1} -> {p4}"
        );
        // The per-shard breakdown is present and sums close to the
        // aggregate (each row reports probes/op for its shard).
        let breakdown: f64 = r
            .rows
            .iter()
            .filter(|row| row[0].starts_with("probe breakdown"))
            .map(|row| row[5].parse::<f64>().unwrap())
            .sum();
        assert!(
            (breakdown - p4).abs() <= 4.0,
            "per-shard probes/op ({breakdown}) must sum to the aggregate ({p4})"
        );
    }

    #[test]
    fn e19_topk_is_bounded_and_pruning_drops_probes() {
        // e19_with itself asserts the hard invariants at any scale: the
        // heap retains ≤ k and pulls the scan exactly once, the top-k
        // prefix is tuple-identical to the full sort, equality probes
        // are at most half the full scan, and (at this scale) pruned ≡
        // unpruned counts. Here we pin the report shape the JSON
        // baseline commits.
        let r = e19_with(4_000);
        assert_eq!(r.id, "E19");
        assert!(r.rows.iter().any(|row| row[0] == "full blocking sort"));
        let topk_rows = r
            .rows
            .iter()
            .filter(|row| row[0].starts_with("streaming top-k"))
            .count();
        assert_eq!(topk_rows, 3, "k = 1, 10, 100");
        let probes_of = |label: &str| -> u64 {
            let row = r
                .rows
                .iter()
                .find(|row| row[1] == label)
                .unwrap_or_else(|| panic!("row {label} missing"));
            row[5].strip_suffix(" probes").unwrap().parse().unwrap()
        };
        let full = probes_of("full scan");
        let eq = probes_of("outer equality (1 value)");
        let in2 = probes_of("outer IN (2 values)");
        assert_eq!((eq, in2, full), (1, 2, 64));
    }

    #[test]
    fn e20_merge_stops_early_and_zones_skip() {
        // e20_with itself asserts the hard invariants at any scale: the
        // merge arm answers identically before and after a point write
        // with one scan per shard and ≥10x fewer probes than the
        // bounded heap, and a non-routing equality skips every segment
        // but the one holding the value (predictor ≡ execution). Here we
        // pin the report shape the JSON baseline commits.
        let r = e20_with(4_000);
        assert_eq!(r.id, "E20");
        let merges = r
            .rows
            .iter()
            .filter(|row| row[0] == "streaming k-way merge")
            .count();
        assert_eq!(merges, 3, "1, 4, 16 shards");
        for arm in ["k-way merge after a point write", "bounded heap (DESC key)"] {
            assert_eq!(
                r.rows.iter().filter(|row| row[0] == arm).count(),
                3,
                "{arm}"
            );
        }
        let zoned = r
            .rows
            .iter()
            .find(|row| row[0] == "zoned equality (non-routing attr)")
            .expect("zone row present");
        let (sk, tot) = zoned[5].split_once('/').expect("skip ratio");
        let (sk, tot): (usize, usize) = (sk.parse().unwrap(), tot.parse().unwrap());
        assert_eq!(sk + 1, tot, "every segment but one is skipped");
    }

    #[test]
    fn e23_concurrent_writers_do_exactly_the_serial_work() {
        // The wall-clock scaling bar self-gates on scale and cores (the
        // release CI smoke and the full repro run exercise it); what a
        // debug test can pin is the machine-independent half: per-shard
        // critical-section op counts, publication tallies and the final
        // relation all equal the serial baseline — e23_with asserts all
        // of that internally at any scale.
        let r = e23_with(40);
        assert_eq!(r.id, "E23");
        let conc = r
            .rows
            .iter()
            .find(|row| row[0].starts_with("concurrent:"))
            .expect("concurrent arm row present");
        assert!(conc[4].contains("per-shard costs == serial"), "{conc:?}");
    }

    #[test]
    fn e22_analyze_is_exact_and_metrics_export_lands() {
        // The wall-clock 5% bar runs in release (`repro` / the CI smoke
        // leg); a debug test run would measure assertion overhead, and
        // e22_with asserts the exactness invariants (ANALYZE == drain ==
        // probe deltas) at any scale, which is what this pins.
        let r = e22_with(200);
        assert_eq!(r.id, "E22");
        let exact = r
            .rows
            .iter()
            .find(|row| row[0] == "EXPLAIN ANALYZE exactness")
            .expect("exactness row present");
        assert!(exact[4].contains("== probe deltas"), "{exact:?}");
        let note = r.notes.join("\n");
        assert!(
            note.contains("stmt.select.us"),
            "metrics export rides the note: {note}"
        );
        assert!(note.contains("table.sc.units_probed"), "{note}");
    }

    #[test]
    fn e18_parallel_rebuild_speedup() {
        // The ISSUE acceptance bar — parallel batch rebuild ≥2x at ≥4
        // shards — is a thread-level speedup and needs cores to show up
        // in wall-clock. Gate the bar on the parallelism actually
        // available so single-core CI asserts non-regression instead of
        // an impossibility, and take the best of three attempts (shared
        // runners are noisy). Debug builds skip the wall-clock leg
        // entirely (assertion overhead distorts the ratio).
        if cfg!(debug_assertions) {
            return;
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let bar = if cores >= 4 {
            2.0
        } else if cores >= 2 {
            1.2
        } else {
            0.66 // 1 core: sharding must not cost more than ~1.5x
        };
        let mut best = 0.0f64;
        for _ in 0..3 {
            let r = e18_with(40_000);
            let ingest: Vec<f64> = r
                .rows
                .iter()
                .filter(|row| row[0].starts_with("cold ingest"))
                .map(|row| row[3].parse().unwrap())
                .collect();
            assert_eq!(ingest.len(), 2);
            best = best.max(ingest[0] / ingest[1].max(1e-9));
            if best >= bar {
                return;
            }
        }
        panic!("parallel rebuild speedup bar not met on {cores} core(s): best {best:.2}x < {bar}x");
    }

    #[test]
    fn e13_pushdown_reduces_estimated_work() {
        let r = e13_optimizer();
        for row in &r.rows {
            assert!(
                row[1].contains("select-into-join"),
                "pushdown fired: {row:?}"
            );
            let before: f64 = row[2].parse().unwrap();
            let after: f64 = row[3].parse().unwrap();
            assert!(after < before, "estimate must drop: {row:?}");
        }
    }

    #[test]
    fn e14_auto_strategy_agrees_at_the_extremes() {
        // The "faster" column is wall-clock and meaningful only in
        // release builds (debug asserts re-validate the partition on
        // every op); pin just the deterministic threshold column.
        let r = e14_batch_crossover();
        let first = r.rows.first().unwrap();
        assert_eq!(
            first[4], "incremental",
            "tiny batches stay incremental: {first:?}"
        );
        let last = r.rows.last().unwrap();
        assert_eq!(
            last[4], "re-nest",
            "full-relation batches rebuild: {last:?}"
        );
    }

    #[test]
    fn e15_nfr_beats_4nf_on_units_and_joins() {
        let r = e15_4nf_vs_nfr();
        assert_eq!(r.rows.len(), 2);
        let units = |row: &Vec<String>| -> usize {
            row[2].split_whitespace().next().unwrap().parse().unwrap()
        };
        let (four_nf, nfr) = (&r.rows[0], &r.rows[1]);
        assert!(
            units(nfr) < units(four_nf),
            "fewer stored units for the NFR"
        );
        assert!(four_nf[4].contains("join"), "4NF pays a join");
        assert!(nfr[4].contains("no join"));
    }
}
