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
use nf2_core::relation::{FlatRelation, NfRelation, RowBlock};
use nf2_core::schema::{NestOrder, Schema};
use nf2_core::tuple::{FlatTuple, NfTuple, ValueSet};
use nf2_core::value::{Atom, Dictionary};
use nf2_deps::{check_theorem3, check_theorem4, check_theorem5, suggest_nest_order, Fd, Mvd};
use nf2_storage::{NfTable, SharedDictionary};
use nf2_workload as workload;

use crate::flat_table::FlatTable;
use crate::page::page_bytes;
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
    let rows: Vec<FlatTuple> = flat.rows().map(<[Atom]>::to_vec).collect();
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
        canon.insert_counted(&row, &mut ic).unwrap();
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
    let flat_table = FlatTable::from_flat(&w.flat);

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
            .filter(|t| t.as_ref().component(1).contains(course))
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

    // Byte footprint: both sides' records packed into the same slotted
    // pages, then the exact encoded payload (page-granularity effects
    // removed).
    let mut buf = bytes::BytesMut::new();
    let nf_records: Vec<usize> = nf
        .snapshot()
        .canonical()
        .tuples()
        .iter()
        .map(|t| {
            buf.clear();
            nf2_storage::codec::encode_nf_tuple(t.as_ref(), &mut buf);
            buf.len()
        })
        .collect();
    let nf_bytes = page_bytes(nf_records.iter().copied());
    let flat_bytes = flat_table.size_bytes();
    report.push_row(vec![
        "page bytes".into(),
        nf_bytes.to_string(),
        flat_bytes.to_string(),
        format!("{:.2}x", flat_bytes as f64 / nf_bytes.max(1) as f64),
    ]);
    let nf_payload: usize = nf_records.iter().sum();
    let flat_payload = flat_table.payload_bytes();
    report.push_row(vec![
        "encoded payload bytes".into(),
        nf_payload.to_string(),
        flat_payload.to_string(),
        format!("{:.2}x", flat_payload as f64 / nf_payload.max(1) as f64),
    ]);
    report.push_row(vec![
        "logical units".into(),
        nf.tuple_count().to_string(),
        flat_table.row_count().to_string(),
        format!(
            "{:.2}x",
            flat_table.row_count() as f64 / nf.tuple_count().max(1) as f64
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
        let rows: Vec<FlatTuple> = w.flat.rows().map(<[Atom]>::to_vec).collect();
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
        let start = Instant::now();
        let baseline_probes = 4usize; // re-nesting is slow; fewer probes suffice
        for i in 0..baseline_probes {
            let row = rows[(i * 104729) % rows.len()].as_slice();
            let mut without = RowBlock::with_capacity(w.flat.schema().clone(), rows.len());
            for kept in w.flat.rows().filter(|r| *r != row) {
                without.push_row(kept).unwrap();
            }
            let _ = kernel.canonical_of_rows(&without, &order);
            let _ = kernel.canonical_of_flat(&w.flat, &order);
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
/// Measures the optimizer on select-over-join plans: estimated work,
/// wall time, and the rewrites that fired. Both rules are
/// tuple-identical, so the result check is exact equality.
pub fn e13_optimizer() -> Report {
    use nf2_algebra::optimize::{estimate, optimize, SchemaCatalog};
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
        let opt = optimize(plan, &catalog);
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

/// E14 — batch maintenance: §4 replay vs re-nest as the batch grows
/// relative to the relation, with the keyed batch the engine runs
/// beside them.
pub fn e14_batch_crossover() -> Report {
    use nf2_core::bulk::{apply_batch, rebuild_batch};
    use nf2_core::shard::{ShardSpec, ShardedCanonical};

    let mut report = Report::new(
        "E14",
        "Batch updates: incremental §4 maintenance vs re-nest, by batch size",
        &[
            "batch (% of |R*|)",
            "incremental µs",
            "re-nest µs",
            "faster",
            "keyed µs",
        ],
    );
    let w = workload::university(150, 3, 30, 2, 8, 91);
    let base_rows = w.flat.len();
    let order = NestOrder::identity(3);
    let base = CanonicalRelation::from_flat(&w.flat, order.clone()).unwrap();

    for &pct in &[1usize, 5, 20, 50, 100] {
        let ops = workload::op_trace(&w, (base_rows * pct / 100).max(1), 40, pct as u64);

        let mut inc = base.clone();
        let mut cost = CostCounter::new();
        let start = Instant::now();
        apply_batch(&mut inc, &ops, &mut cost).unwrap();
        let t_inc = start.elapsed().as_micros();

        let start = Instant::now();
        let rebuilt = rebuild_batch(&base, &ops).unwrap();
        let t_re = start.elapsed().as_micros();

        // One shard, so the postings the keyed read phase asks exist.
        let mut keyed =
            ShardedCanonical::from_flat(&w.flat, order.clone(), ShardSpec::single()).unwrap();
        let start = Instant::now();
        keyed.apply_batch(&ops).unwrap();
        let t_keyed = start.elapsed().as_micros();

        let vector = inc.relation().tuples();
        assert_eq!(vector, rebuilt.relation().tuples(), "replay ≡ re-nest");
        assert_eq!(vector, keyed.shard(0).relation().tuples(), "replay ≡ keyed");

        let faster = if t_inc <= t_re {
            "incremental"
        } else {
            "re-nest"
        };
        report.push_row(vec![
            format!("{pct}%"),
            t_inc.to_string(),
            t_re.to_string(),
            faster.to_string(),
            t_keyed.to_string(),
        ]);
    }
    report.note(
        "Against the whole relation, small batches favour §4 replay, and once a batch \
         rewrites a large fraction of R* one re-nest beats many recons cascades. The \
         engine runs neither: a keyed batch replays each outer key's ops on that key's \
         slice and regroups once on P(n−1), so it needs no threshold between the two. \
         All three are asserted equal as vectors at every batch size.",
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
        encode_nf_tuple(t.as_ref(), &mut buf);
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
    fn e14_three_procedures_agree_at_every_size() {
        // The µs columns are wall-clock and meaningful only in release
        // builds; what is pinned is that every size ran — the
        // experiment itself asserts replay ≡ re-nest ≡ keyed, as
        // vectors, before it pushes a row.
        let r = e14_batch_crossover();
        assert_eq!(r.headers.last().map(String::as_str), Some("keyed µs"));
        assert_eq!(r.rows.len(), 5);
        for row in &r.rows {
            row[4].parse::<u64>().expect("a keyed timing per size");
        }
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
