//! The shadow model: a `BTreeSet` of enrollments that mirrors every
//! acknowledged write, and the checks that hold every engine result up
//! against it. All of this runs outside op timing.

use std::collections::BTreeSet;

use nf2::core::{Atom, NfTuple, TupleView};
use nf2::storage::SharedDictionary;

use crate::gen::{prof_of, Row};

/// A universe name, decoded from its string.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sym {
    Club(u32),
    Course(u32),
    Prof(u32),
    Student(u32),
}

impl Sym {
    fn parse(name: &str) -> Option<Sym> {
        let index = name.get(1..)?.parse().ok()?;
        match name.as_bytes()[0] {
            b'b' => Some(Sym::Club(index)),
            b'c' => Some(Sym::Course(index)),
            b'p' => Some(Sym::Prof(index)),
            b's' => Some(Sym::Student(index)),
            _ => None,
        }
    }
}

/// Turns result atoms back into universe names through the dictionary's
/// *strings* (never through assumptions about atom numbering). The
/// dictionary is append-only, so each distinct atom is resolved once.
#[derive(Debug)]
pub struct Decoder {
    dict: SharedDictionary,
    cache: Vec<Option<Sym>>,
}

impl Decoder {
    pub fn new(dict: &SharedDictionary) -> Self {
        Decoder {
            dict: dict.clone(),
            cache: Vec::new(),
        }
    }

    fn sym(&mut self, atom: Atom) -> Option<Sym> {
        let id = atom.id() as usize;
        if let Some(Some(sym)) = self.cache.get(id) {
            return Some(*sym);
        }
        let sym = Sym::parse(&self.dict.resolve(atom)?)?;
        if self.cache.len() <= id {
            self.cache.resize(id + 1, None);
        }
        self.cache[id] = Some(sym);
        Some(sym)
    }

    /// One NF² tuple with each component's values sorted into its kind,
    /// and how many of its atoms had no string (or one that is not a
    /// universe name); those atoms are left out of the rectangle.
    pub fn tuple_lenient(&mut self, tuple: &NfTuple) -> (Decoded, u64) {
        let mut out = Decoded::default();
        let mut unresolved = 0;
        for comp in tuple.components() {
            for atom in comp.iter() {
                match self.sym(atom) {
                    Some(Sym::Club(i)) => out.clubs.push(i),
                    Some(Sym::Course(i)) => out.courses.push(i),
                    Some(Sym::Prof(i)) => out.profs.push(i),
                    Some(Sym::Student(i)) => out.students.push(i),
                    None => unresolved += 1,
                }
            }
        }
        (out, unresolved)
    }

    /// Strict decoding for op results: `None` if any atom is unresolved.
    pub fn tuple(&mut self, tuple: &NfTuple) -> Option<Decoded> {
        match self.tuple_lenient(tuple) {
            (decoded, 0) => Some(decoded),
            _ => None,
        }
    }

    pub fn tuples<'t>(
        &mut self,
        tuples: impl IntoIterator<Item = &'t NfTuple>,
    ) -> Option<Vec<Decoded>> {
        tuples.into_iter().map(|t| self.tuple(t)).collect()
    }
}

/// A decoded NF² tuple: the rectangle `clubs × courses × profs ×
/// students` over whichever attributes the result has.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Decoded {
    pub clubs: Vec<u32>,
    pub courses: Vec<u32>,
    pub profs: Vec<u32>,
    pub students: Vec<u32>,
}

impl Decoded {
    /// Flat enrollments the tuple stands for (`SELECT *` results).
    fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        self.students.iter().flat_map(move |&s| {
            self.courses
                .iter()
                .flat_map(move |&c| self.clubs.iter().map(move |&b| (s, c, b)))
        })
    }

    /// Number of flat rows over the attributes present.
    pub fn flat_rows(&self) -> u64 {
        [&self.clubs, &self.courses, &self.profs, &self.students]
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| v.len() as u64)
            .product()
    }
}

/// How a top-k statement ranks NF² tuples (a set-valued component ranks
/// by its extreme member under the direction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TopOrder {
    /// `SELECT * … ORDER BY Student`
    ByStudent,
    /// `SELECT * … ORDER BY Course DESC, Student`
    ByCourseDescThenStudent,
    /// `SELECT Student, Course … ORDER BY Course`
    ProjectedByCourse,
}

#[derive(Debug, Clone, Default)]
pub struct Model {
    rows: BTreeSet<Row>,
    /// The same rows keyed `(course, student, club)` for non-routing
    /// predicates.
    by_course: BTreeSet<(u32, u32, u32)>,
}

impl Model {
    pub fn from_rows(rows: &[Row]) -> Self {
        Model {
            rows: rows.iter().copied().collect(),
            by_course: rows.iter().map(|&(s, c, b)| (c, s, b)).collect(),
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn contains(&self, row: Row) -> bool {
        self.rows.contains(&row)
    }

    pub fn insert(&mut self, row: Row) -> bool {
        self.by_course.insert((row.1, row.0, row.2));
        self.rows.insert(row)
    }

    pub fn remove(&mut self, row: Row) -> bool {
        self.by_course.remove(&(row.1, row.0, row.2));
        self.rows.remove(&row)
    }

    pub fn rows(&self) -> impl Iterator<Item = Row> + '_ {
        self.rows.iter().copied()
    }

    pub fn of_student(&self, student: u32) -> impl Iterator<Item = Row> + '_ {
        self.rows
            .range((student, 0, 0)..=(student, u32::MAX, u32::MAX))
            .copied()
    }

    fn has_pair(&self, student: u32, course: u32) -> bool {
        self.rows
            .range((student, course, 0)..=(student, course, u32::MAX))
            .next()
            .is_some()
    }

    /// `SELECT Course, Club FROM enroll WHERE Student = ?`
    pub fn check_point(&self, student: u32, got: &[Decoded]) -> bool {
        let mut pairs: Vec<(u32, u32)> = got
            .iter()
            .flat_map(|d| {
                d.courses
                    .iter()
                    .flat_map(move |&c| d.clubs.iter().map(move |&b| (c, b)))
            })
            .collect();
        pairs.sort_unstable();
        pairs
            .iter()
            .copied()
            .eq(self.of_student(student).map(|(_, c, b)| (c, b)))
    }

    /// `SELECT COUNT(*) FROM enroll JOIN cp WHERE Student = ? AND Prof = ?`
    pub fn count_join(&self, student: u32, prof: u32) -> u128 {
        self.of_student(student)
            .filter(|&(_, c, _)| prof_of(c) == prof)
            .count() as u128
    }

    /// `SELECT Student, Prof FROM enroll JOIN cp WHERE Student = ? AND Course IN (…)`
    pub fn check_join(&self, student: u32, courses: &[u32], got: &[Decoded]) -> bool {
        let mut pairs: Vec<(u32, u32)> = got
            .iter()
            .flat_map(|d| {
                d.students
                    .iter()
                    .flat_map(move |&s| d.profs.iter().map(move |&p| (s, p)))
            })
            .collect();
        pairs.sort_unstable();
        let mut expected: Vec<(u32, u32)> = self
            .of_student(student)
            .filter(|(_, c, _)| courses.contains(c))
            .map(|(s, c, _)| (s, prof_of(c)))
            .collect();
        expected.sort_unstable();
        expected.dedup();
        pairs == expected
    }

    /// `SELECT Student, Club FROM enroll WHERE Course = ?`: row count and
    /// an order-independent content hash.
    pub fn check_scan_eq(&self, course: u32, got: &[Decoded]) -> bool {
        let mix = |s: u32, b: u32| {
            (u64::from(s) << 20 | u64::from(b)).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        };
        let fold = |(n, h): (u64, u64), (s, b): (u32, u32)| (n + 1, h.wrapping_add(mix(s, b)));
        let actual = got
            .iter()
            .flat_map(|d| {
                d.students
                    .iter()
                    .flat_map(move |&s| d.clubs.iter().map(move |&b| (s, b)))
            })
            .fold((0, 0), fold);
        let expected = self
            .by_course
            .range((course, 0, 0)..=(course, u32::MAX, u32::MAX))
            .map(|&(_, s, b)| (s, b))
            .fold((0, 0), fold);
        actual == expected
    }

    /// A top-k result: exactly `k` tuples, in rank order, every row of
    /// theirs in the model, and every model row that ranks strictly
    /// before the last returned tuple present (rows tying with the last
    /// tuple may legitimately be cut off).
    pub fn check_topk(&self, order: TopOrder, k: usize, got: &[Decoded]) -> bool {
        if got.len() != k
            || got
                .iter()
                .any(|d| d.students.is_empty() || d.courses.is_empty())
        {
            return false;
        }
        let min = |v: &[u32]| *v.iter().min().expect("checked non-empty");
        let max = |v: &[u32]| *v.iter().max().expect("checked non-empty");
        // Rank key: smaller is earlier.
        let key = |d: &Decoded| match order {
            TopOrder::ByStudent => (min(&d.students), 0),
            TopOrder::ByCourseDescThenStudent => (u32::MAX - max(&d.courses), min(&d.students)),
            TopOrder::ProjectedByCourse => (min(&d.courses), 0),
        };
        if !got.windows(2).all(|w| key(&w[0]) <= key(&w[1])) {
            return false;
        }
        let last = key(got.last().expect("k >= 1")).0;
        match order {
            TopOrder::ByStudent | TopOrder::ByCourseDescThenStudent => {
                let union: BTreeSet<Row> = got.iter().flat_map(Decoded::rows).collect();
                if !union.iter().all(|&r| self.contains(r)) {
                    return false;
                }
                if order == TopOrder::ByStudent {
                    union.range(..(last, 0, 0)).count() == self.rows.range(..(last, 0, 0)).count()
                } else {
                    let cut = u32::MAX - last; // the last tuple's max course
                    union.iter().filter(|r| r.1 > cut).count()
                        == self.by_course.range((cut + 1, 0, 0)..).count()
                }
            }
            TopOrder::ProjectedByCourse => {
                let union: BTreeSet<(u32, u32)> = got
                    .iter()
                    .flat_map(|d| {
                        d.courses
                            .iter()
                            .flat_map(move |&c| d.students.iter().map(move |&s| (c, s)))
                    })
                    .collect();
                if !union.iter().all(|&(c, s)| self.has_pair(s, c)) {
                    return false;
                }
                let mut before: Vec<(u32, u32)> = self
                    .by_course
                    .range(..(last, 0, 0))
                    .map(|&(c, s, _)| (c, s))
                    .collect();
                before.dedup();
                union.range(..(last, 0)).count() == before.len()
            }
        }
    }

    /// The whole table against the whole model: model rows the table
    /// does not hold under resolvable strings, and table rows the model
    /// does not know. A tuple keeps its resolvable part, so one value
    /// whose string is gone loses only the rows that carry it.
    pub fn diff_table(&self, decoder: &mut Decoder, table: &[TupleView<'_>]) -> TableDiff {
        let mut held: Vec<Row> = Vec::with_capacity(self.len());
        let mut unresolved_atoms = 0;
        for view in table {
            let (decoded, unresolved) = decoder.tuple_lenient(view.as_tuple());
            held.extend(decoded.rows());
            unresolved_atoms += unresolved;
        }
        held.sort_unstable();
        held.dedup();
        let held: BTreeSet<Row> = held.into_iter().collect();
        TableDiff {
            lost: self.rows.difference(&held).copied().collect(),
            extra: held.difference(&self.rows).count() as u64,
            unresolved_atoms,
        }
    }
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TableDiff {
    pub lost: Vec<Row>,
    pub extra: u64,
    pub unresolved_atoms: u64,
}

impl TableDiff {
    pub fn is_clean(&self) -> bool {
        self.lost.is_empty() && self.extra == 0 && self.unresolved_atoms == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(students: &[u32], courses: &[u32], clubs: &[u32]) -> Decoded {
        Decoded {
            students: students.to_vec(),
            courses: courses.to_vec(),
            clubs: clubs.to_vec(),
            profs: vec![],
        }
    }

    fn model() -> Model {
        // s0: c1,c2 × b1 ; s1: c1 × b1,b2 ; s2: c9 × b0
        Model::from_rows(&[(0, 1, 1), (0, 2, 1), (1, 1, 1), (1, 1, 2), (2, 9, 0)])
    }

    #[test]
    fn sym_parses_universe_names_only() {
        assert_eq!(Sym::parse("s0000123"), Some(Sym::Student(123)));
        assert_eq!(Sym::parse("c007"), Some(Sym::Course(7)));
        assert_eq!(Sym::parse("b49"), Some(Sym::Club(49)));
        assert_eq!(Sym::parse("p03"), Some(Sym::Prof(3)));
        assert_eq!(Sym::parse("x1"), None);
        assert_eq!(Sym::parse("s"), None);
        assert_eq!(Sym::parse(""), None);
    }

    #[test]
    fn point_count_and_scan_checks_accept_right_and_reject_wrong() {
        let m = model();
        assert!(m.check_point(0, &[d(&[], &[1, 2], &[1])]));
        assert!(m.check_point(1, &[d(&[], &[1], &[2]), d(&[], &[1], &[1])]));
        assert!(!m.check_point(1, &[d(&[], &[1], &[1])]), "missing row");
        assert!(!m.check_point(0, &[d(&[], &[1, 2, 3], &[1])]), "extra row");
        assert!(m.check_point(7, &[]), "unknown student reads empty");
        assert_eq!(m.count_join(0, prof_of(1)), 1);
        assert_eq!(m.count_join(1, prof_of(1)), 2);
        assert_eq!(m.count_join(1, prof_of(2)), 0);
        assert!(m.check_scan_eq(1, &[d(&[0, 1], &[], &[1]), d(&[1], &[], &[2])]));
        assert!(!m.check_scan_eq(1, &[d(&[0, 1], &[], &[1])]));
        assert!(!m.check_scan_eq(1, &[d(&[0, 1], &[], &[1]), d(&[1], &[], &[3])]));
    }

    #[test]
    fn join_check_projects_and_deduplicates() {
        let m = model();
        let got = Decoded {
            students: vec![1],
            profs: vec![prof_of(1)],
            ..Decoded::default()
        };
        assert!(m.check_join(1, &[1, 5, 6], std::slice::from_ref(&got)));
        assert!(!m.check_join(1, &[5, 6], &[got]));
        assert!(m.check_join(1, &[5, 6], &[]));
    }

    #[test]
    fn topk_requires_count_order_soundness_and_completeness() {
        let m = model();
        let s0 = d(&[0], &[1, 2], &[1]);
        let s1 = d(&[1], &[1], &[1, 2]);
        let s2 = d(&[2], &[9], &[0]);
        assert!(m.check_topk(TopOrder::ByStudent, 2, &[s0.clone(), s1.clone()]));
        assert!(
            !m.check_topk(TopOrder::ByStudent, 2, &[s1.clone(), s0.clone()]),
            "order"
        );
        assert!(
            !m.check_topk(TopOrder::ByStudent, 2, std::slice::from_ref(&s0)),
            "count"
        );
        assert!(
            !m.check_topk(TopOrder::ByStudent, 2, &[s0.clone(), s2.clone()]),
            "skipped s1"
        );
        assert!(
            !m.check_topk(TopOrder::ByStudent, 1, &[d(&[0], &[1, 3], &[1])]),
            "unknown row"
        );
        // Course DESC: s2 (c9) first, then s0 (max c2), then s1 (c1).
        assert!(m.check_topk(
            TopOrder::ByCourseDescThenStudent,
            2,
            &[s2.clone(), s0.clone()]
        ));
        assert!(
            !m.check_topk(
                TopOrder::ByCourseDescThenStudent,
                2,
                &[s0.clone(), s1.clone()]
            ),
            "c9 missing"
        );
        // Projection (Student, Course) by Course ASC: c1 held by s0 and s1.
        let c1 = d(&[0, 1], &[1], &[]);
        let c2 = d(&[0], &[2], &[]);
        assert!(m.check_topk(TopOrder::ProjectedByCourse, 2, &[c1.clone(), c2.clone()]));
        assert!(
            !m.check_topk(TopOrder::ProjectedByCourse, 2, &[d(&[0], &[1], &[]), c2]),
            "(c1,s1) missing"
        );
    }

    #[test]
    fn decoder_reads_strings_and_diff_reports_lost_and_extra() {
        let dict = SharedDictionary::new();
        let atoms = dict.intern_row(&["b01", "c001", "s0000000", "c002", "zzz"]);
        let mut dec = Decoder::new(&dict);
        let tuple = NfTuple::from_values(vec![
            vec![atoms[0]],
            vec![atoms[1], atoms[3]],
            vec![atoms[2]],
        ])
        .unwrap();
        let decoded = dec.tuple(&tuple).unwrap();
        assert_eq!(decoded, d(&[0], &[1, 2], &[1]));
        assert_eq!(decoded.flat_rows(), 2);
        assert!(
            dec.tuple(&NfTuple::from_flat(&[atoms[4]])).is_none(),
            "not a universe name"
        );
        assert!(
            dec.tuple(&NfTuple::from_flat(&[Atom(99)])).is_none(),
            "no string"
        );
        let diff = model().diff_table(&mut dec, &[TupleView::Borrowed(&tuple)]);
        assert_eq!(diff.lost, vec![(1, 1, 1), (1, 1, 2), (2, 9, 0)]);
        assert_eq!((diff.extra, diff.unresolved_atoms), (0, 0));
        let diff =
            Model::from_rows(&[(0, 1, 1)]).diff_table(&mut dec, &[TupleView::Borrowed(&tuple)]);
        assert_eq!((diff.lost.len(), diff.extra), (0, 1));
        // A student whose string is gone takes only its own rows along.
        let merged = NfTuple::from_values(vec![
            vec![atoms[0]],
            vec![atoms[1]],
            vec![atoms[2], Atom(99)],
        ])
        .unwrap();
        let diff = Model::from_rows(&[(0, 1, 1), (5, 1, 1)])
            .diff_table(&mut dec, &[TupleView::Borrowed(&merged)]);
        assert_eq!(
            (diff.lost, diff.extra, diff.unresolved_atoms),
            (vec![(5, 1, 1)], 0, 1)
        );
    }
}
