//! Seeded input generators. Everything the workloads feed the engine is
//! derived from `--seed` here; the benchmark does not use `nf2-workload`,
//! so a change there cannot move the numbers.

use std::ops::Range;

/// SplitMix64 (Steele, Lea & Flood): tiny, seedable, and good enough
/// that the generated data has no structure the engine could exploit.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; the bias is below 2⁻⁴⁰ for the
    /// ranges used here).
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An independent stream for one purpose (`tag` names it), so adding
    /// draws to one generator never shifts another's values.
    pub fn fork(&self, tag: u64) -> SplitMix64 {
        let mut mixer = SplitMix64::new(self.state ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        SplitMix64::new(mixer.next_u64())
    }

    /// `count` distinct values of `0..n`, ascending (`count <= n`, both
    /// small: used for a student's 1–4 courses and 1–3 clubs).
    pub fn distinct(&mut self, n: u64, count: usize) -> Vec<u32> {
        let mut out: Vec<u32> = Vec::with_capacity(count);
        while out.len() < count {
            let v = self.below(n) as u32;
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out.sort_unstable();
        out
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF table: exact, and a sample is
/// one binary search.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for rank in 1..=n {
            acc += (rank as f64).powf(-s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn len(&self) -> usize {
        self.cdf.len()
    }

    /// A rank in `0..n`; rank 0 is the most popular.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Skewed key choice: Zipf(0.99) ranks mapped through a *fixed*
/// permutation, `rank × P mod n` for a prime `P` that does not divide
/// `n`. Popularity is thereby unrelated to id order (and so to shard,
/// segment and sort position), and the hot students are the same ids for
/// every seed: a read's cost depends on where its key sits in a segment,
/// and a seed-derived permutation would make the median latency a
/// property of which few keys happened to be hot.
#[derive(Debug, Clone)]
pub struct KeyChooser {
    zipf: Zipf,
}

const KEY_STRIDE: u64 = 2_654_435_761;

impl KeyChooser {
    pub fn new(n: usize) -> Self {
        assert!(
            (n as u64) < KEY_STRIDE,
            "a prime stride above the key count is coprime to it"
        );
        KeyChooser {
            zipf: Zipf::new(n, 0.99),
        }
    }

    pub fn key_of_rank(&self, rank: usize) -> u32 {
        (rank as u64 * KEY_STRIDE % self.zipf.len() as u64) as u32
    }

    pub fn pick(&self, rng: &mut SplitMix64) -> u32 {
        self.key_of_rank(self.zipf.sample(rng))
    }
}

/// FNV-1a over the generated statement/parameter stream: same seed, same
/// digest; it is printed per workload so two runs can prove they were fed
/// identical inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xFF]);
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

pub const COURSES: u32 = 200;
pub const CLUBS: u32 = 50;
pub const PROFS: u32 = 50;

/// One enrollment as indices into [`Names`]: `(student, course, club)`.
/// Tuple order makes a `BTreeSet<Row>` range over one student contiguous.
pub type Row = (u32, u32, u32);

/// The professor teaching a course (`cp` is a function Course → Prof).
pub fn prof_of(course: u32) -> u32 {
    course % PROFS
}

/// University-shaped enrollments for `students`: each takes 1–4 of the
/// 200 courses and joins 1–3 of the 50 clubs, and the table holds the
/// full product per student — so `Student →→ Course | Club` holds, as in
/// the paper's Fig. 1, and the canonical form has about one NF² tuple per
/// student.
pub fn enrollments(rng: &mut SplitMix64, students: Range<u32>) -> Vec<Row> {
    let mut rows = Vec::with_capacity(students.len() * 5);
    for student in students {
        let n_courses = rng.between(1, 4) as usize;
        let n_clubs = rng.between(1, 3) as usize;
        let courses = rng.distinct(u64::from(COURSES), n_courses);
        let clubs = rng.distinct(u64::from(CLUBS), n_clubs);
        for &course in &courses {
            for &club in &clubs {
                rows.push((student, course, club));
            }
        }
    }
    rows
}

/// The string universe. Names are zero-padded, so id order is string
/// order within a kind, and the kinds' prefixes sort `b < c < p < s`:
/// interning clubs, courses, profs, students in that order keeps the
/// engine's dictionary id-ordered (the merge top-k path needs that), and
/// a brand-new student — always the next higher number — keeps it so.
#[derive(Debug, Clone)]
pub struct Names {
    pub clubs: Vec<String>,
    pub courses: Vec<String>,
    pub profs: Vec<String>,
    pub students: Vec<String>,
}

impl Names {
    pub fn new(students: u32) -> Self {
        Names {
            clubs: (0..CLUBS).map(|i| format!("b{i:02}")).collect(),
            courses: (0..COURSES).map(|i| format!("c{i:03}")).collect(),
            profs: (0..PROFS).map(|i| format!("p{i:02}")).collect(),
            students: (0..students).map(Self::student_name).collect(),
        }
    }

    fn student_name(i: u32) -> String {
        format!("s{i:07}")
    }

    /// Adds the next student and returns its index.
    pub fn add_student(&mut self) -> u32 {
        let id = self.students.len() as u32;
        self.students.push(Self::student_name(id));
        id
    }

    /// Every name in sorted order, for pre-interning.
    pub fn sorted(&self) -> impl Iterator<Item = &str> {
        self.clubs
            .iter()
            .chain(&self.courses)
            .chain(&self.profs)
            .chain(&self.students)
            .map(String::as_str)
    }

    /// A row in the schema's attribute order `(Club, Course, Student)`.
    pub fn enroll_strs(&self, (student, course, club): Row) -> [&str; 3] {
        [
            &self.clubs[club as usize],
            &self.courses[course as usize],
            &self.students[student as usize],
        ]
    }

    /// Bytes of user data in a row: what `write_amp` and `space_amp`
    /// divide by.
    pub fn row_bytes(&self, row: Row) -> u64 {
        self.enroll_strs(row).iter().map(|s| s.len() as u64).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic_and_forks_are_independent() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        assert_eq!(a.next_u64(), b.next_u64());
        let base = SplitMix64::new(7);
        assert_ne!(base.fork(1).next_u64(), base.fork(2).next_u64());
        assert_eq!(base.fork(1).next_u64(), base.fork(1).next_u64());
    }

    #[test]
    fn below_and_between_stay_in_range() {
        let mut rng = SplitMix64::new(1);
        for _ in 0..10_000 {
            assert!(rng.below(7) < 7);
            let v = rng.between(1, 4);
            assert!((1..=4).contains(&v));
            let u = rng.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn ranks_map_to_distinct_keys_spread_over_the_ids() {
        for n in [400usize, 20_000, 100_000] {
            let keys = KeyChooser::new(n);
            let mut all: Vec<u32> = (0..n).map(|r| keys.key_of_rank(r)).collect();
            // The ten hottest keys are not neighbours.
            assert!(all[..10]
                .windows(2)
                .all(|w| w[0].abs_diff(w[1]) as usize > n / 50));
            all.sort_unstable();
            assert_eq!(
                all,
                (0..n as u32).collect::<Vec<u32>>(),
                "a permutation of 0..{n}"
            );
        }
    }

    #[test]
    fn zipf_frequencies_follow_the_power_law() {
        let n = 1000;
        let zipf = Zipf::new(n, 0.99);
        let mut rng = SplitMix64::new(42);
        let draws = 400_000;
        let mut hits = vec![0u32; n];
        for _ in 0..draws {
            hits[zipf.sample(&mut rng)] += 1;
        }
        let harmonic: f64 = (1..=n).map(|r| (r as f64).powf(-0.99)).sum();
        for rank in [1usize, 2, 10, 100] {
            let expected = (rank as f64).powf(-0.99) / harmonic;
            let got = f64::from(hits[rank - 1]) / f64::from(draws);
            assert!(
                (got - expected).abs() < 0.1 * expected + 2e-4,
                "rank {rank}: got {got}, expected {expected}"
            );
        }
        // Rank 1 over rank 2 is 2^0.99.
        let ratio = f64::from(hits[0]) / f64::from(hits[1]);
        assert!((ratio - 2f64.powf(0.99)).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn zipf_never_leaves_its_range() {
        let zipf = Zipf::new(3, 0.99);
        let mut rng = SplitMix64::new(9);
        assert!((0..10_000).all(|_| zipf.sample(&mut rng) < zipf.len()));
    }

    #[test]
    fn enrollments_are_a_full_product_per_student() {
        let rows = enrollments(&mut SplitMix64::new(5), 0..500);
        assert!(
            rows.windows(2).all(|w| w[0] < w[1]),
            "sorted, no duplicates"
        );
        for student in 0..500u32 {
            let mine: Vec<&Row> = rows.iter().filter(|r| r.0 == student).collect();
            let mut courses: Vec<u32> = mine.iter().map(|r| r.1).collect();
            let mut clubs: Vec<u32> = mine.iter().map(|r| r.2).collect();
            courses.dedup();
            clubs.sort_unstable();
            clubs.dedup();
            assert!((1..=4).contains(&courses.len()) && (1..=3).contains(&clubs.len()));
            assert_eq!(mine.len(), courses.len() * clubs.len());
        }
    }

    #[test]
    fn names_sort_in_interning_order() {
        let mut names = Names::new(1200);
        names.add_student();
        let all: Vec<&str> = names.sorted().collect();
        assert!(all.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn digest_tells_streams_apart() {
        let mut a = Digest::default();
        let mut b = Digest::default();
        a.str("ab");
        a.str("c");
        b.str("a");
        b.str("bc");
        assert_ne!(a.value(), b.value());
    }
}
