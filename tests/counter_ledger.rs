//! The counter ledger: four fixed scripts, each run on its own engine,
//! and every exact counter `Engine::metrics()` exports afterwards,
//! compared byte-for-byte against `tests/counters/<script>.snap`.
//!
//! A change that claims to alter no behaviour — a refactor, a new
//! representation behind the same operations — must leave every file
//! here unchanged: the ledger is what shows it, series by series,
//! without pasting traced runs by hand.
//!
//! Each snapshot lists every counter and the count of every histogram.
//! Timing series are dropped by name (`*nanos*`, `*_us`, `*.us`,
//! `*_ms`): their values are clock readings, and whether a timing
//! histogram is recorded at all can depend on the environment (plan
//! verification records `plan.verify.us` only when it runs). Every
//! script pins `shards(4)` and `group_commit(0)` and draws its ops from
//! a fixed seed, so the ledger is the same under any `NF2_SHARDS`,
//! `NF2_VERIFY` or `RUST_TEST_THREADS`.
//!
//! To regenerate after an intentional change to what is counted:
//!
//! ```text
//! NF2_REGEN_PLANS=1 cargo test --test counter_ledger
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use nf2::core::bulk::Op;
use nf2::core::schema::NestOrder;
use nf2::core::shard::ShardSpec;
use nf2::core::Atom;
use nf2::query::exec::Output;
use nf2::query::{Engine, EngineBuilder};
use nf2::storage::NfTable;

const SHARDS: usize = 4;

fn counters_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/counters")
}

fn regen() -> bool {
    std::env::var("NF2_REGEN_PLANS").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Every engine the scripts build: four shards and no group-commit
/// window, whatever the environment says.
fn builder() -> EngineBuilder {
    Engine::builder().shards(SHARDS).group_commit(0)
}

fn is_timing(name: &str) -> bool {
    name.contains("nanos") || [".us", "_us", "_ms"].iter().any(|s| name.ends_with(s))
}

/// The untimed part of `engine`'s metrics, one series a line, counters
/// first, in name order.
fn ledger(engine: &Engine) -> String {
    let snap = engine.metrics();
    let mut counters: Vec<_> = snap.counters.iter().collect();
    counters.sort();
    let mut histograms: Vec<_> = snap.histograms.iter().collect();
    histograms.sort_by(|a, b| a.0.cmp(&b.0));
    let mut out = String::new();
    for (name, value) in counters.into_iter().filter(|(n, _)| !is_timing(n)) {
        writeln!(out, "{name} = {value}").unwrap();
    }
    for (name, h) in histograms.into_iter().filter(|(n, _)| !is_timing(n)) {
        writeln!(out, "{name}: count={}", h.count).unwrap();
    }
    out
}

fn check(script: &str, actual: &str) {
    let path = counters_dir().join(format!("{script}.snap"));
    if regen() {
        std::fs::create_dir_all(counters_dir()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "{} is missing — run `NF2_REGEN_PLANS=1 cargo test --test counter_ledger`",
            path.display()
        )
    });
    assert!(
        actual == expected,
        "{script}: the counter ledger changed — if intentional, regenerate with \
         `NF2_REGEN_PLANS=1 cargo test --test counter_ledger`\n--- expected ---\n\
         {expected}\n--- actual ---\n{actual}"
    );
}

/// SplitMix64: the scripts' one source of choices.
struct Seeded(u64);

impl Seeded {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

const COURSES: u64 = 40;
const CLUBS: u64 = 12;

/// `(Student, Course, Club)` rows of a university: student `s` takes
/// two to four courses and belongs to one or two clubs, every pair of
/// them a row, so each student nests into one tuple.
fn university(students: u64, seed: u64) -> Vec<[String; 3]> {
    let mut rng = Seeded(seed);
    let mut rows = Vec::new();
    for s in 0..students {
        let courses = 2 + rng.below(3);
        let first_course = rng.below(COURSES);
        let clubs = 1 + rng.below(2);
        let first_club = rng.below(CLUBS);
        for c in 0..courses {
            for k in 0..clubs {
                rows.push([
                    format!("s{s}"),
                    format!("c{}", (first_course + c) % COURSES),
                    format!("k{}", (first_club + k) % CLUBS),
                ]);
            }
        }
    }
    rows
}

/// Every name the scripts may use, interned in sorted order before any
/// load, so a checkpoint's dictionary resolves every later write.
fn intern_names(engine: &Engine, students: u64) {
    let mut names: Vec<String> = (0..students)
        .map(|s| format!("s{s}"))
        .chain((0..COURSES).map(|c| format!("c{c}")))
        .chain((0..CLUBS).map(|k| format!("k{k}")))
        .collect();
    names.sort();
    for name in &names {
        engine.dict().intern(name);
    }
}

/// Loads `rows` as `enroll` on four hash shards.
fn attach_university(engine: &Engine, rows: &[[String; 3]]) {
    let table = NfTable::bulk_load_strs_sharded(
        "enroll",
        &["Student", "Course", "Club"],
        rows.iter().map(|r| r.iter().map(String::as_str).collect()),
        NestOrder::identity(3),
        ShardSpec::hash(SHARDS).unwrap(),
        engine.dict().clone(),
    )
    .unwrap();
    engine.attach_table(table).unwrap();
}

const POINT: &str = "SELECT Course, Club FROM enroll WHERE Student = ?";
const SCAN_EQ: &str = "SELECT Student, Club FROM enroll WHERE Course = ?";

#[test]
fn point_and_located_reads() {
    const STUDENTS: u64 = 400;
    let engine = builder().build().unwrap();
    attach_university(&engine, &university(STUDENTS, 1));
    let session = engine.session();
    let mut point = session.prepare(POINT).unwrap();
    let mut scan_eq = session.prepare(SCAN_EQ).unwrap();
    let mut rng = Seeded(2);
    let (mut points, mut located) = (0, 0);
    for _ in 0..200 {
        let student = format!("s{}", rng.below(STUDENTS));
        points += point.query(&session, &[student]).unwrap().count();
    }
    for _ in 0..40 {
        let course = format!("c{}", rng.below(COURSES));
        located += scan_eq.query(&session, &[course]).unwrap().count();
    }
    let mut out = format!("-- 200 point reads: {points} tuples; 40 scan_eq reads: {located}\n");
    out.push_str(&ledger(&engine));
    check("reads", &out);
}

#[test]
fn a_read_write_mix_with_a_checkpoint_and_a_reopen() {
    const STUDENTS: u64 = 200;
    let dir = std::env::temp_dir().join(format!("nf2_ledger_oltp_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let durable = || builder().data_dir(&dir).wal_autoflush(true);

    let engine = durable().build().unwrap();
    intern_names(&engine, STUDENTS);
    let mut present = university(STUDENTS, 3);
    attach_university(&engine, &present);
    let mut out = String::new();
    {
        let mut session = engine.session();
        let mut point = session.prepare(POINT).unwrap();
        let mut insert = session
            .prepare("INSERT INTO enroll VALUES (?, ?, ?)")
            .unwrap();
        let mut delete = session
            .prepare("DELETE FROM enroll WHERE Student = ? AND Course = ? AND Club = ?")
            .unwrap();
        let mut rng = Seeded(4);
        let (mut read, mut affected) = (0, 0);
        for op in 0..400 {
            if op == 200 {
                engine.checkpoint().unwrap();
            }
            if rng.below(4) != 0 {
                let student = format!("s{}", rng.below(STUDENTS));
                read += point.query(&session, &[student]).unwrap().count();
                continue;
            }
            // Half the writes delete a row the table holds, half insert
            // one drawn at random (a repeat is a no-op).
            let (stmt, row) = if rng.below(2) == 0 {
                let at = rng.below(present.len() as u64) as usize;
                (&mut delete, present.swap_remove(at))
            } else {
                let row = [
                    format!("s{}", rng.below(STUDENTS)),
                    format!("c{}", rng.below(COURSES)),
                    format!("k{}", rng.below(CLUBS)),
                ];
                present.push(row.clone());
                (&mut insert, row)
            };
            if let Output::Affected(n) = stmt.execute(&mut session, &row).unwrap() {
                affected += n;
            }
        }
        writeln!(
            out,
            "-- 400 ops: {read} tuples read, {affected} rows written"
        )
        .unwrap();
    }
    out.push_str(&ledger(&engine));
    drop(engine);

    // Reopen: the checkpoint plus the WAL written after it.
    let engine = durable().build().unwrap();
    let table = NfTable::open(&dir, "enroll", engine.dict().clone()).unwrap();
    engine.attach_table(table).unwrap();
    {
        let session = engine.session();
        let mut point = session.prepare(POINT).unwrap();
        let mut rng = Seeded(5);
        let mut read = 0;
        for _ in 0..100 {
            let student = format!("s{}", rng.below(STUDENTS));
            read += point.query(&session, &[student]).unwrap().count();
        }
        writeln!(out, "-- reopened; 100 point reads: {read} tuples").unwrap();
    }
    out.push_str(&ledger(&engine));
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
    check("oltp", &out);
}

#[test]
fn a_cold_load_then_batches_of_100_1000_and_5000() {
    const STUDENTS: u32 = 1_500;
    let engine = builder().build().unwrap();
    let mut rng = Seeded(6);
    let row = |s: u32, rng: &mut Seeded| {
        vec![
            Atom(s),
            Atom(10_000 + rng.below(COURSES) as u32),
            Atom(20_000 + rng.below(CLUBS) as u32),
        ]
    };
    let mut present: Vec<Vec<Atom>> = Vec::new();
    for s in 0..STUDENTS {
        for _ in 0..1 + rng.below(4) {
            present.push(row(s, &mut rng));
        }
    }
    let table = NfTable::bulk_load_atoms_sharded(
        "bulk",
        &["Student", "Course", "Club"],
        present.clone(),
        NestOrder::identity(3),
        ShardSpec::hash(SHARDS).unwrap(),
        engine.dict().clone(),
    )
    .unwrap();
    engine.attach_table(table).unwrap();
    let table = engine.table("bulk").unwrap();
    let mut out = format!("-- cold load: {} rows\n", present.len());
    let mut fresh = STUDENTS;
    for size in [100, 1_000, 5_000] {
        let ops: Vec<Op> = (0..size)
            .map(|_| {
                if rng.below(3) == 0 && !present.is_empty() {
                    let at = rng.below(present.len() as u64) as usize;
                    Op::Delete(present.swap_remove(at))
                } else {
                    // Mostly students already loaded; some new ones.
                    let s = if rng.below(4) == 0 {
                        fresh += 1;
                        fresh
                    } else {
                        rng.below(u64::from(STUDENTS)) as u32
                    };
                    let r = row(s, &mut rng);
                    present.push(r.clone());
                    Op::Insert(r)
                }
            })
            .collect();
        let (summary, _) = table.append_batch(&ops).unwrap();
        writeln!(out, "-- batch of {size}: {summary:?}").unwrap();
    }
    out.push_str(&ledger(&engine));
    check("bulk", &out);
}

#[test]
fn ad_hoc_statements_over_several_shards() {
    let engine = builder().build().unwrap();
    let mut session = engine.session();
    let mut values = Vec::new();
    for s in 0..24 {
        for c in 0..1 + s % 3 {
            for k in 0..1 + s % 2 {
                values.push(format!("('s{s}','c{}','k{}')", (s + c) % 7, (s + k) % 3));
            }
        }
    }
    session
        .run_script(&format!(
            "CREATE TABLE enroll (Student, Course, Club);
             INSERT INTO enroll VALUES {};
             CREATE TABLE cp (Course, Prof);
             INSERT INTO cp VALUES ('c0','p0'), ('c1','p1'), ('c2','p0'), ('c3','p2'),
                                   ('c4','p1'), ('c5','p2'), ('c6','p0');",
            values.join(", ")
        ))
        .unwrap();
    let statements = [
        "SELECT Student FROM enroll",
        "SELECT Student, Course FROM enroll ORDER BY Course LIMIT 5",
        "SELECT * FROM enroll ORDER BY Student LIMIT 7",
        "SELECT Student, Club FROM enroll WHERE Course = 'c3'",
        "SELECT Student, Prof FROM enroll JOIN cp WHERE Course IN ('c1', 'c2')",
        "SELECT COUNT(*) FROM enroll",
        "EXPLAIN SELECT Student FROM enroll JOIN cp WHERE Prof = 'p1'",
        "EXPLAIN VERIFY OPTIMIZED SELECT Student, Course FROM enroll ORDER BY Course LIMIT 3",
        "SHOW enroll",
        "SHOW FLAT cp",
        "STATS enroll",
        "TABLES",
        "UPDATE enroll SET Club = 'k2' WHERE Student = 's4'",
        "DELETE FROM enroll WHERE Course = 'c6'",
        "SELECT Student, Course FROM enroll ORDER BY Course LIMIT 5",
    ];
    let mut out = String::new();
    for sql in statements {
        let output = session.run(sql).unwrap();
        let shape = match &output {
            Output::Message(m) => format!("message, {} lines", m.lines().count()),
            Output::Affected(n) => format!("{n} affected"),
            Output::Count(n) => format!("count {n}"),
            Output::Relation { relation, .. } => format!(
                "{} tuples, {} rows",
                relation.tuple_count(),
                relation.flat_count()
            ),
        };
        writeln!(out, "-- {sql}: {shape}").unwrap();
    }
    // The rendering of a flat table, pinned with its counters.
    writeln!(out, "{}", session.run("SHOW FLAT cp").unwrap().to_text()).unwrap();
    out.push_str(&ledger(&engine));
    check("adhoc", &out);
}
