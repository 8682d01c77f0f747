//! Golden plan snapshots: every query in `tests/plans/*.sql` is run
//! through `EXPLAIN VERIFY OPTIMIZED` against a fixed fixture catalog
//! and compared byte-for-byte against its `.snap` neighbor — logical
//! plan, applied rewrite rules, cost estimates, compiled physical
//! pipeline (with shard prune lists), and the static checker's verdict
//! all pinned in one artifact.
//!
//! The fixture engine pins `shards(4)` explicitly, so snapshots are
//! identical under any `NF2_SHARDS` test-matrix leg.
//!
//! To regenerate after an intentional planner change:
//!
//! ```text
//! NF2_REGEN_PLANS=1 cargo test --test plan_snapshots
//! ```

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use nf2_query::engine::Engine;
use nf2_query::exec::Output;

fn fixture_engine() -> Engine {
    // Explicit shard count: golden files must not depend on NF2_SHARDS.
    // One INSERT per row: a statement is one write, and the snapshot
    // epochs the goldens print count the fixture's writes.
    let engine = Engine::builder().shards(4).build().unwrap();
    engine
        .session()
        .run_script(
            "CREATE TABLE sc (Student, Course);
             INSERT INTO sc VALUES ('s1','c1'); INSERT INTO sc VALUES ('s2','c1');
             INSERT INTO sc VALUES ('s1','c2'); INSERT INTO sc VALUES ('s3','c3');
             INSERT INTO sc VALUES ('s2','c4');
             CREATE TABLE cp (Course, Prof);
             INSERT INTO cp VALUES ('c1','p1'); INSERT INTO cp VALUES ('c2','p2');
             INSERT INTO cp VALUES ('c3','p1'); INSERT INTO cp VALUES ('c4','p3');",
        )
        .unwrap();
    engine
}

fn plans_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/plans")
}

fn regen() -> bool {
    std::env::var("NF2_REGEN_PLANS").is_ok_and(|v| !v.is_empty() && v != "0")
}

fn snapshot_for(engine: &mut Engine, query: &str) -> String {
    // A fixture that is itself an EXPLAIN statement runs verbatim — the
    // ANALYZE golden pins its own flag set (flags parse in any order);
    // bare SELECTs get the standard EXPLAIN VERIFY OPTIMIZED wrapper.
    let statement = if query
        .get(..7)
        .is_some_and(|p| p.eq_ignore_ascii_case("explain"))
    {
        query.to_owned()
    } else {
        format!("EXPLAIN VERIFY OPTIMIZED {query}")
    };
    let output = engine
        .session()
        .run(&statement)
        .unwrap_or_else(|e| panic!("{statement}: {e}"));
    let Output::Message(text) = output else {
        panic!("{statement}: expected a plan message");
    };
    let mut snap = String::new();
    writeln!(snap, "-- {query}").unwrap();
    writeln!(snap, "{}", normalize_times(&text)).unwrap();
    snap
}

/// Blanks wall-clock readings so ANALYZE snapshots stay byte-stable
/// while their row counts keep asserting: the token after every
/// `time=` and the duration closing the `analyze: … out in <dur>`
/// summary. Manual scanning — the harness takes no regex dependency.
fn normalize_times(text: &str) -> String {
    let mut lines = Vec::new();
    for line in text.lines() {
        let line = match (line.starts_with("analyze:"), line.find(" out in ")) {
            (true, Some(p)) => format!("{}<T>", &line[..p + " out in ".len()]),
            _ => line.to_owned(),
        };
        let mut out = String::with_capacity(line.len());
        let mut rest = line.as_str();
        while let Some(pos) = rest.find("time=") {
            let after = pos + "time=".len();
            out.push_str(&rest[..after]);
            out.push_str("<T>");
            let tail = &rest[after..];
            let end = tail.find([' ', ')']).unwrap_or(tail.len());
            rest = &tail[end..];
        }
        out.push_str(rest);
        lines.push(out);
    }
    lines.join("\n")
}

#[test]
fn golden_plans_match() {
    let dir = plans_dir();
    let mut engine = fixture_engine();
    let mut sql_files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "sql"))
        .collect();
    sql_files.sort();
    assert!(
        sql_files.len() >= 7,
        "expected the full plan-shape fixture set in {}",
        dir.display()
    );

    let mut mismatches = Vec::new();
    for sql_path in &sql_files {
        let query = std::fs::read_to_string(sql_path).unwrap();
        let query = query.trim();
        let snap_path = sql_path.with_extension("snap");
        let actual = snapshot_for(&mut engine, query);

        // Every golden plan must carry a passing checker verdict —
        // a FAILED snapshot must never be committed, even deliberately.
        assert!(
            actual.contains("verify: ok"),
            "{}: checker rejected the plan:\n{actual}",
            sql_path.display()
        );

        if regen() {
            std::fs::write(&snap_path, &actual).unwrap();
            continue;
        }
        let expected = std::fs::read_to_string(&snap_path).unwrap_or_else(|_| {
            panic!(
                "{} is missing — run `NF2_REGEN_PLANS=1 cargo test --test plan_snapshots`",
                snap_path.display()
            )
        });
        if actual != expected {
            mismatches.push(format!(
                "== {} ==\n--- expected ---\n{expected}\n--- actual ---\n{actual}",
                sql_path.display()
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "{} plan snapshot(s) changed — if intentional, regenerate with \
         `NF2_REGEN_PLANS=1 cargo test --test plan_snapshots`:\n{}",
        mismatches.len(),
        mismatches.join("\n")
    );
}

/// The snapshot corpus stays honest: each golden file must mention the
/// physical pipeline section and the verdict the harness asserts on.
#[test]
fn golden_files_contain_physical_and_verdict_sections() {
    if regen() {
        return; // files may be mid-rewrite in regen mode
    }
    for entry in std::fs::read_dir(plans_dir()).unwrap().flatten() {
        let path = entry.path();
        if path.extension().is_none_or(|e| e != "snap") {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("physical:"), "{}", path.display());
        assert!(text.contains("verify: ok"), "{}", path.display());
    }
}
