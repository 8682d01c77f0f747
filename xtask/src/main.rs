//! `cargo xtask lint` — offline, lexical enforcement of repo-wide
//! source invariants that the compiler cannot express:
//!
//! 1. **No `unwrap()` in library code** — library crates must surface
//!    errors or state invariants; bare `unwrap()` does neither.
//! 2. **`expect()` messages must state the invariant** — a panic
//!    message like `"8 bytes"` explains nothing at 3 a.m. Messages
//!    need ≥ 2 words and ≥ 8 characters, or an explicit
//!    `// invariant:` waiver comment on the same or preceding line.
//! 3. **`CanonicalRelation` containment** — the single-store canonical
//!    representation is `nf2-core`'s kernel type; other crates consume
//!    the sharded store and must not reach for it directly.
//! 4. **No `static mut`** — mutable globals are undefined-behavior bait
//!    and invisible to the MVCC protocol; shared state goes through the
//!    engine's interior-mutability types.
//! 5. **Ordering containment** — `nf2-core::mvcc` is the one module
//!    whose correctness may hang on non-`Relaxed` atomic orderings
//!    (its docs say so). Everywhere else, counters are tallies: any
//!    `SeqCst`/`AcqRel`/`Acquire`/`Release` outside `mvcc.rs` is a
//!    finding — synchronization belongs behind the version cell, not
//!    sprinkled through the codebase.
//! 6. **Clock containment** — `std::time::Instant` lives in `nf2-obs`
//!    (whose `Stopwatch` is the sanctioned monotonic clock, honoring
//!    the metrics kill switch pattern) and the bench/measurement crate.
//!    Everywhere else, raw clock reads bypass the observability layer
//!    and its disabled-path guarantees — time through `nf2-obs`.
//!
//! What a type or a visibility modifier can say is left to the compiler
//! (the writer-lane locks are private methods of `NfTable`, for one).
//!
//! The checks are purely lexical (comments, string literals, and
//! `#[cfg(test)]` items are blanked before matching) so the tool runs
//! with no dependencies and no network. Exit status 1 on any finding.

#![forbid(unsafe_code)]

use std::fmt;
use std::path::{Path, PathBuf};

/// Library crates subject to the unwrap/expect rules. `crates/bench`
/// is a measurement harness (panicking on malformed fixtures is the
/// right behavior there) and is exempt, like tests and examples.
const LIBRARY_CRATES: &[&str] = &[
    "crates/core",
    "crates/algebra",
    "crates/storage",
    "crates/query",
    "crates/deps",
    "crates/workload",
];

/// Atomic memory orderings confined to `nf2-core::mvcc`
/// (`std::cmp::Ordering` has no variants by these names, so matching
/// the bare tokens is safe).
const NON_RELAXED_ORDERINGS: &[&str] = &["SeqCst", "AcqRel", "Acquire", "Release"];

#[derive(Debug)]
struct Finding {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("lint") => {
            let root = repo_root();
            let findings = lint(&root);
            if findings.is_empty() {
                println!("xtask lint: clean");
            } else {
                for f in &findings {
                    eprintln!("{f}");
                }
                eprintln!("xtask lint: {} finding(s)", findings.len());
                std::process::exit(1);
            }
        }
        other => {
            eprintln!(
                "usage: cargo xtask lint{}",
                other
                    .map(|o| format!(" (unknown task {o:?})"))
                    .unwrap_or_default()
            );
            std::process::exit(2);
        }
    }
}

/// The workspace root: `CARGO_MANIFEST_DIR` is `<root>/xtask`.
fn repo_root() -> PathBuf {
    let manifest = std::env::var("CARGO_MANIFEST_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("."));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

/// Runs every rule over the workspace and returns all findings.
fn lint(root: &Path) -> Vec<Finding> {
    let mut findings = Vec::new();
    let mut files = Vec::new();
    collect_rs(&root.join("crates"), &mut files);
    files.sort();
    for path in &files {
        let Ok(raw) = std::fs::read_to_string(path) else {
            continue;
        };
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        let code = blank_test_items(&blank_comments_and_strings(&raw));
        check_file(&rel, path, &raw, &code, &mut findings);
    }
    findings
}

/// Recursively collects `.rs` files, skipping build artifacts.
fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                collect_rs(&path, out);
            }
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// True for paths the unwrap/expect/containment rules treat as test-like.
fn is_test_path(rel: &str) -> bool {
    rel.contains("/tests/") || rel.contains("/examples/")
}

fn in_library_crate(rel: &str) -> bool {
    LIBRARY_CRATES
        .iter()
        .any(|c| rel.starts_with(&format!("{c}/src/")))
}

fn check_file(rel: &str, path: &Path, raw: &str, code: &str, findings: &mut Vec<Finding>) {
    let raw_lines: Vec<&str> = raw.lines().collect();
    let push = |findings: &mut Vec<Finding>, line: usize, rule: &'static str, message: String| {
        findings.push(Finding {
            file: PathBuf::from(rel),
            line,
            rule,
            message,
        });
        let _ = path;
    };

    for (idx, line) in code.lines().enumerate() {
        let lineno = idx + 1;
        let raw_line = raw_lines.get(idx).copied().unwrap_or("");

        // Rule 3: CanonicalRelation containment.
        if line.contains("CanonicalRelation")
            && !is_test_path(rel)
            && !rel.starts_with("crates/core/")
            && !rel.starts_with("crates/bench/")
        {
            push(
                findings,
                lineno,
                "canonical-containment",
                "CanonicalRelation is nf2-core's kernel type; consume the sharded \
                 store instead"
                    .into(),
            );
        }

        // Rules 1+2: unwrap/expect discipline in library crates.
        if in_library_crate(rel) && !is_test_path(rel) {
            if line.contains(".unwrap()") {
                push(
                    findings,
                    lineno,
                    "no-unwrap",
                    "unwrap() in library code: return an error or use \
                     expect() with the invariant that holds"
                        .into(),
                );
            }
            // `.expect("` distinguishes Option/Result::expect from
            // same-named parser methods taking non-string arguments.
            if line.contains(".expect(") && raw_line.contains(".expect(\"") {
                let waived = raw_line.contains("// invariant:")
                    || idx
                        .checked_sub(1)
                        .and_then(|p| raw_lines.get(p))
                        .is_some_and(|l| l.contains("// invariant:"));
                if !waived && !expect_message_states_invariant(raw_line) {
                    push(
                        findings,
                        lineno,
                        "expect-invariant",
                        "expect() message does not state an invariant \
                         (needs ≥ 2 words and ≥ 8 chars, or a `// invariant:` waiver)"
                            .into(),
                    );
                }
            }
        }

        // Rule 4: no mutable globals, anywhere.
        if line.contains("static mut ") {
            push(
                findings,
                lineno,
                "no-static-mut",
                "static mut is UB-bait and invisible to the MVCC protocol; \
                 use the engine's interior-mutability types"
                    .into(),
            );
        }

        // Rule 6: Instant is confined to nf2-obs (the Stopwatch home)
        // and the bench crate. The token match catches both the `use`
        // and any fully-qualified call.
        if line.contains("Instant")
            && !rel.starts_with("crates/obs/")
            && !rel.starts_with("crates/bench/")
        {
            push(
                findings,
                lineno,
                "clock-containment",
                "std::time::Instant outside nf2-obs/bench: raw clock reads \
                 bypass the observability layer — use nf2_obs::Stopwatch"
                    .into(),
            );
        }

        // Rule 5: non-Relaxed orderings live in nf2-core::mvcc only.
        if rel != "crates/core/src/mvcc.rs" {
            for ord in NON_RELAXED_ORDERINGS {
                if line.contains(ord) {
                    push(
                        findings,
                        lineno,
                        "ordering-containment",
                        format!(
                            "atomic ordering {ord} outside nf2-core::mvcc: \
                             counters are Relaxed tallies; cross-thread \
                             synchronization belongs in the version cell"
                        ),
                    );
                }
            }
        }
    }
}

/// Whether an `.expect("…")` message on this raw line is descriptive:
/// at least two words and eight characters. (Multi-line messages pass
/// trivially — rustfmt only wraps long, hence descriptive, ones.)
fn expect_message_states_invariant(raw_line: &str) -> bool {
    let Some(start) = raw_line.find(".expect(\"") else {
        return true;
    };
    let rest = &raw_line[start + ".expect(\"".len()..];
    let Some(end) = rest.find('"') else {
        return true; // message continues on the next line
    };
    let msg = &rest[..end];
    msg.chars().count() >= 8 && msg.split_whitespace().count() >= 2
}

/// Replaces comments and string/char literals with spaces, preserving
/// line structure so findings keep real line numbers.
fn blank_comments_and_strings(src: &str) -> String {
    let bytes = src.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'/' if bytes.get(i + 1) == Some(&b'/') => {
                while i < bytes.len() && bytes[i] != b'\n' {
                    out.push(b' ');
                    i += 1;
                }
            }
            b'/' if bytes.get(i + 1) == Some(&b'*') => {
                let mut depth = 1;
                out.extend_from_slice(b"  ");
                i += 2;
                while i < bytes.len() && depth > 0 {
                    if bytes[i] == b'/' && bytes.get(i + 1) == Some(&b'*') {
                        depth += 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'*' && bytes.get(i + 1) == Some(&b'/') {
                        depth -= 1;
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'"' => {
                // String literal (possibly raw: the opening r#" was
                // consumed as identifier chars — harmless, they carry
                // no rule tokens).
                out.push(b' ');
                i += 1;
                while i < bytes.len() {
                    if bytes[i] == b'\\' {
                        out.extend_from_slice(b"  ");
                        i += 2;
                    } else if bytes[i] == b'"' {
                        out.push(b' ');
                        i += 1;
                        break;
                    } else {
                        out.push(if bytes[i] == b'\n' { b'\n' } else { b' ' });
                        i += 1;
                    }
                }
            }
            b'\'' => {
                // Char literal vs lifetime: a literal closes with a
                // quote within a few bytes.
                let lit_end = (i + 1..bytes.len().min(i + 5)).find(|&j| {
                    bytes[j] == b'\'' && !(j == i + 1 && bytes.get(i + 1) == Some(&b'\\'))
                });
                match lit_end {
                    Some(end) if bytes[i + 1] == b'\\' || end == i + 2 => {
                        out.resize(out.len() + (end - i + 1), b' ');
                        i = end + 1;
                    }
                    _ => {
                        out.push(b'\'');
                        i += 1;
                    }
                }
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Blanks the bodies of `#[cfg(test)]`-attributed items (line structure
/// preserved). Lexical brace matching is exact here because comments
/// and strings were already blanked.
fn blank_test_items(src: &str) -> String {
    let lines: Vec<&str> = src.lines().collect();
    let mut keep = vec![true; lines.len()];
    let mut i = 0;
    while i < lines.len() {
        if lines[i].contains("#[cfg(test)]") {
            let mut depth: i64 = 0;
            let mut started = false;
            let mut j = i;
            while j < lines.len() {
                keep[j] = false;
                for ch in lines[j].chars() {
                    match ch {
                        '{' => {
                            depth += 1;
                            started = true;
                        }
                        '}' => depth -= 1,
                        _ => {}
                    }
                }
                j += 1;
                if started && depth <= 0 {
                    break;
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    let mut out = String::with_capacity(src.len());
    for (idx, line) in lines.iter().enumerate() {
        if keep[idx] {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blanks_comments_and_strings_preserving_lines() {
        let src = "let a = \"x.unwrap()\"; // .unwrap()\nlet b = 1;\n";
        let out = blank_comments_and_strings(src);
        assert!(!out.contains(".unwrap()"), "{out}");
        assert_eq!(out.lines().count(), src.lines().count());
    }

    #[test]
    fn blanks_cfg_test_modules() {
        let src = "fn live() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\nfn live2() {}\n";
        let out = blank_test_items(&blank_comments_and_strings(src));
        let unwraps: Vec<usize> = out
            .lines()
            .enumerate()
            .filter(|(_, l)| l.contains(".unwrap()"))
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(unwraps, vec![1]);
        assert!(out.lines().nth(5).unwrap().contains("fn live2"));
    }

    #[test]
    fn expect_message_rule() {
        assert!(expect_message_states_invariant(
            "x.expect(\"searcht guarantees membership\")"
        ));
        assert!(!expect_message_states_invariant("x.expect(\"8 bytes\")"));
        assert!(!expect_message_states_invariant("x.expect(\"nonempty\")"));
        // Parser-style method calls with non-string args are not
        // Option::expect and never reach the message check.
        assert!(expect_message_states_invariant(
            "self.expect(&Token::LParen)?;"
        ));
    }

    #[test]
    fn lint_flags_planted_violations() {
        let dir = std::env::temp_dir().join(format!("xtask-lint-test-{}", std::process::id()));
        let src_dir = dir.join("crates/core/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(
            src_dir.join("bad.rs"),
            "fn f() { let x: Option<u8> = None; x.unwrap(); }\n\
             fn g() { let x: Option<u8> = None; x.expect(\"oops\"); }\n\
             // invariant: planted waiver below\n\
             fn h() { let x: Option<u8> = None; x.expect(\"ok\"); }\n\
             #[cfg(test)]\nmod t { fn i() { let x: Option<u8> = None; x.unwrap(); } }\n",
        )
        .unwrap();
        let findings = lint(&dir);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["no-unwrap", "expect-invariant"]);
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[1].line, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lint_flags_static_mut_and_stray_orderings() {
        let dir = std::env::temp_dir().join(format!("xtask-lint-conc-{}", std::process::id()));
        let src_dir = dir.join("crates/storage/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(
            src_dir.join("bad.rs"),
            "static mut COUNTER: u64 = 0;\n\
             fn f(a: &std::sync::atomic::AtomicU64) { a.load(std::sync::atomic::Ordering::Acquire); }\n\
             // SeqCst in a comment is fine\n\
             fn g(a: &std::sync::atomic::AtomicU64) { a.load(std::sync::atomic::Ordering::Relaxed); }\n",
        )
        .unwrap();
        // The same tokens inside nf2-core::mvcc are the sanctioned home.
        let mvcc_dir = dir.join("crates/core/src");
        std::fs::create_dir_all(&mvcc_dir).unwrap();
        std::fs::write(
            mvcc_dir.join("mvcc.rs"),
            "fn h(a: &std::sync::atomic::AtomicU64) { a.load(std::sync::atomic::Ordering::Acquire); }\n",
        )
        .unwrap();
        let findings = lint(&dir);
        let rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
        assert_eq!(rules, vec!["no-static-mut", "ordering-containment"]);
        assert_eq!(findings[0].line, 1);
        assert_eq!(findings[1].line, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn lint_confines_instant_to_obs_and_bench() {
        let dir = std::env::temp_dir().join(format!("xtask-lint-clock-{}", std::process::id()));
        // Planted violation: a query-layer file reaching for the raw clock.
        let query_dir = dir.join("crates/query/src");
        std::fs::create_dir_all(&query_dir).unwrap();
        std::fs::write(
            query_dir.join("bad.rs"),
            "use std::time::Instant;\n\
             // Instant in a comment is fine\n\
             fn f() -> u64 { let t = Instant::now(); t.elapsed().as_nanos() as u64 }\n",
        )
        .unwrap();
        // The same token in the sanctioned homes is clean.
        let obs_dir = dir.join("crates/obs/src");
        std::fs::create_dir_all(&obs_dir).unwrap();
        std::fs::write(
            obs_dir.join("clock.rs"),
            "pub struct Stopwatch(std::time::Instant);\n",
        )
        .unwrap();
        let bench_dir = dir.join("crates/bench/src");
        std::fs::create_dir_all(&bench_dir).unwrap();
        std::fs::write(
            bench_dir.join("timing.rs"),
            "pub fn now() -> std::time::Instant { std::time::Instant::now() }\n",
        )
        .unwrap();
        let findings = lint(&dir);
        let rules: Vec<(&str, usize)> = findings.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(
            rules,
            vec![("clock-containment", 1), ("clock-containment", 3)]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repo_is_clean() {
        let root = repo_root();
        let findings = lint(&root);
        assert!(
            findings.is_empty(),
            "lint findings:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
