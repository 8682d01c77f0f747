//! Regenerates every table and figure of the paper.
//!
//! ```text
//! repro                             # all experiments, ASCII
//! repro --md                        # all experiments, Markdown
//! repro E3 E7                       # a subset
//! repro --json                      # also write a timed BENCH_seed.json baseline
//! repro --json=out.json             # same, custom path
//! repro --json --baseline           # diff against BENCH_seed.json, write BENCH_pr14.json
//! repro --baseline=old.json         # diff against a named baseline
//! ```
//!
//! With `--baseline`, the run is timed, a per-experiment delta table is
//! printed against the baseline file, and the JSON report defaults to
//! `BENCH_pr14.json` — so perf work can be tracked without ever touching
//! the committed `BENCH_seed.json`.

use std::time::Instant;

use nf2_bench::{experiment_ids, parse_baseline, run_all, run_one, Report};

/// Default path of the committed full-suite baseline.
const DEFAULT_JSON_PATH: &str = "BENCH_seed.json";

/// Default output path when diffing against a baseline.
const DELTA_JSON_PATH: &str = "BENCH_pr14.json";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let markdown = args.iter().any(|a| a == "--md");
    let baseline_path: Option<String> = args.iter().find_map(|a| {
        if a == "--baseline" {
            Some(DEFAULT_JSON_PATH.to_owned())
        } else {
            a.strip_prefix("--baseline=").map(str::to_owned)
        }
    });
    // An explicit `--json=PATH` always wins; otherwise a bare `--json` (or
    // any `--baseline` run) defaults to BENCH_pr14.json when diffing — the
    // baseline being diffed against is never overwritten.
    let explicit_json_path: Option<String> = args
        .iter()
        .find_map(|a| a.strip_prefix("--json=").map(str::to_owned));
    let bare_json = args.iter().any(|a| a == "--json");
    let json_path: Option<String> = match (explicit_json_path, baseline_path.is_some()) {
        (Some(path), _) => Some(path),
        (None, true) => Some(DELTA_JSON_PATH.to_owned()),
        (None, false) if bare_json => Some(DEFAULT_JSON_PATH.to_owned()),
        (None, false) => None,
    };
    let ids: Vec<&String> = args.iter().filter(|a| !a.starts_with("--")).collect();

    // The default baseline path is the committed full-suite baseline; a
    // partial run must name its own file so it cannot clobber it.
    if json_path.as_deref() == Some(DEFAULT_JSON_PATH) && !ids.is_empty() {
        eprintln!(
            "refusing to write the partial run {:?} to the full-suite baseline \
             {DEFAULT_JSON_PATH}; pass --json=PATH to choose a different file",
            ids
        );
        std::process::exit(2);
    }

    let selected: Vec<String> = if ids.is_empty() {
        experiment_ids().iter().map(|s| (*s).to_owned()).collect()
    } else {
        ids.iter().map(|s| (*s).clone()).collect()
    };

    // Baselines and JSON reports need per-experiment wall-clock times, so
    // those paths run sequentially; the plain path runs all experiments
    // on scoped threads via `run_all`.
    let timed = json_path.is_some() || baseline_path.is_some() || !ids.is_empty();
    let reports: Vec<(Report, f64)> = if timed {
        let mut out = Vec::new();
        for id in &selected {
            let start = Instant::now();
            match run_one(id) {
                Some(r) => out.push((r, start.elapsed().as_secs_f64() * 1e3)),
                None => {
                    eprintln!(
                        "unknown experiment id: {id} (valid: {})",
                        experiment_ids().join(", ")
                    );
                    std::process::exit(2);
                }
            }
        }
        out
    } else {
        run_all().into_iter().map(|r| (r, f64::NAN)).collect()
    };

    for (r, _) in &reports {
        if markdown {
            println!("{}", r.to_markdown());
        } else {
            println!("{}", r.to_ascii());
        }
    }

    if let Some(path) = &baseline_path {
        match std::fs::read_to_string(path) {
            Ok(json) => print_deltas(path, &parse_baseline(&json), &reports),
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    if let Some(path) = json_path {
        let total: f64 = reports.iter().map(|(_, ms)| ms).sum();
        let body: Vec<String> = reports.iter().map(|(r, ms)| r.to_json(*ms)).collect();
        let json = format!(
            "{{\"schema_version\":1,\"total_millis\":{:.3},\"experiments\":[\n{}\n]}}\n",
            total,
            body.join(",\n")
        );
        match std::fs::write(&path, json) {
            Ok(()) => eprintln!("wrote baseline: {path} ({:.1} ms total)", total),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}

/// Prints the per-experiment wall-clock deltas against a parsed baseline.
fn print_deltas(path: &str, baseline: &[(String, f64)], reports: &[(Report, f64)]) {
    println!("== deltas vs {path} ==");
    println!(
        "{:<6} {:>12} {:>12} {:>9} {:>9}",
        "id", "baseline ms", "now ms", "delta", "speedup"
    );
    let (mut base_total, mut now_total) = (0.0f64, 0.0f64);
    for (r, ms) in reports {
        match baseline.iter().find(|(id, _)| *id == r.id) {
            Some((_, base_ms)) => {
                base_total += base_ms;
                now_total += ms;
                let delta = (ms - base_ms) / base_ms.max(1e-9) * 100.0;
                println!(
                    "{:<6} {:>12.3} {:>12.3} {:>8.1}% {:>8.2}x",
                    r.id,
                    base_ms,
                    ms,
                    delta,
                    base_ms / ms.max(1e-9)
                );
            }
            None => println!(
                "{:<6} {:>12} {:>12.3} {:>9} {:>9}",
                r.id, "—", ms, "new", "—"
            ),
        }
    }
    if base_total > 0.0 {
        println!(
            "{:<6} {:>12.3} {:>12.3} {:>8.1}% {:>8.2}x  (experiments present in both)",
            "total",
            base_total,
            now_total,
            (now_total - base_total) / base_total * 100.0,
            base_total / now_total.max(1e-9)
        );
    }
}
