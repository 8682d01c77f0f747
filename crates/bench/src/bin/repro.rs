//! Regenerates every table and figure of the paper (E1–E15).
//!
//! ```text
//! repro [ids] [--md] [--json=PATH]
//!
//! repro                    # all experiments, ASCII
//! repro --md               # all experiments, Markdown
//! repro E3 E7              # a subset
//! repro --json=out.json    # also write the reports, with per-experiment times
//! ```
//!
//! The system's performance is measured by `benchmark/`, not here.

#![forbid(unsafe_code)]

use std::time::Instant;

use nf2_bench::{experiment_ids, run_all, run_one, Report};

const USAGE: &str = "usage: repro [ids] [--md] [--json=PATH]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut markdown = false;
    let mut json_path: Option<&str> = None;
    let mut ids: Vec<&str> = Vec::new();
    for arg in &args {
        if arg == "--md" {
            markdown = true;
        } else if let Some(path) = arg.strip_prefix("--json=") {
            json_path = Some(path);
        } else if arg.starts_with("--") {
            eprintln!("unknown option: {arg}\n{USAGE}");
            std::process::exit(2);
        } else {
            ids.push(arg);
        }
    }

    // A JSON report carries per-experiment wall-clock times, so that path
    // (and any subset) runs sequentially; the plain full run goes through
    // `run_all`'s scoped threads.
    let reports: Vec<(Report, f64)> = if json_path.is_some() || !ids.is_empty() {
        let selected = if ids.is_empty() {
            experiment_ids()
        } else {
            ids
        };
        let mut out = Vec::new();
        for id in selected {
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

    if let Some(path) = json_path {
        let total: f64 = reports.iter().map(|(_, ms)| ms).sum();
        let body: Vec<String> = reports.iter().map(|(r, ms)| r.to_json(*ms)).collect();
        let json = format!(
            "{{\"schema_version\":1,\"total_millis\":{:.3},\"experiments\":[\n{}\n]}}\n",
            total,
            body.join(",\n")
        );
        match std::fs::write(path, json) {
            Ok(()) => eprintln!("wrote report: {path} ({:.1} ms total)", total),
            Err(e) => {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
        }
    }
}
