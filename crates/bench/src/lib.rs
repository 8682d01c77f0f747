//! # nf2-bench — the paper reproduction harness
//!
//! One function per paper artifact (figures 1–3, Examples 1–3,
//! Theorems 2–5 and A-4, and the prose claims on compression, search
//! space and update cost), each returning a printable [`Report`] —
//! experiments E1–E15, exact counters throughout.
//!
//! `cargo run -p nf2-bench --bin repro --release` regenerates every
//! table (add `--md` for Markdown, `--json=PATH` for a machine-readable
//! report, or experiment ids to filter).
//!
//! The *system's* performance — workloads, end-to-end and per-layer
//! metrics — is measured by the standalone `benchmark/` package, and its
//! exact counters are asserted by the test suites.

#![forbid(unsafe_code)]

pub mod experiments;
pub mod flat_table;
pub mod page;
pub mod report;

pub use experiments::{experiment_ids, run_all, run_one};
pub use report::Report;
