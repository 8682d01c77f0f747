//! # nf2-bench — the reproduction harness
//!
//! One function per paper artifact (figures 1–3, Examples 1–3,
//! Theorems 2–5 and A-4, and the prose claims on compression, search
//! space and update cost), each returning a printable [`Report`].
//!
//! * `cargo run -p nf2-bench --bin repro --release` regenerates every
//!   table (add `--md` for Markdown, or experiment ids to filter);
//! * `cargo bench` runs the Criterion timing benches built on the same
//!   experiment code.

pub mod experiments;
pub mod flat_table;
pub mod report;

pub use experiments::{experiment_ids, run_all, run_one};
pub use report::{parse_baseline, Report};
