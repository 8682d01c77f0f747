//! # nf2 — Non-First-Normal-Form relational databases
//!
//! A full implementation of Arisawa, Moriya & Miura, *"Operations and the
//! Properties on Non-First-Normal-Form Relational Databases"* (VLDB
//! 1983), as a workspace of focused crates re-exported here:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`core`] | `nf2-core` | the NF² model: composition, nest, canonical forms, fixedness, §4 incremental maintenance |
//! | [`deps`] | `nf2-deps` | FDs, MVDs, 3NF synthesis, dependency mining, Theorems 3–5 |
//! | [`algebra`] | `nf2-algebra` | NF² relational algebra with NEST/UNNEST, plus the streaming operators compiled plans are built from |
//! | [`storage`] | `nf2-storage` | realization-view storage: tuple codec, WAL, tables, checkpoints |
//! | [`query`] | `nf2-query` | the NF² engine: SQL-ish DML, sessions, prepared statements, cursors |
//! | [`obs`] | `nf2-obs` | observability: spans, metrics registry, subscribers, the sanctioned clock |
//! | [`workload`] | `nf2-workload` | deterministic experiment workloads |
//!
//! ## Quickstart
//!
//! The engine surface is three-staged: an [`Engine`](query::Engine)
//! owns the tables and dictionary (configure persistence through
//! [`Engine::builder`](query::Engine::builder)), a
//! [`Session`](query::Session) issues statements, and
//! [`prepare`](query::Session::prepare) compiles a statement once for
//! repeated execution with `?` parameters:
//!
//! ```
//! use nf2::query::{Engine, Output};
//!
//! let engine = Engine::builder().build().unwrap();
//! let mut session = engine.session();
//! session.run_script(
//!     "CREATE TABLE sc (Student, Course) NEST ORDER (Student, Course);
//!      INSERT INTO sc VALUES ('s1','c1'), ('s2','c1'), ('s1','c2');",
//! ).unwrap();
//!
//! // Students taking c1 are stored as ONE NF² tuple: [Student(s1,s2) Course(c1)].
//! // An output holds its relation; the table is rendered when displayed.
//! let out = session.run("SHOW sc").unwrap();
//! assert!(out.to_text().contains("s1, s2"));
//!
//! // Prepared: parsed + planned once, bound per call — no re-parse.
//! let mut courses = session.prepare("SELECT COUNT(*) FROM sc WHERE Student = ?").unwrap();
//! assert_eq!(courses.execute(&mut session, &["s1"]).unwrap(), Output::Count(2));
//! assert_eq!(courses.execute(&mut session, &["s2"]).unwrap(), Output::Count(1));
//!
//! // Streaming: cursors yield NF² tuples as the scan reaches them.
//! let first = session.query("SELECT * FROM sc").unwrap().next().unwrap();
//! assert!(first.is_zero_copy(), "shared view of the pinned snapshot");
//! ```

#![forbid(unsafe_code)]

pub use nf2_algebra as algebra;
pub use nf2_core as core;
pub use nf2_deps as deps;
pub use nf2_obs as obs;
pub use nf2_query as query;
pub use nf2_storage as storage;
pub use nf2_workload as workload;

/// The most commonly used items across the workspace.
pub mod prelude {
    pub use nf2_algebra::{Env, Expr};
    pub use nf2_core::prelude::*;
    pub use nf2_deps::{Fd, Mvd};
    pub use nf2_query::{Cursor, Engine, Output, Param, Prepared, Session, NO_PARAMS};
    pub use nf2_storage::{NfTable, SharedDictionary};
}
