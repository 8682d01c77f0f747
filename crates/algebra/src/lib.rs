//! # nf2-algebra — the NF² relational algebra substrate
//!
//! The paper extends the Jaeschke–Schek algebra of non-first-normal-form
//! relations (reference \[7\]): the classical operators plus NEST and
//! UNNEST, all defined on the realization view `R*` with rectangle-level
//! fast paths where the partition invariant provably survives
//! (see [`ops`]). [`expr`] provides a composable logical expression tree
//! over named relations, used by `nf2-query` as its plan representation;
//! [`stream`] holds the per-tuple operators that pull-based pipelines over
//! borrowed relations are assembled from (this is what query cursors
//! ride on).
//!
//! [`laws`] states the algebra's interaction laws (unnest∘nest, nest
//! order-sensitivity, selection-pushdown strength, …) as executable
//! checkers. [`optimize`](mod@optimize) applies the two of them that the
//! query layer's plans reach — merging stacked selections and pushing a
//! selection into the sides of a join, both tuple-identical — as the
//! "optimization strategy" §5 of the paper leaves open. [`check`] is the
//! static verification layer over both: a typed-IR checker that infers
//! nest structure for every operator and gates each optimizer rewrite on
//! type preservation (see `README.md` § Plan verification).

#![forbid(unsafe_code)]

pub mod check;
pub mod expr;
pub mod laws;
pub mod ops;
pub mod optimize;
pub mod stream;

pub use check::{
    check_rewrite, infer, AttrType, CheckCatalog, CheckError, CheckReport, NestLevel, RelType,
    RewriteViolation,
};
pub use expr::{Env, Expr};
pub use laws::{check_all, LawOutcome};
pub use ops::{
    difference, intersect, natural_join, nest, product, project, select_box, select_where, union,
    unnest,
};
pub use optimize::{
    estimate, optimize, optimize_observed, try_optimize, verify_enabled, CostEstimate, Optimized,
    SchemaCatalog,
};
pub use stream::{
    lazy_iter, AtomCmp, JoinLayout, OpTally, RelStream, SortDir, TopKStats, TupleIter, TupleOrder,
};
