//! # nf2-core — Non-First-Normal-Form relations
//!
//! A faithful, tested implementation of the NF² relational model of
//! Arisawa, Moriya & Miura, *"Operations and the Properties on
//! Non-First-Normal-Form Relational Databases"*, VLDB 1983:
//!
//! * tuples with **set-valued components** and their expansion semantics
//!   ([`tuple`](mod@tuple));
//! * **composition** and **decomposition** of tuples, Defs. 1–2
//!   ([`compose`](mod@compose));
//! * the `R ↔ R*` correspondence, Theorem 1 ([`relation`]);
//! * **nest** operations and **canonical forms**, Defs. 4–5 and Theorem 2
//!   ([`nest`](mod@nest));
//! * **irreducible forms**, Def. 3 and minimal-partition search
//!   ([`irreducible`]);
//! * cardinality classes and **fixedness**, Defs. 6–7 ([`properties`]);
//! * the §4 **incremental update algorithms** that keep an NFR canonical
//!   under insertions and deletions with cost independent of the relation
//!   size ([`maintenance`]).
//!
//! ## Quick example
//!
//! ```
//! use nf2_core::prelude::*;
//!
//! let mut dict = Dictionary::new();
//! let schema = Schema::new("SC", &["Student", "Course"]).unwrap();
//! let rows: Vec<Vec<Atom>> = [("s1", "c1"), ("s2", "c1"), ("s1", "c2")]
//!     .iter()
//!     .map(|(s, c)| vec![dict.intern(s), dict.intern(c)])
//!     .collect();
//! let flat = FlatRelation::from_rows(schema, rows).unwrap();
//!
//! // Canonical form nesting Student first: students collapse per course.
//! let order = NestOrder::identity(2);
//! let nfr = canonical_of_flat(&flat, &order);
//! assert!(nfr.tuple_count() < flat.len());
//! assert_eq!(nfr.expand(), flat); // Theorem 1: no information gained or lost
//! ```

#![forbid(unsafe_code)]

pub mod bulk;
pub mod chunk;
pub mod compose;
pub mod display;
pub mod error;
pub mod irreducible;
pub mod kernel;
pub mod maintenance;
pub mod mvcc;
pub mod nest;
pub mod properties;
pub mod relation;
pub mod schema;
pub mod segment;
pub mod shard;
pub mod tuple;
pub mod value;

pub use bulk::{apply_batch, rebuild_batch, BatchSummary, Op};
pub use compose::{composable, composable_over, compose, decompose, decompose_set, Split};
pub use error::{NfError, Result};
pub use kernel::NestKernel;
pub use maintenance::{CanonicalRelation, CostCounter};
pub use mvcc::{ShardVersion, TableVersion, VersionCell};
pub use nest::{canonical_of_flat, canonicalize, is_canonical, nest, unnest};
pub use relation::{FlatRelation, NfRelation};
pub use schema::{AttrId, NestOrder, Schema};
pub use segment::{
    AsConjunct, Conjunct, Located, Rows, Segment, ShardSegments, Tiling, DEFAULT_SEGMENT_ROWS,
    KEY_FILTER_BYTES,
};
pub use shard::{MaintenanceCost, ShardRouter, ShardSpec, ShardedCanonical};
pub use tuple::{FlatTuple, NfTuple, SetRef, TupleRef, TupleStore, TupleView, ValueSet};
pub use value::{Atom, Dictionary};

/// Convenience re-exports for downstream crates and examples.
pub mod prelude {
    pub use crate::compose::{compose, decompose, decompose_set};
    pub use crate::error::{NfError, Result};
    pub use crate::irreducible::{is_irreducible, reduce, ReduceStrategy};
    pub use crate::kernel::NestKernel;
    pub use crate::maintenance::{CanonicalRelation, CostCounter};
    pub use crate::mvcc::{ShardVersion, TableVersion, VersionCell};
    pub use crate::nest::{canonical_of_flat, canonicalize, is_canonical, nest, unnest};
    pub use crate::properties::{cardinality_class, is_fixed_on, CardinalityClass};
    pub use crate::relation::{FlatRelation, NfRelation};
    pub use crate::schema::{AttrId, NestOrder, Schema};
    pub use crate::segment::{Segment, ShardSegments, Tiling, DEFAULT_SEGMENT_ROWS};
    pub use crate::shard::{MaintenanceCost, ShardRouter, ShardSpec, ShardedCanonical};
    pub use crate::tuple::{FlatTuple, NfTuple, SetRef, TupleRef, TupleStore, TupleView, ValueSet};
    pub use crate::value::{Atom, Dictionary};
}
