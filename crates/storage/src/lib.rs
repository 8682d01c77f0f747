//! # nf2-storage — the realization-view storage substrate
//!
//! §2 of the paper argues NFRs are powerful "not only as user view but
//! also as internal view … the reduction of the number of tuples will
//! contribute to the reduction of logical search space. We call this
//! level of view as realization view." This crate makes that concrete:
//!
//! * [`codec`] — compact binary tuple encoding and the FNV-1a hash that
//!   guards checkpoints;
//! * [`dictionary`] — a concurrent interning dictionary;
//! * `wal` (crate-internal) — the sequenced group-commit write-ahead
//!   log shared by a table's per-shard writer lanes;
//! * [`table`] — [`table::NfTable`], the NF²-native engine (canonical
//!   maintenance + WAL + checkpoints + probe-counted, zone-pruned scans).

#![forbid(unsafe_code)]

pub mod codec;
pub mod dictionary;
pub mod error;
pub mod table;
pub(crate) mod wal;

pub use dictionary::SharedDictionary;
pub use error::{Result, StorageError};
pub use table::{NfTable, TableMemory, TableScan, TableSnapshot, TableStats, ZoneCounts};
