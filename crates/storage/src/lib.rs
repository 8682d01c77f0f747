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
//! * `vfs` (crate-internal) — the storage seam: the only code that
//!   touches files, with an in-memory, fault-injecting twin under
//!   `cfg(test)`;
//! * [`table`] — [`table::NfTable`], the NF²-native engine (canonical
//!   maintenance + WAL + checkpoints + probe-counted, zone-pruned scans),
//!   in four parts: the type and its stats (`table`), reads
//!   (`table::read`), writes (`table::write`) and persistence
//!   (`table::persist`).

#![forbid(unsafe_code)]

pub mod codec;
pub mod dictionary;
pub mod error;
pub mod table;
pub(crate) mod vfs;
pub(crate) mod wal;

pub use dictionary::SharedDictionary;
pub use error::{Result, StorageError};
pub use table::{Located, NfTable, TableMemory, TableScan, TableSnapshot, TableStats, ZoneCounts};
