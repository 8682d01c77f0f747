//! Group-commit write-ahead log: a sequenced per-table commit buffer
//! with leader-elected flushes.
//!
//! Concurrent writers (each holding its own per-shard lane lock, see
//! `crate::table`) append entries to one sequenced buffer; a flush
//! request first checks whether its entries are already durable — a
//! racing leader may have flushed the whole group — and otherwise
//! elects itself leader by taking the flush lock and writing the entire
//! buffered prefix in **one** fsync-equivalent (`std::fs::write` of the
//! whole log). The leader can be told to dwell for a configurable
//! group-commit window before snapshotting the buffer, so commits that
//! arrive during the window ride along in the same write.
//!
//! The buffer holds the log's *encoded bytes* — exactly what a flush
//! writes — plus an entry count, not the decoded entries: an engine
//! without a data directory never truncates its log, so what it retains
//! per write should be the handful of bytes the entry encodes to.
//!
//! Durability bookkeeping is a single watermark: `durable` counts the
//! log prefix already on disk. Because writers append while holding
//! their shard lock, each shard's entries appear in the log in its
//! serial mutation order; cross-shard interleaving is arbitrary but
//! harmless (ops on different shards touch disjoint rows and commute).
//! Crash recovery therefore replays any *prefix* of the log to a
//! consistent state — `NfTable::open` stops at the first torn entry,
//! which is exactly the last durably committed prefix.

use std::path::Path;

use bytes::{BufMut, BytesMut};
use parking_lot::Mutex;

use nf2_core::bulk::Op;

use crate::codec::{decode_flat_tuple, encode_flat_tuple};
use crate::error::{Result, StorageError};

/// Appends one WAL entry — a flat-row mutation — to `out`: a tag byte
/// (1 insert, 2 delete), then the row.
fn encode(op: &Op, out: &mut BytesMut) {
    let tag = match op {
        Op::Insert(_) => 1u8,
        Op::Delete(_) => 2u8,
    };
    out.put_u8(tag);
    encode_flat_tuple(op.row(), out);
}

fn decode(buf: &mut &[u8], arity: usize) -> Result<Op> {
    if buf.is_empty() {
        return Err(StorageError::Corrupt("wal entry truncated".into()));
    }
    let tag = buf[0];
    *buf = &buf[1..];
    let row = decode_flat_tuple(buf, arity)?;
    match tag {
        1 => Ok(Op::Insert(row)),
        2 => Ok(Op::Delete(row)),
        t => Err(StorageError::Corrupt(format!("unknown wal tag {t}"))),
    }
}

/// The entries of the longest prefix of `bytes` that decodes, and that
/// prefix's length: a crash leaves a byte prefix of the log, and its
/// first torn entry ends the durably committed prefix.
pub(crate) fn decode_prefix(bytes: &[u8], arity: usize) -> (Vec<Op>, usize) {
    let mut slice = bytes;
    let (mut ops, mut intact) = (Vec::new(), 0usize);
    while let Ok(op) = decode(&mut slice, arity) {
        ops.push(op);
        intact = bytes.len() - slice.len();
    }
    (ops, intact)
}

/// The sequenced buffer plus its durability watermark. One mutex, held
/// only for appends and snapshot/watermark reads — never across I/O.
#[derive(Debug, Default)]
struct LogBuffer {
    /// Every buffered entry, encoded back to back: the log file's
    /// contents after the next flush.
    bytes: BytesMut,
    /// Entries encoded in `bytes`.
    entries: usize,
    /// Entries `[..durable]` are on disk.
    durable: usize,
}

/// A per-table group-commit log. See the module docs for the protocol.
///
/// Lock order within the log: `flush` before `buf` (appenders take only
/// `buf`).
#[derive(Debug, Default)]
pub(crate) struct CommitLog {
    buf: Mutex<LogBuffer>,
    /// The leader's flush critical section: serializes the
    /// fsync-equivalent so exactly one writer pays it per group.
    flush: Mutex<()>,
}

impl CommitLog {
    /// An empty log.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A log seeded with `entries` already-durable entries, given as the
    /// intact byte prefix `open` decoded from the on-disk WAL — so a
    /// later flush re-writes the replayed entries instead of silently
    /// dropping them.
    pub(crate) fn with_durable(bytes: &[u8], entries: usize) -> Self {
        Self {
            buf: Mutex::new(LogBuffer {
                bytes: bytes.into(),
                entries,
                durable: entries,
            }),
            flush: Mutex::new(()),
        }
    }

    /// Appends entries contiguously (one buffer lock).
    pub(crate) fn extend<'a>(&self, ops: impl IntoIterator<Item = &'a Op>) {
        let mut b = self.buf.lock();
        for op in ops {
            encode(op, &mut b.bytes);
            b.entries += 1;
        }
    }

    /// Number of buffered entries (durable or not). Test/inspection
    /// surface.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.buf.lock().entries
    }

    /// Makes every buffered entry durable at `path`, group-committing
    /// with concurrent flushers.
    ///
    /// Returns `Ok(None)` when the caller's group was already flushed
    /// by a racing leader (no I/O performed — this is the
    /// once-per-fsync-equivalent accounting contract: callers bump
    /// their flush counters only on `Some`). Returns `Ok(Some(n))`
    /// after actually writing, where `n` is the group size: the number
    /// of entries this write newly made durable.
    ///
    /// A non-zero `window_us` makes the elected leader dwell that many
    /// microseconds before snapshotting the buffer, letting concurrent
    /// writers' appends join the group.
    pub(crate) fn flush_to(&self, path: &Path, window_us: u64) -> Result<Option<u64>> {
        {
            let b = self.buf.lock();
            if b.durable >= b.entries {
                return Ok(None);
            }
        }
        let _leader = self.flush.lock();
        if window_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(window_us));
        }
        let (bytes, high, low) = {
            let b = self.buf.lock();
            if b.durable >= b.entries {
                // A leader that won the race flushed our group already.
                return Ok(None);
            }
            // Copy the encoded log out so the write below runs without
            // the buffer lock (appenders never wait on I/O).
            (b.bytes.to_vec(), b.entries, b.durable)
        };
        // The whole sequenced log is rewritten in one write: a crash
        // mid-write leaves a byte prefix, which decodes to an entry
        // prefix — the recovery contract `open` relies on.
        std::fs::write(path, &bytes)?;
        let mut b = self.buf.lock();
        if b.durable < high {
            b.durable = high;
        }
        Ok(Some((high - low) as u64))
    }

    /// Truncates the log after a checkpoint: clears the buffer, resets
    /// the watermark and writes an empty WAL file. Callers must have
    /// quiesced writers (the table holds every lane lock across a
    /// checkpoint).
    pub(crate) fn truncate(&self, path: &Path) -> Result<()> {
        let _leader = self.flush.lock();
        let mut b = self.buf.lock();
        *b = LogBuffer::default();
        std::fs::write(path, b"")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf2_core::value::Atom;
    use std::path::PathBuf;

    fn temp_wal(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nf2_commitlog_{tag}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir creatable");
        dir.join("t.wal")
    }

    fn entry(v: u32) -> Op {
        Op::Insert(vec![Atom(v), Atom(v + 1)])
    }

    fn decode_all(bytes: &[u8]) -> Vec<Op> {
        let (ops, intact) = decode_prefix(bytes, 2);
        assert_eq!(intact, bytes.len(), "intact log decodes");
        ops
    }

    #[test]
    fn flush_writes_once_per_group_and_reports_size() {
        let path = temp_wal("group");
        let log = CommitLog::new();
        log.extend([&entry(1)]);
        log.extend([&entry(2)]);
        assert_eq!(log.flush_to(&path, 0).unwrap(), Some(2), "two-entry group");
        // Nothing new buffered: the next flush is a no-op, not a write.
        assert_eq!(log.flush_to(&path, 0).unwrap(), None);
        log.extend([&entry(3)]);
        assert_eq!(log.flush_to(&path, 0).unwrap(), Some(1));
        let on_disk = decode_all(&std::fs::read(&path).unwrap());
        assert_eq!(on_disk, vec![entry(1), entry(2), entry(3)]);
    }

    #[test]
    fn truncate_resets_buffer_and_file() {
        let path = temp_wal("trunc");
        let log = CommitLog::new();
        log.extend([&entry(9)]);
        log.flush_to(&path, 0).unwrap();
        log.truncate(&path).unwrap();
        assert_eq!(log.len(), 0);
        assert!(std::fs::read(&path).unwrap().is_empty());
        assert_eq!(log.flush_to(&path, 0).unwrap(), None, "nothing to flush");
    }

    #[test]
    fn seeded_log_keeps_replayed_entries_durable() {
        let path = temp_wal("seed");
        let mut seed = BytesMut::new();
        encode(&entry(1), &mut seed);
        encode(&entry(2), &mut seed);
        let log = CommitLog::with_durable(&seed, 2);
        // Replayed entries are already on disk: no write needed.
        assert_eq!(log.flush_to(&path, 0).unwrap(), None);
        // A later append re-writes the *whole* sequenced log, keeping
        // the replayed prefix.
        log.extend([&entry(3)]);
        assert_eq!(log.flush_to(&path, 0).unwrap(), Some(1));
        let on_disk = decode_all(&std::fs::read(&path).unwrap());
        assert_eq!(on_disk, vec![entry(1), entry(2), entry(3)]);
    }

    #[test]
    fn concurrent_flushers_coalesce_into_few_writes() {
        let path = temp_wal("storm");
        let log = std::sync::Arc::new(CommitLog::new());
        let writes = std::sync::atomic::AtomicU64::new(0);
        let appended = 64u32;
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let log = std::sync::Arc::clone(&log);
                let path = path.clone();
                let writes = &writes;
                s.spawn(move || {
                    for i in 0..appended / 4 {
                        log.extend([&entry(1000 * t + i)]);
                        if log
                            .flush_to(&path, 0)
                            .expect("flush path writable")
                            .is_some()
                        {
                            writes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let total_writes = writes.load(std::sync::atomic::Ordering::Relaxed);
        assert!(total_writes >= 1, "someone flushed");
        assert!(
            total_writes <= u64::from(appended),
            "never more writes than flush calls"
        );
        assert_eq!(
            decode_all(&std::fs::read(&path).unwrap()).len(),
            appended as usize,
            "every appended entry became durable"
        );
    }
}
