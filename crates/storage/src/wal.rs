//! Group-commit write-ahead log: a sequenced per-table commit buffer
//! with leader-elected flushes that append to a log file held open.
//!
//! Concurrent writers (each holding its own per-shard lane lock, see
//! `crate::table`) append entries to one sequenced buffer; a flush
//! request first checks whether its entries are already written — a
//! racing leader may have flushed the whole group — and otherwise
//! elects itself leader by taking the flush lock and handing the OS the
//! group in **one** append to the log file, which it holds open through
//! the storage seam (`crate::vfs`). There is no fsync yet: a written
//! entry survives a crash of the process, not of the machine. The
//! leader can be told to dwell for a configurable group-commit window
//! before snapshotting the buffer, so commits that arrive during the
//! window ride along in the same write.
//!
//! The buffer holds only the entries not yet written, as their *encoded
//! bytes* — exactly what the next flush appends — plus their count, not
//! the decoded entries: an engine without a data directory never
//! flushes its log, so what it retains per write should be the handful
//! of bytes the entry encodes to.
//!
//! The file is append-only between checkpoints. The first flush or
//! checkpoint opens it and binds the log to its path (a log that
//! `NfTable::open` replayed is bound to the file it read); a later call
//! naming another path is an error. Opening cuts the file to its
//! durable prefix — the bytes replay decoded, plus every group written
//! since — so a torn tail replay stopped at never sits in front of the
//! next group. A checkpoint cuts the file to empty.
//!
//! Because writers append while holding their shard lock, each shard's
//! entries appear in the log in its serial mutation order; cross-shard
//! interleaving is arbitrary but harmless (ops on different shards
//! touch disjoint rows and commute). Crash recovery therefore replays
//! any *prefix* of the log to a consistent state — `NfTable::open`
//! stops at the first torn entry, which is exactly the last written
//! prefix.

use std::path::{Path, PathBuf};

use bytes::{BufMut, BytesMut};
use parking_lot::Mutex;

use nf2_core::bulk::Op;

use crate::codec::{decode_flat_tuple, encode_flat_tuple};
use crate::error::{Result, StorageError};
use crate::vfs::{Log, Vfs};

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

/// The entries not yet written. One mutex, held only for appends and
/// the leader's snapshot and trim — never across I/O.
#[derive(Debug, Default)]
struct LogBuffer {
    /// The unwritten entries, encoded back to back: what the next flush
    /// appends.
    bytes: BytesMut,
    /// Entries encoded in `bytes`.
    entries: usize,
}

/// The log file and its durable length, behind the leader's flush
/// mutex.
#[derive(Debug, Default)]
struct LogFile {
    /// The path the log is bound to: the file `NfTable::open` replayed,
    /// or else the first flush's or checkpoint's.
    path: Option<PathBuf>,
    /// The file, open for appending. `None` until the first flush or
    /// checkpoint, and again after a failed write or cut.
    file: Option<Log>,
    /// The file's durable prefix: the bytes replay decoded plus every
    /// group written since.
    durable_bytes: u64,
}

impl LogFile {
    /// The held file. The first call binds `path`, creates its
    /// directory, opens the file for appending and cuts it to
    /// `durable_bytes`, so the next group lands right behind the last
    /// entry replay decoded and not behind a torn tail.
    fn open(&mut self, vfs: &Vfs, path: &Path) -> Result<&mut Log> {
        match &self.path {
            Some(bound) if bound != path => {
                return Err(StorageError::Io(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!(
                        "the log is bound to {}, not {}",
                        bound.display(),
                        path.display()
                    ),
                )));
            }
            Some(_) => {}
            None => self.path = Some(path.to_owned()),
        }
        let file = match self.file.take() {
            Some(file) => file,
            None => {
                if let Some(dir) = path.parent() {
                    vfs.create_dir_all(dir)?;
                }
                vfs.open_log(path, self.durable_bytes)?
            }
        };
        Ok(self.file.insert(file))
    }

    /// Runs `io` on the held file. A failure drops the handle, so the
    /// next call reopens the file and cuts it back to the durable
    /// prefix — along with whatever part of a group a failed write left.
    fn with_file(
        &mut self,
        vfs: &Vfs,
        path: &Path,
        io: impl FnOnce(&mut Log) -> std::io::Result<()>,
    ) -> Result<()> {
        let done = io(self.open(vfs, path)?);
        if done.is_err() {
            self.file = None;
        }
        Ok(done?)
    }
}

/// What one flush wrote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Group {
    /// Entries the write made durable.
    pub(crate) entries: u64,
    /// Bytes the write handed the OS.
    pub(crate) bytes: u64,
}

/// A per-table group-commit log. See the module docs for the protocol.
///
/// Lock order within the log: `file` before `buf` (appenders take only
/// `buf`).
#[derive(Debug, Default)]
pub(crate) struct CommitLog {
    buf: Mutex<LogBuffer>,
    /// The leader's flush critical section: serializes the write so
    /// exactly one writer pays it per group.
    file: Mutex<LogFile>,
}

impl CommitLog {
    /// An empty log, bound to no file yet.
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A log reopened over `path`, whose first `durable_bytes` bytes
    /// replay decoded: it is bound to `path`, holds nothing unwritten,
    /// and its first flush cuts the file to that length before it
    /// appends.
    pub(crate) fn with_durable(path: PathBuf, durable_bytes: u64) -> Self {
        Self {
            buf: Mutex::default(),
            file: Mutex::new(LogFile {
                path: Some(path),
                file: None,
                durable_bytes,
            }),
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

    /// Number of entries not yet written. Test/inspection surface.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.buf.lock().entries
    }

    /// Appends every buffered entry to the log file at `path` in `vfs`
    /// in one write, group-committing with concurrent flushers. No fsync.
    ///
    /// Returns `Ok(None)` when the caller's group was already written
    /// by a racing leader (no I/O performed — this is the once-per-write
    /// accounting contract: callers bump their flush counters only on
    /// `Some`). Returns `Ok(Some(group))` after actually writing: the
    /// entries this write newly made durable, and their bytes.
    ///
    /// A non-zero `window_us` makes the elected leader dwell that many
    /// microseconds before snapshotting the buffer, letting concurrent
    /// writers' appends join the group.
    pub(crate) fn flush_to(&self, vfs: &Vfs, path: &Path, window_us: u64) -> Result<Option<Group>> {
        if self.buf.lock().entries == 0 {
            return Ok(None);
        }
        let mut file = self.file.lock();
        if window_us > 0 {
            std::thread::sleep(std::time::Duration::from_micros(window_us));
        }
        let (group, entries) = {
            let b = self.buf.lock();
            if b.entries == 0 {
                // A leader that won the race flushed our group already.
                return Ok(None);
            }
            // Copy the group out so the write below runs without the
            // buffer lock (appenders never wait on I/O).
            (b.bytes.to_vec(), b.entries)
        };
        // A crash mid-write leaves a byte prefix of the group behind the
        // durable prefix, which decodes to an entry prefix — the
        // recovery contract `open` relies on.
        file.with_file(vfs, path, |log| log.append(&group))?;
        file.durable_bytes += group.len() as u64;
        // Appenders only push at the end, so the group written is still
        // the buffer's prefix.
        let mut b = self.buf.lock();
        let unwritten = b.bytes.len() - group.len();
        b.bytes.copy_within(group.len().., 0);
        b.bytes.truncate(unwritten);
        b.entries -= entries;
        Ok(Some(Group {
            entries: entries as u64,
            bytes: group.len() as u64,
        }))
    }

    /// Truncates the log after a checkpoint: clears the buffer and cuts
    /// the file at `path` in `vfs` to empty. A cut that fails (another path
    /// included) leaves the log as it was. Callers must have quiesced
    /// writers (the table holds every lane lock across a checkpoint).
    pub(crate) fn truncate(&self, vfs: &Vfs, path: &Path) -> Result<()> {
        let mut file = self.file.lock();
        file.with_file(vfs, path, |log| log.cut(0))?;
        file.durable_bytes = 0;
        *self.buf.lock() = LogBuffer::default();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf2_core::value::Atom;

    /// A fresh log path in `fs`.
    fn temp_wal(fs: &Vfs, tag: &str) -> PathBuf {
        fs.temp_dir(&format!("commitlog_{tag}")).join("t.wal")
    }

    fn entry(v: u32) -> Op {
        Op::Insert(vec![Atom(v), Atom(v + 1)])
    }

    fn encoded(ops: &[Op]) -> Vec<u8> {
        let mut out = BytesMut::new();
        for op in ops {
            encode(op, &mut out);
        }
        out.to_vec()
    }

    fn decode_all(bytes: &[u8]) -> Vec<Op> {
        let (ops, intact) = decode_prefix(bytes, 2);
        assert_eq!(intact, bytes.len(), "intact log decodes");
        ops
    }

    #[test]
    fn flush_writes_once_per_group_and_reports_size() {
        for fs in Vfs::halves() {
            let path = temp_wal(&fs, "group");
            let log = CommitLog::new();
            log.extend([&entry(1)]);
            log.extend([&entry(2)]);
            let group = log.flush_to(&fs, &path, 0).unwrap().expect("a write");
            assert_eq!(group.entries, 2, "two-entry group");
            // Nothing new buffered: the next flush is a no-op, not a write.
            assert_eq!(log.flush_to(&fs, &path, 0).unwrap(), None);
            log.extend([&entry(3)]);
            assert_eq!(
                log.flush_to(&fs, &path, 0).unwrap().map(|g| g.entries),
                Some(1)
            );
            let on_disk = decode_all(&fs.read(&path).unwrap());
            assert_eq!(on_disk, vec![entry(1), entry(2), entry(3)]);
        }
    }

    #[test]
    fn a_flush_appends_only_its_group() {
        for fs in Vfs::halves() {
            let path = temp_wal(&fs, "append");
            let log = CommitLog::new();
            let mut expected = Vec::new();
            for group in [vec![entry(1)], vec![entry(2), entry(3)], vec![entry(4)]] {
                log.extend(&group);
                let written = log.flush_to(&fs, &path, 0).unwrap().expect("a write");
                let bytes = encoded(&group);
                assert_eq!(
                    written,
                    Group {
                        entries: group.len() as u64,
                        bytes: bytes.len() as u64
                    }
                );
                expected.extend_from_slice(&bytes);
                assert_eq!(fs.read(&path).unwrap(), expected, "previous file + group");
                assert_eq!(log.len(), 0);
                assert!(
                    log.buf.lock().bytes.is_empty(),
                    "the written group left the buffer"
                );
            }
        }
    }

    #[test]
    fn truncate_resets_buffer_and_file() {
        for fs in Vfs::halves() {
            let path = temp_wal(&fs, "trunc");
            let log = CommitLog::new();
            log.extend([&entry(9)]);
            log.flush_to(&fs, &path, 0).unwrap();
            log.truncate(&fs, &path).unwrap();
            assert_eq!(log.len(), 0);
            assert!(fs.read(&path).unwrap().is_empty());
            assert_eq!(
                log.flush_to(&fs, &path, 0).unwrap(),
                None,
                "nothing to flush"
            );
        }
    }

    #[test]
    fn seeded_log_keeps_replayed_entries_durable() {
        for fs in Vfs::halves() {
            let path = temp_wal(&fs, "seed");
            // The replayed entries are on disk, not in the log.
            let seed = encoded(&[entry(1), entry(2)]);
            fs.write(&path, &seed).unwrap();
            let log = CommitLog::with_durable(path.clone(), seed.len() as u64);
            // Replayed entries are already on disk: no write needed.
            assert_eq!(log.flush_to(&fs, &path, 0).unwrap(), None);
            // A later append lands behind the replayed prefix.
            log.extend([&entry(3)]);
            assert_eq!(
                log.flush_to(&fs, &path, 0).unwrap().map(|g| g.entries),
                Some(1)
            );
            let on_disk = decode_all(&fs.read(&path).unwrap());
            assert_eq!(on_disk, vec![entry(1), entry(2), entry(3)]);
        }
    }

    #[test]
    fn concurrent_flushers_coalesce_into_few_writes() {
        for fs in Vfs::halves() {
            let path = temp_wal(&fs, "storm");
            let log = CommitLog::new();
            let writes = std::sync::atomic::AtomicU64::new(0);
            let appended = 64u32;
            std::thread::scope(|s| {
                for t in 0..4u32 {
                    let (log, fs, path, writes) = (&log, &fs, &path, &writes);
                    s.spawn(move || {
                        for i in 0..appended / 4 {
                            log.extend([&entry(1000 * t + i)]);
                            if log
                                .flush_to(fs, path, 0)
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
                decode_all(&fs.read(&path).unwrap()).len(),
                appended as usize,
                "every appended entry became durable"
            );
        }
    }
}
