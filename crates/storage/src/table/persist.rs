//! Persistence: checkpoints, WAL flushes and `open`, the meta and shard
//! encodings of a checkpoint, and the paths of a table's three files.
//! Every file call goes through the table's storage seam (`crate::vfs`).

use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;

use bytes::{BufMut, BytesMut};

use nf2_core::relation::RowBlock;
use nf2_core::schema::{NestOrder, Schema};
use nf2_core::shard::{ShardSpec, ShardedCanonical};
use nf2_core::tuple::{NfTuple, TupleRef};
use nf2_core::value::Atom;

use super::{NfTable, TableStats};
use crate::codec::{decode_nf_tuple, encode_nf_tuple, fnv1a64, get_varint, put_varint};
use crate::dictionary::SharedDictionary;
use crate::error::{Result, StorageError};
use crate::vfs::Vfs;
use crate::wal::{decode_prefix, CommitLog};

impl NfTable {
    /// Checkpoints to `dir`: a tuple file of each shard's NF² tuples,
    /// shard 0 first, each exactly as its chunks hold them (kernel
    /// order), encoded back to back; and a meta file holding each
    /// shard's extent in it (tuple count, byte length, digest);
    /// cuts the WAL to empty, binding the table's log to `dir` as
    /// [`flush_wal`](Self::flush_wal) does.
    ///
    /// The checkpoint reads the store and changes nothing in it: no
    /// version is published, and the epoch stays where it was. It holds
    /// every lane lock (ascending) throughout so the tuples, meta and
    /// WAL truncation describe one consistent state (every mutation
    /// publishes before releasing its lane).
    pub fn checkpoint(&self, dir: &Path) -> Result<()> {
        self.vfs.create_dir_all(dir)?;
        let lanes = self.lock_all_lanes();
        let mut tuples = BytesMut::new();
        let extents: Vec<ShardExtent> = lanes
            .iter()
            .map(|lane| encode_shard(lane.version().tuples(), &mut tuples))
            .collect();
        let meta = self.encode_meta(&extents, lanes[0].segment_rows());
        self.vfs.write(&meta_path(dir, &self.name), &meta)?;
        self.vfs.write(&tuples_path(dir, &self.name), &tuples)?;
        self.wal.truncate(&self.vfs, &wal_path(dir, &self.name))?;
        drop(lanes);
        Ok(())
    }

    /// Makes buffered WAL entries durable without checkpointing, via
    /// the group-commit protocol: concurrent flushers elect one leader
    /// per group, and the leader appends the group in one `write` to
    /// the log file it holds open — no fsync yet. The first flush or
    /// checkpoint binds the table's log to `dir` (a reopened table is
    /// bound to the directory it was opened from); naming another
    /// directory later is [`StorageError::Io`]. `wal_flushes` counts
    /// actual writes — a flush whose group a racing leader already
    /// wrote counts zero — `wal_bytes` their bytes, and each group's
    /// size is recorded in the `wal.group.size` histogram.
    pub fn flush_wal(&self, dir: &Path) -> Result<()> {
        let window = self.group_commit_us.load(Ordering::Relaxed);
        if let Some(group) = self
            .wal
            .flush_to(&self.vfs, &wal_path(dir, &self.name), window)?
        {
            self.stats.wal_flushes.fetch_add(1, Ordering::Relaxed);
            self.stats
                .wal_bytes
                .fetch_add(group.bytes, Ordering::Relaxed);
            self.wal_group_size.record(group.entries);
        }
        Ok(())
    }

    /// Sets the group-commit window: how long an elected flush leader
    /// dwells (microseconds) before its group's write, letting
    /// concurrent writers' entries join the group. 0 flushes
    /// immediately. Engine wiring (`EngineBuilder::group_commit`).
    pub fn set_group_commit_us(&self, us: u64) {
        self.group_commit_us.store(us, Ordering::Relaxed);
    }

    /// The configured group-commit window in microseconds.
    pub fn group_commit_us(&self) -> u64 {
        self.group_commit_us.load(Ordering::Relaxed)
    }

    /// Opens a table from `dir`: rebuilds the checkpoint's shards one at
    /// a time, under the persisted shard spec and tiling target, then
    /// replays the WAL as one batch
    /// ([`append_batch`](Self::append_batch)'s procedure).
    ///
    /// `dict` must intern the checkpoint's atom `i` as atom `i` (a fresh
    /// one does, and so does one holding the checkpoint's strings as a
    /// prefix); any other is [`StorageError::Corrupt`], naming the first
    /// atom that disagrees. The strings are interned only once every
    /// other check has passed, so a refused open leaves `dict` as it
    /// was.
    ///
    /// Before it decodes anything, the tuple file's length must be the
    /// sum of the meta's shard lengths and each shard's bytes must hash
    /// to its digest; it then decodes exactly each shard's tuple count
    /// from exactly its bytes. Every row a shard's tuples expand to must
    /// route to that shard, and the kernel's nest of those rows must
    /// equal the decoded tuples, in order, whatever the WAL holds. Shard
    /// `s` holds `ν_P(R*_s)`, which is unique (Theorem 2), so that one
    /// equality refuses a changed, dropped, added, overlapping or
    /// non-canonical tuple. Each mismatch is [`StorageError::Corrupt`]
    /// naming the shard.
    ///
    /// Replay is prefix-tolerant: a crash in the middle of a group
    /// flush leaves a torn byte tail, and because the group-commit log
    /// only appends whole groups between checkpoints, any byte prefix
    /// decodes to an entry prefix — replay stops at the first torn
    /// entry, which is exactly the last durably committed prefix. The
    /// reopened table's log is bound to this file and remembers only
    /// that prefix's length: its first flush cuts the torn tail off
    /// before it appends, so new entries land right behind the replayed
    /// ones. A missing log file replays nothing; a log that exists but
    /// cannot be read is [`StorageError::Io`].
    pub fn open(dir: &Path, name: &str, dict: SharedDictionary) -> Result<Self> {
        Self::open_in(Vfs::default(), dir, name, dict)
    }

    /// [`open`](Self::open) from the files in `vfs`; the reopened table
    /// checkpoints and logs there too.
    pub(super) fn open_in(
        vfs: Vfs,
        dir: &Path,
        name: &str,
        dict: SharedDictionary,
    ) -> Result<Self> {
        let meta = read_meta(&vfs.read(&meta_path(dir, name))?)?;
        let refs: Vec<&str> = meta.attr_names.iter().map(String::as_str).collect();
        let schema = Schema::new(name, &refs)?;
        let arity = schema.arity();
        let order = NestOrder::new(meta.order, arity).map_err(StorageError::Model)?;
        let mut canon = ShardedCanonical::new(schema.clone(), order, meta.spec)?;
        canon.set_segment_rows(meta.segment_rows);
        let bytes = vfs.read(&tuples_path(dir, name))?;
        // The checks below are on the checkpoint, not checkpoint plus
        // log, so they run before replay moves the shards on.
        for (shard, (mut slice, extent)) in shard_ranges(&bytes, &meta.shards)?
            .into_iter()
            .zip(&meta.shards)
            .enumerate()
        {
            let stored = (0..extent.tuples)
                .map(|_| decode_nf_tuple(&mut slice, arity))
                .collect::<Result<Vec<NfTuple>>>()?;
            if !slice.is_empty() {
                return Err(shard_corrupt(shard, "bytes past its last tuple"));
            }
            let mut rows = RowBlock::with_capacity(schema.clone(), 0);
            for tuple in &stored {
                let start = rows.len();
                rows.push_expansion(tuple.as_ref())?;
                if rows
                    .rows_from(start)
                    .any(|row| canon.router().route_row(row) != shard)
                {
                    return Err(shard_corrupt(shard, "a stored row routes to another shard"));
                }
            }
            if !canon
                .nest_shard(shard, &rows)?
                .tuples()
                .eq(stored.iter().map(NfTuple::as_ref))
            {
                return Err(shard_corrupt(shard, "its tuples are not their rows' nest"));
            }
        }
        // A first checkpoint can crash before the log file exists.
        let wal = wal_path(dir, name);
        let wal_bytes = match vfs.read(&wal) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            read => read?,
        };
        // Replay the WAL up to the first torn entry (see above), as one
        // batch.
        let (replay, intact) = decode_prefix(&wal_bytes, arity);
        canon.apply_batch(&replay)?;
        // Recovery is not maintenance: a reopened table starts its
        // lifetime's cost accounting at zero.
        canon.reset_maintenance_cost();
        // Atom ids are dense from 0, in the checkpoint's order. Interned
        // last, and only if every string agrees, so a refused open
        // leaves `dict` as it was.
        if let Err((id, atom)) = dict.intern_as_ids(&meta.dict_entries) {
            return Err(StorageError::Corrupt(format!(
                "atom {id}: the checkpoint's {:?} is atom {} in the given dictionary",
                meta.dict_entries[id],
                atom.id()
            )));
        }
        Ok(Self {
            vfs,
            ..Self::wrap(
                name,
                dict,
                canon,
                TableStats::default(),
                CommitLog::with_durable(wal, intact as u64),
            )
        })
    }

    /// The table on `vfs`: its checkpoints and WAL flushes go there.
    #[cfg(test)]
    pub(super) fn with_vfs(self, vfs: Vfs) -> Self {
        Self { vfs, ..self }
    }

    /// A checkpoint's meta file: a checksum, then schema, nest order,
    /// dictionary, shard spec, tiling target and, one per shard, the
    /// `extents` of the tuple file it describes.
    pub(super) fn encode_meta(&self, extents: &[ShardExtent], segment_rows: usize) -> BytesMut {
        let mut buf = BytesMut::new();
        let schema = self.schema();
        put_varint(&mut buf, schema.arity() as u64);
        for name in schema.attr_names() {
            put_varint(&mut buf, name.len() as u64);
            buf.extend_from_slice(name.as_bytes());
        }
        for &a in self.order.as_slice() {
            put_varint(&mut buf, a as u64);
        }
        // Dictionary contents in atom order, straight from its pages.
        self.dict.read(|dict| {
            put_varint(&mut buf, dict.len() as u64);
            for name in dict.names() {
                put_varint(&mut buf, name.len() as u64);
                buf.extend_from_slice(name.as_bytes());
            }
        });
        // Shard spec: tag byte, then the spec parameters.
        match self.shard_spec() {
            ShardSpec::Hash { shards } => {
                buf.put_u8(0);
                put_varint(&mut buf, *shards as u64);
            }
            ShardSpec::Range { boundaries } => {
                buf.put_u8(1);
                put_varint(&mut buf, boundaries.len() as u64);
                for b in boundaries {
                    put_varint(&mut buf, u64::from(b.id()));
                }
            }
        }
        // Target tuples-per-segment, then each shard's extent (shard
        // count from the spec).
        put_varint(&mut buf, segment_rows as u64);
        for extent in extents {
            put_varint(&mut buf, extent.tuples);
            put_varint(&mut buf, extent.bytes);
            buf.put_u64(extent.digest);
        }
        let mut out = BytesMut::with_capacity(buf.len() + 8);
        out.put_u64(fnv1a64(&buf));
        out.extend_from_slice(&buf);
        out
    }
}

/// What a meta file holds. There is one format: a meta that ends
/// early or runs on past its last field is corrupt.
pub(super) struct Meta {
    attr_names: Vec<String>,
    order: Vec<usize>,
    dict_entries: Vec<String>,
    spec: ShardSpec,
    /// The tiling target the shards are rebuilt at.
    segment_rows: usize,
    /// Each shard's extent in the tuple file, in shard order.
    pub(super) shards: Vec<ShardExtent>,
}

/// Where one shard's tuples sit in a checkpoint's tuple file, as the
/// meta records it ([`encode_shard`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct ShardExtent {
    /// Tuples stored. A zero-arity tuple encodes to no bytes, so the
    /// length alone cannot tell the unit row from an empty shard.
    pub(super) tuples: u64,
    /// Bytes those tuples occupy.
    pub(super) bytes: u64,
    /// FNV-1a over those bytes.
    pub(super) digest: u64,
}

/// Decodes a meta file's `bytes`.
pub(super) fn read_meta(bytes: &[u8]) -> Result<Meta> {
    if bytes.len() < 8 {
        return Err(StorageError::Corrupt("meta file truncated".into()));
    }
    let stored = u64::from_be_bytes(bytes[..8].try_into().expect("length checked above"));
    let body = &bytes[8..];
    if fnv1a64(body) != stored {
        return Err(StorageError::Corrupt("meta checksum mismatch".into()));
    }
    /// Splits the next `len` bytes off `slice`.
    fn take<'a>(slice: &mut &'a [u8], len: usize) -> Result<&'a [u8]> {
        if slice.len() < len {
            return Err(StorageError::Corrupt("meta file truncated".into()));
        }
        let (head, rest) = slice.split_at(len);
        *slice = rest;
        Ok(head)
    }
    let mut slice = body;
    let read_string = |slice: &mut &[u8]| -> Result<String> {
        let len = get_varint(slice)? as usize;
        String::from_utf8(take(slice, len)?.to_vec())
            .map_err(|_| StorageError::Corrupt("meta string not utf8".into()))
    };
    let arity = get_varint(&mut slice)? as usize;
    let mut attr_names = Vec::with_capacity(arity);
    for _ in 0..arity {
        attr_names.push(read_string(&mut slice)?);
    }
    let mut order = Vec::with_capacity(arity);
    for _ in 0..arity {
        order.push(get_varint(&mut slice)? as usize);
    }
    let dict_len = get_varint(&mut slice)? as usize;
    let mut dict_entries = Vec::with_capacity(dict_len);
    for _ in 0..dict_len {
        dict_entries.push(read_string(&mut slice)?);
    }
    let spec = match take(&mut slice, 1)?[0] {
        0 => ShardSpec::hash(get_varint(&mut slice)? as usize),
        1 => {
            let len = get_varint(&mut slice)? as usize;
            let mut boundaries = Vec::with_capacity(len);
            for _ in 0..len {
                boundaries.push(Atom(get_varint(&mut slice)? as u32));
            }
            ShardSpec::range(boundaries)
        }
        t => {
            return Err(StorageError::Corrupt(format!("unknown shard spec tag {t}")));
        }
    }
    .map_err(StorageError::Model)?;
    let segment_rows = get_varint(&mut slice)? as usize;
    let shards = (0..spec.shard_count())
        .map(|_| {
            let tuples = get_varint(&mut slice)?;
            let bytes = get_varint(&mut slice)?;
            let digest = take(&mut slice, 8)?
                .try_into()
                .expect("take returns the eight bytes asked for");
            Ok(ShardExtent {
                tuples,
                bytes,
                digest: u64::from_be_bytes(digest),
            })
        })
        .collect::<Result<Vec<ShardExtent>>>()?;
    if !slice.is_empty() {
        return Err(StorageError::Corrupt(format!(
            "meta file has {} trailing bytes",
            slice.len()
        )));
    }
    Ok(Meta {
        attr_names,
        order,
        dict_entries,
        spec,
        segment_rows,
        shards,
    })
}

/// Appends a shard's `tuples` to `out`, each in the tuple codec, back to
/// back (the encoding is self-delimiting, so the concatenation is
/// unambiguous), and returns their extent.
pub(super) fn encode_shard<'a>(
    tuples: impl Iterator<Item = TupleRef<'a>>,
    out: &mut BytesMut,
) -> ShardExtent {
    let start = out.len();
    let mut count = 0;
    for tuple in tuples {
        encode_nf_tuple(tuple, out);
        count += 1;
    }
    ShardExtent {
        tuples: count,
        bytes: (out.len() - start) as u64,
        digest: fnv1a64(&out[start..]),
    }
}

/// Splits a checkpoint's tuple file into its shards' byte ranges. A file
/// whose length is not the extents' sum, a range that misses its digest
/// or one claiming more tuples than a shard can hold is corrupt, so no
/// corrupt byte reaches the decoder.
fn shard_ranges<'a>(bytes: &'a [u8], extents: &[ShardExtent]) -> Result<Vec<&'a [u8]>> {
    let total: u128 = extents.iter().map(|e| u128::from(e.bytes)).sum();
    if total != bytes.len() as u128 {
        return Err(StorageError::Corrupt(format!(
            "the tuple file holds {} bytes, its meta's shards {total}",
            bytes.len()
        )));
    }
    let mut rest = bytes;
    let mut ranges = Vec::with_capacity(extents.len());
    for (shard, extent) in extents.iter().enumerate() {
        let (range, tail) = rest.split_at(extent.bytes as usize);
        rest = tail;
        if fnv1a64(range) != extent.digest {
            return Err(shard_corrupt(shard, "its bytes miss the shard digest"));
        }
        // A tuple of positive arity takes at least two bytes; only the
        // zero-arity unit tuple takes none, and a shard holds at most
        // one of those.
        if extent.tuples > extent.bytes.max(1) {
            return Err(shard_corrupt(shard, "more tuples than bytes"));
        }
        ranges.push(range);
    }
    Ok(ranges)
}

/// A checkpoint defect located in one shard.
fn shard_corrupt(shard: usize, what: &str) -> StorageError {
    StorageError::Corrupt(format!("shard {shard}: {what}"))
}

pub(super) fn meta_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.meta"))
}
pub(super) fn tuples_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.tuples"))
}
pub(super) fn wal_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.wal"))
}
