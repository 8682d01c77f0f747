//! A concurrent, shareable interning dictionary.
//!
//! Wraps the core [`nf2_core::value::Dictionary`] — an append-only arena
//! of names with an open-addressed index — in a `parking_lot::RwLock`
//! behind an `Arc`, so storage tables, query sessions and benchmark
//! threads can share one value space.
//!
//! One value interns under a read lock when it is already held, and
//! under the write lock, hashed once, when it is new. A bulk load interns
//! a chunk of rows at a time under one write lock
//! (`SharedDictionary::intern_into`): it gathers the
//! chunk's names before it locks, so the caller's row iterator never
//! runs under the lock (it may itself look values up), and a reader
//! waits for one chunk at most.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use nf2_core::value::{Atom, Dictionary, HashedName};

#[derive(Debug, Default)]
struct Inner {
    dict: RwLock<Dictionary>,
    /// Cached point-in-time snapshot. The dictionary is append-only, so
    /// a cached snapshot is valid exactly while its length matches the
    /// live dictionary's — no other invalidation is needed.
    snap: RwLock<Option<Arc<Dictionary>>>,
    /// New names issued by interning (not those an `open` restored).
    interns: AtomicU64,
}

/// A thread-safe interning dictionary.
#[derive(Debug, Default, Clone)]
pub struct SharedDictionary {
    inner: Arc<Inner>,
}

impl SharedDictionary {
    /// A fresh empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its atom.
    pub fn intern(&self, name: &str) -> Atom {
        let key = HashedName::new(name);
        // Fast path: read lock only.
        if let Some(atom) = self.inner.dict.read().lookup_hashed(key) {
            return atom;
        }
        let mut dict = self.inner.dict.write();
        let held = dict.len();
        let atom = dict.intern_hashed(key);
        self.count_interns(dict.len() - held);
        atom
    }

    /// Interns every name of `names` in order under one write lock,
    /// appending their atoms to `out`: the atoms [`intern`](Self::intern)
    /// would give one by one.
    pub(crate) fn intern_into(&self, names: &[&str], out: &mut Vec<Atom>) {
        let mut dict = self.inner.dict.write();
        let held = dict.len();
        out.extend(names.iter().map(|name| dict.intern(name)));
        self.count_interns(dict.len() - held);
    }

    fn count_interns(&self, issued: usize) {
        self.inner
            .interns
            .fetch_add(issued as u64, Ordering::Relaxed);
    }

    /// Interns a whole row of names.
    pub fn intern_row(&self, names: &[&str]) -> Vec<Atom> {
        names.iter().map(|n| self.intern(n)).collect()
    }

    /// Interns `names` as atoms `0, 1, …` in order, or nothing at all:
    /// each name must already be its position's atom or be new, and the
    /// new ones must come last. Otherwise it returns the first position
    /// that disagrees and the atom its name is, or would be interned as,
    /// and leaves the dictionary as it was. One write lock covers the
    /// check and the interning.
    pub(crate) fn intern_as_ids(&self, names: &[String]) -> Result<(), (usize, Atom)> {
        let mut dict = self.inner.dict.write();
        let held = dict.len();
        let mut fresh: HashMap<&str, Atom> = HashMap::new();
        for (id, name) in names.iter().enumerate() {
            let next = Atom((held + fresh.len()) as u32);
            let atom = match dict.lookup(name) {
                Some(atom) => atom,
                None => *fresh.entry(name).or_insert(next),
            };
            if atom != Atom(id as u32) {
                return Err((id, atom));
            }
        }
        // Every name agreed: the first `held` are interned already.
        for name in names.iter().skip(held) {
            dict.intern(name);
        }
        Ok(())
    }

    /// Looks up without interning.
    pub fn lookup(&self, name: &str) -> Option<Atom> {
        self.inner.dict.read().lookup(name)
    }

    /// Resolves an atom to its name (owned, since the lock cannot escape).
    pub fn resolve(&self, atom: Atom) -> Option<String> {
        self.inner.dict.read().resolve(atom).map(str::to_owned)
    }

    /// Resolves with a numeric fallback.
    pub fn resolve_or_id(&self, atom: Atom) -> String {
        self.inner.dict.read().resolve_or_id(atom)
    }

    /// Runs `f` on the live dictionary under its read lock: how a
    /// checkpoint writes every name straight from the pages.
    pub(crate) fn read<R>(&self, f: impl FnOnce(&Dictionary) -> R) -> R {
        f(&self.inner.dict.read())
    }

    /// The bytes the dictionary holds — see [`Dictionary::bytes`].
    pub fn bytes(&self) -> usize {
        self.inner.dict.read().bytes()
    }

    /// How many new names interning has issued: every held name but
    /// those restored by opening a checkpoint.
    pub fn interns(&self) -> u64 {
        self.inner.interns.load(Ordering::Relaxed)
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.inner.dict.read().len()
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.inner.dict.read().is_empty()
    }

    /// Whether atom-id order agrees with lexicographic string order —
    /// see [`Dictionary::is_id_ordered`]. While this holds, storage
    /// order (atom codes ascending) ranks values exactly like the query
    /// layer's resolved-string comparator, so `ORDER BY` can stream
    /// straight off sorted segments. Append-only: once `false`, always
    /// `false`, so a `true` answer can only be invalidated by interns
    /// that happen after it — callers that bind a plan against a
    /// dictionary snapshot should consult the snapshot's own flag.
    pub fn is_id_ordered(&self) -> bool {
        self.inner.dict.read().is_id_ordered()
    }

    /// A point-in-time view of the underlying dictionary, for use with
    /// core display helpers that take `&Dictionary` (auto-deref from the
    /// returned `Arc`).
    ///
    /// Cheap on the hot path: because interning is append-only, the copy
    /// is cached and reused until the dictionary grows — an `ORDER BY`
    /// comparator or an output displayed on demand clones an `Arc`, not
    /// every string — and when it has grown, the cached copy is extended
    /// in place by the new strings alone. Only a snapshot someone still
    /// holds (a cursor mid-stream) forces a full copy, because that one
    /// must not change.
    pub fn snapshot(&self) -> Arc<Dictionary> {
        // Lock order everywhere: `dict` before `snap`.
        let live = self.inner.dict.read();
        if let Some(s) = self.inner.snap.read().as_ref() {
            if s.len() == live.len() {
                return s.clone();
            }
        }
        let mut cached = self.inner.snap.write();
        match &mut *cached {
            Some(snap) => {
                if snap.len() != live.len() {
                    Arc::make_mut(snap).catch_up(&live);
                }
                snap.clone()
            }
            None => cached.insert(Arc::new(live.clone())).clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_and_resolve() {
        let d = SharedDictionary::new();
        let a = d.intern("s1");
        assert_eq!(d.intern("s1"), a);
        assert_eq!(d.resolve(a).as_deref(), Some("s1"));
        assert_eq!(d.lookup("s2"), None);
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let d = SharedDictionary::new();
        let d2 = d.clone();
        let a = d.intern("shared");
        assert_eq!(d2.lookup("shared"), Some(a));
    }

    #[test]
    fn intern_as_ids_interns_all_or_nothing() {
        let names = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let d = SharedDictionary::new();
        d.intern("b");
        // A held prefix, then new names: the new ones take the next ids.
        assert_eq!(d.intern_as_ids(&names(&["b", "c", "d"])), Ok(()));
        assert_eq!(d.lookup("d"), Some(Atom(2)));
        // Disagreements intern nothing: a held name at another id, a new
        // name where a held one should be, a repeated new name.
        for (list, first) in [
            (vec!["c"], (0, Atom(1))),
            (vec!["b", "a"], (1, Atom(3))),
            (vec!["b", "c", "d", "e", "e"], (4, Atom(3))),
        ] {
            assert_eq!(d.intern_as_ids(&names(&list)), Err(first), "{list:?}");
            assert_eq!(d.len(), 3, "{list:?}");
        }
        assert!(d.is_id_ordered(), "\"a\" was never interned");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let d = SharedDictionary::new();
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let d = d.clone();
                std::thread::spawn(move || {
                    let mut atoms = Vec::new();
                    for i in 0..50 {
                        atoms.push((format!("v{}", i % 10), d.intern(&format!("v{}", i % 10))));
                    }
                    let _ = t;
                    atoms
                })
            })
            .collect();
        let mut seen: std::collections::HashMap<String, Atom> = std::collections::HashMap::new();
        for h in handles {
            for (name, atom) in h.join().unwrap() {
                let prev = seen.entry(name).or_insert(atom);
                assert_eq!(
                    *prev, atom,
                    "same name must intern to the same atom everywhere"
                );
            }
        }
        assert_eq!(d.len(), 10);
    }

    #[test]
    fn snapshot_is_independent() {
        let d = SharedDictionary::new();
        let a = d.intern("x");
        let snap = d.snapshot();
        d.intern("y");
        assert_eq!(snap.resolve(a), Some("x"));
        assert_eq!(snap.len(), 1, "snapshot does not see later interns");
    }

    #[test]
    fn snapshot_is_cached_until_growth() {
        let d = SharedDictionary::new();
        d.intern("x");
        let s1 = d.snapshot();
        let s2 = d.snapshot();
        assert!(Arc::ptr_eq(&s1, &s2), "no growth → same cached snapshot");
        d.intern("y");
        let s3 = d.snapshot();
        assert!(!Arc::ptr_eq(&s1, &s3), "growth invalidates the cache");
        assert_eq!(s3.len(), 2);
    }

    #[test]
    fn snapshot_after_growth_extends_the_cached_copy_in_place() {
        let d = SharedDictionary::new();
        let atoms: Vec<Atom> = (0..100).map(|i| d.intern(&format!("v{i:03}"))).collect();
        let buffers = |snap: &Dictionary| -> Vec<*const u8> {
            atoms
                .iter()
                .map(|&a| snap.resolve(a).expect("interned").as_ptr())
                .collect()
        };
        let before = buffers(&d.snapshot());
        // Nobody holds the old snapshot: one new string costs one new
        // string — every existing name keeps its heap buffer.
        d.intern("w");
        let grown = d.snapshot();
        assert_eq!(grown.len(), 101);
        assert_eq!(buffers(&grown), before, "no per-existing-string allocation");
        // A held snapshot must not change, so the next growth copies.
        d.intern("x");
        let copied = d.snapshot();
        assert_eq!((grown.len(), copied.len()), (101, 102));
        assert_ne!(buffers(&copied), before);
    }

    /// Snapshots taken during a concurrent intern storm are never torn:
    /// every entry a snapshot holds resolves to exactly the string it
    /// was interned for, and the whole prefix `0..len` is dense — the
    /// append-only contract means a snapshot of length `n` is *the*
    /// first `n` interns, not an arbitrary subset.
    #[test]
    fn concurrent_snapshots_are_never_torn() {
        let d = SharedDictionary::new();
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|s| {
            for w in 0..4 {
                let d = d.clone();
                s.spawn(move || {
                    for i in 0..250 {
                        d.intern(&format!("w{w}-{i}"));
                    }
                });
            }
            for _ in 0..4 {
                let d = d.clone();
                let done = Arc::clone(&done);
                s.spawn(move || {
                    let mut last_len = 0;
                    while !done.load(std::sync::atomic::Ordering::Relaxed) {
                        let snap = d.snapshot();
                        assert!(
                            snap.len() >= last_len,
                            "append-only: snapshots grow monotonically"
                        );
                        last_len = snap.len();
                        for id in 0..snap.len() as u32 {
                            let name = snap
                                .resolve(Atom(id))
                                .expect("snapshot prefix is dense — no holes");
                            assert_eq!(
                                snap.lookup(name),
                                Some(Atom(id)),
                                "snapshot maps both directions consistently"
                            );
                        }
                    }
                });
            }
            // Scoped: writer threads finish first, then release readers.
            // (The writer spawns above are joined by the scope only at the
            // end, so flag completion from a dedicated watcher.)
            let d_watch = d.clone();
            let done_w = Arc::clone(&done);
            s.spawn(move || {
                while d_watch.len() < 1000 {
                    std::thread::yield_now();
                }
                done_w.store(true, std::sync::atomic::Ordering::Relaxed);
            });
        });
        assert_eq!(d.len(), 1000);
        // After the storm, the cached snapshot settles: two reads at the
        // final length reuse one Arc.
        let s1 = d.snapshot();
        let s2 = d.snapshot();
        assert!(Arc::ptr_eq(&s1, &s2), "cache reuses the settled snapshot");
        assert_eq!(s1.len(), 1000);
    }

    /// The same-length fast path under concurrency: readers hammering
    /// `snapshot()` while nothing is interned all share one cached Arc.
    #[test]
    fn concurrent_snapshot_reads_share_the_cached_arc() {
        let d = SharedDictionary::new();
        for i in 0..64 {
            d.intern(&format!("v{i}"));
        }
        let base = d.snapshot();
        std::thread::scope(|s| {
            for _ in 0..8 {
                let d = d.clone();
                let base = base.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        let snap = d.snapshot();
                        assert!(
                            Arc::ptr_eq(&snap, &base),
                            "no growth → every thread reuses the cached snapshot"
                        );
                    }
                });
            }
        });
    }
}
