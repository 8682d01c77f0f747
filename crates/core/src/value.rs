//! Atomic values and the interning dictionary.
//!
//! The paper defines NFRs over *simple domains* — sets of atomic elements
//! (§3.1). We represent an atomic element as an [`Atom`]: a dense `u32`
//! identifier interned through a [`Dictionary`]. All set operations in the
//! model then work on integers; human-readable names only matter at the
//! presentation boundary.
//!
//! The dictionary is an append-only arena. Names are stored back to back
//! in pages of [`PAGE_BYTES`] that are filled up to their capacity and
//! never reallocate (a longer name gets a page of its own), so a stored
//! name never moves. Each atom holds where its name starts and how long
//! it is, two `u32`s. The index from names to atoms is open-addressed:
//! a power-of-two table of slots, each an atom and its name's 32-bit
//! hash, at most half full, probed linearly. A name is hashed 8 bytes at
//! a time with the kernel's Fx-style mixer and then finalized: the
//! mixer's low bits barely depend on a word's high bytes, and the
//! benchmark's keys (`s0000001`, `s0000002`, …) differ only there.

use std::fmt;

use crate::kernel::mix;
use crate::shard::mix64;

/// An interned atomic value (an element of a simple domain).
///
/// `Atom`s are plain identifiers: equality and ordering are on the id, which
/// matches the paper's treatment of domain elements as opaque symbols.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Atom(pub u32);

impl Atom {
    /// The raw identifier.
    #[inline]
    pub fn id(self) -> u32 {
        self.0
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "@{}", self.0)
    }
}

const PAGE_BITS: u32 = 16;

/// The capacity of a page of names. A name longer than this gets a page
/// of its own, exactly its length.
pub const PAGE_BYTES: usize = 1 << PAGE_BITS;

/// The index's size when the first name arrives.
const MIN_SLOTS: usize = 16;

/// Where an atom's name lies: `at` is its page in the high bits and its
/// start within the page in the low [`PAGE_BITS`], `len` its length.
#[derive(Debug, Clone, Copy)]
struct Span {
    at: u32,
    len: u32,
}

/// One index slot: an atom and its name's hash, or [`Slot::VACANT`].
#[derive(Debug, Clone, Copy)]
struct Slot {
    atom: u32,
    hash: u32,
}

impl Slot {
    /// No atom is `u32::MAX`: ids stop one short of it.
    const VACANT: Slot = Slot {
        atom: u32::MAX,
        hash: 0,
    };
}

/// A name and its hash, computed once: a caller that looks a name up and
/// then interns it on a miss (under another lock) hashes it once.
#[derive(Debug, Clone, Copy)]
pub struct HashedName<'a> {
    name: &'a str,
    hash: u32,
}

impl<'a> HashedName<'a> {
    /// Hashes `name`.
    pub fn new(name: &'a str) -> Self {
        let bytes = name.as_bytes();
        let mut h = mix(0x9E37_79B9_7F4A_7C15, bytes.len() as u64);
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            h = mix(
                h,
                u64::from_le_bytes(word.try_into().expect("an exact chunk of 8 bytes")),
            );
        }
        let tail = words.remainder();
        if !tail.is_empty() {
            let mut word = [0; 8];
            word[..tail.len()].copy_from_slice(tail);
            h = mix(h, u64::from_le_bytes(word));
        }
        HashedName {
            name,
            hash: mix64(h) as u32,
        }
    }
}

/// A bidirectional mapping between strings and [`Atom`]s.
///
/// Interning is append-only; an atom, once issued, never changes meaning.
/// This is the single-threaded dictionary used by the core model and the
/// examples; `nf2-storage` wraps it in a lock for concurrent use.
#[derive(Debug)]
pub struct Dictionary {
    /// The names in atom order, back to back; a page never grows past
    /// its capacity, so it never moves.
    pages: Vec<String>,
    /// Each atom's name.
    spans: Vec<Span>,
    /// The open-addressed index: a power of two long, at most half full.
    slots: Vec<Slot>,
    /// Maintained incrementally by [`intern`](Self::intern): `true`
    /// while every interned name compared strictly greater than its
    /// predecessor, i.e. atom-id order coincides with lexicographic
    /// string order.
    id_ordered: bool,
}

impl Default for Dictionary {
    fn default() -> Self {
        Dictionary {
            pages: Vec::new(),
            spans: Vec::new(),
            slots: Vec::new(),
            id_ordered: true,
        }
    }
}

impl Clone for Dictionary {
    /// A copy whose pages keep the original's capacities, so the copy's
    /// next names are placed as the original's are.
    fn clone(&self) -> Self {
        let pages = self
            .pages
            .iter()
            .map(|page| {
                let mut copy = String::with_capacity(page.capacity());
                copy.push_str(page);
                copy
            })
            .collect();
        Dictionary {
            pages,
            spans: self.spans.clone(),
            slots: self.slots.clone(),
            id_ordered: self.id_ordered,
        }
    }
}

impl Dictionary {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its atom. Idempotent.
    pub fn intern(&mut self, name: &str) -> Atom {
        self.intern_hashed(HashedName::new(name))
    }

    /// [`intern`](Self::intern) with the hash already taken.
    pub fn intern_hashed(&mut self, key: HashedName<'_>) -> Atom {
        match self.find(key) {
            Ok(atom) => atom,
            Err(vacant) => self.insert(key, vacant),
        }
    }

    /// Appends the entries of `newer` that this dictionary lacks, in
    /// O(missing entries). `self` must be a prefix of `newer` — which an
    /// older copy of the same dictionary always is, interning being
    /// append-only.
    pub fn catch_up(&mut self, newer: &Dictionary) {
        debug_assert!(
            newer.len() >= self.len()
                && (self.is_empty()
                    || self.resolve(Atom(self.len() as u32 - 1))
                        == newer.resolve(Atom(self.len() as u32 - 1))),
            "catch_up needs a prefix of the newer dictionary"
        );
        for &span in &newer.spans[self.len()..] {
            let key = HashedName::new(newer.name(span));
            let vacant = self
                .find(key)
                .expect_err("catch_up appends names this copy lacks");
            self.insert(key, vacant);
        }
    }

    /// Whether atom-id order agrees with lexicographic string order for
    /// every interned pair — true exactly when names were interned in
    /// strictly ascending order. While this holds, comparing atoms by
    /// their dense ids (the segment storage order) ranks values the
    /// same way the query layer's resolved-string comparator does,
    /// which is the soundness condition for serving `ORDER BY` straight
    /// off sorted segments. The flag only ever goes from `true` to
    /// `false`; interning is append-only.
    pub fn is_id_ordered(&self) -> bool {
        self.id_ordered
    }

    /// Interns every name in `names`, preserving order.
    pub fn intern_all<'a, I>(&mut self, names: I) -> Vec<Atom>
    where
        I: IntoIterator<Item = &'a str>,
    {
        names.into_iter().map(|n| self.intern(n)).collect()
    }

    /// Looks up a previously interned name.
    pub fn lookup(&self, name: &str) -> Option<Atom> {
        self.lookup_hashed(HashedName::new(name))
    }

    /// [`lookup`](Self::lookup) with the hash already taken.
    pub fn lookup_hashed(&self, key: HashedName<'_>) -> Option<Atom> {
        self.find(key).ok()
    }

    /// Resolves an atom back to its name, if it was issued by this
    /// dictionary.
    pub fn resolve(&self, atom: Atom) -> Option<&str> {
        self.spans.get(atom.0 as usize).map(|&span| self.name(span))
    }

    /// Resolves an atom, falling back to its numeric display form.
    pub fn resolve_or_id(&self, atom: Atom) -> String {
        match self.resolve(atom) {
            Some(name) => name.to_owned(),
            None => atom.to_string(),
        }
    }

    /// Every name in atom order, read from the pages.
    pub fn names(&self) -> impl Iterator<Item = &str> + '_ {
        self.spans.iter().map(|&span| self.name(span))
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The bytes the dictionary holds, counted from lengths, not
    /// capacities: the names on its pages, each atom's span (8 B) and
    /// each index slot (8 B).
    pub fn bytes(&self) -> usize {
        self.pages.iter().map(String::len).sum::<usize>()
            + self.spans.len() * std::mem::size_of::<Span>()
            + self.slots.len() * std::mem::size_of::<Slot>()
    }

    fn name(&self, span: Span) -> &str {
        let page = &self.pages[(span.at >> PAGE_BITS) as usize];
        let start = (span.at & (PAGE_BYTES as u32 - 1)) as usize;
        &page[start..start + span.len as usize]
    }

    /// `key`'s atom, or the vacant slot where a probe for it ends (any
    /// slot while the index is empty).
    fn find(&self, key: HashedName<'_>) -> Result<Atom, usize> {
        if self.slots.is_empty() {
            return Err(0);
        }
        let mask = self.slots.len() - 1;
        let mut at = key.hash as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot.atom == Slot::VACANT.atom {
                return Err(at);
            }
            if slot.hash == key.hash && self.name(self.spans[slot.atom as usize]) == key.name {
                return Ok(Atom(slot.atom));
            }
            at = (at + 1) & mask;
        }
    }

    /// The first vacant slot from `hash`'s home on.
    fn vacant(&self, hash: u32) -> usize {
        let mask = self.slots.len() - 1;
        let mut at = hash as usize & mask;
        while self.slots[at].atom != Slot::VACANT.atom {
            at = (at + 1) & mask;
        }
        at
    }

    /// Issues the next atom to `key`, which is not interned; `vacant` is
    /// where [`find`](Self::find) ended.
    fn insert(&mut self, key: HashedName<'_>, mut vacant: usize) -> Atom {
        if 2 * (self.spans.len() + 1) > self.slots.len() {
            let grown = (2 * self.slots.len()).max(MIN_SLOTS);
            let old = std::mem::replace(&mut self.slots, vec![Slot::VACANT; grown]);
            for slot in old.into_iter().filter(|s| s.atom != Slot::VACANT.atom) {
                let at = self.vacant(slot.hash);
                self.slots[at] = slot;
            }
            vacant = self.vacant(key.hash);
        }
        let id = u32::try_from(self.spans.len())
            .ok()
            .filter(|&id| id != Slot::VACANT.atom)
            .expect("fewer than 2^32 - 1 atoms");
        let name = key.name;
        if self
            .spans
            .last()
            .is_some_and(|&last| name < self.name(last))
        {
            self.id_ordered = false;
        }
        let fits = self.pages.last().is_some_and(|page| {
            page.len() < PAGE_BYTES && page.len() + name.len() <= page.capacity()
        });
        if !fits {
            assert!(
                self.pages.len() < 1 << (32 - PAGE_BITS),
                "a dictionary holds at most 2^{} pages of names",
                32 - PAGE_BITS
            );
            self.pages
                .push(String::with_capacity(name.len().max(PAGE_BYTES)));
        }
        let page = self.pages.len() - 1;
        let start = self.pages[page].len();
        self.pages[page].push_str(name);
        self.spans.push(Span {
            at: (page as u32) << PAGE_BITS | start as u32,
            len: u32::try_from(name.len()).expect("a name under 4 GiB"),
        });
        self.slots[vacant] = Slot {
            atom: id,
            hash: key.hash,
        };
        Atom(id)
    }

    /// The most slots a lookup of an interned name visits.
    #[cfg(test)]
    fn longest_probe_run(&self) -> usize {
        let mask = self.slots.len().wrapping_sub(1);
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, slot)| slot.atom != Slot::VACANT.atom)
            .map(|(at, slot)| (at.wrapping_sub(slot.hash as usize) & mask) + 1)
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("s1");
        let b = d.intern("s1");
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn intern_issues_dense_ids() {
        let mut d = Dictionary::new();
        let atoms = d.intern_all(["a", "b", "c"]);
        assert_eq!(atoms, vec![Atom(0), Atom(1), Atom(2)]);
    }

    #[test]
    fn resolve_round_trips() {
        let mut d = Dictionary::new();
        let a = d.intern("course-1");
        assert_eq!(d.resolve(a), Some("course-1"));
        assert_eq!(d.lookup("course-1"), Some(a));
        assert_eq!(d.lookup("missing"), None);
        assert_eq!(d.resolve(Atom(99)), None);
    }

    #[test]
    fn catch_up_appends_only_the_missing_suffix() {
        let mut live = Dictionary::new();
        live.intern_all(["a", "b"]);
        let mut copy = live.clone();
        let kept = copy.resolve(Atom(0)).unwrap().as_ptr();
        live.intern_all(["d", "c"]);
        copy.catch_up(&live);
        assert_eq!(copy.len(), 4);
        assert_eq!(copy.lookup("c"), Some(Atom(3)));
        assert_eq!(copy.resolve(Atom(2)), Some("d"));
        assert!(!copy.is_id_ordered(), "the flag follows the newer copy");
        assert_eq!(
            copy.resolve(Atom(0)).unwrap().as_ptr(),
            kept,
            "existing entries are kept, not re-allocated"
        );
        copy.catch_up(&live);
        assert_eq!(copy.len(), 4, "nothing missing, nothing appended");
    }

    #[test]
    fn resolve_or_id_falls_back() {
        let d = Dictionary::new();
        assert_eq!(d.resolve_or_id(Atom(7)), "@7");
    }

    #[test]
    fn atom_ordering_is_by_id() {
        assert!(Atom(1) < Atom(2));
        assert_eq!(Atom(3).id(), 3);
    }

    #[test]
    fn id_order_tracks_interning_order() {
        let mut d = Dictionary::new();
        assert!(
            d.is_id_ordered(),
            "empty dictionaries are trivially ordered"
        );
        d.intern_all(["a1", "a2", "b9"]);
        assert!(d.is_id_ordered());
        d.intern("a2"); // idempotent re-intern does not break order
        assert!(d.is_id_ordered());
        d.intern("a5"); // out of order: a5 < b9
        assert!(!d.is_id_ordered());
        d.intern("zz");
        assert!(!d.is_id_ordered(), "the flag never recovers");
    }

    #[test]
    fn long_empty_and_multi_byte_names_resolve_in_place() {
        let long = "x".repeat(PAGE_BYTES + 5);
        let mut d = Dictionary::new();
        let atoms = d.intern_all(["a", "", long.as_str(), "é", "日本", ""]);
        assert_eq!(atoms, [0, 1, 2, 3, 4, 1].map(Atom));
        assert_eq!(d.pages.len(), 3, "the long name has a page of its own");
        assert_eq!(d.pages[1].capacity(), long.len());
        for (name, atom) in ["a", "", long.as_str(), "é", "日本"].iter().zip(&atoms) {
            assert_eq!(d.resolve(*atom), Some(*name));
            assert_eq!(d.lookup(name), Some(*atom));
        }
        assert_eq!(d.bytes(), long.len() + 1 + 2 + 6 + 5 * 8 + MIN_SLOTS * 8);
    }

    #[test]
    fn a_full_page_is_left_and_its_names_never_move() {
        let mut d = Dictionary::new();
        let first = d.intern("first");
        let at = d.resolve(first).unwrap().as_ptr();
        // 16-byte names: the first page takes 4 095 of them after "first".
        for i in 0..5_000 {
            d.intern(&format!("{i:016}"));
        }
        assert_eq!(d.pages.len(), 2);
        assert!(d.pages.iter().all(|page| page.capacity() == PAGE_BYTES));
        assert_eq!(d.resolve(first).unwrap().as_ptr(), at);
        assert_eq!(d.resolve(Atom(4096)), Some("0000000000004095"));
        let copy = d.clone();
        assert_eq!(copy.pages[1].capacity(), PAGE_BYTES, "a copy keeps room");
        assert_eq!(
            copy.names().collect::<Vec<_>>(),
            d.names().collect::<Vec<_>>()
        );
    }

    /// Interns every name of `names` and returns the longest probe run,
    /// checking that each name got the next atom.
    fn longest_run(names: impl Iterator<Item = String>) -> usize {
        let mut d = Dictionary::new();
        for (id, name) in names.enumerate() {
            assert_eq!(d.intern(&name), Atom(id as u32));
        }
        d.longest_probe_run()
    }

    #[test]
    fn keys_that_differ_in_one_end_spread_over_the_index() {
        let runs = [
            longest_run((0..100_000).map(|i| format!("s{i:07}"))),
            longest_run((0..100_000).map(|i| format!("{i:012}"))),
            longest_run((0..100_000u32).map(|i| {
                let lead: String = (0..4)
                    .map(|digit| char::from(b'a' + (i / 26u32.pow(digit) % 26) as u8))
                    .collect();
                format!("{lead}{}", "-shared-suffix".repeat(3))
            })),
        ];
        assert!(
            runs.iter().all(|&run| run <= 32),
            "longest probe runs {runs:?}"
        );
    }

    #[test]
    fn the_benchmark_names_take_at_most_40_bytes_each() {
        let mut d = Dictionary::new();
        for i in 0..100_000 {
            d.intern(&format!("s{i:07}"));
        }
        for i in 0..1_000 {
            d.intern(&format!("c{i:03}"));
        }
        for i in 0..100 {
            d.intern(&format!("b{i:02}"));
        }
        let per_value = d.bytes() as f64 / d.len() as f64;
        assert!(per_value <= 40.0, "{per_value:.1} B per value");
    }
}
