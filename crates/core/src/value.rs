//! Atomic values and the interning dictionary.
//!
//! The paper defines NFRs over *simple domains* — sets of atomic elements
//! (§3.1). We represent an atomic element as an [`Atom`]: a dense `u32`
//! identifier interned through a [`Dictionary`]. All set operations in the
//! model then work on integers; human-readable names only matter at the
//! presentation boundary.

use std::collections::HashMap;
use std::fmt;

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

/// A bidirectional mapping between strings and [`Atom`]s.
///
/// Interning is append-only; an atom, once issued, never changes meaning.
/// This is the single-threaded dictionary used by the core model and the
/// examples; `nf2-storage` wraps it in a lock for concurrent use.
#[derive(Debug, Clone)]
pub struct Dictionary {
    names: Vec<String>,
    index: HashMap<String, Atom>,
    /// Maintained incrementally by [`intern`](Self::intern): `true`
    /// while every interned name compared strictly greater than its
    /// predecessor, i.e. atom-id order coincides with lexicographic
    /// string order.
    id_ordered: bool,
}

impl Default for Dictionary {
    fn default() -> Self {
        Dictionary {
            names: Vec::new(),
            index: HashMap::new(),
            id_ordered: true,
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
        if let Some(&atom) = self.index.get(name) {
            return atom;
        }
        if self.names.last().is_some_and(|last| name < last.as_str()) {
            self.id_ordered = false;
        }
        let atom = Atom(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.index.insert(name.to_owned(), atom);
        atom
    }

    /// Appends the entries of `newer` that this dictionary lacks, in
    /// O(missing entries). `self` must be a prefix of `newer` — which an
    /// older copy of the same dictionary always is, interning being
    /// append-only.
    pub fn catch_up(&mut self, newer: &Dictionary) {
        debug_assert!(
            newer
                .names
                .get(..self.names.len())
                .is_some_and(|prefix| prefix.last() == self.names.last()),
            "catch_up needs a prefix of the newer dictionary"
        );
        let missing = &newer.names[self.names.len()..];
        self.names.reserve(missing.len());
        self.index.reserve(missing.len());
        for name in missing {
            let atom = Atom(self.names.len() as u32);
            self.names.push(name.clone());
            self.index.insert(name.clone(), atom);
        }
        self.id_ordered = newer.id_ordered;
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
        self.index.get(name).copied()
    }

    /// Resolves an atom back to its name, if it was issued by this
    /// dictionary.
    pub fn resolve(&self, atom: Atom) -> Option<&str> {
        self.names.get(atom.0 as usize).map(String::as_str)
    }

    /// Resolves an atom, falling back to its numeric display form.
    pub fn resolve_or_id(&self, atom: Atom) -> String {
        match self.resolve(atom) {
            Some(name) => name.to_owned(),
            None => atom.to_string(),
        }
    }

    /// Number of interned values.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
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
}
