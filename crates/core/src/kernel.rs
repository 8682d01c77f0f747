//! The single-pass canonical nest kernel.
//!
//! [`canonicalize`](crate::nest::canonicalize) reaches the Def. 5 canonical
//! form `ν_P(R)` by `n` successive ν passes, each of which re-hashes every
//! tuple's full rest-projection (a cloned `Vec<ValueSet>` key) and
//! reallocates every component. But the canonical form is
//! *order-determined*: sort the flat rows **once**, last-nested attribute
//! outermost and first-nested attribute innermost, and the whole ν cascade
//! falls out of a bottom-up fold over contiguous runs:
//!
//! * stage 0 (`ν_{P(0)}`) needs no hashing at all — a run of rows equal on
//!   every other column *is* a group, and its `P(0)` column is already a
//!   sorted, duplicate-free set;
//! * stage `j ≥ 1` (`ν_{P(j)}`) merges tuples that agree on the remaining
//!   singleton columns `P(j+1)…P(n−1)` — contiguous runs under the sort —
//!   and, set-wise, on every already-nested position `0…j−1`. Sets are
//!   *interned* (equal content ⇔ equal id), so that set comparison is a
//!   borrowed `u32`-slice compare, never a deep `ValueSet` hash or clone.
//!
//! Within a group the `P(j)` values arrive in strictly ascending order
//! (the sort put `P(j)` innermost among the columns still singleton), so
//! every union is a plain concatenation and nothing is ever re-sorted.
//!
//! The kernel has one flat entry,
//! [`canonical_of_rows`](NestKernel::canonical_of_rows), over a
//! [`RowBlock`]: rows as one row-major run of atoms, repeats and arrival
//! order allowed. `ν_P` needs `R*` only as a set, and the sort gives it
//! one: the rows are sorted through a `u32` permutation, each index beside
//! a `u64` key packing its row's two outermost sort columns (so most
//! comparisons stay inside the permutation), then gathered into a sorted
//! block that skips each row equal to the one before it. That is the
//! only dedup a cold load does — no set of rows is built on the way — and
//! the fold stages read that block's rows contiguously. (An in-place sort
//! of fixed-width rows measured as fast on arity 3, but needs one copy
//! per arity; a plain index sort, comparing rows through the block, was
//! ~1.7× slower on a 50 000-row university shard.)
//!
//! The kernel is the production path behind cold loads and reopens
//! ([`crate::shard::ShardedCanonical::from_rows`]) and behind
//! [`canonical_of_flat`](crate::nest::canonical_of_flat), which hands
//! it the relation's own block; the Def. 5
//! cascade ([`canonicalize`](crate::nest::canonicalize) over singleton
//! tuples) and [`nest_pairwise`](crate::nest::nest_pairwise) (the
//! Theorem-2 oracle) stay as the oracles, and property tests pin all
//! three tuple-identical across the workload generators.

use std::cmp::Ordering;
use std::collections::HashMap;

use crate::relation::{FlatRelation, NfRelation, RowBlock};
use crate::schema::NestOrder;
use crate::tuple::{NfTuple, ValueSet};
use crate::value::Atom;

/// A reusable single-pass nest kernel.
///
/// Owns every scratch buffer the fold needs — the atom arena backing the
/// interned sets, the per-stage tuple buffers, and the group tables — so
/// repeated folds (a shard's batch regroups) allocate almost nothing
/// after warm-up. The sort's permutation and sorted rows are the one
/// exception: they are as large as the rows nested, and a shard's kernel
/// lives as long as its table, so each call allocates them and frees
/// them before it returns.
#[derive(Debug, Default)]
pub struct NestKernel {
    /// Atom storage backing every interned set.
    arena: Vec<Atom>,
    /// Set id → `(start, len)` into [`arena`](Self::arena).
    sets: Vec<(u32, u32)>,
    /// Content hash → head set id of that hash's collision chain
    /// (verified by slice compare; chained through [`set_next`](Self::set_next)).
    dedup: HashMap<u64, u32, PreHashedState>,
    /// Set id → next set with the same content hash ([`NONE`] ends it).
    set_next: Vec<u32>,
    /// Current stage: representative sorted-row index per tuple.
    reps: Vec<u32>,
    /// Current stage: set ids per tuple (stride = nested positions so far).
    ids: Vec<u32>,
    /// Next stage under construction (swapped in at stage end).
    next_reps: Vec<u32>,
    next_ids: Vec<u32>,
    /// Group lookup for one fold stage: key hash → head group of that
    /// hash's chain (chained through [`grp_next`](Self::grp_next)).
    groups: HashMap<u64, u32, PreHashedState>,
    /// Group → next group with the same key hash ([`NONE`] ends it).
    grp_next: Vec<u32>,
    /// Tuple index → its group, for the current stage.
    tuple_group: Vec<u32>,
    /// Group → first member tuple index.
    grp_first: Vec<u32>,
    /// Group → member count (stage fold) or atom count (`nest_once`).
    grp_count: Vec<u32>,
    /// Group → run identity (start tuple index of its run).
    grp_run: Vec<u32>,
    /// Group → write cursor into [`atom_buf`](Self::atom_buf).
    grp_cursor: Vec<u32>,
    /// Bucketed merge values for the current stage, one region per group.
    atom_buf: Vec<Atom>,
}

impl NestKernel {
    /// A kernel with empty scratch buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Def. 5 — the canonical form `ν_P(R)` of a 1NF relation: its own
    /// block, nested by [`canonical_of_rows`](Self::canonical_of_rows).
    /// Tuple-identical to the ν cascade
    /// [`canonicalize`](crate::nest::canonicalize) runs over the same rows.
    pub fn canonical_of_flat(&mut self, flat: &FlatRelation, order: &NestOrder) -> NfRelation {
        self.canonical_of_rows(flat.block(), order)
    }

    /// Def. 5 — the canonical form `ν_P(R*)` of the set of rows a block
    /// holds (a repeated row counts once), computed in one sort and one
    /// fold: the kernel's one flat entry.
    pub fn canonical_of_rows(&mut self, block: &RowBlock, order: &NestOrder) -> NfRelation {
        let n = order.arity();
        // A hard assert, not a debug_assert: a mismatched order would fold
        // over the wrong columns and emit a structurally invalid relation
        // in release builds too.
        assert_eq!(n, block.arity(), "order must cover the schema");
        let schema = block.schema().clone();
        if block.is_empty() {
            return NfRelation::new(schema);
        }
        if n == 0 {
            // Every zero-arity row is the one empty row.
            return NfRelation::from_tuples_unchecked(schema, vec![NfTuple::from_flat(&[])]);
        }
        self.reset();

        // The one sort: last-nested attribute outermost, first-nested
        // innermost, so every ν pass groups over contiguous runs. It
        // orders a permutation of row indices, each beside its row's two
        // outermost sort columns packed into one key, so most comparisons
        // never leave the permutation; equal keys go on to the remaining
        // columns in the block. The rows are then gathered in that
        // order, each repeat dropped beside its twin, so every stage
        // reads contiguous rows.
        let sort_cols: Vec<usize> = order.as_slice().iter().rev().copied().collect();
        let (key_cols, rest_cols) = sort_cols.split_at(n.min(2));
        let key = |row: &[Atom]| {
            key_cols
                .iter()
                .fold(0u64, |k, &c| (k << 32) | u64::from(row[c].0))
                << (32 * (2 - key_cols.len()))
        };
        let mut perm: Vec<(u64, u32)> = (0..block.len())
            .map(|at| (key(block.row(at)), at as u32))
            .collect();
        perm.sort_unstable_by(|a, b| {
            a.0.cmp(&b.0)
                .then_with(|| cmp_on(block.row(a.1 as usize), block.row(b.1 as usize), rest_cols))
        });
        let mut sorted: Vec<Atom> = Vec::with_capacity(block.len() * n);
        for &(_, at) in &perm {
            let row = block.row(at as usize);
            if sorted.len() < n || sorted[sorted.len() - n..] != *row {
                sorted.extend_from_slice(row);
            }
        }
        drop(perm);
        let rows = Rows {
            atoms: &sorted,
            arity: n,
        };

        // Stage 0 — ν over the first-nested attribute: each maximal run of
        // rows equal on all other columns folds to one tuple whose P(0)
        // set is the run's (already ascending) P(0) column.
        let p0 = *sort_cols.last().expect("arity checked non-zero");
        let prefix = &sort_cols[..n - 1];
        let mut start = 0usize;
        while start < rows.len() {
            let mut end = start + 1;
            while end < rows.len() && eq_on(rows.row(start), rows.row(end), prefix) {
                end += 1;
            }
            let base = self.arena.len();
            self.arena.extend((start..end).map(|r| rows.row(r)[p0]));
            let id = self.intern_tail(base);
            self.reps.push(start as u32);
            self.ids.push(id);
            start = end;
        }

        // Stages 1…n−1 — fold ν over P(j) on the shrinking tuple list.
        for j in 1..n {
            self.fold_stage(rows, &sort_cols, j);
        }

        // Emit: every nest position now carries a set; place by attribute.
        let mut pos_of = vec![0usize; n];
        for (pos, &attr) in order.as_slice().iter().enumerate() {
            pos_of[attr] = pos;
        }
        let tuples: Vec<NfTuple> = (0..self.reps.len())
            .map(|t| {
                let ids = &self.ids[t * n..(t + 1) * n];
                (0..n)
                    .map(|attr| {
                        let (s, l) = self.sets[ids[pos_of[attr]] as usize];
                        ValueSet::of_sorted(&self.arena[s as usize..(s + l) as usize])
                    })
                    .collect()
            })
            .collect();
        NfRelation::from_tuples_unchecked(schema, tuples)
    }

    /// Def. 4 — a single `ν_attr` over an NF² relation through the same
    /// interning machinery: grouping keys are borrowed id slices instead
    /// of cloned `Vec<ValueSet>` rest-projections. The kernel path behind
    /// the query layer's ad-hoc NEST operator; tuple-identical to
    /// [`nest`](crate::nest::nest).
    pub fn nest_once(&mut self, rel: &NfRelation, attr: usize) -> NfRelation {
        let n = rel.arity();
        assert!(attr < n, "attribute {attr} out of bounds for arity {n}");
        self.reset();
        self.groups.clear();
        self.grp_next.clear();
        self.grp_first.clear();
        self.grp_count.clear();
        self.tuple_group.clear();

        // Intern every component once; group keys become id slices.
        for t in rel.tuples() {
            for a in 0..n {
                let base = self.arena.len();
                self.arena.extend_from_slice(t.component(a).as_slice());
                let id = self.intern_tail(base);
                self.ids.push(id);
            }
        }

        // Pass 1: group by all component ids except `attr`, first-seen
        // order; count the atoms each group's `attr` union will hold.
        let tuples = rel.tuple_count();
        for t in 0..tuples {
            let key = &self.ids[t * n..(t + 1) * n];
            let h = hash_ids_skip(key, attr);
            let mut found = None;
            let mut cand = self.groups.get(&h).copied().unwrap_or(NONE);
            while cand != NONE {
                let f = self.grp_first[cand as usize] as usize;
                if eq_ids_skip(&self.ids[f * n..(f + 1) * n], key, attr) {
                    found = Some(cand);
                    break;
                }
                cand = self.grp_next[cand as usize];
            }
            let g = match found {
                Some(g) => g,
                None => {
                    let g = self.grp_first.len() as u32;
                    self.grp_first.push(t as u32);
                    self.grp_count.push(0);
                    self.grp_next.push(self.groups.insert(h, g).unwrap_or(NONE));
                    g
                }
            };
            self.grp_count[g as usize] += rel.tuples()[t].component(attr).len() as u32;
            self.tuple_group.push(g);
        }

        // Pass 2: bucket every tuple's `attr` atoms into its group region.
        self.grp_cursor.clear();
        let mut off = 0u32;
        for &c in &self.grp_count {
            self.grp_cursor.push(off);
            off += c;
        }
        self.atom_buf.clear();
        self.atom_buf.resize(off as usize, Atom(0));
        for t in 0..tuples {
            let g = self.tuple_group[t] as usize;
            let mut slot = self.grp_cursor[g] as usize;
            for v in rel.tuples()[t].component(attr).iter() {
                self.atom_buf[slot] = v;
                slot += 1;
            }
            self.grp_cursor[g] = slot as u32;
        }

        // Pass 3: emit one tuple per group. Members' `attr` sets
        // interleave, so the union is sorted (and, defensively, deduped)
        // by `ValueSet::new` — the only re-sort in the kernel.
        let mut out = Vec::with_capacity(self.grp_first.len());
        let mut start = 0usize;
        for g in 0..self.grp_first.len() {
            let end = start + self.grp_count[g] as usize;
            let union = ValueSet::new(self.atom_buf[start..end].to_vec())
                .expect("components are non-empty");
            let f = self.grp_first[g] as usize;
            out.push(rel.tuples()[f].with_component(attr, union));
            start = end;
        }
        NfRelation::from_tuples_unchecked(rel.schema().clone(), out)
    }

    /// One ν pass over nest position `j ≥ 1`: merge tuples equal on the
    /// still-singleton columns `P(j+1)…P(n−1)` (contiguous runs under the
    /// sort) and on the interned set ids of positions `0…j−1`.
    fn fold_stage(&mut self, rows: Rows<'_>, sort_cols: &[usize], j: usize) {
        let n = sort_cols.len();
        let p_j = sort_cols[n - 1 - j];
        let run_prefix = &sort_cols[..n - 1 - j];
        let tuples = self.reps.len();

        self.groups.clear();
        self.grp_next.clear();
        self.grp_first.clear();
        self.grp_count.clear();
        self.grp_run.clear();
        self.tuple_group.clear();
        self.tuple_group.reserve(tuples);

        // Pass 1: assign each tuple to a (run, set-key) group. Groups are
        // created in scan order, so group order = output order, which
        // keeps the tuple list sorted by the next stage's run prefix.
        let mut run_start = 0usize;
        for t in 0..tuples {
            if t > 0
                && !eq_on(
                    rows.row(self.reps[t] as usize),
                    rows.row(self.reps[t - 1] as usize),
                    run_prefix,
                )
            {
                run_start = t;
            }
            let key = &self.ids[t * j..(t + 1) * j];
            let h = hash_ids(run_start as u64, key);
            let mut found = None;
            let mut cand = self.groups.get(&h).copied().unwrap_or(NONE);
            while cand != NONE {
                if self.grp_run[cand as usize] == run_start as u32 {
                    let f = self.grp_first[cand as usize] as usize;
                    if self.ids[f * j..(f + 1) * j] == *key {
                        found = Some(cand);
                        break;
                    }
                }
                cand = self.grp_next[cand as usize];
            }
            let g = match found {
                Some(g) => g,
                None => {
                    let g = self.grp_first.len() as u32;
                    self.grp_first.push(t as u32);
                    self.grp_count.push(0);
                    self.grp_run.push(run_start as u32);
                    self.grp_next.push(self.groups.insert(h, g).unwrap_or(NONE));
                    g
                }
            };
            self.grp_count[g as usize] += 1;
            self.tuple_group.push(g);
        }

        // Pass 2: bucket every tuple's P(j) value into its group's region.
        // Group members arrive in strictly ascending P(j) order (module
        // docs), so each region is a sorted duplicate-free set already.
        self.grp_cursor.clear();
        let mut off = 0u32;
        for &c in &self.grp_count {
            self.grp_cursor.push(off);
            off += c;
        }
        self.atom_buf.clear();
        self.atom_buf.resize(tuples, Atom(0));
        for t in 0..tuples {
            let g = self.tuple_group[t] as usize;
            let slot = self.grp_cursor[g];
            self.atom_buf[slot as usize] = rows.row(self.reps[t] as usize)[p_j];
            self.grp_cursor[g] = slot + 1;
        }

        // Pass 3: intern each region and emit the folded tuples.
        self.next_reps.clear();
        self.next_ids.clear();
        let mut start = 0usize;
        for g in 0..self.grp_first.len() {
            let cnt = self.grp_count[g] as usize;
            let base = self.arena.len();
            self.arena.reserve(cnt);
            for i in start..start + cnt {
                let v = self.atom_buf[i];
                self.arena.push(v);
            }
            let id = self.intern_tail(base);
            let f = self.grp_first[g] as usize;
            self.next_reps.push(self.reps[f]);
            for pos in 0..j {
                let carried = self.ids[f * j + pos];
                self.next_ids.push(carried);
            }
            self.next_ids.push(id);
            start += cnt;
        }
        std::mem::swap(&mut self.reps, &mut self.next_reps);
        std::mem::swap(&mut self.ids, &mut self.next_ids);
    }

    /// Interns the provisional arena tail `arena[base..]` as a set: when an
    /// equal set already exists the tail is dropped and the existing id
    /// returned, so equal content always means equal id.
    fn intern_tail(&mut self, base: usize) -> u32 {
        let len = self.arena.len() - base;
        debug_assert!(len > 0, "sets are non-empty");
        let h = hash_atoms(&self.arena[base..]);
        let mut cand = self.dedup.get(&h).copied().unwrap_or(NONE);
        while cand != NONE {
            let (s, l) = self.sets[cand as usize];
            if l as usize == len && self.arena[s as usize..s as usize + len] == self.arena[base..] {
                self.arena.truncate(base);
                return cand;
            }
            cand = self.set_next[cand as usize];
        }
        let id = self.sets.len() as u32;
        self.sets.push((base as u32, len as u32));
        self.set_next.push(self.dedup.insert(h, id).unwrap_or(NONE));
        id
    }

    /// Clears call-scoped state (arena, interner, stage buffers) while
    /// keeping every allocation for reuse.
    fn reset(&mut self) {
        self.arena.clear();
        self.sets.clear();
        self.set_next.clear();
        self.dedup.clear();
        self.reps.clear();
        self.ids.clear();
    }
}

/// The sorted, duplicate-free rows the fold stages read: row `i` is
/// `atoms[i * arity..(i + 1) * arity]`.
#[derive(Clone, Copy)]
struct Rows<'a> {
    atoms: &'a [Atom],
    arity: usize,
}

impl<'a> Rows<'a> {
    fn len(self) -> usize {
        self.atoms.len() / self.arity
    }

    #[inline]
    fn row(self, idx: usize) -> &'a [Atom] {
        &self.atoms[idx * self.arity..(idx + 1) * self.arity]
    }
}

#[inline]
fn cmp_on(a: &[Atom], b: &[Atom], cols: &[usize]) -> Ordering {
    for &c in cols {
        match a[c].cmp(&b[c]) {
            Ordering::Equal => {}
            o => return o,
        }
    }
    Ordering::Equal
}

#[inline]
fn eq_on(a: &[Atom], b: &[Atom], cols: &[usize]) -> bool {
    cols.iter().all(|&c| a[c] == b[c])
}

/// End-of-chain sentinel for the intrusive collision lists.
const NONE: u32 = u32::MAX;

/// The kernel's map keys are already well-mixed 64-bit hashes, so the
/// maps use an identity hasher — no SipHash, no per-entry `Vec`s
/// (collisions chain through `set_next` / `grp_next`).
#[derive(Debug, Default, Clone, Copy)]
struct PreHashed(u64);

impl std::hash::Hasher for PreHashed {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("the kernel maps hash u64 keys only")
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = v;
    }
}

/// [`std::hash::BuildHasher`] for [`PreHashed`].
#[derive(Debug, Default, Clone, Copy)]
struct PreHashedState;

impl std::hash::BuildHasher for PreHashedState {
    type Hasher = PreHashed;
    fn build_hasher(&self) -> PreHashed {
        PreHashed(0)
    }
}

/// FxHash-style mixing: fast, with collisions resolved by slice compare.
const HASH_K: u64 = 0x517c_c1b7_2722_0a95;

#[inline]
pub(crate) fn mix(h: u64, v: u64) -> u64 {
    (h.rotate_left(5) ^ v).wrapping_mul(HASH_K)
}

#[inline]
fn hash_atoms(atoms: &[Atom]) -> u64 {
    let mut h = mix(0x9E37_79B9, atoms.len() as u64);
    for a in atoms {
        h = mix(h, u64::from(a.0));
    }
    h
}

#[inline]
fn hash_ids(seed: u64, ids: &[u32]) -> u64 {
    let mut h = mix(seed.wrapping_add(0x85EB_CA6B), ids.len() as u64);
    for &i in ids {
        h = mix(h, u64::from(i));
    }
    h
}

#[inline]
fn hash_ids_skip(ids: &[u32], skip: usize) -> u64 {
    let mut h = mix(0xC2B2_AE35, ids.len() as u64);
    for (pos, &i) in ids.iter().enumerate() {
        if pos != skip {
            h = mix(h, u64::from(i));
        }
    }
    h
}

#[inline]
fn eq_ids_skip(a: &[u32], b: &[u32], skip: usize) -> bool {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .enumerate()
        .all(|(pos, (x, y))| pos == skip || x == y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nest::{canonicalize, nest};
    use crate::schema::Schema;
    use std::sync::Arc;

    fn schema(attrs: &[&str]) -> Arc<Schema> {
        Schema::new("R", attrs).unwrap()
    }

    fn flat(schema: Arc<Schema>, rows: &[&[u32]]) -> FlatRelation {
        FlatRelation::from_rows(
            schema,
            rows.iter().map(|r| r.iter().map(|&v| Atom(v)).collect()),
        )
        .unwrap()
    }

    /// A deterministic pseudo-random flat relation over `arity` attributes.
    fn random_flat(arity: usize, rows: usize, domain: u32, seed: u64) -> FlatRelation {
        let names: Vec<String> = (0..arity).map(|i| format!("E{i}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let s = Schema::new("RND", &refs).unwrap();
        let mut state = seed | 1;
        let mut out = Vec::new();
        for _ in 0..rows {
            let row: Vec<Atom> = (0..arity)
                .map(|a| {
                    state = state
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    Atom(100 * a as u32 + (state >> 33) as u32 % domain)
                })
                .collect();
            out.push(row);
        }
        FlatRelation::from_rows(s, out).unwrap()
    }

    #[test]
    fn kernel_matches_legacy_on_example1_all_orders() {
        let s = schema(&["A", "B"]);
        let f = flat(s, &[&[1, 11], &[2, 11], &[2, 12], &[3, 12]]);
        let mut k = NestKernel::new();
        for order in NestOrder::all(2) {
            assert_eq!(
                k.canonical_of_flat(&f, &order),
                canonicalize(&NfRelation::from_flat(&f), &order),
                "order {order}"
            );
        }
    }

    #[test]
    fn kernel_matches_legacy_on_random_relations_all_orders() {
        let mut k = NestKernel::new();
        for arity in 1..=4usize {
            for seed in 0..6u64 {
                let f = random_flat(arity, 60, 4, 0xBEEF ^ seed);
                for order in NestOrder::all(arity) {
                    assert_eq!(
                        k.canonical_of_flat(&f, &order),
                        canonicalize(&NfRelation::from_flat(&f), &order),
                        "arity {arity} seed {seed} order {order}"
                    );
                }
            }
        }
    }

    #[test]
    fn kernel_reuse_is_sound_across_shapes() {
        // The same kernel instance, alternating schemas and orders.
        let mut k = NestKernel::new();
        for round in 0..4u64 {
            for arity in 2..=3usize {
                let f = random_flat(arity, 40, 3, round * 7 + arity as u64);
                for order in NestOrder::all(arity) {
                    let fresh = NestKernel::new().canonical_of_flat(&f, &order);
                    assert_eq!(k.canonical_of_flat(&f, &order), fresh);
                }
            }
        }
    }

    #[test]
    fn kernel_preserves_expansion() {
        let f = random_flat(3, 80, 4, 99);
        let mut k = NestKernel::new();
        for order in NestOrder::all(3) {
            assert_eq!(k.canonical_of_flat(&f, &order).expand(), f, "order {order}");
        }
    }

    #[test]
    fn kernel_handles_empty_and_degenerate() {
        let s = schema(&["A", "B"]);
        let empty = FlatRelation::new(s);
        let mut k = NestKernel::new();
        assert!(k
            .canonical_of_flat(&empty, &NestOrder::identity(2))
            .is_empty());
        // Single attribute: everything folds into one tuple.
        let s1 = schema(&["A"]);
        let f1 = flat(s1, &[&[3], &[1], &[2]]);
        let c = k.canonical_of_flat(&f1, &NestOrder::identity(1));
        assert_eq!(c.tuple_count(), 1);
        assert_eq!(c.tuples()[0].component(0).len(), 3);
        // Single row: identity.
        let s2 = schema(&["A", "B"]);
        let f2 = flat(s2, &[&[1, 2]]);
        let c = k.canonical_of_flat(&f2, &NestOrder::identity(2));
        assert_eq!(c.tuple_count(), 1);
        assert!(c.tuples()[0].is_flat());
    }

    #[test]
    fn nest_once_matches_nest() {
        let mut k = NestKernel::new();
        for seed in 0..5u64 {
            let f = random_flat(3, 50, 4, 0xABCD ^ seed);
            // Exercise both flat input and already-nested input.
            let base = NfRelation::from_flat(&f);
            for attr in 0..3 {
                assert_eq!(k.nest_once(&base, attr), nest(&base, attr));
            }
            let nested = nest(&base, 0);
            for attr in 0..3 {
                assert_eq!(
                    k.nest_once(&nested, attr),
                    nest(&nested, attr),
                    "seed {seed} attr {attr}"
                );
            }
        }
    }
}
