//! Property tests for the value-major sorted shard segments: the
//! immutable segment lists must stay an exact, losslessly decodable
//! tiling of every shard's canonical tuple vector, with exact
//! per-attribute zone metadata — across **all** the `nf2-workload`
//! generators, nest orders, shard counts and routing modes, and across
//! §4 maintenance schedules that interleave point ops with incremental
//! and rebuilding batches (the vector must stay the kernel's vector,
//! the segments its exact tiling). The one question segments answer —
//! which rows intersect every conjunct — must agree with a brute-force
//! filter of the tuple vector, on fresh and on patched segments, from
//! `Segment::locate` up to the table scan and the pruning report EXPLAIN
//! prints from it. Every segment's membership filter on the routing
//! attribute `P(n−1)` admits every value the segment holds there: it
//! has no false negatives, fresh, patched, split or re-tiled. A checkpoint of drifted segments must reopen as the
//! same shards and checkpoint again to the same bytes. A final
//! engine-level property pins
//! the ordered SQL surface: `ORDER BY` results are identical whatever
//! the shard layout, before and after a point write, always through
//! the k-way merge.

use proptest::prelude::*;

use nf2_core::bulk::{apply_batch, Op};
use nf2_core::kernel::NestKernel;
use nf2_core::maintenance::{CanonicalRelation, CostCounter};
use nf2_core::relation::RowBlock;
use nf2_core::schema::NestOrder;
use nf2_core::segment::{Conjunct, Rows, Segment, ShardSegments};
use nf2_core::shard::{ShardSpec, ShardedCanonical};
use nf2_core::tuple::{NfTuple, TupleRef, ValueSet};
use nf2_core::value::Atom;
use nf2_storage::{NfTable, SharedDictionary};
use nf2_workload as workload;
use nf2_workload::{all_generators, Workload};

/// Shard specs under test: hash counts {1, 2, 7} plus a data-derived
/// range split so several range shards are actually populated.
fn specs_for(w: &Workload, order: &NestOrder) -> Vec<ShardSpec> {
    let mut specs = vec![
        ShardSpec::hash(1).unwrap(),
        ShardSpec::hash(2).unwrap(),
        ShardSpec::hash(7).unwrap(),
    ];
    let outer = order.attr_at(order.arity() - 1);
    let mut values: Vec<Atom> = w.flat.rows().map(|r| r[outer]).collect();
    values.sort_unstable();
    values.dedup();
    if values.len() >= 3 {
        let lo = values[values.len() / 3];
        let hi = values[2 * values.len() / 3];
        if lo < hi {
            specs.push(ShardSpec::range(vec![lo, hi]).unwrap());
        }
    }
    specs
}

/// Every `P(n−1)` value (attribute `outer`) a segment of `segs` holds
/// passes that segment's filter.
fn assert_filter_admits_every_key(segs: &ShardSegments, outer: usize) {
    for (range, seg) in segs.ranges() {
        for t in seg.tuples() {
            for &key in t.component(outer).as_slice() {
                assert!(
                    seg.may_hold(key),
                    "segment at {} rejects its own key {key}",
                    range.start
                );
            }
        }
    }
}

/// A shard's segments must tile its tuple vector exactly — contiguous,
/// non-empty, full coverage — and decode back losslessly, with exact
/// (not merely sound) per-attribute min/max zone metadata: the bounds
/// cover every set member of every tuple in the segment. Each segment
/// is what encoding its chunk gives, its filter on `outer` (the routing
/// attribute) included, and that filter admits every key it holds.
fn assert_exact_tiling(tuples: &[NfTuple], segs: &ShardSegments, outer: usize) {
    assert_filter_admits_every_key(segs, outer);
    let mut start = 0usize;
    let mut decoded: Vec<NfTuple> = Vec::with_capacity(tuples.len());
    for (range, seg) in segs.ranges() {
        assert_eq!(range.start, start, "segments tile contiguously");
        assert!(seg.rows() > 0, "no empty segment survives a repair");
        start += seg.rows();
        decoded.extend(seg.decode());

        let slice = &tuples[range];
        let chunk: Vec<NfTuple> = seg.tuples().map(TupleRef::into_owned).collect();
        assert_eq!(chunk, slice, "the chunk holds the segment's own tuples");
        assert!(
            seg.tuples().eq(slice.iter().map(NfTuple::as_ref)),
            "read in place, the chunk's tuples are its own"
        );
        assert_eq!(
            seg.decode(),
            chunk,
            "each chunk is what its columns decode to"
        );
        // Decoding cannot see an empty row list left behind, or offsets
        // that happen to decode the same: a patched segment's postings
        // must be a fresh transposition's, field for field.
        assert_eq!(
            *seg,
            Segment::encode(&chunk, Some(outer)),
            "each segment's postings are what encoding its chunk gives"
        );
        let arity = slice[0].arity();
        for a in 0..arity {
            let lo = slice
                .iter()
                .map(|t| *t.components()[a].as_slice().first().expect("non-empty set"))
                .min()
                .expect("segments are non-empty");
            let hi = slice
                .iter()
                .map(|t| *t.components()[a].as_slice().last().expect("non-empty set"))
                .max()
                .expect("segments are non-empty");
            assert_eq!(seg.min(a), lo, "zone min is exact for attr {a}");
            assert_eq!(seg.max(a), hi, "zone max is exact for attr {a}");
        }
    }
    assert_eq!(start, tuples.len(), "segments cover the whole shard");
    assert_eq!(decoded.as_slice(), tuples, "columnar decode is lossless");
}

/// The identity nest order and one rotation of it.
fn orders_for(arity: usize) -> [NestOrder; 2] {
    let mut rotated: Vec<usize> = (0..arity).collect();
    rotated.rotate_left(1.min(arity.saturating_sub(1)));
    [
        NestOrder::identity(arity),
        NestOrder::new(rotated, arity).unwrap(),
    ]
}

/// A tiny deterministic generator for picking probe values.
fn draw(state: &mut u64) -> usize {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    (*state >> 33) as usize
}

/// Conjunct sets to ask about a relation: per attribute a single stored
/// value and an IN-list (stored values plus one atom no row holds), then
/// two- and all-attribute conjunctions of those.
fn probe_conjuncts(w: &Workload, state: &mut u64) -> Vec<Vec<(usize, ValueSet)>> {
    let arity = w.flat.schema().arity();
    let rows: Vec<&[Atom]> = w.flat.rows().collect();
    let absent = Atom(rows.iter().flat_map(|r| r.iter()).max().unwrap().id() + 1);
    let stored = |state: &mut u64, a: usize| rows[draw(state) % rows.len()][a];
    let single: Vec<(usize, ValueSet)> = (0..arity)
        .map(|a| (a, ValueSet::singleton(stored(state, a))))
        .collect();
    let in_list: Vec<(usize, ValueSet)> = (0..arity)
        .map(|a| {
            let picks = vec![stored(state, a), stored(state, a), stored(state, a), absent];
            (a, ValueSet::new(picks).unwrap())
        })
        .collect();
    let mut out: Vec<Vec<(usize, ValueSet)>> = Vec::new();
    out.extend(single.iter().cloned().map(|c| vec![c]));
    out.extend(in_list.iter().cloned().map(|c| vec![c]));
    out.push(vec![(0, ValueSet::singleton(absent))]);
    // One stored row's values on every attribute: a hit by construction.
    let row = rows[draw(state) % rows.len()];
    out.push(
        (0..arity)
            .map(|a| (a, ValueSet::singleton(row[a])))
            .collect(),
    );
    if arity >= 2 {
        out.push(vec![single[0].clone(), in_list[arity - 1].clone()]);
        out.push(vec![in_list[0].clone(), in_list[1].clone()]);
        out.push(in_list.clone());
    }
    out
}

/// The positions of `tuples` whose components intersect every conjunct —
/// the definition `locate` must reproduce.
fn brute_force(tuples: &[NfTuple], conjuncts: &[(usize, ValueSet)]) -> Vec<usize> {
    (0..tuples.len())
        .filter(|&i| {
            conjuncts
                .iter()
                .all(|(a, vs)| !tuples[i].component(*a).is_disjoint_from(vs))
        })
        .collect()
}

/// Every probe of `probe_conjuncts`, on every shard: the shard's
/// segments locate exactly the brute-force rows, each segment for
/// itself and all of them together, and report exactly the segments
/// that hold none as skipped. Every segment's filter admits every key
/// it holds.
fn assert_located_exactly(w: &Workload, sharded: &ShardedCanonical, state: &mut u64) {
    let outer = sharded.order().attr_at(sharded.order().arity() - 1);
    for s in 0..sharded.shard_count() {
        assert_filter_admits_every_key(sharded.shard_segments(s), outer);
    }
    let shards: Vec<Vec<NfTuple>> = (0..sharded.shard_count())
        .map(|s| {
            sharded
                .version(s)
                .tuples()
                .map(TupleRef::into_owned)
                .collect()
        })
        .collect();
    for probe in probe_conjuncts(w, state) {
        let conjuncts: Vec<Conjunct<'_>> =
            probe.iter().map(|(a, vs)| (*a, vs.as_slice())).collect();
        for (s, tuples) in shards.iter().enumerate() {
            let expected = brute_force(tuples, &probe);
            let mut empty = 0usize;
            for (range, seg) in sharded.shard_segments(s).ranges() {
                let mut spans = Vec::new();
                let any = seg.locate(&conjuncts, range.start, &mut spans);
                let rows: Vec<usize> = Rows::of_spans(spans).collect();
                let within: Vec<usize> = expected
                    .iter()
                    .copied()
                    .filter(|i| range.contains(i))
                    .collect();
                assert_eq!(rows, within, "{}: segment at {}", w.label, range.start);
                assert_eq!(any, !within.is_empty());
                empty += usize::from(within.is_empty());
            }
            let located = sharded.version(s).locate(&conjuncts);
            assert_eq!(located.skipped, empty, "{}: shard {s}", w.label);
            // A segment not searched was refuted by its filter or zone.
            let segments = sharded.shard_segments(s).segment_count();
            assert!(
                segments - located.skipped <= located.searched && located.searched <= segments,
                "{}: shard {s}: {} searched, {} skipped of {segments}",
                w.label,
                located.searched,
                located.skipped
            );
            assert_eq!(located.rows.collect::<Vec<_>>(), expected, "{}", w.label);
        }
    }
}

/// The same question one layer up: for every probe, the table's zoned
/// scan yields exactly the brute-force tuples of the shards it is given,
/// charges exactly that many probes, and tallies exactly the segments
/// `zone_skip_counts` — EXPLAIN's pruning report — predicted.
fn assert_scans_what_it_reports(w: &Workload, t: &NfTable, state: &mut u64) {
    let store = t.sharded();
    let shards: Vec<usize> = (0..t.shard_count()).collect();
    let stored: Vec<Vec<NfTuple>> = shards
        .iter()
        .map(|&s| {
            store
                .version(s)
                .tuples()
                .map(TupleRef::into_owned)
                .collect()
        })
        .collect();
    for probe in probe_conjuncts(w, state) {
        let expected: Vec<NfTuple> = stored
            .iter()
            .flat_map(|tuples| {
                brute_force(tuples, &probe)
                    .into_iter()
                    .map(|i| tuples[i].clone())
            })
            .collect();
        let snapshot = t.snapshot();
        let counts = snapshot.zone_skip_counts(&shards, &probe);
        let before = t.stats();
        let scanned: Vec<NfTuple> = snapshot
            .scan_shards_zoned(&shards, &probe)
            .map(|v| v.into_owned())
            .collect();
        let after = t.stats();
        assert_eq!(scanned, expected, "{}: {probe:?}", w.label);
        let located: usize = counts.iter().map(|c| c.located).sum();
        let skipped: usize = counts.iter().map(|c| c.skipped).sum();
        assert_eq!(located, expected.len());
        assert_eq!(after.units_probed - before.units_probed, located as u64);
        assert_eq!(
            after.segments_skipped - before.segments_skipped,
            skipped as u64
        );
        for (&s, c) in shards.iter().zip(&counts) {
            assert_eq!(c.segments, store.shard_segments(s).segment_count());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `Segment` located rows ≡ a brute-force filter of the tuple slice,
    /// for single-value, IN-list and multi-attribute conjuncts — every
    /// generator × nest order × shard spec, on fresh segments and on the
    /// patched ones a random §4 op stream leaves behind (point ops and
    /// keyed batches, at a tiling small enough that patches re-encode,
    /// drop and split segments).
    #[test]
    fn located_rows_equal_a_brute_force_filter(seed in any::<u64>()) {
        let mut state = seed | 1;
        for w in all_generators(seed) {
            let ops = workload::op_trace(&w, 40, 50, seed ^ 0x10ca7e);
            for order in &orders_for(w.flat.schema().arity()) {
                for spec in specs_for(&w, order) {
                    let mut sharded =
                        ShardedCanonical::from_flat(&w.flat, order.clone(), spec).unwrap();
                    sharded.set_segment_rows(2 + (seed % 5) as usize);
                    assert_located_exactly(&w, &sharded, &mut state);
                    for chunk in ops.chunks(5) {
                        match chunk {
                            [Op::Insert(row), rest @ ..] => {
                                sharded.insert(row.clone()).unwrap();
                                sharded.apply_batch(rest).unwrap();
                            }
                            [Op::Delete(row), rest @ ..] => {
                                sharded.delete(row).unwrap();
                                sharded.apply_batch(rest).unwrap();
                            }
                            [] => {}
                        }
                    }
                    assert_located_exactly(&w, &sharded, &mut state);
                }
            }
        }
    }

    /// `zone_skip_counts` ≡ execution: what EXPLAIN reports from
    /// `ShardVersion::locate` is what the zoned scan then yields, probes
    /// and skips — on a bulk-built table and after point writes have
    /// patched its segments.
    #[test]
    fn zone_skip_counts_equal_execution(seed in any::<u64>()) {
        let mut state = seed | 1;
        for w in all_generators(seed) {
            let ops = workload::op_trace(&w, 30, 50, seed ^ 0x5ca9);
            for order in &orders_for(w.flat.schema().arity()) {
                for spec in specs_for(&w, order) {
                    let t = NfTable::from_flat_sharded(
                        "t",
                        &w.flat,
                        order.clone(),
                        spec,
                        SharedDictionary::new(),
                    )
                    .unwrap();
                    t.set_segment_rows(2 + (seed % 5) as usize);
                    assert_scans_what_it_reports(&w, &t, &mut state);
                    for op in &ops {
                        match op {
                            Op::Insert(row) => t.insert_atoms(row.clone()).unwrap(),
                            Op::Delete(row) => t.delete_atoms(row).unwrap(),
                        };
                    }
                    assert_scans_what_it_reports(&w, &t, &mut state);
                }
            }
        }
    }

    /// Freshly built stores (kernel rebuild path) have fresh segments
    /// on every shard, and those segments are an exact decodable tiling
    /// with exact zone metadata — for every generator, a rotated nest
    /// order, and every shard spec.
    #[test]
    fn fresh_segments_decode_to_the_tuple_store(seed in any::<u64>()) {
        for w in all_generators(seed) {
            for order in &orders_for(w.flat.schema().arity()) {
                for spec in specs_for(&w, order) {
                    let sharded =
                        ShardedCanonical::from_flat(&w.flat, order.clone(), spec.clone())
                            .unwrap();
                    let outer = order.attr_at(order.arity() - 1);
                    for s in 0..sharded.shard_count() {
                        let shard = sharded.shard(s);
                        let tuples = shard.relation().tuples();
                        assert_exact_tiling(tuples, sharded.shard_segments(s), outer);
                        prop_assert_eq!(
                            sharded.shard_segments(s).covered_rows(),
                            tuples.len()
                        );
                    }
                }
            }
        }
    }

    /// §4 maintenance schedules: whatever interleaving of point ops,
    /// small keyed batches and one batch over a quarter of the trace
    /// (no-ops mixed in throughout) a shard has absorbed, its tuple
    /// vector is exactly the vector the nest kernel emits for its rows —
    /// same tuples, same order — and its segments are an exact tiling
    /// of that vector (`verify` re-derives both, plus the routing and
    /// merge invariants).
    #[test]
    fn maintenance_keeps_freshness_honest(seed in any::<u64>()) {
        for w in all_generators(seed) {
            let arity = w.flat.schema().arity();
            let order = NestOrder::identity(arity);
            let ops = workload::with_noops(workload::op_trace(&w, 60, 60, seed ^ 0x2e));
            for spec in [ShardSpec::hash(1).unwrap(), ShardSpec::hash(4).unwrap()] {
                let mut sharded =
                    ShardedCanonical::from_flat(&w.flat, order.clone(), spec.clone())
                        .unwrap();
                // A small tiling target so repairs cross, empty and
                // split segments at property-test scale.
                sharded.set_segment_rows(2 + (seed % 5) as usize);
                // Deal the trace out in steps of 1 (a point op), 7 (a
                // small batch) and, once, everything left at the
                // three-quarter mark (a batch over most keys).
                let mut rest = ops.as_slice();
                let mut step = 0usize;
                while !rest.is_empty() {
                    let take = match step % 3 {
                        _ if rest.len() * 4 <= ops.len() => rest.len(),
                        0 | 1 => 1,
                        _ => 7,
                    }
                    .min(rest.len());
                    let (now, later) = rest.split_at(take);
                    rest = later;
                    step += 1;
                    match now {
                        [Op::Insert(row)] => {
                            sharded.insert(row.clone()).unwrap();
                        }
                        [Op::Delete(row)] => {
                            sharded.delete(row).unwrap();
                        }
                        batch => {
                            sharded.apply_batch(batch).unwrap();
                        }
                    }
                    for s in 0..sharded.shard_count() {
                        let tuples: Vec<NfTuple> = sharded.version(s).tuples().map(TupleRef::into_owned).collect();
                        let mut rows = RowBlock::with_capacity(w.flat.schema().clone(), 0);
                        for t in &tuples {
                            rows.push_expansion(t.as_ref()).unwrap();
                        }
                        let rebuilt = NestKernel::new().canonical_of_rows(&rows, &order);
                        prop_assert_eq!(
                            tuples.as_slice(),
                            rebuilt.tuples(),
                            "{} {:?}: shard {} is not the kernel's vector after step {}",
                            w.label, spec, s, step
                        );
                        assert_exact_tiling(&tuples, sharded.shard_segments(s), arity - 1);
                    }
                }
                sharded.verify().unwrap();
            }
        }
    }
}

/// Workloads whose canonical tuples hold fat sets: rectangles of
/// `fat` values on their first attribute (past the inline capacity of
/// four, or past 255), and the `relationship` shape with many students
/// per course and semester (fat only for the largest `fat`).
fn fat_workloads(seed: u64, fat: usize) -> Vec<Workload> {
    vec![
        workload::block_product(2 + (seed % 4) as usize, &[fat, 2, 3], seed),
        workload::relationship(8 * fat, 4 * fat as u32, 3, 2, seed),
    ]
}

/// Flat edits at the first and the last tuple of every segment of
/// `sharded`'s one shard: one of the tuple's rows deleted, and a row
/// under a value nothing holds inserted beside it.
fn edge_edits(sharded: &ShardedCanonical, fresh: u32) -> Vec<Op> {
    let mut ops = Vec::new();
    for (i, seg) in sharded.shard_segments(0).segments().iter().enumerate() {
        for row in [0, seg.rows() - 1] {
            // The tuple's first row: the least value of each set.
            let first: Vec<Atom> = seg
                .tuple(row)
                .components()
                .map(|set| set.as_slice()[0])
                .collect();
            let mut entering = first.clone();
            entering[0] = Atom(fresh + i as u32);
            ops.extend([Op::Delete(first), Op::Insert(entering)]);
        }
    }
    ops
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Fat chunks read back exactly: after edits at a segment's first
    /// and last row, applied one op at a time and then as one batch,
    /// the chunks back to back, read in place, are the §4 reference's
    /// tuples, and the segments tile them exactly. Under the rotated
    /// order the fat attribute is `P(n−1)`, so the filter takes sets
    /// past 4 and past 255 keys per tuple.
    #[test]
    fn fat_chunks_read_back_after_edits_at_segment_edges(
        seed in any::<u64>(),
        width in 0usize..3,
        rows in 1usize..4,
    ) {
        let fat = [5, 6, 300][width];
        for w in fat_workloads(seed, fat) {
            let arity = w.flat.schema().arity();
            for (rotated, order) in orders_for(arity).into_iter().enumerate() {
                let outer = order.attr_at(arity - 1);
                let mut reference = CanonicalRelation::from_flat(&w.flat, order.clone()).unwrap();
                let mut sharded =
                    ShardedCanonical::from_flat(&w.flat, order, ShardSpec::single()).unwrap();
                sharded.set_segment_rows(rows);
                let widest = reference
                    .relation()
                    .tuples()
                    .iter()
                    .flat_map(|t| t.components().iter().map(ValueSet::len))
                    .max()
                    .unwrap();
                // The rectangles' sets are exactly `fat` wide; at the largest
                // `fat`, ~340 students share a course and a semester (under
                // the identity order).
                let relationship = w.label.starts_with("relationship");
                let least = if relationship && (fat < 256 || rotated == 1) { 1 } else { fat.min(256) };
                prop_assert!(widest >= least, "{}: widest set {}", w.label, widest);
                for (round, fresh) in [(0, 3_000_000), (1, 4_000_000)] {
                    let ops = edge_edits(&sharded, fresh);
                    if round == 0 {
                        for op in &ops {
                            match op {
                                Op::Insert(row) => sharded.insert(row.clone()).unwrap(),
                                Op::Delete(row) => sharded.delete(row).unwrap(),
                            };
                        }
                    } else {
                        sharded.apply_batch(&ops).unwrap();
                    }
                    apply_batch(&mut reference, &ops, &mut CostCounter::new()).unwrap();
                    let expected = reference.relation().tuples();
                    prop_assert!(
                        sharded.version(0).tuples().eq(expected.iter().map(NfTuple::as_ref)),
                        "{}: round {}: the chunks read back other tuples", w.label, round
                    );
                    assert_exact_tiling(expected, sharded.shard_segments(0), outer);
                }
            }
        }
    }
}

/// The shard specs a checkpoint round trip runs under: one hash shard,
/// four, and the data-derived range split of [`specs_for`] where the
/// data has one.
fn checkpoint_specs(w: &Workload, order: &NestOrder) -> Vec<ShardSpec> {
    let range = specs_for(w, order)
        .into_iter()
        .filter(|spec| matches!(spec, ShardSpec::Range { .. }));
    [ShardSpec::hash(1).unwrap(), ShardSpec::hash(4).unwrap()]
        .into_iter()
        .chain(range)
        .collect()
}

proptest! {
    // Every case checkpoints and reopens once per generator and spec.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A checkpoint stores each shard as its chunks hold it, drifted
    /// tiling and all: after point writes and keyed batches at a small
    /// tiling, the reopened table holds every shard's tuples in the same
    /// order, the same relation and the same `|R*|`, and checkpointing
    /// it again writes the same tuple file and meta, byte for byte.
    #[test]
    fn checkpoint_round_trips_every_shard_after_drift(seed in any::<u64>()) {
        let dir = std::env::temp_dir().join("nf2_proptest_segments_checkpoint");
        let files = |dir: &std::path::Path| {
            let read = |file: &str| std::fs::read(dir.join(file)).unwrap();
            (read("t.tuples"), read("t.meta"))
        };
        for w in all_generators(seed) {
            let ops = workload::op_trace(&w, 40, 50, seed ^ 0xc4ec);
            let order = NestOrder::identity(w.flat.schema().arity());
            for spec in checkpoint_specs(&w, &order) {
                let t = NfTable::from_flat_sharded(
                    "t",
                    &w.flat,
                    order.clone(),
                    spec.clone(),
                    SharedDictionary::new(),
                )
                .unwrap();
                t.set_segment_rows(2 + (seed % 5) as usize);
                for chunk in ops.chunks(5) {
                    let rest = match chunk {
                        [Op::Insert(row), rest @ ..] => {
                            t.insert_atoms(row.clone()).unwrap();
                            rest
                        }
                        [Op::Delete(row), rest @ ..] => {
                            t.delete_atoms(row).unwrap();
                            rest
                        }
                        [] => continue,
                    };
                    t.append_batch(rest).unwrap();
                }
                let _ = std::fs::remove_dir_all(&dir);
                t.checkpoint(&dir).unwrap();
                let written = files(&dir);
                let reopened = NfTable::open(&dir, "t", SharedDictionary::new()).unwrap();
                let (held, rebuilt) = (t.sharded(), reopened.sharded());
                for s in 0..t.shard_count() {
                    prop_assert!(
                        held.version(s).tuples().eq(rebuilt.version(s).tuples()),
                        "{} {:?}: shard {} reopened as other tuples", w.label, spec, s
                    );
                }
                prop_assert_eq!(reopened.snapshot().canonical(), t.snapshot().canonical());
                prop_assert_eq!(reopened.flat_count(), t.flat_count());
                reopened.checkpoint(&dir).unwrap();
                prop_assert!(
                    files(&dir) == written,
                    "{} {:?}: a second checkpoint wrote other bytes", w.label, spec
                );
            }
        }
    }
}

/// Builds an engine over `groups` canonical tuples (unique `b…` outer
/// key per group, `width` inner `a…` values each), pre-interning the
/// whole value universe in sorted order so the dictionary stays
/// id-ordered — the merge path's dynamic precondition.
fn ordered_engine(groups: usize, width: usize, shards: usize) -> nf2_query::Engine {
    use nf2_storage::NfTable;

    let engine = nf2_query::Engine::builder().shards(shards).build().unwrap();
    let rows: Vec<[String; 2]> = (0..groups)
        .flat_map(|g| (0..width).map(move |j| [format!("a{g:03}x{j}"), format!("b{g:04}")]))
        .collect();
    for r in &rows {
        engine.dict().intern(&r[0]);
    }
    for g in 0..groups {
        engine.dict().intern(&format!("b{g:04}"));
    }
    let refs: Vec<Vec<&str>> = rows
        .iter()
        .map(|r| vec![r[0].as_str(), r[1].as_str()])
        .collect();
    let table = NfTable::bulk_load_strs_sharded(
        "t",
        &["A", "B"],
        refs,
        NestOrder::identity(2),
        ShardSpec::hash(shards).unwrap(),
        engine.dict().clone(),
    )
    .unwrap();
    engine.attach_table(table).unwrap();
    engine
}

/// Resolves an ordered SQL result to strings, component by component.
fn ordered_strings(engine: &mut nf2_query::Engine, sql: &str) -> Vec<Vec<Vec<String>>> {
    let session = engine.session();
    let snap = session.engine().dict().snapshot();
    session
        .query(sql)
        .unwrap()
        .map(|t| {
            t.as_ref()
                .components()
                .map(|c| {
                    c.as_slice()
                        .iter()
                        .map(|&a| snap.resolve(a).expect("interned atom").to_owned())
                        .collect()
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The ordered SQL surface is layout- and write-independent: `ORDER
    /// BY B, A LIMIT k` returns the same tuples (resolved to strings)
    /// on 1- and 4-shard engines, matches the oracle (groups sorted by
    /// their unique outer key), and is unchanged — still one early-
    /// stopping scan per shard — after a §4 point insert.
    #[test]
    fn ordered_sql_is_layout_and_path_independent(
        groups in 5usize..40,
        width in 1usize..4,
        k in 1usize..12,
    ) {
        // k ≤ groups, so the post-insert sentinel (which sorts last)
        // can never enter the top-k and both arms stay comparable.
        let k = k.min(groups);
        let sql = format!("SELECT * FROM t ORDER BY B, A LIMIT {k}");
        let mut results = Vec::new();
        for shards in [1usize, 4] {
            let mut engine = ordered_engine(groups, width, shards);
            let merged = ordered_strings(&mut engine, &sql);
            prop_assert_eq!(merged.len(), k);
            // The oracle: group g surfaces as ({a…}, {b<g>}) and the
            // unique zero-padded outer keys sort textually.
            for (i, t) in merged.iter().enumerate() {
                prop_assert_eq!(&t[1], &vec![format!("b{i:04}")]);
                prop_assert_eq!(t[0].len(), width);
            }
            // One point insert (sorting after the whole universe, so
            // the answer is unchanged and the dictionary stays
            // id-ordered): the same SQL must stay identical and keep
            // streaming the merge — one scan per shard, stopped early.
            engine
                .session()
                .run("INSERT INTO t VALUES ('zz_a', 'zz_b')")
                .unwrap();
            let before = engine.table("t").unwrap().stats();
            let written = ordered_strings(&mut engine, &sql);
            let after = engine.table("t").unwrap().stats();
            prop_assert_eq!(&written, &merged, "after a write at {} shards", shards);
            prop_assert_eq!(after.lookups - before.lookups, shards as u64);
            prop_assert!(
                after.units_probed - before.units_probed <= (k + shards) as u64,
                "the merge stops after ~k + shards pulls"
            );
            results.push(merged);
        }
        prop_assert_eq!(&results[0], &results[1], "1-shard ≡ 4-shard ordering");
    }
}
