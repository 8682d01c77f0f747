//! Property tests for the columnar sorted shard segments: the
//! immutable segment lists must stay an exact, losslessly decodable
//! tiling of every shard's canonical tuple vector, with exact
//! per-attribute zone metadata — across **all** the `nf2-workload`
//! generators, nest orders, shard counts and routing modes, and across
//! §4 maintenance schedules that interleave point ops with incremental
//! and rebuilding batches (the vector must stay the kernel's vector,
//! the segments its exact tiling). A final engine-level property pins
//! the ordered SQL surface: `ORDER BY` results are identical whatever
//! the shard layout, before and after a point write, always through
//! the k-way merge.

use proptest::prelude::*;

use nf2_core::bulk::Op;
use nf2_core::kernel::NestKernel;
use nf2_core::schema::NestOrder;
use nf2_core::segment::ShardSegments;
use nf2_core::shard::{ShardSpec, ShardedCanonical};
use nf2_core::tuple::{NfTuple, ValueSet};
use nf2_core::value::Atom;
use nf2_workload as workload;
use nf2_workload::Workload;

/// Instantiates every generator at property-test scale, driven by one
/// seed so each case explores a different instance of each shape.
fn all_generators(seed: u64) -> Vec<Workload> {
    vec![
        workload::university(8 + (seed % 13) as usize, 3, 10, 2, 4, seed),
        workload::relationship(40 + (seed % 37) as usize, 12, 10, 3, seed),
        workload::block_product(2 + (seed % 4) as usize, &[2, 3, 2], seed),
        workload::uniform(30 + (seed % 21) as usize, &[8, 8, 8], seed),
        workload::zipf(40, &[16, 16, 16], 1.1, seed),
        workload::anti_correlated(8 + (seed % 9) as u32, 3, seed),
    ]
}

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

/// A shard's segments must tile its tuple vector exactly — contiguous,
/// non-empty, full coverage — and decode back losslessly, with exact
/// (not merely sound) per-attribute min/max zone metadata: the bounds
/// cover every set member of every tuple in the segment.
fn assert_exact_tiling(tuples: &[NfTuple], segs: &ShardSegments) {
    let mut start = 0usize;
    let mut decoded: Vec<NfTuple> = Vec::with_capacity(tuples.len());
    for (range, seg) in segs.ranges() {
        assert_eq!(range.start, start, "segments tile contiguously");
        assert!(seg.rows() > 0, "no empty segment survives a repair");
        start += seg.rows();
        decoded.extend(seg.decode());

        let slice = &tuples[range];
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Freshly built stores (kernel rebuild path) have fresh segments
    /// on every shard, and those segments are an exact decodable tiling
    /// with exact zone metadata — for every generator, a rotated nest
    /// order, and every shard spec.
    #[test]
    fn fresh_segments_decode_to_the_tuple_store(seed in any::<u64>()) {
        for w in all_generators(seed) {
            let arity = w.flat.schema().arity();
            let mut rotated: Vec<usize> = (0..arity).collect();
            rotated.rotate_left(1.min(arity.saturating_sub(1)));
            let orders = [
                NestOrder::identity(arity),
                NestOrder::new(rotated, arity).unwrap(),
            ];
            for order in &orders {
                for spec in specs_for(&w, order) {
                    let sharded =
                        ShardedCanonical::from_flat(&w.flat, order.clone(), spec.clone())
                            .unwrap();
                    for s in 0..sharded.shard_count() {
                        let tuples = sharded.shard(s).relation().tuples();
                        assert_exact_tiling(tuples, sharded.shard_segments(s));
                        prop_assert_eq!(
                            sharded.shard_segments(s).covered_rows(),
                            tuples.len()
                        );
                    }
                }
            }
        }
    }

    /// Zone-map soundness: a segment that does not `admit` a probe set
    /// on some attribute contains **no** tuple intersecting it there —
    /// skipping it can never lose an answer. Probes mix values drawn
    /// from the data with one atom past the data's maximum.
    #[test]
    fn skipped_segments_hold_no_matching_tuple(seed in any::<u64>()) {
        for w in all_generators(seed) {
            let arity = w.flat.schema().arity();
            let order = NestOrder::identity(arity);
            let sharded = ShardedCanonical::from_flat(
                &w.flat,
                order.clone(),
                ShardSpec::hash(3).unwrap(),
            )
            .unwrap();
            for a in 0..arity {
                let mut atoms: Vec<Atom> = w.flat.rows().map(|r| r[a]).collect();
                atoms.sort_unstable();
                atoms.dedup();
                let mut picks: Vec<Atom> = atoms
                    .iter()
                    .step_by((atoms.len() / 3).max(1))
                    .copied()
                    .collect();
                picks.push(Atom(atoms.last().expect("workloads are non-empty").id() + 1));
                picks.sort_unstable();
                picks.dedup();
                let probes = ValueSet::new(picks).unwrap();
                for s in 0..sharded.shard_count() {
                    let tuples = sharded.shard(s).relation().tuples();
                    for (range, seg) in sharded.shard_segments(s).ranges() {
                        if seg.admits(a, &probes) {
                            continue;
                        }
                        for t in &tuples[range] {
                            let hit = t.components()[a]
                                .as_slice()
                                .iter()
                                .any(|v| probes.as_slice().binary_search(v).is_ok());
                            prop_assert!(
                                !hit,
                                "{}: skipped segment of shard {s} holds a match on attr {a}",
                                w.label
                            );
                        }
                    }
                }
            }
        }
    }

    /// §4 maintenance schedules: whatever interleaving of point ops,
    /// incremental batches and rebuilding batches a shard has absorbed,
    /// its tuple vector is exactly the vector the nest kernel emits for
    /// its rows — same tuples, same order — and its segments are an
    /// exact tiling of that vector (`verify` re-derives both, plus the
    /// routing and merge invariants).
    #[test]
    fn maintenance_keeps_freshness_honest(seed in any::<u64>()) {
        for w in all_generators(seed) {
            let arity = w.flat.schema().arity();
            let order = NestOrder::identity(arity);
            let ops = workload::op_trace(&w, 60, 60, seed ^ 0x2e);
            for spec in [ShardSpec::hash(1).unwrap(), ShardSpec::hash(4).unwrap()] {
                let mut sharded =
                    ShardedCanonical::from_flat(&w.flat, order.clone(), spec.clone())
                        .unwrap();
                // A small tiling target so repairs cross, empty and
                // split segments at property-test scale.
                sharded.set_segment_rows(2 + (seed % 5) as usize);
                // Deal the trace out in steps of 1 (a point op), 7 (an
                // incremental batch) and, once, everything left at the
                // three-quarter mark (large enough to rebuild).
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
                            sharded.apply_batch_auto(batch).unwrap();
                        }
                    }
                    for s in 0..sharded.shard_count() {
                        let shard = sharded.shard(s);
                        let rebuilt = NestKernel::new()
                            .canonical_of_flat(&shard.relation().expand(), &order);
                        prop_assert_eq!(
                            shard.relation().tuples(),
                            rebuilt.tuples(),
                            "{} {:?}: shard {} is not the kernel's vector after step {}",
                            w.label, spec, s, step
                        );
                        assert_exact_tiling(shard.relation().tuples(), sharded.shard_segments(s));
                    }
                }
                sharded.verify().unwrap();
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
            t.as_tuple()
                .components()
                .iter()
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
