//! Property tests pinning the sharded canonical store tuple-identical to
//! the unsharded canonical form — across **all** the `nf2-workload`
//! generators, shard counts {1, 4, 7}, and both routing modes (hash and
//! range), under the deterministic proptest seeds (CI pins
//! `PROPTEST_RNG_SEED=0`).
//!
//! This is the safety net behind `nf2-core::shard`'s claim that
//! value-routing on the outermost nest attribute `P(n−1)` is exact:
//! stages `0…n−2` of the canonical fold never cross `P(n−1)` values, and
//! the final `ν_{P(n−1)}` merge is associative, so per-shard canonical
//! forms always merge back to `ν_P(R*)` — whatever the data shape, the
//! shard count, or the routing function.

use proptest::prelude::*;

use nf2_core::bulk::{apply_batch, Op};
use nf2_core::maintenance::{CanonicalRelation, CostCounter};
use nf2_core::nest::canonical_of_flat;
use nf2_core::relation::RowBlock;
use nf2_core::schema::NestOrder;
use nf2_core::shard::{merged_tuple_count, ShardSpec, ShardedCanonical};
use nf2_core::value::Atom;
use nf2_storage::{NfTable, SharedDictionary};
use nf2_workload as workload;
use nf2_workload::Workload;

/// Every spec under test for one workload: shard counts {1, 4, 7} for
/// hash routing, plus range routing with boundaries drawn from the
/// workload's own outermost-attribute values (so several range shards
/// are actually populated).
fn specs_for(w: &Workload, order: &NestOrder) -> Vec<ShardSpec> {
    let mut specs = vec![
        ShardSpec::hash(1).unwrap(),
        ShardSpec::hash(4).unwrap(),
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
    if let (Some(first), Some(last)) = (values.first(), values.last()) {
        // A deliberately skewed range: everything below/above the data.
        specs.push(ShardSpec::range(vec![Atom(first.id().saturating_sub(1))]).unwrap());
        specs.push(ShardSpec::range(vec![Atom(last.id().saturating_add(1))]).unwrap());
    }
    specs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sharded ≡ unsharded canonical relation (tuple-identical) on every
    /// generator, for the identity order and a rotated order, across all
    /// shard counts and routing modes.
    #[test]
    fn sharded_equals_unsharded_on_all_generators(seed in any::<u64>()) {
        for w in workload::all_generators(seed) {
            let arity = w.flat.schema().arity();
            let mut rotated: Vec<usize> = (0..arity).collect();
            rotated.rotate_left(1.min(arity.saturating_sub(1)));
            let orders = [
                NestOrder::identity(arity),
                NestOrder::new(rotated, arity).unwrap(),
            ];
            for order in &orders {
                let unsharded = canonical_of_flat(&w.flat, order);
                for spec in specs_for(&w, order) {
                    let sharded =
                        ShardedCanonical::from_flat(&w.flat, order.clone(), spec.clone())
                            .unwrap();
                    prop_assert_eq!(
                        &sharded.to_relation(),
                        &unsharded,
                        "{} under {} with {:?}",
                        w.label,
                        order,
                        spec
                    );
                    prop_assert_eq!(sharded.flat_count(), w.flat.len() as u128);
                }
            }
        }
    }

    /// A cold build from a block — every row one to three times, in a
    /// shuffle — equals `from_flat` shard for shard, tuple for tuple,
    /// and merges to the unsharded form, on every spec; a bulk load of
    /// those rows counts each distinct row as one insert.
    #[test]
    fn a_cold_build_from_a_block_equals_from_flat_on_every_spec(seed in any::<u64>()) {
        for w in workload::all_generators(seed) {
            let schema = w.flat.schema().clone();
            let arity = schema.arity();
            let rows = workload::repeated_and_shuffled(&w, seed ^ 0x5EED);
            let block = RowBlock::from_rows(schema.clone(), rows.clone()).unwrap();
            let order = NestOrder::identity(arity);
            let unsharded = canonical_of_flat(&w.flat, &order);
            let names: Vec<&str> = schema.attr_names().collect();
            for spec in specs_for(&w, &order) {
                let from_block =
                    ShardedCanonical::from_rows(block.clone(), order.clone(), spec.clone()).unwrap();
                let from_flat =
                    ShardedCanonical::from_flat(&w.flat, order.clone(), spec.clone()).unwrap();
                for s in 0..from_block.shard_count() {
                    prop_assert!(
                        from_block.version(s).tuples().eq(from_flat.version(s).tuples()),
                        "{} {:?} shard {}",
                        w.label,
                        spec,
                        s
                    );
                }
                prop_assert_eq!(&from_block.to_relation(), &unsharded, "{} {:?}", w.label, spec);
                from_block.verify().unwrap();
                let table = NfTable::bulk_load_atoms_sharded(
                    schema.name(),
                    &names,
                    rows.clone(),
                    order.clone(),
                    spec.clone(),
                    SharedDictionary::new(),
                )
                .unwrap();
                prop_assert_eq!(table.stats().inserts, w.flat.len() as u64, "{} {:?}", w.label, spec);
                prop_assert_eq!(table.flat_count(), w.flat.len() as u128);
            }
        }
    }

    /// Routed §4 maintenance — keyed batches side by side and
    /// one-shard-per-op point writes — agrees with the unsharded
    /// incremental path on replayed op streams (duplicates, absent
    /// deletes and a row inserted and taken back included): equal
    /// summaries, every shard's vector the kernel's vector for its rows
    /// and its segments an exact tiling (`verify`), and the aggregate
    /// probe count exactly the per-shard sum. The identity order runs
    /// every spec and the point path; a rotated order runs the batch on
    /// one shard and on four (`proptest_core` and `proptest_kernel`
    /// sweep every nest order).
    #[test]
    fn sharded_batches_match_unsharded_maintenance(seed in any::<u64>()) {
        for w in workload::all_generators(seed) {
            let arity = w.flat.schema().arity();
            let ops: Vec<Op> = workload::with_noops(workload::op_trace(&w, 40, 40, seed ^ 0x18));
            let mut rotated: Vec<usize> = (0..arity).collect();
            rotated.rotate_left(1);
            for order in [NestOrder::identity(arity), NestOrder::new(rotated, arity).unwrap()] {
                let identity = order == NestOrder::identity(arity);
                let mut oracle = CanonicalRelation::from_flat(&w.flat, order.clone()).unwrap();
                let mut oracle_cost = CostCounter::new();
                let oracle_summary = apply_batch(&mut oracle, &ops, &mut oracle_cost).unwrap();
                let specs = if identity {
                    specs_for(&w, &order)
                } else {
                    vec![ShardSpec::hash(1).unwrap(), ShardSpec::hash(4).unwrap()]
                };
                for spec in specs {
                    let mut sharded =
                        ShardedCanonical::from_flat(&w.flat, order.clone(), spec.clone()).unwrap();
                    sharded.set_segment_rows(4);
                    let report = sharded.apply_batch(&ops).unwrap();
                    prop_assert_eq!(report.summary, oracle_summary, "{} {:?}", w.label, spec);
                    prop_assert_eq!(
                        &sharded.to_relation(),
                        oracle.relation(),
                        "{} {} {:?}",
                        w.label,
                        order,
                        spec
                    );
                    if sharded.shard_count() == 1 {
                        prop_assert_eq!(
                            sharded.shard(0).relation().tuples(),
                            oracle.relation().tuples()
                        );
                    }
                    let versions = sharded.versions();
                    prop_assert_eq!(
                        merged_tuple_count(sharded.router(), versions.iter().map(|v| &**v)),
                        oracle.tuple_count()
                    );
                    sharded.verify().unwrap();
                    let mut costs = vec![sharded.maintenance_cost()];
                    if identity {
                        let mut routed =
                            ShardedCanonical::from_flat(&w.flat, order.clone(), spec.clone())
                                .unwrap();
                        for op in &ops {
                            match op {
                                Op::Insert(row) => routed.insert(row.clone()).unwrap(),
                                Op::Delete(row) => routed.delete(row).unwrap(),
                            };
                        }
                        prop_assert_eq!(
                            &routed.to_relation(),
                            oracle.relation(),
                            "{} {:?} (point path)",
                            w.label,
                            spec
                        );
                        costs.push(routed.maintenance_cost());
                    }
                    for cost in costs {
                        let probe_sum: u64 =
                            cost.per_shard.iter().map(|c| c.candidate_probes).sum();
                        prop_assert_eq!(probe_sum, cost.total.candidate_probes);
                    }
                }
            }
        }
    }

    /// A string load interns in chunks under one lock each, and issues
    /// the atoms value-by-value `SharedDictionary::intern` does: over
    /// 2 500+ rows (three chunks or more) of every generator, each row
    /// one to three times in a shuffle, both dictionaries hold the same
    /// names at the same atoms, and the load holds what a load of the
    /// one-by-one atoms holds.
    #[test]
    fn a_string_load_interns_as_value_by_value_interning_does(seed in any::<u64>()) {
        let text = |atom: &Atom| format!("v{:x}", atom.0.wrapping_mul(0x9E37_79B9));
        for w in workload::all_generators(seed) {
            let schema = w.flat.schema();
            let mut rows = Vec::new();
            for round in 0.. {
                if rows.len() >= 2_500 {
                    break;
                }
                rows.extend(workload::repeated_and_shuffled(&w, seed ^ round));
            }
            let rows: Vec<Vec<String>> =
                rows.iter().map(|row| row.iter().map(text).collect()).collect();
            let (batched, single) = (SharedDictionary::new(), SharedDictionary::new());
            let atoms: Vec<Vec<Atom>> = rows
                .iter()
                .map(|row| row.iter().map(|value| single.intern(value)).collect())
                .collect();
            let names: Vec<&str> = schema.attr_names().collect();
            let order = NestOrder::identity(schema.arity());
            let spec = ShardSpec::hash(4).unwrap();
            let loaded = NfTable::bulk_load_strs_sharded(
                schema.name(),
                &names,
                rows.iter().map(|row| row.iter().map(String::as_str).collect()),
                order.clone(),
                spec.clone(),
                batched.clone(),
            )
            .unwrap();
            let reference =
                NfTable::bulk_load_atoms_sharded(schema.name(), &names, atoms, order, spec, single.clone())
                    .unwrap();
            prop_assert_eq!(batched.len(), single.len(), "{}", w.label);
            for id in 0..single.len() as u32 {
                prop_assert_eq!(batched.resolve(Atom(id)), single.resolve(Atom(id)), "{}", w.label);
            }
            prop_assert_eq!(batched.is_id_ordered(), single.is_id_ordered());
            prop_assert_eq!(loaded.snapshot().canonical(), reference.snapshot().canonical(), "{}", w.label);
        }
    }
}
