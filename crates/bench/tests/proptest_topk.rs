//! Property tests for the PR-5 query surface: the streaming **top-k**
//! operator and **shard-pruned** scans.
//!
//! * `ORDER BY + LIMIT k` via the bounded-heap top-k must be
//!   tuple-identical to a stable full sort followed by truncation —
//!   ties included — across **all** the `nf2-workload` generators,
//!   shard counts {1, 2, 7}, both directions, every attribute, at the
//!   algebra level (raw atom streams off the sharded store) *and*
//!   through the full SQL surface (`ORDER BY` over interned strings).
//! * Pruned scans must answer exactly like unpruned scans: routing a
//!   selection on the outermost nest attribute to its shard subset may
//!   skip work, never rows.
//!
//! Deterministic under the vendored proptest seeds (CI pins
//! `PROPTEST_RNG_SEED=0`).

use proptest::prelude::*;

use nf2_algebra::stream::{filter_box, RelStream, SortDir, TupleOrder};
use nf2_algebra::{Env, Expr};
use nf2_core::nest::canonical_of_flat;
use nf2_core::schema::NestOrder;
use nf2_core::shard::{ShardSpec, ShardedCanonical};
use nf2_core::tuple::{NfTuple, TupleView, ValueSet};
use nf2_core::value::Atom;
use nf2_query::Engine;
use nf2_storage::NfTable;
use nf2_workload as workload;

/// Stable sort-then-truncate oracle over an in-order tuple list, using
/// the operator's own key/tie rules.
fn sort_truncate(tuples: &[NfTuple], order: &TupleOrder, k: usize) -> Vec<NfTuple> {
    let mut keyed: Vec<(Atom, usize, NfTuple)> = tuples
        .iter()
        .enumerate()
        .map(|(i, t)| (order.key_of(t.as_ref()), i, t.clone()))
        .collect();
    keyed.sort_by(|(ka, sa, _), (kb, sb, _)| order.cmp_keys(*ka, *kb).then(sa.cmp(sb)));
    keyed.into_iter().take(k).map(|(_, _, t)| t).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Algebra level: top-k over the sharded store's concatenated scan
    /// ≡ stable sort + truncate, for every generator × shard count ×
    /// attribute × direction × k.
    #[test]
    fn top_k_equals_sort_truncate_on_all_generators(seed in any::<u64>()) {
        for w in workload::all_generators(seed) {
            let arity = w.flat.schema().arity();
            let order = NestOrder::identity(arity);
            for shards in [1usize, 2, 7] {
                let sharded = ShardedCanonical::from_flat(
                    &w.flat,
                    order.clone(),
                    ShardSpec::hash(shards).unwrap(),
                )
                .unwrap();
                // The exact stream a table scan yields: per-shard
                // tuples, back to back.
                let shard_relations: Vec<_> = (0..sharded.shard_count())
                    .map(|i| sharded.shard(i).into_relation())
                    .collect();
                let stream_tuples: Vec<NfTuple> = shard_relations
                    .iter()
                    .flat_map(|rel| rel.tuples().iter().cloned())
                    .collect();
                for attr in 0..arity {
                    for dir in [SortDir::Asc, SortDir::Desc] {
                        let tuple_order = TupleOrder::by_atom_id(attr, dir);
                        for k in [0usize, 1, 3, stream_tuples.len(), stream_tuples.len() + 5] {
                            let parts: Vec<RelStream<'_>> =
                                shard_relations.iter().map(RelStream::scan).collect();
                            let got: Vec<NfTuple> = RelStream::concat(
                                w.flat.schema().clone(),
                                parts,
                            )
                            .top_k_by(vec![tuple_order.clone()], k)
                            .map(TupleView::into_owned)
                            .collect();
                            prop_assert_eq!(
                                &got,
                                &sort_truncate(&stream_tuples, &tuple_order, k),
                                "{} shards {} attr {} dir {:?} k {}",
                                w.label, shards, attr, dir, k
                            );
                        }
                    }
                }
            }
        }
    }

    /// SQL level: `ORDER BY <outer> [DESC] LIMIT k` through an engine
    /// (strings, dictionary comparator, compiled plans) ≡ the bare
    /// `ORDER BY` stream truncated, per shard count.
    #[test]
    fn sql_order_by_limit_matches_truncated_sort(seed in any::<u64>()) {
        for w in workload::all_generators(seed).into_iter().step_by(2) {
            let names: Vec<String> = w.flat.schema().attr_names().map(str::to_owned).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let rows: Vec<Vec<String>> = w
                .flat
                .rows()
                .map(|r| r.iter().map(|a| format!("v{:06}", a.id())).collect())
                .collect();
            for shards in [1usize, 2, 7] {
                let engine = Engine::builder().shards(shards).build().unwrap();
                let row_refs: Vec<Vec<&str>> =
                    rows.iter().map(|r| r.iter().map(String::as_str).collect()).collect();
                let table = NfTable::bulk_load_strs_sharded(
                    "t",
                    &refs,
                    row_refs,
                    NestOrder::identity(names.len()),
                    ShardSpec::hash(shards).unwrap(),
                    engine.dict().clone(),
                )
                .unwrap();
                engine.attach_table(table).unwrap();
                let session = engine.session();
                let outer = names.last().unwrap();
                for dir in ["", " DESC"] {
                    let full: Vec<NfTuple> = session
                        .query(&format!("SELECT * FROM t ORDER BY {outer}{dir}"))
                        .unwrap()
                        .map(|t| t.into_owned())
                        .collect();
                    for k in [0usize, 1, 2, 5, full.len() + 3] {
                        let got: Vec<NfTuple> = session
                            .query(&format!(
                                "SELECT * FROM t ORDER BY {outer}{dir} LIMIT {k}"
                            ))
                            .unwrap()
                            .map(|t| t.into_owned())
                            .collect();
                        let want: Vec<NfTuple> =
                            full.iter().take(k).cloned().collect();
                        prop_assert_eq!(
                            &got, &want,
                            "{} shards {} dir {:?} k {}", w.label, shards, dir, k
                        );
                    }
                }
            }
        }
    }

    /// Pruned scans ≡ unpruned scans: a selection on the outermost nest
    /// attribute filtered over only the shards the router keeps for its
    /// values yields the same `R*` as the strict evaluator over the whole
    /// relation, for every generator × spec and both predicate shapes
    /// (equality and IN).
    #[test]
    fn pruned_scans_equal_unpruned_scans(seed in any::<u64>()) {
        for w in workload::all_generators(seed) {
            let arity = w.flat.schema().arity();
            let order = NestOrder::identity(arity);
            let outer = order.attr_at(arity - 1);
            let outer_name: String = w
                .flat
                .schema()
                .attr_names()
                .nth(outer)
                .unwrap()
                .to_owned();
            let whole = canonical_of_flat(&w.flat, &order);
            let mut env_strict = Env::new();
            env_strict.insert("t", whole.clone());
            // Values to select: a present value, a pair, and an absent one.
            let mut present: Vec<Atom> = w.flat.rows().map(|r| r[outer]).collect();
            present.sort_unstable();
            present.dedup();
            let value_sets: Vec<Vec<Atom>> = vec![
                vec![present[0]],
                present.iter().copied().take(2).collect(),
                vec![Atom(u32::MAX - 1)],
            ];
            for shards in [2usize, 7] {
                let sharded = ShardedCanonical::from_flat(
                    &w.flat,
                    order.clone(),
                    ShardSpec::hash(shards).unwrap(),
                )
                .unwrap();
                for values in &value_sets {
                    let expr = Expr::SelectBox {
                        input: Box::new(Expr::rel("t")),
                        constraints: vec![(outer_name.clone(), values.clone())],
                    };
                    let constraints = [(outer, ValueSet::new(values.clone()).unwrap())];
                    let kept: Vec<_> = sharded
                        .router()
                        .shards_for_values(values)
                        .into_iter()
                        .map(|s| sharded.shard(s).into_relation())
                        .collect();
                    let survivors = kept.iter().flat_map(|rel| {
                        RelStream::scan(rel).filter_map(|t| filter_box(t, &constraints))
                    });
                    let pruned = RelStream::new(w.flat.schema().clone(), Box::new(survivors))
                        .into_relation()
                        .unwrap();
                    let strict = expr.eval(&env_strict).unwrap();
                    prop_assert_eq!(
                        pruned.expand().rows().collect::<Vec<_>>(),
                        strict.expand().rows().collect::<Vec<_>>(),
                        "{} shards {} values {:?}",
                        w.label, shards, values
                    );
                }
            }
        }
    }
}
