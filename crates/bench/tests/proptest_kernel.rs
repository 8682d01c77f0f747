//! Property tests pinning the single-pass nest kernel tuple-identical to
//! the legacy ν cascade — and, through Theorem 2, to literal pairwise
//! composition under random pick orders — across **all** the `nf2-workload`
//! generators, under the deterministic proptest seeds (CI pins
//! `PROPTEST_RNG_SEED=0`).
//!
//! This is the safety net behind routing every layer (bulk rebuilds,
//! storage bulk loads, the query NEST operator, the E8/E10/E14
//! experiments) through the kernel.

use proptest::prelude::*;

use nf2_core::bulk::{apply_batch, rebuild_batch};
use nf2_core::kernel::NestKernel;
use nf2_core::maintenance::{CanonicalRelation, CostCounter};
use nf2_core::nest::{canonical_of_flat, canonicalize, nest, nest_pairwise};
use nf2_core::relation::{NfRelation, RowBlock};
use nf2_core::schema::NestOrder;
use nf2_core::shard::{ShardSpec, ShardedCanonical};
use nf2_workload as workload;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The kernel is tuple-identical to the legacy fixpoint cascade on
    /// every workload generator, for every nest order of the schema.
    #[test]
    fn kernel_equals_legacy_on_all_generators(seed in any::<u64>()) {
        let mut kernel = NestKernel::new();
        for w in workload::all_generators(seed) {
            let arity = w.flat.schema().arity();
            for order in NestOrder::all(arity) {
                let fast = kernel.canonical_of_flat(&w.flat, &order);
                let slow = canonicalize(&NfRelation::from_flat(&w.flat), &order);
                prop_assert_eq!(&fast, &slow, "{} under {}", w.label, order);
                // Theorem 1 both ways: no information gained or lost.
                prop_assert_eq!(fast.expand(), w.flat.clone(), "{}", w.label);
            }
        }
    }

    /// The kernel's one flat entry drops repeated rows and ignores
    /// arrival order: a block holding every row one to three times, in
    /// a shuffle, nests to `canonical_of_flat`'s vector, tuple for tuple,
    /// and to the ν cascade's relation, on every generator and order.
    #[test]
    fn row_block_entry_ignores_repeats_and_order(seed in any::<u64>()) {
        let mut kernel = NestKernel::new();
        for w in workload::all_generators(seed) {
            let rows = workload::repeated_and_shuffled(&w, seed ^ 0xB10C);
            let block = RowBlock::from_rows(w.flat.schema().clone(), rows).unwrap();
            for order in NestOrder::all(w.flat.schema().arity()) {
                let via_block = kernel.canonical_of_rows(&block, &order);
                let via_flat = canonical_of_flat(&w.flat, &order);
                prop_assert_eq!(via_block.tuples(), via_flat.tuples(), "{} under {}", w.label, order);
                let cascade = canonicalize(&NfRelation::from_flat(&w.flat), &order);
                prop_assert_eq!(&via_block, &cascade, "{} under {}", w.label, order);
            }
        }
    }

    /// Theorem 2 closes the loop: the kernel's per-attribute fixpoints
    /// also equal literal pairwise composition under random pick orders.
    /// (Pairwise composition is quadratic, so this leg runs on the
    /// smaller generator instances only.)
    #[test]
    fn kernel_nest_equals_pairwise_composition(seed in any::<u64>(), pick_seed in any::<u64>()) {
        let mut kernel = NestKernel::new();
        let small = vec![
            workload::university(5, 2, 6, 2, 3, seed),
            workload::uniform(18, &[5, 5], seed),
            workload::anti_correlated(6, 2, seed),
        ];
        for w in small {
            let base = NfRelation::from_flat(&w.flat);
            for attr in 0..w.flat.schema().arity() {
                let via_kernel = kernel.nest_once(&base, attr);
                prop_assert_eq!(&via_kernel, &nest(&base, attr), "{}", w.label);
                let mut state = pick_seed | 1;
                let pairwise = nest_pairwise(&base, attr, move |k| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) as usize % k
                });
                prop_assert_eq!(&via_kernel, &pairwise, "{} attr {}", w.label, attr);
            }
        }
    }

    /// The kernel-backed re-nest oracle agrees with pure §4 incremental
    /// maintenance on replayed op traces (no-ops included) as a vector,
    /// and so does the keyed batch, whose regroups one kernel instance —
    /// the shard's — serves batch after batch.
    #[test]
    fn kernel_rebuild_arm_matches_incremental(seed in any::<u64>(), ops in 8usize..40) {
        let w = workload::university(6 + (seed % 7) as usize, 2, 8, 2, 3, seed);
        let trace = workload::with_noops(workload::op_trace(&w, ops, 35, seed ^ 0xABCD));
        // The three rotations: every attribute once in every role
        // (`proptest_core` sweeps all orders on smaller relations).
        for shift in 0..3 {
            let order = NestOrder::new((0..3).map(|i| (i + shift) % 3).collect(), 3).unwrap();
            let base = CanonicalRelation::from_flat(&w.flat, order.clone()).unwrap();

            let mut incremental = base.clone();
            let mut cost = CostCounter::new();
            let summary = apply_batch(&mut incremental, &trace, &mut cost).unwrap();
            let renested = rebuild_batch(&base, &trace).unwrap();
            prop_assert_eq!(renested.relation().tuples(), incremental.relation().tuples());

            for chunk in [trace.len(), 5] {
                let mut keyed =
                    ShardedCanonical::from_flat(&w.flat, order.clone(), ShardSpec::single())
                        .unwrap();
                let mut total = nf2_core::bulk::BatchSummary::default();
                for (i, batch) in trace.chunks(chunk).enumerate() {
                    // Each batch names its no-ops by their place in it;
                    // shifted, they name their place in the trace.
                    let mut part = keyed.apply_batch(batch).unwrap().summary;
                    for at in &mut part.noop_positions {
                        *at += i * chunk;
                    }
                    total += part;
                }
                prop_assert_eq!(total, summary);
                prop_assert_eq!(
                    keyed.shard(0).relation().tuples(),
                    incremental.relation().tuples(),
                    "order {} in batches of {}", &order, chunk
                );
                keyed.verify().unwrap();
            }
        }
    }
}
