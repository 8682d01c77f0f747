//! Batch updates: three procedures, one result.
//!
//! The paper proves per-operation cost independent of `|R*|`
//! (Theorem A-4), which makes §4 replay unbeatable for small batches;
//! a batch that rewrites most of the relation amortises one re-nest
//! better than thousands of recons cascades. The engine runs neither
//! against the whole relation: Def. 4 makes every nest before the last
//! local to one value of the last-nested attribute, so a *keyed* batch
//! replays each outer key's ops on that key's slice and regroups once.
//! This example times all three side by side, asserts they agree tuple
//! for tuple, and rounds off with `STATS` from the query layer.
//!
//! Run with: `cargo run --release --example batch_updates`

use std::time::Instant;

use nf2::core::bulk::{apply_batch, rebuild_batch};
use nf2::core::maintenance::{CanonicalRelation, CostCounter};
use nf2::core::shard::ShardedCanonical;
use nf2::prelude::*;
use nf2::workload;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let w = workload::university(150, 3, 30, 2, 8, 91);
    let base_rows = w.flat.len();
    let order = NestOrder::identity(3);
    let base = CanonicalRelation::from_flat(&w.flat, order.clone())?;
    println!(
        "base relation: {} flat rows in {} NF² tuples\n",
        base_rows,
        base.tuple_count()
    );
    println!(
        "{:>6} | {:>12} | {:>10} | {:>10} | regrouped",
        "batch", "incremental", "re-nest", "keyed"
    );
    println!("{}", "-".repeat(62));

    for pct in [1usize, 5, 20, 50, 100] {
        let ops = workload::op_trace(&w, (base_rows * pct / 100).max(1), 40, pct as u64);

        let mut incremental = base.clone();
        let mut cost = CostCounter::new();
        let start = Instant::now();
        apply_batch(&mut incremental, &ops, &mut cost)?;
        let t_inc = start.elapsed();

        let start = Instant::now();
        let rebuilt = rebuild_batch(&base, &ops)?;
        let t_re = start.elapsed();

        // One shard, so the postings the keyed read phase asks exist.
        let mut keyed = ShardedCanonical::from_flat(&w.flat, order.clone(), ShardSpec::single())?;
        let start = Instant::now();
        let report = keyed.apply_batch(&ops)?;
        let t_keyed = start.elapsed();

        let vector = incremental.relation().tuples();
        assert_eq!(vector, rebuilt.relation().tuples(), "replay ≡ re-nest");
        assert_eq!(vector, keyed.shard(0).relation().tuples(), "replay ≡ keyed");

        println!(
            "{:>5}% | {:>10}µs | {:>8}µs | {:>8}µs | {} of {} tuples",
            pct,
            t_inc.as_micros(),
            t_re.as_micros(),
            t_keyed.as_micros(),
            report.tuples_regrouped,
            base.tuple_count()
        );
    }

    // The same trade is visible through the DML: STATS exposes the
    // accumulated §4 costs.
    let engine = nf2::query::Engine::new();
    let mut session = engine.session();
    session.run("CREATE TABLE sc (Student, Course) NEST ORDER (Student, Course)")?;
    let mut insert = session.prepare("INSERT INTO sc VALUES (?, ?)")?;
    for (s, c) in [("s1", "c1"), ("s2", "c1"), ("s1", "c2"), ("s3", "c3")] {
        insert.execute(&mut session, &[s, c])?;
    }
    session.run("DELETE FROM sc WHERE Student = 's3'")?;
    println!("\n{}", session.run("STATS sc")?.to_text());
    Ok(())
}
