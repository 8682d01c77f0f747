//! Checked-plan execution is shard-invariant in `R*`: the same random
//! workload loaded into a 1-shard and a 4-shard engine answers every
//! query with the same flat rows and counts. A listing of NF² tuples
//! may differ — a 4-shard engine holds a tuple whose `C` set spans
//! shards as one tuple per shard — so `LIMIT k` is held to each
//! engine's own full result.
//!
//! In debug builds (and under `NF2_VERIFY=1` in release) every plan
//! built here has already passed the rewrite-soundness gate and the
//! physical checker, so this doubles as an execution-level test of the
//! verified plans — in particular that shard-pruned scans (legal only
//! on the routing attribute, which the checker enforces) never drop
//! tuples relative to the unsharded engine.

use std::collections::BTreeSet;

use proptest::prelude::*;

use nf2_core::relation::NfRelation;
use nf2_core::tuple::FlatTuple;
use nf2_core::value::Atom;
use nf2_query::{Engine, Output, QueryError};

/// A canonical, order-insensitive digest of an [`Output`] for
/// cross-engine comparison (row order may legitimately differ between
/// shard layouts; tuple *sets* may not).
#[derive(Debug, PartialEq, Eq)]
enum Digest {
    Rows(BTreeSet<FlatTuple>),
    Count(u128),
    Affected(usize),
    Message(String),
}

fn digest(output: Output) -> Digest {
    match output {
        Output::Relation { relation, .. } => Digest::Rows(row_set(&relation)),
        Output::Count(n) => Digest::Count(n),
        Output::Affected(n) => Digest::Affected(n),
        Output::Message(m) => Digest::Message(m),
    }
}

/// The flat rows of a relation, as a set.
fn row_set(relation: &NfRelation) -> BTreeSet<FlatTuple> {
    relation.expand().rows().map(<[Atom]>::to_vec).collect()
}

/// The NF² tuple count and flat rows of a relation output.
fn tuples_and_rows(output: Output) -> (usize, BTreeSet<FlatTuple>) {
    match output {
        Output::Relation { relation, .. } => (relation.tuple_count(), row_set(&relation)),
        other => panic!("expected a relation, got {other:?}"),
    }
}

fn build_engine(shards: usize, script: &str) -> Engine {
    let engine = Engine::builder().shards(shards).build().unwrap();
    engine.session().run_script(script).unwrap();
    engine
}

fn run(engine: &mut Engine, sql: &str) -> Result<Output, QueryError> {
    engine.session().run(sql)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn rows_are_shard_invariant_and_limit_keeps_k_of_each_engines_own_tuples(
        t_rows in proptest::collection::vec((0u8..4, 0u8..3, 0u8..3), 1..24),
        u_rows in proptest::collection::vec((0u8..3, 0u8..3), 1..10),
        probe in 0u8..3,
        limit in 1usize..4,
    ) {
        // t(A, B, C): identity nest order, so C = P(n−1) routes shards.
        // u(C, D) joins t on C.
        let mut script = String::from("CREATE TABLE t (A, B, C);\nCREATE TABLE u (C, D);\n");
        for (a, b, c) in &t_rows {
            script.push_str(&format!("INSERT INTO t VALUES ('a{a}', 'b{b}', 'c{c}');\n"));
        }
        for (c, d) in &u_rows {
            script.push_str(&format!("INSERT INTO u VALUES ('c{c}', 'd{d}');\n"));
        }

        let mut engines: Vec<Engine> = [1, 4]
            .iter()
            .map(|&shards| build_engine(shards, &script))
            .collect();

        let queries = [
            "SELECT * FROM t".to_string(),
            // Routing-attribute predicates: pruned on the 4-shard legs.
            format!("SELECT * FROM t WHERE C = 'c{probe}'"),
            format!("SELECT A, C FROM t WHERE C IN ('c0', 'c{probe}')"),
            format!("SELECT COUNT(*) FROM t WHERE C = 'c{probe}'"),
            // Non-routing predicate + full ordered result.
            format!("SELECT * FROM t WHERE A = 'a{probe}' ORDER BY C DESC"),
            format!("SELECT COUNT(DISTINCT B) FROM t WHERE C = 'c{probe}'"),
            format!("SELECT * FROM t JOIN u WHERE C = 'c{probe}'"),
        ];
        for sql in &queries {
            let mut digests = engines
                .iter_mut()
                .map(|e| run(e, sql).map(digest));
            let reference = digests.next().unwrap();
            for (i, d) in digests.enumerate() {
                match (&reference, &d) {
                    (Ok(a), Ok(b)) => prop_assert_eq!(
                        a, b, "{} diverged on engine #{}", sql, i + 1
                    ),
                    (Err(_), Err(_)) => {}
                    _ => prop_assert!(false, "{} errored on some engines only", sql),
                }
            }
        }

        // Top-k: each engine keeps `limit` of the tuples its own full
        // result lists (or all of them), and only rows that result holds.
        let full = format!("SELECT * FROM t WHERE A = 'a{probe}' ORDER BY C DESC");
        let topk = format!("{full} LIMIT {limit}");
        for engine in &mut engines {
            let (listed, all_rows) = tuples_and_rows(run(engine, &full).unwrap());
            let (kept, kept_rows) = tuples_and_rows(run(engine, &topk).unwrap());
            prop_assert_eq!(kept, listed.min(limit), "{}", &topk);
            prop_assert!(kept_rows.is_subset(&all_rows), "{}", &topk);
        }
    }
}
