//! Streaming result cursors.
//!
//! A [`Cursor`] is what SELECT execution hands back on the new API: an
//! iterator of NF² tuples pulled through `nf2-algebra`'s streaming
//! evaluator over the engine's tables. Tuples surface as soon as the
//! scan reaches them — the first tuple of a full-table SELECT costs one
//! probe, not a materialized result relation (the storage scans count
//! probes, which is how the tests pin this down). A σ and streaming π
//! directly over a scan run inside it as one step
//! (`nf2_storage::TableScan::located`) that writes its output tuples
//! into blocks of 1, 2, 4, … up to 64, so a cursor dropped after `n`
//! pulls has had fewer than `2n` built, and under `LIMIT k` exactly
//! `k`. Only inherently blocking operators buffer more: a join's build
//! side, and a projection the plan cannot prove fixed (Def. 7) — one
//! that drops only attributes its selection pins to one value streams
//! too.

use std::sync::Arc;

use nf2_algebra::stream::RelStream;
use nf2_core::relation::{NfRelation, RowBlock};
use nf2_core::schema::Schema;
use nf2_core::tuple::{FlatTuple, TupleView};

use crate::exec::QueryError;

/// A streaming SELECT result: yields [`TupleView`]s in pipeline order —
/// shared views into pinned shard snapshots where no operator had to
/// rewrite a tuple, and into the blocks a located σ/π step wrote where
/// one did. Its `size_hint` is exact where the step's is (every located
/// tuple passes σ), so collecting it sizes the vector once.
///
/// The cursor *owns* the shard-version snapshots it streams over (the
/// statement pinned them at build time), so it is `'static`: it keeps
/// yielding the epoch-consistent result even while concurrent writers
/// publish new shard versions — or drop the table outright.
#[derive(Debug)]
pub struct Cursor<'s> {
    stream: RelStream<'s>,
}

impl<'s> Cursor<'s> {
    /// Wraps a stream (crate-internal: cursors are produced by sessions
    /// and prepared statements).
    pub(crate) fn new(stream: RelStream<'s>) -> Self {
        Cursor { stream }
    }

    /// The result schema.
    pub fn schema(&self) -> &Arc<Schema> {
        self.stream.schema()
    }

    /// Adapts the cursor into a stream of **flat** (1NF) rows: each NF²
    /// tuple is expanded as it arrives, one rectangle at a time.
    pub fn flat_rows(self) -> FlatRows<'s> {
        FlatRows {
            rows: RowBlock::with_capacity(self.stream.schema().clone(), 0),
            stream: self.stream,
            at: 0,
        }
    }

    /// Drains the cursor into a materialized relation (what the
    /// compatibility `run()` path does before rendering).
    pub fn into_relation(self) -> Result<NfRelation, QueryError> {
        Ok(self.stream.into_relation()?)
    }

    /// Counts the flat rows (`|R*|`) the cursor represents without
    /// materializing any of them.
    pub fn flat_count(self) -> u128 {
        self.stream.flat_count()
    }
}

impl<'s> Iterator for Cursor<'s> {
    type Item = TupleView<'s>;

    fn next(&mut self) -> Option<TupleView<'s>> {
        self.stream.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.stream.size_hint()
    }
}

/// Flat-row adapter over a [`Cursor`]; see [`Cursor::flat_rows`].
///
/// Buffers exactly one NF² tuple's expansion at a time, in one block it
/// refills for each tuple.
#[derive(Debug)]
pub struct FlatRows<'s> {
    stream: RelStream<'s>,
    /// The expansion of the tuple being read.
    rows: RowBlock,
    /// The next row of `rows` to yield.
    at: usize,
}

impl Iterator for FlatRows<'_> {
    type Item = FlatTuple;

    fn next(&mut self) -> Option<FlatTuple> {
        while self.at == self.rows.len() {
            let tuple = self.stream.next()?;
            self.rows.clear();
            self.at = 0;
            self.rows
                .push_expansion(tuple.as_ref())
                .expect("a result tuple has its schema's arity");
        }
        self.at += 1;
        Some(self.rows.row(self.at - 1).to_vec())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn engine() -> Engine {
        let engine = Engine::new();
        engine
            .session()
            .run_script(
                "CREATE TABLE sc (Student, Course);
                 INSERT INTO sc VALUES ('s1','c1'), ('s2','c1'), ('s1','c2');",
            )
            .unwrap();
        engine
    }

    #[test]
    fn cursor_yields_zero_copy_tuples_on_full_scans() {
        let engine = engine();
        let session = engine.session();
        let mut cursor = session.query("SELECT * FROM sc").unwrap();
        assert_eq!(
            cursor.schema().attr_names().collect::<Vec<_>>(),
            vec!["Student", "Course"]
        );
        let first = cursor.next().unwrap();
        assert!(
            first.is_zero_copy(),
            "full scans share snapshot tuples, no clone"
        );
    }

    #[test]
    fn cursor_survives_concurrent_mutation_and_drop() {
        let engine = engine();
        let mut cursor = engine.session().query("SELECT * FROM sc").unwrap();
        let first = cursor.next().unwrap().into_owned();
        // Mutate and then drop the table out from under the cursor: the
        // pinned snapshot keeps the statement's epoch alive.
        engine
            .session()
            .run_script("DELETE FROM sc WHERE Student = 's1'; DROP TABLE sc;")
            .unwrap();
        // The 3 flat rows canonicalize to 2 NF² tuples; one was already
        // consumed, and the pinned epoch still sees the other.
        let rest: Vec<_> = cursor.collect();
        assert_eq!(rest.len(), 1, "snapshot unaffected by delete + drop");
        assert_eq!(first.arity(), 2);
    }

    #[test]
    fn flat_rows_expand_tuple_by_tuple() {
        let engine = engine();
        let session = engine.session();
        let rows: Vec<FlatTuple> = session
            .query("SELECT * FROM sc")
            .unwrap()
            .flat_rows()
            .collect();
        assert_eq!(rows.len(), 3);
        let counted = session.query("SELECT * FROM sc").unwrap().flat_count();
        assert_eq!(counted, 3);
    }

    #[test]
    fn cursor_matches_materialized_relation() {
        let engine = engine();
        let collected = {
            let session = engine.session();
            session
                .query("SELECT Course FROM sc WHERE Student = 's1'")
                .unwrap()
                .into_relation()
                .unwrap()
        };
        let mut session = engine.session();
        match session
            .run("SELECT Course FROM sc WHERE Student = 's1'")
            .unwrap()
        {
            crate::exec::Output::Relation { relation, .. } => assert_eq!(relation, collected),
            other => panic!("unexpected {other:?}"),
        }
    }
}
