//! Outputs and errors.
//!
//! Statement execution itself lives in [`crate::engine`] (the
//! [`crate::Session`] type); this module keeps the pieces every
//! layer shares — [`Output`], [`QueryError`] — and the statement-level
//! test suite, which runs through an [`crate::Engine`] and one held
//! session. A relation [`Output`] builds no text until displayed.

use std::fmt;

use crate::parser::ParseError;

/// Errors from statement execution.
///
/// Marked `#[non_exhaustive]`: new failure modes (parameter binding,
/// plan invalidation, …) may be added without a breaking release —
/// match with a wildcard arm. Wrapped layer errors are chained through
/// [`std::error::Error::source`].
#[derive(Debug)]
#[non_exhaustive]
pub enum QueryError {
    /// Parsing failed.
    Parse(ParseError),
    /// The referenced table does not exist.
    NoSuchTable(String),
    /// A table with the name already exists.
    TableExists(String),
    /// The model or storage layer rejected the operation.
    Storage(nf2_storage::StorageError),
    /// The model layer rejected the operation.
    Model(nf2_core::NfError),
    /// A statement was semantically invalid in context.
    Semantic(String),
    /// A statement with `?` placeholders was executed without binding
    /// them (prepare it instead).
    Unbound {
        /// Number of unbound placeholders.
        count: usize,
    },
    /// A prepared statement was executed with the wrong number of
    /// parameters.
    ParamCount {
        /// Number of parameters the statement declares.
        expected: usize,
        /// Number of values supplied.
        got: usize,
    },
    /// The static plan checker rejected a compiled plan (see
    /// `README.md` § Plan verification). This always indicates a planner
    /// or optimizer bug, never bad user input.
    Verify(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse(e) => write!(f, "{e}"),
            QueryError::NoSuchTable(n) => write!(f, "no such table: {n}"),
            QueryError::TableExists(n) => write!(f, "table already exists: {n}"),
            QueryError::Storage(e) => write!(f, "{e}"),
            QueryError::Model(e) => write!(f, "{e}"),
            QueryError::Semantic(m) => write!(f, "{m}"),
            QueryError::Unbound { count } => write!(
                f,
                "statement has {count} unbound ?-parameter(s); prepare and bind it"
            ),
            QueryError::ParamCount { expected, got } => write!(
                f,
                "statement declares {expected} parameter(s), {got} value(s) bound"
            ),
            QueryError::Verify(m) => write!(f, "plan verification failed: {m}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Parse(e) => Some(e),
            QueryError::Storage(e) => Some(e),
            QueryError::Model(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for QueryError {
    fn from(e: ParseError) -> Self {
        QueryError::Parse(e)
    }
}
impl From<nf2_storage::StorageError> for QueryError {
    fn from(e: nf2_storage::StorageError) -> Self {
        QueryError::Storage(e)
    }
}
impl From<nf2_core::NfError> for QueryError {
    fn from(e: nf2_core::NfError) -> Self {
        QueryError::Model(e)
    }
}

/// Result of executing one statement.
///
/// A relation output holds its relation and the dictionary that names
/// its atoms, and renders its table
/// ([`render_nf`](nf2_core::display::render_nf)) only when displayed;
/// the dictionary never renames an atom, so the text is the one it had
/// at execution. Outputs compare as variant and text, relations also as
/// sets of NF² tuples; `Debug` leaves the dictionary out.
pub enum Output {
    /// A message (DDL acknowledgements, table lists).
    Message(String),
    /// Number of rows affected by a mutation.
    Affected(usize),
    /// An aggregate result (`COUNT(*)`, `COUNT(DISTINCT …)`).
    Count(u128),
    /// A query result relation.
    Relation {
        /// The result relation.
        relation: nf2_core::relation::NfRelation,
        /// The engine's dictionary, which names the relation's atoms.
        dict: nf2_storage::SharedDictionary,
    },
}

impl Output {
    /// The textual form of the output (its `Display`).
    pub fn to_text(&self) -> String {
        self.to_string()
    }
}

impl fmt::Display for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Output::Message(m) => f.write_str(m),
            Output::Affected(n) => write!(f, "{n} row(s) affected"),
            Output::Count(n) => write!(f, "{n}"),
            Output::Relation { relation, dict } => {
                f.write_str(&nf2_core::display::render_nf(relation, &dict.snapshot()))
            }
        }
    }
}

impl fmt::Debug for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Output::Message(m) => write!(f, "Message({m:?})"),
            Output::Affected(n) => write!(f, "Affected({n})"),
            Output::Count(n) => write!(f, "Count({n})"),
            Output::Relation { relation, .. } => write!(f, "Relation {{ relation: {relation:?} }}"),
        }
    }
}

impl PartialEq for Output {
    fn eq(&self, other: &Self) -> bool {
        let alike = match (self, other) {
            (Output::Relation { relation: a, .. }, Output::Relation { relation: b, .. }) => a == b,
            _ => std::mem::discriminant(self) == std::mem::discriminant(other),
        };
        alike && self.to_string() == other.to_string()
    }
}

impl Eq for Output {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Engine;

    fn seeded_db() -> Engine {
        let engine = Engine::new();
        engine
            .session()
            .run_script(
                "CREATE TABLE sc (Student, Course, Club) NEST ORDER (Student, Course, Club);\n\
             INSERT INTO sc VALUES ('s1','c1','b1'), ('s2','c1','b1'), ('s1','c2','b1');",
            )
            .unwrap();
        engine
    }

    #[test]
    fn create_insert_show_flow() {
        let engine = seeded_db();
        let mut db = engine.session();
        let out = db.run("SHOW sc").unwrap();
        let text = out.to_text();
        assert!(text.contains("Student"));
        assert!(engine.table("sc").unwrap().flat_count() == 3);
    }

    #[test]
    fn duplicate_create_fails() {
        let engine = seeded_db();
        let mut db = engine.session();
        assert!(matches!(
            db.run("CREATE TABLE sc (A)"),
            Err(QueryError::TableExists(_))
        ));
    }

    #[test]
    fn insert_counts_new_rows_only() {
        let engine = seeded_db();
        let mut db = engine.session();
        let out = db
            .run("INSERT INTO sc VALUES ('s1','c1','b1'), ('s9','c9','b9')")
            .unwrap();
        assert!(matches!(out, Output::Affected(1)));
    }

    #[test]
    fn select_with_predicate_and_projection() {
        let engine = seeded_db();
        let mut db = engine.session();
        let out = db
            .run("SELECT Course FROM sc WHERE Student = 's1'")
            .unwrap();
        match out {
            Output::Relation { relation, .. } => {
                assert_eq!(relation.expand().len(), 2, "s1 takes c1 and c2");
                assert_eq!(relation.arity(), 1);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_unknown_value_is_empty_not_error() {
        let engine = seeded_db();
        let mut db = engine.session();
        let out = db.run("SELECT * FROM sc WHERE Student = 'ghost'").unwrap();
        match out {
            Output::Relation { relation, .. } => assert!(relation.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_unknown_attr_is_error() {
        let engine = seeded_db();
        let mut db = engine.session();
        assert!(db.run("SELECT * FROM sc WHERE Nope = 's1'").is_err());
    }

    #[test]
    fn delete_with_partial_predicate() {
        let engine = seeded_db();
        let mut db = engine.session();
        let out = db.run("DELETE FROM sc WHERE Student = 's1'").unwrap();
        assert!(matches!(out, Output::Affected(2)));
        assert_eq!(engine.table("sc").unwrap().flat_count(), 1);
    }

    #[test]
    fn delete_everything_with_empty_where() {
        let engine = seeded_db();
        let mut db = engine.session();
        let out = db.run("DELETE FROM sc").unwrap();
        assert!(matches!(out, Output::Affected(3)));
        assert_eq!(engine.table("sc").unwrap().flat_count(), 0);
    }

    #[test]
    fn nest_and_unnest_are_ad_hoc() {
        let engine = seeded_db();
        let mut db = engine.session();
        let nested = db.run("NEST sc ON Student").unwrap();
        match nested {
            Output::Relation { relation, .. } => {
                assert!(relation.tuple_count() <= engine.table("sc").unwrap().tuple_count());
            }
            other => panic!("unexpected {other:?}"),
        }
        // The stored table is unchanged.
        assert_eq!(engine.table("sc").unwrap().flat_count(), 3);
        assert!(db.run("UNNEST sc ON Student").is_ok());
    }

    #[test]
    fn show_flat_renders_rows() {
        let engine = seeded_db();
        let mut db = engine.session();
        let out = db.run("SHOW FLAT sc").unwrap();
        let text = out.to_text();
        assert!(text.matches("s1").count() >= 2, "two s1 rows in R*: {text}");
    }

    #[test]
    fn tables_lists_catalog() {
        let engine = seeded_db();
        let mut db = engine.session();
        let out = db.run("TABLES").unwrap();
        assert!(out.to_text().contains("sc:"));
        db.run("DROP TABLE sc").unwrap();
        assert!(db.run("TABLES").unwrap().to_text().contains("no tables"));
    }

    #[test]
    fn stats_reports_realization_numbers() {
        let engine = seeded_db();
        let mut db = engine.session();
        db.run("SELECT * FROM sc WHERE Student = 's1'").unwrap();
        let text = db.run("STATS sc").unwrap().to_text();
        assert!(text.contains("3 flat rows"), "{text}");
        assert!(text.contains("compression"), "{text}");
        assert!(text.contains("recons calls"), "{text}");
        assert!(text.contains("3 inserts"), "{text}");
        assert!(db.run("STATS ghost").is_err());
    }

    #[test]
    fn drop_missing_table_errors() {
        let engine = Engine::new();
        let mut db = engine.session();
        assert!(matches!(
            db.run("DROP TABLE ghost"),
            Err(QueryError::NoSuchTable(_))
        ));
    }

    #[test]
    fn errors_display() {
        let e = QueryError::NoSuchTable("x".into());
        assert!(e.to_string().contains("no such table"));
    }

    #[test]
    fn relation_outputs_compare_by_tuples_and_text() {
        // The same atom ids under other names: equal relations, other text.
        let run = |student: &str, course: &str| {
            let engine = Engine::new();
            let mut db = engine.session();
            db.run("CREATE TABLE sc (Student, Course)").unwrap();
            db.run(&format!("INSERT INTO sc VALUES ('{student}','{course}')"))
                .unwrap();
            db.run("SELECT * FROM sc").unwrap()
        };
        let (ours, theirs) = (run("s1", "c1"), run("s2", "c2"));
        let (Output::Relation { relation: a, .. }, Output::Relation { relation: b, .. }) =
            (&ours, &theirs)
        else {
            panic!("unexpected {ours:?} {theirs:?}");
        };
        assert_eq!(a, b);
        assert_ne!(ours, theirs);
        assert_eq!(ours, run("s1", "c1"));
    }

    #[test]
    fn debug_does_not_walk_the_dictionary() {
        let engine = seeded_db();
        for i in 0..10_000 {
            engine.dict().intern(&format!("name{i}"));
        }
        let out = engine
            .session()
            .run("SELECT * FROM sc WHERE Student = 's1'")
            .unwrap();
        let debug = format!("{out:?}");
        assert!(debug.starts_with("Relation {"), "{debug}");
        assert!(debug.len() < 2_000, "{} bytes of Debug", debug.len());
    }
}

#[cfg(test)]
mod join_explain_tests {
    use super::*;
    use crate::engine::Engine;

    fn db_with_two_tables() -> Engine {
        let engine = Engine::new();
        engine
            .session()
            .run_script(
                "CREATE TABLE sc (Student, Course);
             INSERT INTO sc VALUES ('s1','c1'), ('s2','c1'), ('s1','c2');
             CREATE TABLE cp (Course, Prof);
             INSERT INTO cp VALUES ('c1','p1'), ('c2','p2');",
            )
            .unwrap();
        engine
    }

    #[test]
    fn select_join_matches_flat_join() {
        let engine = db_with_two_tables();
        let mut db = engine.session();
        let out = db.run("SELECT * FROM sc JOIN cp").unwrap();
        match out {
            Output::Relation { relation, .. } => {
                assert_eq!(relation.arity(), 3, "Student, Course, Prof");
                assert_eq!(relation.expand().len(), 3, "one row per sc row");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn select_join_with_predicate_and_projection() {
        let engine = db_with_two_tables();
        let mut db = engine.session();
        let out = db
            .run("SELECT Student FROM sc JOIN cp WHERE Prof = 'p1'")
            .unwrap();
        match out {
            Output::Relation { relation, .. } => {
                assert_eq!(relation.expand().len(), 2, "s1 and s2 take p1's course");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn join_with_missing_table_errors() {
        let engine = db_with_two_tables();
        let mut db = engine.session();
        assert!(matches!(
            db.run("SELECT * FROM sc JOIN ghost"),
            Err(QueryError::NoSuchTable(_))
        ));
    }

    #[test]
    fn explain_renders_plan_tree() {
        let engine = db_with_two_tables();
        let mut db = engine.session();
        let out = db
            .run("EXPLAIN SELECT Student FROM sc JOIN cp WHERE Prof = 'p1'")
            .unwrap();
        let text = out.to_text();
        assert!(text.contains("project [Student]"), "{text}");
        assert!(text.contains("select ["), "{text}");
        assert!(text.contains("natural-join"), "{text}");
        assert!(text.contains("scan sc"), "{text}");
        assert!(text.contains("scan cp"), "{text}");
    }

    #[test]
    fn explain_of_impossible_predicate() {
        let engine = db_with_two_tables();
        let mut db = engine.session();
        let out = db
            .run("EXPLAIN SELECT * FROM sc WHERE Student = 'ghost'")
            .unwrap();
        assert!(out.to_text().contains("empty result"));
    }

    #[test]
    fn explain_non_select_is_rejected_at_parse() {
        let engine = db_with_two_tables();
        let mut db = engine.session();
        assert!(db.run("EXPLAIN SHOW sc").is_err());
    }
}

#[cfg(test)]
mod transaction_tests {
    use crate::engine::Engine;
    use nf2_core::relation::NfRelation;

    fn db() -> Engine {
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

    fn snapshot(engine: &Engine) -> NfRelation {
        engine.table("sc").unwrap().snapshot().canonical()
    }

    #[test]
    fn rollback_restores_the_exact_relation() {
        let engine = db();
        let mut db = engine.session();
        let before = snapshot(&engine);
        db.run("BEGIN").unwrap();
        db.run("INSERT INTO sc VALUES ('s9','c9'), ('s9','c1')")
            .unwrap();
        db.run("DELETE FROM sc WHERE Student = 's1'").unwrap();
        db.run("UPDATE sc SET Course = 'c7' WHERE Student = 's2'")
            .unwrap();
        assert_ne!(
            snapshot(&engine),
            before,
            "mutations visible inside the txn"
        );
        let out = db.run("ROLLBACK").unwrap();
        assert!(out.to_text().contains("rolled back"), "{}", out.to_text());
        assert_eq!(
            snapshot(&engine),
            before,
            "rollback restores the canonical form"
        );
        // And the restored relation is still canonical for its order.
        let t = engine.table("sc").unwrap();
        assert!(nf2_core::nest::is_canonical(
            &t.snapshot().canonical(),
            t.order()
        ));
    }

    #[test]
    fn commit_keeps_changes() {
        let engine = db();
        let mut db = engine.session();
        db.run("BEGIN").unwrap();
        db.run("INSERT INTO sc VALUES ('s9','c9')").unwrap();
        db.run("COMMIT").unwrap();
        assert_eq!(engine.table("sc").unwrap().flat_count(), 4);
        // After commit there is nothing to roll back.
        assert!(db.run("ROLLBACK").is_err());
    }

    #[test]
    fn rollback_of_update_collision_is_exact() {
        let engine = db();
        let mut db = engine.session();
        let before = snapshot(&engine);
        db.run("BEGIN").unwrap();
        // (s1,c1) → (s1,c2) collides with the existing (s1,c2).
        db.run("UPDATE sc SET Course = 'c2' WHERE Course = 'c1'")
            .unwrap();
        db.run("ROLLBACK").unwrap();
        assert_eq!(snapshot(&engine), before);
    }

    #[test]
    fn chained_updates_roll_back_through_intermediates() {
        let engine = db();
        let mut db = engine.session();
        let before = snapshot(&engine);
        db.run("BEGIN").unwrap();
        db.run("UPDATE sc SET Course = 'cX' WHERE Course = 'c1'")
            .unwrap();
        db.run("UPDATE sc SET Course = 'cY' WHERE Course = 'cX'")
            .unwrap();
        db.run("ROLLBACK").unwrap();
        assert_eq!(snapshot(&engine), before);
    }

    #[test]
    fn transaction_state_errors() {
        let engine = db();
        let mut db = engine.session();
        assert!(db.run("COMMIT").is_err(), "no txn open");
        assert!(db.run("ROLLBACK").is_err());
        db.run("BEGIN").unwrap();
        assert!(db.run("BEGIN").is_err(), "nested BEGIN rejected");
        assert!(
            db.run("CREATE TABLE t2 (A)").is_err(),
            "DDL in txn rejected"
        );
        assert!(db.run("DROP TABLE sc").is_err(), "DDL in txn rejected");
        db.run("COMMIT").unwrap();
        db.run("CREATE TABLE t2 (A)").unwrap();
    }

    #[test]
    fn autocommit_mutations_bypass_the_log() {
        let engine = db();
        let mut db = engine.session();
        db.run("INSERT INTO sc VALUES ('s9','c9')").unwrap();
        db.run("BEGIN").unwrap();
        let out = db.run("COMMIT").unwrap();
        assert!(
            out.to_text().contains("(0 row mutation(s))"),
            "{}",
            out.to_text()
        );
    }

    #[test]
    fn rollback_spans_multiple_tables() {
        let engine = db();
        let mut db = engine.session();
        db.run_script("CREATE TABLE cp (Course, Prof); INSERT INTO cp VALUES ('c1','p1');")
            .unwrap();
        let sc_before = snapshot(&engine);
        let cp_before = engine.table("cp").unwrap().snapshot().canonical();
        db.run("BEGIN").unwrap();
        db.run("DELETE FROM sc WHERE Course = 'c1'").unwrap();
        db.run("INSERT INTO cp VALUES ('c2','p2')").unwrap();
        db.run("ROLLBACK").unwrap();
        assert_eq!(snapshot(&engine), sc_before);
        assert_eq!(
            engine.table("cp").unwrap().snapshot().canonical(),
            cp_before
        );
    }
}

#[cfg(test)]
mod extended_select_tests {
    use super::*;
    use crate::engine::Engine;

    fn db() -> Engine {
        let engine = Engine::new();
        engine
            .session()
            .run_script(
                "CREATE TABLE sc (Student, Course);
             INSERT INTO sc VALUES ('s1','c1'), ('s2','c1'), ('s1','c2'), ('s3','c3');
             CREATE TABLE cp (Course, Prof);
             INSERT INTO cp VALUES ('c1','p1'), ('c2','p2'), ('c3','p1');
             CREATE TABLE pd (Prof, Dept);
             INSERT INTO pd VALUES ('p1','d1'), ('p2','d2');",
            )
            .unwrap();
        engine
    }

    #[test]
    fn in_predicate_selects_value_set() {
        let engine = db();
        let mut db = engine.session();
        let out = db
            .run("SELECT * FROM sc WHERE Student IN ('s1', 's3')")
            .unwrap();
        match out {
            Output::Relation { relation, .. } => assert_eq!(relation.expand().len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn in_predicate_with_partially_unknown_values() {
        let engine = db();
        let mut db = engine.session();
        // 'ghost' was never interned; the IN degrades to {s1}.
        let out = db
            .run("SELECT * FROM sc WHERE Student IN ('s1', 'ghost')")
            .unwrap();
        match out {
            Output::Relation { relation, .. } => assert_eq!(relation.expand().len(), 2),
            other => panic!("unexpected {other:?}"),
        }
        // All unknown: statically empty.
        let out = db
            .run("SELECT * FROM sc WHERE Student IN ('ghostA', 'ghostB')")
            .unwrap();
        match out {
            Output::Relation { relation, .. } => assert!(relation.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delete_and_update_accept_in_predicates() {
        let engine = db();
        let mut db = engine.session();
        let out = db
            .run("DELETE FROM sc WHERE Student IN ('s1','s2')")
            .unwrap();
        assert!(matches!(out, Output::Affected(3)));
        assert_eq!(engine.table("sc").unwrap().flat_count(), 1);
        let out = db
            .run("UPDATE cp SET Prof = 'p9' WHERE Course IN ('c1','c2')")
            .unwrap();
        assert!(matches!(out, Output::Affected(2)));
    }

    #[test]
    fn count_star_counts_flat_rows() {
        let engine = db();
        let mut db = engine.session();
        match db.run("SELECT COUNT(*) FROM sc").unwrap() {
            Output::Count(n) => assert_eq!(n, 4),
            other => panic!("unexpected {other:?}"),
        }
        match db
            .run("SELECT COUNT(*) FROM sc WHERE Course = 'c1'")
            .unwrap()
        {
            Output::Count(n) => assert_eq!(n, 2),
            other => panic!("unexpected {other:?}"),
        }
        match db
            .run("SELECT COUNT(*) FROM sc WHERE Course = 'ghost'")
            .unwrap()
        {
            Output::Count(n) => assert_eq!(n, 0),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn count_distinct_projects_first() {
        let engine = db();
        let mut db = engine.session();
        match db.run("SELECT COUNT(DISTINCT Student) FROM sc").unwrap() {
            Output::Count(n) => assert_eq!(n, 3, "s1, s2, s3"),
            other => panic!("unexpected {other:?}"),
        }
        match db
            .run("SELECT COUNT(DISTINCT Course) FROM sc WHERE Student = 's1'")
            .unwrap()
        {
            Output::Count(n) => assert_eq!(n, 2, "c1 and c2"),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(Output::Count(7).to_text(), "7");
    }

    #[test]
    fn three_way_join_chains_naturally() {
        let engine = db();
        let mut db = engine.session();
        // sc ⋈ cp ⋈ pd: Student-Course-Prof-Dept.
        let out = db
            .run("SELECT Student, Dept FROM sc JOIN cp JOIN pd")
            .unwrap();
        match out {
            Output::Relation { relation, .. } => {
                assert_eq!(relation.arity(), 2);
                // s1→{d1,d2}, s2→d1, s3→d1.
                assert_eq!(relation.expand().len(), 4);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn explain_optimized_shows_rewrites_and_costs() {
        let engine = db();
        let mut db = engine.session();
        let out = db
            .run("EXPLAIN OPTIMIZED SELECT Student FROM sc JOIN cp WHERE Prof = 'p1'")
            .unwrap();
        let text = out.to_text();
        assert!(text.contains("rewrites:"), "{text}");
        assert!(text.contains("select-into-join"), "{text}");
        assert!(text.contains("optimized plan:"), "{text}");
        assert!(text.contains("estimated work:"), "{text}");
    }

    #[test]
    fn explain_optimized_with_nothing_to_do() {
        let engine = db();
        let mut db = engine.session();
        let text = db
            .run("EXPLAIN OPTIMIZED SELECT * FROM sc")
            .unwrap()
            .to_text();
        assert!(text.contains("(none applicable)"), "{text}");
    }

    #[test]
    fn optimized_execution_matches_unoptimized_semantics() {
        let engine = db();
        let mut db = engine.session();
        // The executor optimizes every plan; spot-check a plan where
        // pushdown definitely fires against the by-hand expected rows.
        let out = db
            .run("SELECT Student FROM sc JOIN cp WHERE Prof = 'p1' AND Student IN ('s1','s2')")
            .unwrap();
        match out {
            Output::Relation { relation, .. } => {
                let rows = relation.expand();
                assert_eq!(rows.len(), 2, "s1 (c1) and s2 (c1) reach p1");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[cfg(test)]
mod update_tests {
    use super::*;
    use crate::engine::Engine;

    fn db() -> Engine {
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
    fn update_rewrites_matching_rows() {
        let engine = db();
        let mut db = engine.session();
        let out = db
            .run("UPDATE sc SET Course = 'c9' WHERE Student = 's1'")
            .unwrap();
        assert!(matches!(out, Output::Affected(2)));
        // Both of s1's rows map to (s1, c9): set semantics collapse them.
        let t = engine.table("sc").unwrap();
        assert_eq!(t.flat_count(), 2);
        let c9 = engine.dict().lookup("c9").unwrap();
        let hits: usize = t
            .snapshot()
            .canonical()
            .expand()
            .rows()
            .filter(|r| r[1] == c9)
            .count();
        assert_eq!(hits, 1);
    }

    #[test]
    fn update_collision_collapses_by_set_semantics() {
        let engine = db();
        let mut db = engine.session();
        // Rewriting s2's course to c2 creates (s2,c2); rewriting s1's c1
        // to c2 collides with the existing (s1,c2) and collapses.
        let out = db
            .run("UPDATE sc SET Course = 'c2' WHERE Course = 'c1'")
            .unwrap();
        assert!(matches!(out, Output::Affected(2)));
        assert_eq!(
            engine.table("sc").unwrap().flat_count(),
            2,
            "(s1,c2) and (s2,c2)"
        );
    }

    #[test]
    fn update_with_unknown_value_is_noop() {
        let engine = db();
        let mut db = engine.session();
        let out = db
            .run("UPDATE sc SET Course = 'c9' WHERE Student = 'ghost'")
            .unwrap();
        assert!(matches!(out, Output::Affected(0)));
        assert_eq!(engine.table("sc").unwrap().flat_count(), 3);
    }

    #[test]
    fn update_identity_assignment_is_noop() {
        let engine = db();
        let mut db = engine.session();
        let out = db
            .run("UPDATE sc SET Course = 'c1' WHERE Course = 'c1'")
            .unwrap();
        assert!(matches!(out, Output::Affected(0)));
    }

    #[test]
    fn update_keeps_canonical_invariant() {
        let engine = db();
        let mut db = engine.session();
        db.run("UPDATE sc SET Student = 's9'").unwrap();
        let t = engine.table("sc").unwrap();
        assert!(nf2_core::nest::is_canonical(
            &t.snapshot().canonical(),
            t.order()
        ));
    }

    #[test]
    fn update_unknown_attr_errors() {
        let engine = db();
        let mut db = engine.session();
        assert!(db.run("UPDATE sc SET Nope = 'x'").is_err());
    }
}
