//! Abstract syntax of the NF² DML.
//!
//! Every literal position in the grammar holds a [`Value`], which is
//! either an inline string literal or a `?` parameter placeholder bound
//! later through a prepared statement. [`Statement`] implements
//! [`std::fmt::Display`] as a SQL printer whose output re-parses to the
//! same tree (property-tested), which is what makes plans, logs and
//! prepared-statement templates round-trippable.

use std::fmt;

/// A literal position in a statement: an inline string or a positional
/// `?` parameter (0-based, numbered left to right in the statement).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    /// An inline string literal.
    Lit(String),
    /// The `n`-th `?` placeholder, bound at execute time.
    Param(usize),
}

impl Value {
    /// The literal string, or `None` for an unbound parameter.
    pub fn as_lit(&self) -> Option<&str> {
        match self {
            Value::Lit(s) => Some(s),
            Value::Param(_) => None,
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Lit(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Lit(s)
    }
}

impl fmt::Display for Value {
    /// SQL form: `'literal'` (with `''` escaping) or `?`.
    ///
    /// Placeholders print as bare `?` — their index is positional in
    /// SQL. See [`Statement`]'s `Display` impl for the round-trip
    /// precondition this implies.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Lit(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Param(_) => write!(f, "?"),
        }
    }
}

/// An equality pair `attr = value` (a WHERE conjunct or a `SET`
/// assignment in UPDATE).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqPredicate {
    /// Attribute name.
    pub attr: String,
    /// String value (interned at execution time) or parameter.
    pub value: Value,
}

/// A WHERE-clause conjunct.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// `attr = 'value'`.
    Eq(EqPredicate),
    /// `attr IN ('v1', 'v2', …)` — membership in a value list. Maps
    /// directly onto the algebra's box selection (a per-attribute value
    /// set), so an IN costs the same as an equality.
    In {
        /// Attribute name.
        attr: String,
        /// Allowed values.
        values: Vec<Value>,
    },
}

impl Predicate {
    /// The constrained attribute.
    pub fn attr(&self) -> &str {
        match self {
            Predicate::Eq(p) => &p.attr,
            Predicate::In { attr, .. } => attr,
        }
    }

    /// The allowed value slots (one for equality), literal or parameter.
    pub fn value_slots(&self) -> Vec<&Value> {
        match self {
            Predicate::Eq(p) => vec![&p.value],
            Predicate::In { values, .. } => values.iter().collect(),
        }
    }

    /// The allowed literal values (one for equality).
    ///
    /// # Panics
    ///
    /// If any slot is an unbound `?` parameter — callers must bind the
    /// statement first (the executor rejects unbound statements before
    /// reaching this).
    pub fn values(&self) -> Vec<&str> {
        self.value_slots()
            .into_iter()
            .map(|v| v.as_lit().expect("unbound parameter in predicate"))
            .collect()
    }
}

/// `ORDER BY` direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OrderDir {
    /// Ascending (the default, as in SQL).
    #[default]
    Asc,
    /// Descending.
    Desc,
}

/// One `attr [ASC|DESC]` key of an ORDER BY list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKey {
    /// The attribute ordered on (must be in the result schema).
    pub attr: String,
    /// Direction; defaults to [`OrderDir::Asc`] when unwritten.
    pub dir: OrderDir,
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.attr)?;
        if self.dir == OrderDir::Desc {
            write!(f, " DESC")?;
        }
        Ok(())
    }
}

/// An `ORDER BY attr [ASC|DESC] [, attr [ASC|DESC] …]` tail on a
/// SELECT — one or more keys, compared lexicographically left to right.
///
/// NF² result tuples carry *sets*; a tuple ranks on each key by the
/// extreme member of its `attr` component under the direction (its
/// minimum for `ASC`, maximum for `DESC`), values compared by their
/// string form; later keys break earlier keys' ties. Full ties keep the
/// pipeline's order (stable).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderBy {
    /// The keys, leftmost most significant. Never empty.
    pub keys: Vec<OrderKey>,
}

impl OrderBy {
    /// A one-key ORDER BY (the common case; most tests use it).
    pub fn single(attr: impl Into<String>, dir: OrderDir) -> Self {
        OrderBy {
            keys: vec![OrderKey {
                attr: attr.into(),
                dir,
            }],
        }
    }
}

impl fmt::Display for OrderBy {
    /// SQL form; `ASC` is the parse default and stays implicit, so the
    /// round-trip re-parses to the same tree.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ORDER BY ")?;
        for (i, key) in self.keys.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{key}")?;
        }
        Ok(())
    }
}

/// Projection target.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Projection {
    /// `SELECT *`
    All,
    /// Explicit attribute list.
    Attrs(Vec<String>),
    /// `SELECT COUNT(*)` — flat-row count of the result (`|R*|`).
    CountStar,
    /// `SELECT COUNT(DISTINCT attr)` — distinct values of one attribute.
    CountDistinct(String),
}

impl fmt::Display for Projection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Projection::All => write!(f, "*"),
            Projection::Attrs(attrs) => write!(f, "{}", attrs.join(", ")),
            Projection::CountStar => write!(f, "COUNT(*)"),
            Projection::CountDistinct(a) => write!(f, "COUNT(DISTINCT {a})"),
        }
    }
}

/// One parsed statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// `CREATE TABLE name (a, b, c) [NEST ORDER (x, y, z)]`
    ///
    /// The nest order lists attributes in application order (first listed
    /// nested first); defaults to declaration order.
    CreateTable {
        /// Table name.
        name: String,
        /// Attribute names.
        attrs: Vec<String>,
        /// Optional nest order (attribute names, application order).
        nest_order: Option<Vec<String>>,
    },
    /// `DROP TABLE name`
    DropTable {
        /// Table name.
        name: String,
    },
    /// `INSERT INTO name VALUES ('a','b'), ('c',?)`
    Insert {
        /// Table name.
        table: String,
        /// Rows of values (literals or parameters).
        rows: Vec<Vec<Value>>,
    },
    /// `DELETE FROM name WHERE a='x' AND b IN ('y','z')`
    ///
    /// Deletes every flat tuple matching the conjunction; an empty WHERE
    /// clause deletes everything.
    Delete {
        /// Table name.
        table: String,
        /// Conjunctive predicates.
        predicates: Vec<Predicate>,
    },
    /// `SELECT a, b FROM name [JOIN t1 [JOIN t2 …]] [WHERE …]
    /// [ORDER BY x [ASC|DESC]] [LIMIT n]`
    Select {
        /// Projection list (attributes or an aggregate).
        projection: Projection,
        /// Table name.
        table: String,
        /// Further tables, natural-joined left to right on shared
        /// attribute names before selection/projection.
        joins: Vec<String>,
        /// Conjunctive predicates.
        predicates: Vec<Predicate>,
        /// `ORDER BY attr [ASC|DESC]`: sorts the result stream. With a
        /// `LIMIT n` the two fold into one streaming **top-k** operator
        /// (a bounded heap retaining ≤ n tuples); alone it is a blocking
        /// sort. Aggregate projections ignore it — their one logical
        /// value has no order.
        order_by: Option<OrderBy>,
        /// `LIMIT n`: stop the cursor pipeline after `n` NF² tuples —
        /// upstream operators stop being pulled, so a satisfied limit
        /// never scans the rest of its inputs. As in SQL, without an
        /// `ORDER BY` *which* prefix is returned is unspecified (it
        /// follows physical tuple order, which varies with the table's
        /// shard layout); with one, it is the top-k prefix of the
        /// ordered stream. Aggregate projections ignore the limit: they
        /// produce one logical value, which a row limit cannot truncate.
        limit: Option<usize>,
    },
    /// `NEST name ON attr` — ad-hoc query returning the nested relation.
    Nest {
        /// Table name.
        table: String,
        /// Attribute to nest on.
        attr: String,
    },
    /// `UNNEST name ON attr` — ad-hoc query returning the unnested
    /// relation.
    Unnest {
        /// Table name.
        table: String,
        /// Attribute to unnest.
        attr: String,
    },
    /// `SHOW name` — render the stored NFR.
    Show {
        /// Table name.
        table: String,
        /// Whether to render the flat realization `R*` instead
        /// (`SHOW FLAT name`).
        flat: bool,
    },
    /// `UPDATE name SET a='x' [, b='y'] [WHERE …]`
    ///
    /// Rewrites every matching flat tuple: each one's delete followed by
    /// its rewritten insert, all of them one write through the §4
    /// maintenance, so the canonical form is preserved throughout.
    Update {
        /// Table name.
        table: String,
        /// `attr = value` assignments.
        assignments: Vec<EqPredicate>,
        /// Conjunctive predicates selecting the rows to rewrite.
        predicates: Vec<Predicate>,
    },
    /// `TABLES` — list known tables.
    Tables,
    /// `STATS name` — report the table's realization-view numbers:
    /// NF² tuples vs flat rows (compression), accumulated §4 maintenance
    /// costs, and lookup probe counters.
    Stats {
        /// Table name.
        table: String,
    },
    /// `BEGIN` — open a transaction: the session records the flat-row
    /// ops each subsequent row mutation took effect with, until COMMIT
    /// or ROLLBACK. DDL is rejected inside one.
    Begin,
    /// `COMMIT` — close the transaction, discarding the record.
    Commit,
    /// `ROLLBACK` — commit the inverse of every op recorded since BEGIN,
    /// newest first, as one write per table, through the same §4
    /// maintenance the forward path used.
    Rollback,
    /// `EXPLAIN [VERIFY] [OPTIMIZED] [ANALYZE] SELECT …` — show the
    /// algebra plan (with its cost estimate); `OPTIMIZED` additionally
    /// runs the rule-based rewriter and prints the applied rules and the
    /// optimized plan's estimate; `VERIFY` runs the static plan checker
    /// and appends its verdict (useful in release builds, where the
    /// rewrite-soundness gate is off unless `NF2_VERIFY` is set);
    /// `ANALYZE` **executes** the statement and annotates each physical
    /// operator with its actual rows and inclusive wall time. The flags
    /// compose and may appear in any order after `EXPLAIN`.
    Explain {
        /// The SELECT being explained.
        inner: Box<Statement>,
        /// Whether to run and report the optimizer.
        optimized: bool,
        /// Whether to run and report the static plan checker.
        verify: bool,
        /// Whether to execute and report per-operator actuals.
        analyze: bool,
    },
}

/// Binding a parameter list to a statement failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindError {
    /// Number of parameters the statement declares.
    pub expected: usize,
    /// Number of values supplied.
    pub got: usize,
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "statement declares {} parameter(s), {} value(s) bound",
            self.expected, self.got
        )
    }
}

impl std::error::Error for BindError {}

impl Statement {
    /// Number of `?` parameters the statement declares (highest index
    /// plus one; the parser always numbers them densely left to right).
    pub fn param_count(&self) -> usize {
        let mut max: Option<usize> = None;
        self.for_each_value(&mut |v| {
            if let Value::Param(i) = v {
                max = Some(max.map_or(*i, |m: usize| m.max(*i)));
            }
        });
        max.map_or(0, |m| m + 1)
    }

    /// Substitutes every `?` parameter with the corresponding literal,
    /// returning a fully-bound copy of the statement.
    pub fn bind(&self, params: &[&str]) -> Result<Statement, BindError> {
        let expected = self.param_count();
        if params.len() != expected {
            return Err(BindError {
                expected,
                got: params.len(),
            });
        }
        let mut bound = self.clone();
        bound.for_each_value_mut(&mut |v| {
            if let Value::Param(i) = v {
                *v = Value::Lit(params[*i].to_owned());
            }
        });
        Ok(bound)
    }

    /// [`bind`](Self::bind)'s inverse: turns every literal into a `?`
    /// parameter, numbered in textual order, and returns the literals in
    /// that order. Statements that differ only in their literals lift to
    /// the same statement — their *shape* — and `lifted.bind(&literals)`
    /// gives the original back.
    ///
    /// The statement must declare no `?` of its own: a parameter would
    /// keep its index and collide with a lifted literal's.
    pub fn lift_literals(mut self) -> (Statement, Vec<String>) {
        debug_assert_eq!(
            self.param_count(),
            0,
            "lift_literals takes a bound statement"
        );
        let mut literals = Vec::new();
        self.for_each_value_mut(&mut |v| {
            if let Value::Lit(s) = v {
                literals.push(std::mem::take(s));
                *v = Value::Param(literals.len() - 1);
            }
        });
        (self, literals)
    }

    /// Visits every [`Value`] position, in the statement's textual order.
    fn for_each_value(&self, f: &mut impl FnMut(&Value)) {
        match self {
            Statement::Insert { rows, .. } => rows.iter().flatten().for_each(&mut *f),
            Statement::Delete { predicates, .. } | Statement::Select { predicates, .. } => {
                for p in predicates {
                    p.value_slots().into_iter().for_each(&mut *f);
                }
            }
            Statement::Update {
                assignments,
                predicates,
                ..
            } => {
                for a in assignments {
                    f(&a.value);
                }
                for p in predicates {
                    p.value_slots().into_iter().for_each(&mut *f);
                }
            }
            Statement::Explain { inner, .. } => inner.for_each_value(f),
            _ => {}
        }
    }

    /// Mutable [`Value`] visitor, same order as [`Self::for_each_value`].
    fn for_each_value_mut(&mut self, f: &mut impl FnMut(&mut Value)) {
        match self {
            Statement::Insert { rows, .. } => rows.iter_mut().flatten().for_each(&mut *f),
            Statement::Delete { predicates, .. } | Statement::Select { predicates, .. } => {
                for p in predicates {
                    predicate_values_mut(p, f);
                }
            }
            Statement::Update {
                assignments,
                predicates,
                ..
            } => {
                for a in assignments {
                    f(&mut a.value);
                }
                for p in predicates {
                    predicate_values_mut(p, f);
                }
            }
            Statement::Explain { inner, .. } => inner.for_each_value_mut(f),
            _ => {}
        }
    }
}

fn predicate_values_mut(p: &mut Predicate, f: &mut impl FnMut(&mut Value)) {
    match p {
        Predicate::Eq(e) => f(&mut e.value),
        Predicate::In { values, .. } => values.iter_mut().for_each(f),
    }
}

fn write_where(f: &mut fmt::Formatter<'_>, predicates: &[Predicate]) -> fmt::Result {
    for (i, p) in predicates.iter().enumerate() {
        write!(f, "{} ", if i == 0 { " WHERE" } else { " AND" })?;
        match p {
            Predicate::Eq(e) => write!(f, "{} = {}", e.attr, e.value)?,
            Predicate::In { attr, values } => {
                let vals: Vec<String> = values.iter().map(Value::to_string).collect();
                write!(f, "{attr} IN ({})", vals.join(", "))?;
            }
        }
    }
    Ok(())
}

impl fmt::Display for Statement {
    /// Prints the statement as SQL that re-parses to the same tree.
    ///
    /// Precondition: `?` placeholders must be numbered densely in
    /// textual order (`Param(0)` first, then `Param(1)`, …) — which is
    /// exactly what the parser produces and what [`Statement::bind`]
    /// preserves. A hand-built tree that numbers placeholders out of
    /// textual order renders as bare `?`s and re-parses with the
    /// indices reassigned to textual order, i.e. to a *different* tree.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateTable {
                name,
                attrs,
                nest_order,
            } => {
                write!(f, "CREATE TABLE {name} ({})", attrs.join(", "))?;
                if let Some(order) = nest_order {
                    write!(f, " NEST ORDER ({})", order.join(", "))?;
                }
                Ok(())
            }
            Statement::DropTable { name } => write!(f, "DROP TABLE {name}"),
            Statement::Insert { table, rows } => {
                write!(f, "INSERT INTO {table} VALUES ")?;
                for (i, row) in rows.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    let vals: Vec<String> = row.iter().map(Value::to_string).collect();
                    write!(f, "({})", vals.join(", "))?;
                }
                Ok(())
            }
            Statement::Delete { table, predicates } => {
                write!(f, "DELETE FROM {table}")?;
                write_where(f, predicates)
            }
            Statement::Select {
                projection,
                table,
                joins,
                predicates,
                order_by,
                limit,
            } => {
                write!(f, "SELECT {projection} FROM {table}")?;
                for j in joins {
                    write!(f, " JOIN {j}")?;
                }
                write_where(f, predicates)?;
                if let Some(order) = order_by {
                    write!(f, " {order}")?;
                }
                if let Some(n) = limit {
                    write!(f, " LIMIT {n}")?;
                }
                Ok(())
            }
            Statement::Nest { table, attr } => write!(f, "NEST {table} ON {attr}"),
            Statement::Unnest { table, attr } => write!(f, "UNNEST {table} ON {attr}"),
            Statement::Show { table, flat } => {
                write!(f, "SHOW {}{table}", if *flat { "FLAT " } else { "" })
            }
            Statement::Update {
                table,
                assignments,
                predicates,
            } => {
                write!(f, "UPDATE {table} SET ")?;
                for (i, a) in assignments.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{} = {}", a.attr, a.value)?;
                }
                write_where(f, predicates)
            }
            Statement::Tables => write!(f, "TABLES"),
            Statement::Stats { table } => write!(f, "STATS {table}"),
            Statement::Begin => write!(f, "BEGIN"),
            Statement::Commit => write!(f, "COMMIT"),
            Statement::Rollback => write!(f, "ROLLBACK"),
            Statement::Explain {
                inner,
                optimized,
                verify,
                analyze,
            } => {
                write!(
                    f,
                    "EXPLAIN {}{}{}{inner}",
                    if *verify { "VERIFY " } else { "" },
                    if *optimized { "OPTIMIZED " } else { "" },
                    if *analyze { "ANALYZE " } else { "" }
                )
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ast_nodes_are_comparable() {
        let a = Statement::Show {
            table: "t".into(),
            flat: false,
        };
        let b = Statement::Show {
            table: "t".into(),
            flat: false,
        };
        assert_eq!(a, b);
        let c = Statement::Show {
            table: "t".into(),
            flat: true,
        };
        assert_ne!(a, c);
    }

    #[test]
    fn predicates_carry_attr_and_value() {
        let p = EqPredicate {
            attr: "Student".into(),
            value: "s1".into(),
        };
        assert_eq!(p.attr, "Student");
        assert_eq!(p.value, Value::Lit("s1".into()));
    }

    #[test]
    fn predicate_accessors_unify_eq_and_in() {
        let eq = Predicate::Eq(EqPredicate {
            attr: "A".into(),
            value: "x".into(),
        });
        assert_eq!(eq.attr(), "A");
        assert_eq!(eq.values(), vec!["x"]);
        let inp = Predicate::In {
            attr: "B".into(),
            values: vec!["y".into(), "z".into()],
        };
        assert_eq!(inp.attr(), "B");
        assert_eq!(inp.values(), vec!["y", "z"]);
    }

    #[test]
    fn projection_variants() {
        assert_ne!(Projection::CountStar, Projection::All);
        assert_eq!(
            Projection::CountDistinct("A".into()),
            Projection::CountDistinct("A".into())
        );
    }

    #[test]
    fn param_count_and_bind() {
        let stmt = Statement::Select {
            projection: Projection::All,
            table: "t".into(),
            joins: vec![],
            predicates: vec![
                Predicate::Eq(EqPredicate {
                    attr: "A".into(),
                    value: Value::Param(0),
                }),
                Predicate::In {
                    attr: "B".into(),
                    values: vec!["lit".into(), Value::Param(1)],
                },
            ],
            order_by: None,
            limit: None,
        };
        assert_eq!(stmt.param_count(), 2);
        assert_eq!(
            stmt.bind(&["x"]).unwrap_err(),
            BindError {
                expected: 2,
                got: 1
            }
        );
        let bound = stmt.bind(&["x", "y"]).unwrap();
        assert_eq!(bound.param_count(), 0);
        match bound {
            Statement::Select { predicates, .. } => {
                assert_eq!(predicates[0].values(), vec!["x"]);
                assert_eq!(predicates[1].values(), vec!["lit", "y"]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(Statement::Tables.param_count(), 0);
        assert!(Statement::Tables.bind(&[]).is_ok());
    }

    #[test]
    fn bind_reaches_inserts_updates_and_explain() {
        let stmt = Statement::Insert {
            table: "t".into(),
            rows: vec![
                vec![Value::Param(0), "b".into()],
                vec![Value::Param(1), Value::Param(2)],
            ],
        };
        assert_eq!(stmt.param_count(), 3);
        let bound = stmt.bind(&["p", "q", "r"]).unwrap();
        assert_eq!(
            bound.to_string(),
            "INSERT INTO t VALUES ('p', 'b'), ('q', 'r')"
        );

        let upd = Statement::Update {
            table: "t".into(),
            assignments: vec![EqPredicate {
                attr: "A".into(),
                value: Value::Param(0),
            }],
            predicates: vec![Predicate::Eq(EqPredicate {
                attr: "B".into(),
                value: Value::Param(1),
            })],
        };
        assert_eq!(upd.param_count(), 2);
        let explained = Statement::Explain {
            inner: Box::new(upd),
            optimized: false,
            verify: false,
            analyze: false,
        };
        assert_eq!(explained.param_count(), 2);
    }

    #[test]
    fn lifting_literals_then_binding_them_gives_the_statement_back() {
        let parse = |sql: &str| crate::parser::parse(sql).unwrap();
        let statements = [
            "SELECT * FROM t",
            "SELECT COUNT(*) FROM t",
            "SELECT A, B FROM t WHERE A = 'x'",
            "SELECT * FROM t WHERE A = 'it''s' AND B IN ('?', '', 'x') AND C = '?'",
            "SELECT B FROM t JOIN u JOIN v WHERE C IN ('c1', 'c2') AND D = 'd'",
            "SELECT A, B FROM t WHERE B = 'b' ORDER BY A DESC, B LIMIT 5",
            "SELECT COUNT(DISTINCT A) FROM t WHERE A IN ('a') ORDER BY A LIMIT 1",
        ];
        for sql in statements {
            let stmt = parse(sql);
            let (lifted, literals) = stmt.clone().lift_literals();
            assert_eq!(lifted.param_count(), literals.len(), "{sql}");
            let refs: Vec<&str> = literals.iter().map(String::as_str).collect();
            assert_eq!(lifted.bind(&refs).unwrap(), stmt, "{sql}");
        }
        // The literals come back in textual order, and two statements
        // that differ only in them lift to one shape.
        let (shape, literals) =
            parse("SELECT * FROM t WHERE A = '' AND B IN ('?', 'y')").lift_literals();
        assert_eq!(literals, ["", "?", "y"]);
        assert_eq!(
            shape.to_string(),
            "SELECT * FROM t WHERE A = ? AND B IN (?, ?)"
        );
        let (other, _) = parse("SELECT * FROM t WHERE A = 'a' AND B IN ('b', 'c')").lift_literals();
        assert_eq!(other, shape);
        let (longer, _) = parse("SELECT * FROM t WHERE A = 'a' AND B IN ('b')").lift_literals();
        assert_ne!(longer, shape);
    }

    #[test]
    #[should_panic(expected = "unbound parameter")]
    fn values_panics_on_unbound_param() {
        let p = Predicate::Eq(EqPredicate {
            attr: "A".into(),
            value: Value::Param(0),
        });
        let _ = p.values();
    }

    #[test]
    fn display_prints_sql() {
        let stmt = Statement::Select {
            projection: Projection::Attrs(vec!["Course".into()]),
            table: "sc".into(),
            joins: vec!["cp".into()],
            predicates: vec![
                Predicate::Eq(EqPredicate {
                    attr: "Student".into(),
                    value: Value::Param(0),
                }),
                Predicate::In {
                    attr: "Prof".into(),
                    values: vec!["it's".into()],
                },
            ],
            order_by: None,
            limit: None,
        };
        assert_eq!(
            stmt.to_string(),
            "SELECT Course FROM sc JOIN cp WHERE Student = ? AND Prof IN ('it''s')"
        );
        assert_eq!(
            Statement::Show {
                table: "t".into(),
                flat: true
            }
            .to_string(),
            "SHOW FLAT t"
        );
    }
}
