//! One meaning for a SQL script: the realization model.
//!
//! Theorem 1 makes `R*`, the flat rows an NFR stands for, its meaning,
//! and Def. 5 makes `ν_P(R*)` its one canonical form. The model keeps
//! each table as a set of string rows and gives each statement a plain
//! set-level meaning. The generator draws statements as ASTs, the model's
//! ops, which the engine runs as their SQL text, on 1, 2, 4 and 7
//! shards; after each, the checks numbered 1–6 below hold. Not asserted:
//! that a multi-shard SELECT's NF² tuples are `ν_P(R*)`. A tuple whose
//! outer set spans shards comes out once per shard until the read path
//! regroups.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;

use nf2::core::nest::canonicalize;
use nf2::core::relation::{FlatRelation, NfRelation};
use nf2::core::{shard::ShardSpec, tuple::NfTuple, value::Atom, NestOrder, NfError};
use nf2::query::ast::{EqPredicate, OrderBy, OrderDir, Predicate, Projection, Statement, Value};
use nf2::query::{Cursor, Engine, Output, QueryError, Session};
use nf2::storage::{NfTable, StorageError};
use nf2::workload::{block_product, relationship, uniform, university, zipf, Workload};

type Row = Vec<String>;

// ---- The model ----

/// Why a statement is refused: `"table"` (unknown), `"exists"`,
/// `"attribute"` (unknown), `"arity"` or `"transaction"` (DDL inside one,
/// a nested BEGIN, or COMMIT / ROLLBACK with none open).
type Refusal = &'static str;

fn refusal(e: &QueryError) -> Option<Refusal> {
    match e {
        QueryError::NoSuchTable(_) => Some("table"),
        QueryError::TableExists(_) => Some("exists"),
        QueryError::Semantic(_) => Some("transaction"),
        QueryError::Model(e) | QueryError::Storage(StorageError::Model(e)) => match e {
            NfError::UnknownAttribute(_) => Some("attribute"),
            NfError::ArityMismatch { .. } => Some("arity"),
            _ => None,
        },
        _ => None,
    }
}

/// What a statement that is not refused means.
#[derive(Debug)]
enum Outcome {
    Affected(usize),
    Count(usize),
    Message,
    /// A relation: its attributes and the rows it expands to.
    Rows(Vec<String>, BTreeSet<Row>),
    /// `SHOW t`: the cascade of `t`'s rows.
    Show(String),
}

type Res = Result<Outcome, Refusal>;

#[derive(Debug, Clone)]
struct Table {
    attrs: Vec<String>,
    order: Vec<String>,
    rows: BTreeSet<Row>,
}

fn col(attrs: &[String], attr: &str) -> Result<usize, Refusal> {
    attrs.iter().position(|a| a == attr).ok_or("attribute")
}

fn lit(v: &Value) -> String {
    v.as_lit().unwrap().to_owned()
}

/// The database as sets of rows, the tables as BEGIN found them, and
/// the values the engine's dictionary holds (it never forgets one).
#[derive(Debug, Default)]
struct Model {
    tables: BTreeMap<String, Table>,
    txn: Option<BTreeMap<String, Table>>,
    interned: BTreeSet<String>,
}

impl Model {
    fn table(&self, name: &str) -> Result<&Table, Refusal> {
        self.tables.get(name).ok_or("table")
    }

    fn eval(&mut self, stmt: &Statement) -> Res {
        let in_txn = self.txn.is_some();
        match stmt {
            Statement::Insert { table, rows } => {
                let t = self.tables.get_mut(table).ok_or("table")?;
                let rows: Vec<Row> = rows.iter().map(|r| r.iter().map(lit).collect()).collect();
                if rows.iter().any(|r| r.len() != t.attrs.len()) {
                    return Err("arity");
                }
                self.interned.extend(rows.iter().flatten().cloned());
                let added = rows.into_iter().filter(|r| t.rows.insert(r.clone()));
                Ok(Outcome::Affected(added.count()))
            }
            Statement::Delete { table, predicates } => self.write(table, &[], predicates),
            Statement::Update {
                table,
                assignments,
                predicates,
            } => self.write(table, assignments, predicates),
            Statement::Select { .. } => self.select(stmt),
            Statement::Show { table, flat } => {
                let t = self.table(table)?;
                Ok(match flat {
                    true => Outcome::Rows(t.attrs.clone(), t.rows.clone()),
                    false => Outcome::Show(table.clone()),
                })
            }
            // ν and μ leave `R*` as it is.
            Statement::Nest { table, attr } | Statement::Unnest { table, attr } => {
                col(&self.table(table)?.attrs, attr)?;
                let table = table.clone();
                self.eval(&Statement::Show { table, flat: true })
            }
            Statement::Begin if in_txn => Err("transaction"),
            Statement::Begin => {
                self.txn = Some(self.tables.clone());
                Ok(Outcome::Message)
            }
            Statement::Commit | Statement::Rollback => {
                let before = self.txn.take().ok_or("transaction")?;
                if matches!(stmt, Statement::Rollback) {
                    self.tables = before;
                }
                Ok(Outcome::Message)
            }
            Statement::CreateTable { .. } if in_txn => Err("transaction"),
            Statement::CreateTable { name, .. } if self.tables.contains_key(name) => Err("exists"),
            Statement::CreateTable {
                name,
                attrs,
                nest_order,
            } => {
                let order = nest_order.clone().unwrap_or_else(|| attrs.clone());
                let (attrs, rows) = (attrs.clone(), BTreeSet::new());
                self.tables
                    .insert(name.clone(), Table { attrs, order, rows });
                Ok(Outcome::Message)
            }
            other => unreachable!("the generator emits no `{other}`"),
        }
    }

    /// A DELETE (no assignments) or an UPDATE.
    fn write(&mut self, name: &str, sets: &[EqPredicate], preds: &[Predicate]) -> Res {
        let t = self.tables.get(name).ok_or("table")?;
        // Each assigned value is interned once its attribute resolves.
        let mut assigned = Vec::new();
        for s in sets {
            assigned.push((col(&t.attrs, &s.attr)?, lit(&s.value)));
            self.interned.insert(lit(&s.value));
        }
        let mut keep = Vec::new();
        for p in preds {
            keep.push((col(&t.attrs, p.attr())?, p.values()));
        }
        let mut changed = BTreeMap::new();
        for r in &t.rows {
            let mut new = r.clone();
            assigned.iter().for_each(|(i, v)| new[*i] = v.clone());
            let hit = keep.iter().all(|(i, vs)| vs.contains(&r[*i].as_str()));
            if hit && (sets.is_empty() || new != *r) {
                changed.insert(r.clone(), new);
            }
        }
        let n = changed.len();
        let t = self.tables.get_mut(name).expect("found above");
        t.rows.retain(|r| !changed.contains_key(r));
        t.rows
            .extend(changed.into_values().filter(|_| !sets.is_empty()));
        Ok(Outcome::Affected(n))
    }

    /// σ, then π or a count, over the natural join of a SELECT's tables.
    fn select(&self, stmt: &Statement) -> Res {
        let Statement::Select {
            projection,
            table,
            joins,
            predicates,
            order_by,
            ..
        } = stmt
        else {
            unreachable!("a SELECT")
        };
        let from = std::iter::once(table).chain(joins).map(|t| self.table(t));
        let from = from.collect::<Result<Vec<_>, _>>()?;
        // Each row of the join maps an attribute to its value.
        let (mut attrs, mut rows): (Vec<String>, _) = (Vec::new(), vec![BTreeMap::new()]);
        for t in from {
            let fresh: Vec<&String> = t.attrs.iter().filter(|a| !attrs.contains(a)).collect();
            attrs.extend(fresh.into_iter().cloned());
            let mut joined = Vec::new();
            for (l, r) in rows.iter().flat_map(|l| t.rows.iter().map(move |r| (l, r))) {
                let mut row: BTreeMap<&str, &str> = l.clone();
                let mut pairs = t.attrs.iter().zip(r);
                if pairs.all(|(a, v)| *row.entry(a).or_insert(v) == v) {
                    joined.push(row);
                }
            }
            rows = joined;
        }
        for p in predicates {
            col(&attrs, p.attr())?;
            rows.retain(|row| p.values().contains(&row[p.attr()]));
        }
        let pi = |names: &[String]| -> Result<BTreeSet<Row>, Refusal> {
            names.iter().try_for_each(|a| col(&attrs, a).map(drop))?;
            let row = |r: &BTreeMap<_, &str>| names.iter().map(|a| r[a.as_str()].into()).collect();
            Ok(rows.iter().map(row).collect())
        };
        let keys = order_by.iter().flat_map(|o| &o.keys);
        let ordered = |names: &[_]| keys.clone().try_for_each(|k| col(names, &k.attr).map(drop));
        let names = match projection {
            Projection::All => attrs.clone(),
            Projection::Attrs(names) => names.clone(),
            // An aggregate checks its ORDER BY against its input.
            Projection::CountStar => return ordered(&attrs).map(|()| Outcome::Count(rows.len())),
            Projection::CountDistinct(a) => {
                ordered(&attrs)?;
                return Ok(Outcome::Count(pi(std::slice::from_ref(a))?.len()));
            }
        };
        let out = pi(&names)?;
        ordered(&names)?;
        Ok(Outcome::Rows(names, out))
    }
}

// ---- The generator ----

/// Choices drawn from one seed (a 64-bit LCG's high bits): a case is
/// its seed.
struct Draw(u64);

impl Draw {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        ((self.0 >> 33) % n as u64) as usize
    }

    fn pick<T: Clone>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())].clone()
    }
}

/// The attributes a statement may name, each with the values it may
/// compare against.
type Pool = Vec<(String, Vec<String>)>;

/// The stored values' suffixes: one holds a quote, which its SQL text
/// escapes as `''`, and one a character outside ASCII.
const STORED: [&str; 4] = ["0", "1", "'2", "é3"];

/// For `t(A, B, C)` and `u(C, D)`: `a0`, `a1`, `a'2` and `aé3`, which
/// statements store, and `a9`, which none does.
fn pool(attrs: &str) -> Pool {
    let mut pool = Vec::new();
    for a in attrs.chars().map(|a| a.to_string()) {
        let values = STORED
            .iter()
            .chain(&["9"])
            .map(|i| a.to_lowercase() + i)
            .collect();
        pool.push((a, values));
    }
    pool
}

/// An attribute of the pool with its values; one time in 25, `Z`, which
/// no table has.
fn attr(d: &mut Draw, pool: &Pool) -> (String, Vec<String>) {
    match d.below(25) {
        0 => ("Z".into(), vec!["z0".into()]),
        _ => d.pick(pool),
    }
}

/// `least` to `least + 2` conjuncts, each over 1–3 of its attribute's
/// values.
fn predicates(d: &mut Draw, pool: &Pool, least: usize) -> Vec<Predicate> {
    let mut predicates = Vec::new();
    for _ in 0..least + d.below(3) {
        let (attr, vs) = attr(d, pool);
        let values: Vec<Value> = (0..=d.below(3)).map(|_| Value::Lit(d.pick(&vs))).collect();
        let value = values[0].clone();
        predicates.push(match values.len() {
            1 => Predicate::Eq(EqPredicate { attr, value }),
            _ => Predicate::In { attr, values },
        });
    }
    predicates
}

/// An INSERT of 1–3 rows of the stored values of `attrs`.
fn insert(d: &mut Draw, table: &str, attrs: &str) -> Statement {
    let (table, mut rows) = (table.to_owned(), Vec::new());
    for _ in 0..=d.below(3) {
        let value = |a: char| Value::Lit(format!("{}{}", a.to_ascii_lowercase(), d.pick(&STORED)));
        rows.push(attrs.chars().map(value).collect());
    }
    Statement::Insert { table, rows }
}

/// A DELETE, or an UPDATE of one or two attributes; 1–3 conjuncts.
fn write(d: &mut Draw, table: &str, pool: &Pool) -> Statement {
    let mut assignments: Vec<EqPredicate> = Vec::new();
    for _ in 0..d.below(3) {
        let (attr, vs) = attr(d, pool);
        let value = Value::Lit(vs[d.below(vs.len().min(4))].clone());
        // One value per attribute: the last one drawn.
        assignments.retain(|s| s.attr != attr);
        assignments.push(EqPredicate { attr, value });
    }
    let (table, predicates) = (table.to_owned(), predicates(d, pool, 1));
    match assignments.is_empty() {
        true => Statement::Delete { table, predicates },
        false => Statement::Update {
            table,
            assignments,
            predicates,
        },
    }
}

/// A SELECT of `*`, a π, `COUNT(*)` or `COUNT(DISTINCT a)` from `from`,
/// with up to two conjuncts over `preds`, now and then ordered and
/// limited.
fn select(d: &mut Draw, from: &[&str], attrs: &Pool, preds: &Pool) -> Statement {
    let projection = match d.below(6) {
        0 => Projection::CountStar,
        1 => Projection::CountDistinct(attr(d, attrs).0),
        2 | 3 => Projection::All,
        _ => {
            let mut seen = BTreeSet::new();
            let names = (0..=d.below(3)).map(|_| attr(d, attrs).0);
            Projection::Attrs(names.filter(|a| seen.insert(a.clone())).collect())
        }
    };
    let predicates = predicates(d, preds, 0);
    let dir = [OrderDir::Asc, OrderDir::Desc];
    let order_by = (d.below(2) == 0).then(|| OrderBy::single(attr(d, attrs).0, d.pick(&dir)));
    let limit = (d.below(2) == 0).then(|| 1 + d.below(4));
    let mut joins: Vec<String> = from.iter().map(|t| t.to_string()).collect();
    let table = joins.remove(0);
    Statement::Select {
        projection,
        table,
        joins,
        predicates,
        order_by,
        limit,
    }
}

/// SHOW, SHOW FLAT, NEST … ON or UNNEST … ON.
fn read(d: &mut Draw, table: &str, pool: &Pool) -> Statement {
    let (table, attr) = (table.to_owned(), attr(d, pool).0);
    match d.below(4) {
        0 => Statement::Show { table, flat: false },
        1 => Statement::Show { table, flat: true },
        2 => Statement::Nest { table, attr },
        _ => Statement::Unnest { table, attr },
    }
}

/// A CREATE TABLE of one-letter attributes, nested in `order`.
fn create(name: &str, attrs: &str, order: &str) -> Statement {
    let letters = |s: &str| s.chars().map(String::from).collect();
    let (name, attrs, nest_order) = (name.to_owned(), letters(attrs), Some(letters(order)));
    Statement::CreateTable {
        name,
        attrs,
        nest_order,
    }
}

/// A table bulk-loaded from an `nf2-workload` generator, atom `n` named
/// `v<n>`: its label, its attributes and rows, and the values its reads
/// probe, the first attribute's first few and `ghost`.
#[derive(Debug, Clone)]
struct Loaded(String, Table, Pool);

const LOADED: &str = "w";

fn loaded(w: Workload) -> Loaded {
    let attrs: Vec<String> = w.flat.schema().attr_names().map(str::to_owned).collect();
    let name = |r: &[Atom]| r.iter().map(|a| format!("v{}", a.id())).collect();
    let rows: BTreeSet<Row> = w.flat.rows().map(name).collect();
    let mut probes: Vec<String> = rows.iter().map(|r| r[0].clone()).collect();
    probes.dedup();
    probes.truncate(5);
    probes.push("ghost".into());
    let probes = vec![(attrs[0].clone(), probes)];
    let order = attrs.clone();
    Loaded(w.label, Table { attrs, order, rows }, probes)
}

/// One generated statement: its SQL text and, but for junk text, the
/// statement it parses to.
type Stmt = (String, Option<Statement>);

/// One statement of any kind over `t(A, B, C)`, `u(C, D)` and the loaded
/// table, the refused ones included.
fn statement(d: &mut Draw, loaded: Option<&Loaded>) -> Stmt {
    let (t, u, tu) = (pool("ABC"), pool("CD"), pool("ABCD"));
    let stmt = match d.below(if loaded.is_some() { 67 } else { 64 }) {
        0..=11 => insert(d, "t", "ABC"),
        12..=20 => insert(d, "u", "CD"),
        21..=26 => write(d, "t", &t),
        27..=29 => write(d, "u", &u),
        30..=38 => select(d, &["t"], &t, &t),
        39..=41 => select(d, &["u"], &u, &u),
        42..=47 => select(d, &["t", "u"], &tu, &tu),
        48..=50 => read(d, "t", &t),
        51..=53 => read(d, "u", &u),
        54..=57 => Statement::Begin,
        58 | 59 => Statement::Commit,
        60 | 61 => Statement::Rollback,
        // An unknown table, a row of the wrong arity, DDL.
        62 => match d.below(6) {
            0 => insert(d, "x", "ABC"),
            1 => select(d, &["x"], &t, &t),
            2 => select(d, &["t", "x"], &t, &t),
            3 => insert(d, "t", "AB"),
            4 => insert(d, "u", "ABC"),
            _ => create("t", "A", "A"),
        },
        // Junk text, as is or as an INSERT's values.
        63 => {
            let letters: Vec<char> = " abcdefghijklmnopqrstuvwxyz".chars().collect();
            let junk: String = (0..d.below(21)).map(|_| d.pick(&letters)).collect();
            let sql = d.pick(&[format!("INSERT INTO t VALUES ({junk})"), junk]);
            return (sql, None);
        }
        _ => {
            let Loaded(_, table, probes) = loaded.expect("drawn with a loaded table only");
            let attrs: Pool = table.attrs.iter().map(|a| (a.clone(), vec![])).collect();
            select(d, &[LOADED], &attrs, probes)
        }
    };
    (stmt.to_string(), Some(stmt))
}

/// A case from its seed: the loaded table if any, whether segments hold
/// two tuples, and a script that creates `t` and `u` with drawn nest
/// orders, inserts into each, and goes on at random.
fn case(seed: u64) -> (Option<Loaded>, bool, Vec<Stmt>) {
    let d = &mut Draw(seed);
    let orders = ["ABC", "ACB", "BAC", "BCA", "CAB", "CBA"];
    let t = create("t", "ABC", d.pick(&orders));
    let u = create("u", "CD", d.pick(&["CD", "DC"]));
    let opening = [t, u, insert(d, "t", "ABC"), insert(d, "u", "CD")];
    let mut script: Vec<Stmt> = opening.map(|s| (s.to_string(), Some(s))).to_vec();
    let loaded = match d.below(10) {
        0 => Some(university(12, 3, 10, 2, 4, 7)),
        1 => Some(relationship(60, 10, 10, 4, 9)),
        2 => Some(block_product(6, &[3, 4], 0)),
        3 => Some(uniform(60, &[12, 12], 3)),
        4 => Some(zipf(60, &[15, 15], 1.2, 5)),
        _ => None,
    }
    .map(loaded);
    for _ in 0..=d.below(40) {
        script.push(statement(d, loaded.as_ref()));
    }
    (loaded, d.below(2) == 0, script)
}

// ---- The checks ----

macro_rules! ensure {
    ($cond:expr, $($fmt:tt)*) => {
        if !$cond {
            return Err(format!($($fmt)*));
        }
    };
}

/// The ν cascade of `rows` (Def. 5), tuples sorted: the reference, not
/// the kernel.
fn cascade<'r>(t: &NfTable, order: &[String], rows: impl Iterator<Item = &'r Row>) -> Vec<NfTuple> {
    let atoms = |r: &Row| r.iter().map(|v| t.dict().lookup(v).unwrap()).collect();
    let flat = FlatRelation::from_rows(t.schema().clone(), rows.map(atoms)).unwrap();
    let names: Vec<&str> = order.iter().map(String::as_str).collect();
    let order = NestOrder::from_names(t.schema(), &names).unwrap();
    canonicalize(&NfRelation::from_flat(&flat), &order).sorted_tuples()
}

type Got = Result<Output, QueryError>;

/// An engine of some shard count, a session on it, and the model.
struct World<'e> {
    engine: &'e Engine,
    session: Session<'e>,
    model: Model,
    /// Each table's model rows and their per-shard cascades, as last
    /// computed.
    cascades: BTreeMap<String, (BTreeSet<Row>, Vec<Vec<NfTuple>>)>,
}

impl World<'_> {
    /// Bulk-loads `l` as table `w`, in the engine and the model.
    fn load(&mut self, Loaded(_, table, _): &Loaded, shards: usize) {
        let attrs: Vec<&str> = table.attrs.iter().map(String::as_str).collect();
        let rows = table
            .rows
            .iter()
            .map(|r| r.iter().map(String::as_str).collect());
        let order = NestOrder::identity(attrs.len());
        let (spec, dict) = (ShardSpec::hash(shards).unwrap(), self.engine.dict().clone());
        let loaded = NfTable::bulk_load_strs_sharded(LOADED, &attrs, rows, order, spec, dict);
        self.engine.attach_table(loaded.unwrap()).unwrap();
        self.model.tables.insert(LOADED.into(), table.clone());
        let values = table.rows.iter().flatten().cloned();
        self.model.interned.extend(values);
    }

    /// Runs one statement on the engine and the model, and checks it.
    fn step(&mut self, (sql, stmt): &Stmt) -> Result<(), String> {
        match (stmt, stmt.as_ref().map(|s| self.model.eval(s))) {
            (Some(s @ Statement::Select { .. }), Some(want)) => self.check_select(s, &want)?,
            (_, Some(want)) => {
                let got = self.session.run(sql);
                self.check_outcome(&want, &got, false)?
            }
            (_, None) => drop(self.session.run(sql)),
        }
        self.check_state()
    }

    /// Checks 1, 2 and 5: the same refusal, `Affected` count or `COUNT`;
    /// a relation validates and expands to the model's rows (some of them
    /// under a LIMIT); `SHOW t` is the cascade of `t`'s rows.
    fn check_outcome(&self, want: &Res, got: &Got, limited: bool) -> Result<(), String> {
        let relation = || match got {
            Ok(Output::Relation { relation, .. }) => relation.validate().ok().map(|()| relation),
            _ => None,
        };
        let fine = match (want, got) {
            (Ok(Outcome::Message), Ok(Output::Message(_))) => true,
            (Err(r), Err(e)) => refusal(e) == Some(*r),
            (Ok(Outcome::Affected(n)), Ok(Output::Affected(m))) => n == m,
            (Ok(Outcome::Count(n)), Ok(Output::Count(m))) => *n as u128 == *m,
            (Ok(Outcome::Rows(attrs, rows)), _) => relation().is_some_and(|rel| {
                let name = |a: &Atom| self.engine.dict().resolve(*a).unwrap();
                let flat = rel.expand();
                let found: BTreeSet<Row> =
                    flat.rows().map(|r| r.iter().map(name).collect()).collect();
                let exact = found == *rows || limited && found.is_subset(rows);
                exact && rel.schema().attr_names().eq(attrs)
            }),
            (Ok(Outcome::Show(name)), _) => relation().is_some_and(|rel| {
                let (t, table) = (self.engine.table(name).unwrap(), &self.model.tables[name]);
                rel.sorted_tuples() == cascade(&t, &table.order, table.rows.iter())
            }),
            _ => false,
        };
        ensure!(fine, "the model says {want:?}, the engine {got:?}");
        Ok(())
    }

    /// Checks 3 and 4: `Session::run`, `Session::query` and one `Prepared`
    /// (literals as `?`) through `execute` and `query` give equal outputs;
    /// under `ORDER BY k` each tuple's key (its least `k` ascending, its
    /// greatest descending) is monotone; `LIMIT n` keeps min(n, the tuples
    /// without it) tuples. Then the outcome.
    fn check_select(&mut self, stmt: &Statement, want: &Res) -> Result<(), String> {
        let (sql, (lifted, params)) = (stmt.to_string(), stmt.clone().lift_literals());
        let dict = self.engine.dict().clone();
        // A cursor's output, as `Session::run` gives it.
        let drained = |cursor: Result<Cursor<'static>, QueryError>| {
            let (cursor, dict) = (cursor?, dict.clone());
            if let Ok(Outcome::Count(_)) = want {
                return Ok(Output::Count(cursor.flat_count()));
            }
            let relation = cursor.into_relation()?;
            Ok(Output::Relation { relation, dict })
        };
        let session = &mut self.session;
        let run = session.run(&sql);
        let mut ways = vec![("query", drained(session.query(&sql)))];
        match session.prepare(&lifted.to_string()) {
            Ok(mut p) => {
                ways.push(("prepared execute", p.execute(session, &params)));
                ways.push(("prepared query", drained(p.query(session, &params))));
            }
            Err(e) => ways.push(("prepare", Err(e))),
        }
        for (way, got) in &ways {
            let same = match (&run, got) {
                (Ok(a), Ok(b)) => a == b,
                (Err(a), Err(b)) => refusal(a) == refusal(b),
                _ => false,
            };
            ensure!(same, "run gave {run:?}, {way} gave {got:?}");
        }
        let mut unlimited = stmt.clone();
        let Statement::Select {
            limit, order_by, ..
        } = &mut unlimited
        else {
            unreachable!("a SELECT")
        };
        let (limit, order_by) = (limit.take(), order_by.clone());
        self.check_outcome(want, &run, limit.is_some())?;
        let Ok(Output::Relation { relation, .. }) = &run else {
            return Ok(());
        };
        if let Some(n) = limit {
            let all = self.session.run(&unlimited.to_string());
            let Ok(Output::Relation { relation: all, .. }) = all else {
                return Err(format!("without its LIMIT: {all:?}"));
            };
            let (kept, of) = (relation.tuple_count(), all.tuple_count());
            ensure!(kept == of.min(n), "LIMIT {n} kept {kept} of {of} tuples");
        }
        for key in order_by.iter().flat_map(|o| &o.keys) {
            let at = relation.schema().attr_id(&key.attr).unwrap();
            let desc = key.dir == OrderDir::Desc;
            let mut keys = Vec::new();
            for t in relation.tuples() {
                let set = t.component(at).iter().map(|a| dict.resolve(a).unwrap());
                keys.push(if desc { set.max() } else { set.min() }.unwrap());
            }
            let sorted = keys.is_sorted_by(|a, b| a == b || (a < b) != desc);
            ensure!(sorted, "{key} keys out of order: {keys:?}");
        }
        Ok(())
    }

    /// Check 6: each shard holds exactly the cascade of the model rows
    /// routed to it, canonical-form uniqueness held at the system level.
    fn check_state(&mut self) -> Result<(), String> {
        let open = self.session.in_transaction();
        ensure!(open == self.model.txn.is_some(), "transaction open: {open}");
        for (name, table) in &self.model.tables {
            let t = self.engine.table(name).unwrap();
            if self
                .cascades
                .get(name)
                .is_none_or(|(rows, _)| *rows != table.rows)
            {
                let mut routed = vec![Vec::new(); t.shard_count()];
                for r in &table.rows {
                    let atoms: Vec<Atom> = r.iter().map(|v| t.dict().lookup(v).unwrap()).collect();
                    routed[t.routing().route_row(&atoms)].push(r);
                }
                let shards = routed
                    .into_iter()
                    .map(|rows| cascade(&t, &table.order, rows.into_iter()));
                let rows_and_shards = (table.rows.clone(), shards.collect());
                self.cascades.insert(name.clone(), rows_and_shards);
            }
            let sharded = t.sharded();
            for (s, want) in self.cascades[name].1.iter().enumerate() {
                let held = sharded.shard(s).relation().sorted_tuples();
                ensure!(held == *want, "shard {s} of {name} holds {held:?}");
            }
        }
        Ok(())
    }
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every statement of a random script, on 1, 2, 4 and 7 shards,
    /// means what the model says it means.
    #[test]
    fn every_statement_means_what_the_model_says_on_every_shard_count(seed in any::<u64>()) {
        let n = CASE.fetch_add(1, Ordering::Relaxed);
        let (loaded, small_segments, script) = case(seed);
        for shards in [1, 2, 4, 7] {
            let engine = Engine::builder().shards(shards).build().unwrap();
            let (session, model, cascades) = (engine.session(), Model::default(), BTreeMap::new());
            let mut world = World { engine: &engine, session, model, cascades };
            let mut done = Vec::new();
            if let Some(l) = &loaded {
                world.load(l, shards);
                done.push(format!("-- load {LOADED} from {}", l.0));
            }
            for (i, stmt) in script.iter().enumerate() {
                done.push(stmt.0.clone());
                if let Err(why) = world.step(stmt) {
                    let rng = std::env::var("PROPTEST_RNG_SEED").unwrap_or_else(|_| "0".into());
                    panic!(
                        "case {n} (PROPTEST_RNG_SEED={rng}, seed {seed}) on {shards} shard(s): \
                         {why}\nscript, failing statement last:\n{}",
                        done.join(";\n")
                    );
                }
                // After the two CREATEs, tiny segments, so that zones prune.
                if i == 1 && small_segments {
                    engine.tables().iter().for_each(|(_, t)| t.set_segment_rows(2));
                    done.push("-- set_segment_rows(2) on every table".to_owned());
                }
            }
        }
    }
}
