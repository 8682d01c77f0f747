//! The executor the engine runs ≡ the paper's §3 reference algebra.
//!
//! Every SELECT goes through one compiled pull pipeline
//! (`PhysPlan::stream_restricted`), reached three ways: `Session::run`,
//! `Prepared::execute`, and a drained `Session::query` cursor. For every
//! `nf2-workload` generator × shards {1, 4}, each of those must return
//! exactly the flat rows `Expr::eval` — the strict, blocking `ops::*`
//! semantics — computes for the same logical plan over the tables'
//! canonical relations: scans, selections (on the routing attribute, off
//! it, IN-lists with unknown members, never-interned values),
//! projections, and two- and three-way joins.
//!
//! Rows in a set cannot see a projection wrongly compiled to the
//! streaming arm (overlapping rectangles expand to the same set), so
//! every path must also return *disjoint* tuples: they `validate()`, and
//! their expansion counts sum to `|R*|` — no row twice. The projection
//! shapes name the arm they must compile to, so neither arm can
//! silently take over the other's cases.

use std::collections::BTreeSet;

use proptest::prelude::*;

use nf2_algebra::{Env, Expr};
use nf2_core::relation::NfRelation;
use nf2_core::schema::NestOrder;
use nf2_core::shard::ShardSpec;
use nf2_core::tuple::FlatTuple;
use nf2_core::value::Atom;
use nf2_query::{Engine, Output};
use nf2_storage::NfTable;
use nf2_workload as workload;

/// One SELECT, as SQL text, as a `?`-parameterized statement with its
/// bindings, and as the logical plan the reference algebra evaluates.
struct Shape {
    sql: String,
    prepared: String,
    params: Vec<String>,
    /// `None`: some conjunct names no value the dictionary knows, so the
    /// answer is empty whatever the tables hold.
    expr: Option<Expr>,
    /// The projection list, when there is one: the output schema every
    /// path must report, statically-empty results included.
    columns: Option<Vec<String>>,
    /// Which projection arm `EXPLAIN` must show (`None`: don't care).
    streams: Option<bool>,
}

impl Shape {
    fn arm(mut self, streams: bool) -> Shape {
        self.streams = Some(streams);
        self
    }
}

/// `SELECT projection FROM tables[0] JOIN tables[1] … WHERE predicates`.
fn shape(
    engine: &Engine,
    projection: Option<&[&str]>,
    tables: &[&str],
    predicates: &[(&str, &[String])],
) -> Shape {
    let head = format!(
        "SELECT {} FROM {}",
        projection.map_or("*".to_owned(), |attrs| attrs.join(", ")),
        tables.join(" JOIN ")
    );
    let conjunct = |attr: &str, values: Vec<String>| match values.as_slice() {
        [one] => format!("{attr} = {one}"),
        many => format!("{attr} IN ({})", many.join(", ")),
    };
    let where_clause = |render: &dyn Fn(&String) -> String| {
        if predicates.is_empty() {
            return String::new();
        }
        let conjuncts: Vec<String> = predicates
            .iter()
            .map(|(attr, values)| conjunct(attr, values.iter().map(render).collect()))
            .collect();
        format!(" WHERE {}", conjuncts.join(" AND "))
    };

    let mut expr = Expr::rel(tables[0]);
    for other in &tables[1..] {
        expr = Expr::Join(Box::new(expr), Box::new(Expr::rel(*other)));
    }
    let constraints: Vec<(String, Vec<_>)> = predicates
        .iter()
        .map(|(attr, values)| {
            let known = values.iter().filter_map(|v| engine.dict().lookup(v));
            ((*attr).to_owned(), known.collect())
        })
        .collect();
    let satisfiable = constraints.iter().all(|(_, atoms)| !atoms.is_empty());
    if !constraints.is_empty() {
        expr = Expr::SelectBox {
            input: Box::new(expr),
            constraints,
        };
    }
    if let Some(attrs) = projection {
        expr = Expr::Project {
            input: Box::new(expr),
            attrs: attrs.iter().map(|a| (*a).to_owned()).collect(),
        };
    }
    Shape {
        sql: format!("{head}{}", where_clause(&|v| format!("'{v}'"))),
        prepared: format!("{head}{}", where_clause(&|_| "?".to_owned())),
        params: predicates
            .iter()
            .flat_map(|(_, values)| values.iter().cloned())
            .collect(),
        expr: satisfiable.then_some(expr),
        columns: projection.map(|attrs| attrs.iter().map(|a| (*a).to_owned()).collect()),
        streams: None,
    }
}

/// The flat rows of a result, after checking that its tuples are what
/// Def. 7 promises (pairwise disjoint: they validate, and no row is
/// counted twice) under the schema the statement declares. Explicit,
/// because in a release build the pipeline's `from_disjoint_tuples`
/// trusts its input.
fn rows_of(
    relation: &NfRelation,
    columns: &Option<Vec<String>>,
) -> Result<BTreeSet<FlatTuple>, String> {
    relation
        .validate()
        .map_err(|e| format!("invalid result: {e}"))?;
    let rows: BTreeSet<FlatTuple> = relation.expand().rows().map(<[Atom]>::to_vec).collect();
    let counted: u128 = relation.tuples().iter().map(|t| t.expansion_count()).sum();
    if counted != rows.len() as u128 {
        return Err(format!(
            "tuples expand to {counted} rows, {} distinct",
            rows.len()
        ));
    }
    if let Some(columns) = columns {
        if !relation
            .schema()
            .attr_names()
            .eq(columns.iter().map(String::as_str))
        {
            return Err(format!("schema {} is not {columns:?}", relation.schema()));
        }
    }
    Ok(rows)
}

fn relation_of(output: Output) -> NfRelation {
    match output {
        Output::Relation { relation, .. } => relation,
        other => panic!("expected a relation, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn compiled_pipeline_matches_reference_algebra(seed in any::<u64>()) {
        for w in workload::all_generators(seed) {
            for shards in [1usize, 4] {
                let engine = Engine::builder().shards(shards).build().unwrap();
                // t: the workload itself, atoms interned as `v<id>`, under
                // the identity order — its last attribute routes shards.
                let attrs: Vec<&str> = w.flat.schema().attr_names().collect();
                let (first, last) = (attrs[0], attrs[attrs.len() - 1]);
                let data: Vec<Vec<String>> = w
                    .flat
                    .rows()
                    .map(|row| row.iter().map(|a| format!("v{}", a.id())).collect())
                    .collect();
                let table = NfTable::bulk_load_strs_sharded(
                    "t",
                    &attrs,
                    data.iter().map(|r| r.iter().map(String::as_str).collect()),
                    NestOrder::identity(attrs.len()),
                    ShardSpec::hash(shards).unwrap(),
                    engine.dict().clone(),
                )
                .unwrap();
                engine.attach_table(table).unwrap();
                // u(last, X) and v(X, Y): join partners that match some of
                // t's routing values and leave `x2` dangling.
                let outer: Vec<String> = data
                    .iter()
                    .map(|r| r[attrs.len() - 1].clone())
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .take(6)
                    .collect();
                let inner: Vec<String> =
                    data.iter().map(|r| r[0].clone()).collect::<BTreeSet<_>>().into_iter().collect();
                let mut session = engine.session();
                session.run(&format!("CREATE TABLE u ({last}, X)")).unwrap();
                for (i, value) in outer.iter().enumerate() {
                    session
                        .run(&format!("INSERT INTO u VALUES ('{value}', 'x{}')", i % 3))
                        .unwrap();
                }
                session
                    .run_script(
                        "CREATE TABLE v (X, Y);
                         INSERT INTO v VALUES ('x0','y0'), ('x1','y1'), ('x1','y0');",
                    )
                    .unwrap();

                let one = |v: &str| vec![v.to_owned()];
                let in_list = [outer[0].clone(), outer[outer.len() - 1].clone(), "ghost".to_owned()];
                let mid = inner[inner.len() / 2].as_str();
                let (but_first, but_last) = (&attrs[1..], &attrs[..attrs.len() - 1]);
                let reversed: Vec<&str> = attrs.iter().rev().copied().collect();
                let shapes = [
                    shape(&engine, None, &["t"], &[]),
                    shape(&engine, None, &["t"], &[(last, &one(&outer[0]))]),
                    shape(&engine, None, &["t"], &[(first, &one(&inner[inner.len() / 2]))]),
                    shape(&engine, None, &["t"], &[(last, &in_list)]),
                    shape(&engine, None, &["t"], &[(first, &one("never-interned"))]),
                    shape(&engine, Some(&[first]), &["t"], &[(last, &one(&outer[0]))]),
                    shape(&engine, Some(&[last, first]), &["t"], &[]),
                    shape(&engine, None, &["t", "u"], &[]),
                    shape(&engine, Some(&[first, "X"]), &["t", "u"], &[("X", &one("x1"))]),
                    shape(
                        &engine,
                        Some(&[first, "Y"]),
                        &["t", "u", "v"],
                        &[("Y", &one("y0")), (last, &in_list)],
                    ),
                    // π dropping exactly the pinned attribute — the
                    // routing one, then a non-routing one — streams; so
                    // does a π that only permutes.
                    shape(&engine, Some(but_last), &["t"], &[(last, &one(&outer[0]))]).arm(true),
                    shape(&engine, Some(but_first), &["t"], &[(first, &one(mid))]).arm(true),
                    shape(&engine, Some(&reversed), &["t"], &[]).arm(true),
                    // One pinned conjunct beside an IN list: dropping the
                    // IN attribute must block, keeping it streams.
                    shape(&engine, Some(but_last), &["t"], &[(first, &one(mid)), (last, &in_list)])
                        .arm(false),
                    shape(&engine, Some(but_first), &["t"], &[(first, &one(mid)), (last, &in_list)])
                        .arm(true),
                    // Contradictory equalities still pin; the result is empty.
                    shape(
                        &engine,
                        Some(but_first),
                        &["t"],
                        &[(first, &one(&inner[0])), (first, &one(&inner[inner.len() - 1]))],
                    )
                    .arm(true),
                    // Statically empty: nothing runs, the schema stays.
                    shape(&engine, Some(but_first), &["t"], &[(first, &one("never-interned"))]),
                    // The pin arrives through the join's right side.
                    shape(&engine, Some(&attrs), &["t", "u"], &[("X", &one("x1"))]).arm(true),
                ];

                let mut env = Env::new();
                for name in ["t", "u", "v"] {
                    env.insert(name, engine.table(name).unwrap().snapshot().canonical());
                }
                for s in &shapes {
                    let expected = match &s.expr {
                        Some(expr) => expr
                            .eval(&env)
                            .unwrap()
                            .expand()
                            .rows()
                            .map(<[Atom]>::to_vec)
                            .collect(),
                        None => BTreeSet::new(),
                    };
                    let context = format!("{} at {shards} shard(s): {}", w.label, s.sql);
                    if let Some(streams) = s.streams {
                        let plan = session.run(&format!("EXPLAIN {}", s.sql)).unwrap().to_text();
                        prop_assert_eq!(plan.contains(" | streaming]"), streams, "{}\n{}", &context, plan);
                    }
                    let ran = relation_of(session.run(&s.sql).unwrap());
                    prop_assert_eq!(rows_of(&ran, &s.columns), Ok(expected.clone()), "run: {}", &context);
                    let mut prepared = session.prepare(&s.prepared).unwrap();
                    let executed = relation_of(prepared.execute(&mut session, &s.params).unwrap());
                    prop_assert_eq!(
                        rows_of(&executed, &s.columns), Ok(expected.clone()), "prepared: {}", &context
                    );
                    let streamed = session.query(&s.sql).unwrap().into_relation().unwrap();
                    prop_assert_eq!(
                        rows_of(&streamed, &s.columns), Ok(expected.clone()), "cursor: {}", &context
                    );
                    if s.streams == Some(true) {
                        // LIMIT over a streamed π cuts the tuple stream,
                        // not the rows: a disjoint part of the result.
                        let limited = session.query(&format!("{} LIMIT 2", s.sql)).unwrap();
                        let limited = limited.into_relation().unwrap();
                        prop_assert_eq!(
                            limited.tuple_count(), streamed.tuple_count().min(2), "{}", &context
                        );
                        let rows = rows_of(&limited, &s.columns);
                        prop_assert!(
                            rows.as_ref().is_ok_and(|r| r.is_subset(&expected)), "{}: {:?}", &context, rows
                        );
                    }
                }
            }
        }
    }
}
