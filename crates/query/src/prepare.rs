//! Prepared statements: parse once, plan once, execute many times.
//!
//! A [`Prepared`] handle owns the parsed statement and, for SELECTs, a
//! `SelectPlan`: the optimized algebra expression in which **every**
//! predicate value — inline literal or `?` parameter — is a late-bound
//! *slot*. Executing binds the slots against the dictionary of the
//! moment and streams the result, so:
//!
//! * the lexer, parser and rule-based optimizer run exactly once per
//!   statement text (the hot loop pays only dictionary lookups and
//!   evaluation — the benchmark's `query.run_over_prepared` prices it);
//! * literals are resolved at execute time, exactly like the one-shot
//!   path — a value interned *after* `prepare()` is still found;
//! * DDL invalidates nothing by hand: plans remember the engine's
//!   [`ddl_epoch`](crate::Engine::ddl_epoch) and transparently re-plan
//!   when the catalog changed underneath them.
//!
//! The one-shot path shares plans too. A `PlanCache` keeps one plan
//! per *shape* — the statement's text with its literals lifted to `?`
//! parameters ([`shape`](crate::token::shape)) — so the parser,
//! planner and optimizer run exactly once per shape and epoch, not per
//! statement text: a `Session::run` or `Session::query` of a SELECT
//! whose shape is cached only scans its text for that shape and its
//! literals.
//!
//! Slots ride through the optimizer as reserved atom ids (the dictionary
//! interns atoms densely from zero and would need ~4 billion distinct
//! values to collide), which keeps `nf2-algebra` entirely ignorant of
//! parameters.

use std::collections::HashMap;
use std::sync::Arc;

use nf2_algebra::optimize::Applied;
use nf2_algebra::stream::{
    filter_box, lazy_iter, select_project, AtomCmp, JoinLayout, OpTally, RelStream, SelectProject,
    SortDir, TopKStats, TupleIter, TupleOrder,
};
use nf2_algebra::{check, estimate, optimize, optimize_observed, Expr, SchemaCatalog};
use nf2_core::chunk::{ChunkBuilder, Rewrite};
use nf2_core::relation::NfRelation;
use nf2_core::schema::{NestOrder, Schema};
use nf2_core::tuple::{NfTuple, TupleRef, TupleView, ValueSet};
use nf2_core::value::Atom;
use nf2_obs::{Counter, Obs, Stopwatch};
use nf2_storage::{Located, NfTable, SharedDictionary, TableScan, TableSnapshot};

use crate::ast::{OrderBy, OrderDir, Projection, Statement, Value};
use crate::cursor::Cursor;
use crate::engine::{explain_expr, Engine, Session};
use crate::exec::{Output, QueryError};

/// A parameter value bound to one `?` placeholder at execute time.
///
/// Anything string-like binds (`Param` implements `From<&str>` /
/// `From<String>`, and the execute methods accept any `AsRef<str>`, so
/// `&["s1"]` works directly). Use [`NO_PARAMS`] for statements without
/// placeholders.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Param(String);

impl Param {
    /// The bound string value.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Param {
    fn from(s: &str) -> Self {
        Param(s.to_owned())
    }
}

impl From<String> for Param {
    fn from(s: String) -> Self {
        Param(s)
    }
}

impl AsRef<str> for Param {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

/// The empty parameter list, for executing parameterless prepared
/// statements without type-annotating an empty slice.
pub const NO_PARAMS: &[Param] = &[];

/// First atom id reserved for plan slots (the top 2²⁴ ids). The
/// dictionary interns ids densely from 0, so real data would need ~4.3
/// billion distinct values to reach this range; [`SelectPlan::of`]
/// checks both sides anyway — the dictionary must stay below the range
/// and a statement may not declare more value slots than the range
/// holds.
pub(crate) const SLOT_BASE: u32 = u32::MAX - 0x00FF_FFFF;

/// The dictionary side of the slot-range guard: every interned atom
/// must stay below [`SLOT_BASE`], or a value could pass for a slot. A
/// plan checks it when it is built, and a cached plan each time the
/// cache hands it out.
fn check_slot_range(engine: &Engine) -> Result<(), QueryError> {
    if engine.dict().len() as u64 >= SLOT_BASE as u64 {
        return Err(QueryError::Semantic(
            "dictionary exhausted the slot-atom range".into(),
        ));
    }
    Ok(())
}

/// What a slot resolves to at bind time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Slot {
    /// An inline literal: looked up in the dictionary per execution.
    Lit(String),
    /// The `n`-th `?` parameter.
    Param(usize),
}

/// One node of a compiled physical pipeline. Table indices, attribute
/// ids, join layouts and output schemas are resolved **once**, at
/// prepare time, so an execution only binds values and flows tuples —
/// no name resolution, schema construction or plan traversal per call.
#[derive(Debug, Clone)]
pub(crate) enum Phys {
    /// Counted scan of the `n`-th table of [`SelectPlan::tables`].
    Scan {
        /// Index into the plan's table list.
        table: usize,
        /// **Shard pruning**: bound-store indices of the enclosing
        /// selection's conjuncts on this table's shard-routing attribute
        /// (the outermost nest attribute `P(n−1)`). At execute time the
        /// bound value sets resolve to a shard set through the table's
        /// router and the scan touches only those shards — an equality
        /// on the outer attribute over `N` hash shards scans exactly
        /// one. Empty for unsharded tables or plans without a routable
        /// conjunct (full scan).
        prune: Vec<usize>,
        /// **Located scan**: `(attribute id, bound-store index)` for
        /// *every* conjunct of the enclosing selection — not just
        /// routing-attribute ones. At execute time the bound value sets
        /// are looked up in each segment's value-major columns and the
        /// scan yields exactly the tuples intersecting all of them; a
        /// segment holding none is skipped. The enclosing selection
        /// still narrows every located tuple to the box, inside the
        /// scan ([`located_step`]).
        zone: Vec<(usize, usize)>,
    },
    /// Box selection; constraint `k` reads its per-call atoms from the
    /// bound-value store at `flat` index `k`.
    Select {
        /// Upstream node.
        input: Box<Phys>,
        /// `(attribute id, bound-store index)` conjuncts.
        constraints: Vec<(usize, usize)>,
    },
    /// Projection, in one of two arms chosen at prepare time by the
    /// static form of Def. 7 ([`RelType::unpinned_drop`]): when every
    /// dropped attribute is pinned to one value by the plan below, the
    /// projection is fixed by construction and **streams** — each pulled
    /// tuple's kept components, in upstream order, nothing buffered.
    /// A streaming projection directly over a [`Phys::Select`] runs
    /// with it as one per-tuple step ([`select_project`]): a
    /// constrained attribute it drops is only tested, and each output
    /// tuple is built once. Where that selection (or the projection
    /// itself) sits directly over a [`Phys::Scan`], the step runs inside
    /// the scan ([`located_step`]) and writes its output into blocks.
    /// The plan, its EXPLAIN text and its `EXPLAIN ANALYZE` lines stay
    /// one node per operator; the selection's line reports the fused
    /// step, its rows (one per output tuple) and its time. Otherwise
    /// the projection **blocks**: it drains its input and delegates to
    /// [`nf2_algebra::project`], which tests Def. 7 on the instance and
    /// re-nests when it fails.
    ///
    /// [`RelType::unpinned_drop`]: nf2_algebra::RelType::unpinned_drop
    Project {
        /// Upstream node.
        input: Box<Phys>,
        /// The upstream schema (the blocking arm materializes under it).
        input_schema: Arc<Schema>,
        /// Kept attribute ids, in output order.
        attrs: Arc<Vec<usize>>,
        /// Which arm; `EXPLAIN VERIFY` re-derives it from the template.
        streaming: bool,
    },
    /// Natural join: streamed probe (left), materialized build (right).
    Join {
        /// Probe side.
        left: Box<Phys>,
        /// Build side.
        right: Box<Phys>,
        /// The shared/appended attribute layout and output schema —
        /// computed by (and executed through) the algebra's
        /// [`JoinLayout`], so the join semantics live in one place.
        layout: Arc<JoinLayout>,
    },
}

/// A compiled pipeline plus its output schema.
#[derive(Debug, Clone)]
pub(crate) struct PhysPlan {
    pub(crate) root: Phys,
    pub(crate) schema: Arc<Schema>,
}

/// Number of nodes in a physical subtree — the stride of the structural
/// pre-order numbering `EXPLAIN ANALYZE` uses to address tallies (node
/// `i`'s first child is `i + 1`; a join's right child is
/// `i + 1 + phys_size(left)`). Both the executor and the renderer walk
/// this same numbering, so an operator's tally is position-stable no
/// matter in which order the pipeline was constructed.
pub(crate) fn phys_size(node: &Phys) -> usize {
    match node {
        Phys::Scan { .. } => 1,
        Phys::Select { input, .. } | Phys::Project { input, .. } => 1 + phys_size(input),
        Phys::Join { left, right, .. } => 1 + phys_size(left) + phys_size(right),
    }
}

/// `EXPLAIN ANALYZE` instrumentation for one execution: one shared
/// [`OpTally`] per physical node (pre-order; shared across a merge
/// path's per-shard pipelines, which sum into the same tallies), plus
/// the order-operator actuals the cursor records when it picks a path.
#[derive(Debug)]
pub(crate) struct AnalyzeExec {
    /// Per-node actuals, indexed by the [`phys_size`] pre-order.
    pub(crate) tallies: Vec<Arc<OpTally>>,
    /// The order path the cursor actually took (the dynamic decision —
    /// a merge-eligible plan can still fall back at run time).
    pub(crate) order_path: Option<String>,
    /// Heap counters when the top-k path ran.
    pub(crate) topk: Option<Arc<TopKStats>>,
    /// Whether binding found a statically-empty result (no pipeline ran).
    pub(crate) statically_empty: bool,
}

/// A pull-pipeline wrapper recording per-operator actuals: every `next`
/// is clocked (inclusive — a parent's time contains its children, like
/// `EXPLAIN ANALYZE` in PostgreSQL) and every yielded tuple counts one
/// row. Only constructed on analyze runs; plain execution never pays
/// the per-tuple stopwatch.
struct Timed<I> {
    inner: I,
    tally: Arc<OpTally>,
    /// The selection running fused into this streaming projection
    /// ([`fused_select`]): it passed exactly the tuples the projection
    /// yields, in the same step, so it is credited the same rows and
    /// time.
    fused: Option<Arc<OpTally>>,
}

impl<I: Iterator> Iterator for Timed<I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let sw = Stopwatch::start();
        let item = self.inner.next();
        let nanos = sw.elapsed_nanos();
        for tally in std::iter::once(&self.tally).chain(&self.fused) {
            tally.add_nanos(nanos);
            if item.is_some() {
                tally.add_row();
            }
        }
        item
    }
}

/// [`Timed`] for a [`Located`] step, which runs up to three plan nodes
/// in one: each output tuple counts one row of the step's top node and
/// of a σ fused under it (`outputs`), and each tuple the scan located
/// one row of the scan's node. All of them are credited the step's
/// time, which they share.
struct TimedStep<I> {
    step: I,
    outputs: Vec<Arc<OpTally>>,
    scan: Arc<OpTally>,
    /// Located tuples already credited to `scan`.
    credited: u64,
}

impl<F> Iterator for TimedStep<Located<F>>
where
    F: FnMut(TupleRef<'_>, &mut ChunkBuilder) -> Rewrite,
{
    type Item = TupleView<'static>;

    fn next(&mut self) -> Option<TupleView<'static>> {
        let sw = Stopwatch::start();
        let item = self.step.next();
        let nanos = sw.elapsed_nanos();
        for tally in &self.outputs {
            tally.add_nanos(nanos);
            if item.is_some() {
                tally.add_row();
            }
        }
        let located = self.step.located();
        self.scan.add_nanos(nanos);
        self.scan.add_rows(located - self.credited);
        self.credited = located;
        item
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.step.size_hint()
    }
}

/// The nodes a located step runs as one ([`TableScan::located`]): a
/// [`Phys::Select`] directly over a [`Phys::Scan`], or a streaming
/// [`Phys::Project`] over either ([`located_step`]).
struct StepNodes<'p> {
    /// The scan.
    scan: &'p Phys,
    /// σ's conjuncts (none without a σ).
    constraints: &'p [(usize, usize)],
    /// π's kept attributes (`None` without a π).
    attrs: Option<&'p Arc<Vec<usize>>>,
    /// Nodes above the scan.
    above: usize,
}

/// The nodes `node` and those below it run as one located step, if
/// they are one.
fn located_step(node: &Phys) -> Option<StepNodes<'_>> {
    fn step<'p>(
        scan: &'p Phys,
        constraints: &'p [(usize, usize)],
        attrs: Option<&'p Arc<Vec<usize>>>,
        above: usize,
    ) -> Option<StepNodes<'p>> {
        matches!(scan, Phys::Scan { .. }).then_some(StepNodes {
            scan,
            constraints,
            attrs,
            above,
        })
    }
    match node {
        Phys::Select { input, constraints } => step(input, constraints, None, 1),
        Phys::Project {
            input,
            attrs,
            streaming: true,
            ..
        } => match &**input {
            Phys::Select { input, constraints } => step(input, constraints, Some(attrs), 2),
            scan => step(scan, &[], Some(attrs), 1),
        },
        _ => None,
    }
}

/// The scan of a [`Phys::Scan`] node: shards pruned by the `prune`
/// conjuncts and, with `only_shard`, to that one; the tuples the
/// `zone` conjuncts locate. Also gives the zone conjuncts with their
/// bound values.
fn open_scan(
    t: &TableSnapshot,
    prune: &[usize],
    zone: &[(usize, usize)],
    bound: &[ValueSet],
    only_shard: Option<usize>,
) -> (TableScan, Vec<(usize, ValueSet)>) {
    if prune.is_empty() && zone.is_empty() && only_shard.is_none() {
        return (t.scan(), Vec::new());
    }
    // Every pruning conjunct must be satisfied, so the scannable shards
    // are the intersection of the per-conjunct shard sets (each sorted
    // ascending).
    let mut shards = t
        .routing()
        .shards_for_conjuncts(prune.iter().map(|&flat| bound[flat].as_slice()));
    if let Some(only) = only_shard {
        shards.retain(|&s| s == only);
    }
    let zones = resolve(zone, bound);
    (t.scan_shards_zoned(&shards, &zones), zones)
}

/// The input and conjuncts of the selection a streaming projection
/// runs fused with ([`select_project`]): its input, when that is a
/// [`Phys::Select`].
fn fused_select(node: &Phys) -> Option<(&Phys, &[(usize, usize)])> {
    match node {
        Phys::Project {
            input,
            streaming: true,
            ..
        } => match &**input {
            Phys::Select { input, constraints } => Some((input, constraints)),
            _ => None,
        },
        _ => None,
    }
}

/// A selection's `(attribute id, bound-store index)` conjuncts with
/// their bound value sets.
fn resolve(constraints: &[(usize, usize)], bound: &[ValueSet]) -> Vec<(usize, ValueSet)> {
    constraints
        .iter()
        .map(|&(attr, flat)| (attr, bound[flat].clone()))
        .collect()
}

/// Everything an `EXPLAIN ANALYZE` render needs: the per-operator
/// actuals plus the drained result size and total wall time.
#[derive(Debug)]
pub(crate) struct AnalyzeReport {
    pub(crate) exec: AnalyzeExec,
    pub(crate) result_rows: u64,
    pub(crate) total_nanos: u64,
}

impl PhysPlan {
    /// Compiles an optimized planner expression. The planner and the
    /// optimizer's two rewrite rules only ever produce scan/select/project/
    /// join shapes; any other node is an internal error, raised here
    /// rather than degraded to a second executor.
    ///
    /// The `flat` constraint numbering follows the same traversal as
    /// `SelectPlan::bind_flat`: each `SelectBox`'s own entries first,
    /// then its input; joins left before right.
    fn compile(
        expr: &Expr,
        tables: &[String],
        engine: &Engine,
        next_flat: &mut usize,
    ) -> Result<PhysPlan, QueryError> {
        let outside = || {
            QueryError::Semantic(
                "internal error: the optimizer produced a plan shape outside \
                 scan/select/project/join"
                    .into(),
            )
        };
        match expr {
            Expr::Rel(name) => Ok(PhysPlan {
                root: Phys::Scan {
                    table: tables.iter().position(|t| t == name).ok_or_else(outside)?,
                    prune: Vec::new(),
                    zone: Vec::new(),
                },
                schema: engine.table(name)?.schema().clone(),
            }),
            Expr::SelectBox { input, constraints } => {
                let own_base = *next_flat;
                *next_flat += constraints.len();
                let mut child = Self::compile(input, tables, engine, next_flat)?;
                let resolved = constraints
                    .iter()
                    .enumerate()
                    .map(|(k, (name, _))| Ok((child.schema.attr_id(name)?, own_base + k)))
                    .collect::<Result<Vec<_>, nf2_core::NfError>>()?;
                // Selection directly over a sharded scan: conjuncts on
                // the routing attribute `P(n−1)` become shard pruners —
                // the optimizer's pushdown already parks each conjunct
                // on its owning table, so this catches pushed-down
                // equalities and IN lists on every join side.
                if let Phys::Scan { table, prune, zone } = &mut child.root {
                    let t = engine.table(&tables[*table])?;
                    if t.shard_count() > 1 {
                        if let Some(route_attr) = t.routing().attr() {
                            for (attr, flat) in &resolved {
                                if *attr == route_attr {
                                    prune.push(*flat);
                                }
                            }
                        }
                    }
                    // Every conjunct — routing or not — also goes to the
                    // segments, which locate the tuples to scan.
                    zone.extend(resolved.iter().copied());
                }
                Ok(PhysPlan {
                    root: Phys::Select {
                        input: Box::new(child.root),
                        constraints: resolved,
                    },
                    schema: child.schema,
                })
            }
            Expr::Project { input, attrs } => {
                let child = Self::compile(input, tables, engine, next_flat)?;
                let ids = attrs
                    .iter()
                    .map(|n| child.schema.attr_id(n))
                    .collect::<Result<Vec<_>, _>>()?;
                let names = ids
                    .iter()
                    .map(|&a| child.schema.attr_name(a))
                    .collect::<Result<Vec<_>, _>>()?;
                let schema = Schema::new(format!("{}_proj", child.schema.name()), &names)?;
                debug_assert_eq!(
                    nf2_algebra::project(
                        &NfRelation::new(child.schema.clone()),
                        &ids,
                        &NestOrder::identity(ids.len()),
                    )
                    .map(|r| r.schema().clone()),
                    Ok(schema.clone()),
                    "both arms must yield ops::project's output schema"
                );
                // The child compiled, so the template below this node is
                // well-typed; a checker error here is a planner bug.
                let input_ty = check::infer(input, &crate::verify::check_catalog(tables, engine)?)
                    .map_err(|e| QueryError::Verify(e.to_string()))?;
                Ok(PhysPlan {
                    root: Phys::Project {
                        input: Box::new(child.root),
                        input_schema: child.schema,
                        attrs: Arc::new(ids),
                        streaming: input_ty.unpinned_drop(attrs).is_none(),
                    },
                    schema,
                })
            }
            Expr::Join(l, r) => {
                let left = Self::compile(l, tables, engine, next_flat)?;
                let right = Self::compile(r, tables, engine, next_flat)?;
                let layout = Arc::new(JoinLayout::of(&left.schema, &right.schema)?);
                let schema = layout.schema.clone();
                Ok(PhysPlan {
                    root: Phys::Join {
                        left: Box::new(left.root),
                        right: Box::new(right.root),
                        layout,
                    },
                    schema,
                })
            }
            // Nest/Unnest/Union/… never come out of the planner.
            _ => Err(outside()),
        }
    }

    /// Builds the per-call pipeline over the resolved tables and bound
    /// constraint values.
    ///
    /// The pipeline is **pull-driven end to end**. Scans, selections,
    /// a join's probe side and a streaming projection hand each tuple
    /// on as it is pulled, so `LIMIT n`, a dropped cursor and the first
    /// row all stop the scan early. A σ or streaming π over a scan runs
    /// inside it ([`located_step`]) and makes its outputs a block of 1,
    /// 2, 4, … 64 at a time; `limit` (the statement's `LIMIT`, given
    /// where no order operator sits above the root) caps the root's
    /// blocks, so such a step probes exactly what the statement
    /// returns. The two blocking stages — a join's build side and the
    /// blocking arm of a projection, which must see
    /// its whole input to test Def. 7 and eliminate duplicates — defer
    /// their materialization behind [`lazy_iter`] until the first tuple
    /// is demanded, so a consumer that never pulls (`LIMIT 0`) pays
    /// zero scan probes on every plan shape.
    ///
    /// The pipeline reads **pinned snapshots**, not live tables: every
    /// scan streams the shard versions the snapshot holds, so the
    /// result is the canonical form as of the statement's epoch no
    /// matter what concurrent writers install meanwhile — and the
    /// returned iterator is `'static`, owning its shard `Arc`s.
    ///
    /// When `only_shard` is set, every scan touches at most that shard
    /// (in addition to its prune/zone filtering); the k-way merge path
    /// builds one such pipeline per shard so each stays in segment
    /// order. With `tallies` (one per node, [`phys_size`] pre-order)
    /// every operator's output is wrapped in a [`Timed`] counter for
    /// `EXPLAIN ANALYZE`.
    fn stream_restricted(
        &self,
        tables: &[TableSnapshot],
        bound: &[ValueSet],
        only_shard: Option<usize>,
        tallies: Option<&[Arc<OpTally>]>,
        limit: Option<usize>,
    ) -> TupleIter<'static> {
        /// `limit` caps what the node yields; only the root, and only
        /// where nothing above it reorders, is given one.
        fn go(
            node: &Phys,
            tables: &[TableSnapshot],
            bound: &[ValueSet],
            only_shard: Option<usize>,
            tallies: Option<&[Arc<OpTally>]>,
            idx: usize,
            limit: Option<usize>,
        ) -> TupleIter<'static> {
            if let Some(StepNodes {
                scan,
                constraints,
                attrs,
                above,
            }) = located_step(node)
            {
                let Phys::Scan { table, prune, zone } = scan else {
                    unreachable!("a located step runs over a scan")
                };
                debug_assert!(
                    constraints.is_empty() || constraints == &zone[..],
                    "a σ directly over a scan locates by its own conjuncts"
                );
                let t = &tables[*table];
                let (scan, zones) = open_scan(t, prune, zone, bound, only_shard);
                let rule = SelectProject::new(zones, attrs.cloned(), t.arity());
                let (arity, exact) = (rule.arity(), rule.passes_every_located());
                let step = scan.located(arity, move |t, out| rule.write(t, out), limit, exact);
                return match tallies {
                    Some(ts) => Box::new(TimedStep {
                        step,
                        outputs: ts[idx..idx + above].to_vec(),
                        scan: Arc::clone(&ts[idx + above]),
                        credited: 0,
                    }),
                    None => Box::new(step),
                };
            }
            let raw: TupleIter<'static> = match node {
                Phys::Scan { table, prune, zone } => {
                    Box::new(open_scan(&tables[*table], prune, zone, bound, only_shard).0)
                }
                Phys::Select { input, constraints } => {
                    let resolved = resolve(constraints, bound);
                    Box::new(
                        go(input, tables, bound, only_shard, tallies, idx + 1, None)
                            .filter_map(move |t| filter_box(t, &resolved)),
                    )
                }
                Phys::Project {
                    input,
                    attrs,
                    streaming: true,
                    ..
                } => {
                    // Fixed by construction: the upstream rectangles are
                    // pairwise disjoint and agree on everything dropped,
                    // so their kept components are already the answer.
                    // A selection right below runs in the same step
                    // (numbered as its own node); without one, the step
                    // is a selection with no conjuncts.
                    let (upstream, resolved) = match fused_select(node) {
                        Some((below, constraints)) => (
                            go(below, tables, bound, only_shard, tallies, idx + 2, None),
                            resolve(constraints, bound),
                        ),
                        None => (
                            go(input, tables, bound, only_shard, tallies, idx + 1, None),
                            Vec::new(),
                        ),
                    };
                    let attrs = attrs.clone();
                    Box::new(upstream.filter_map(move |t| {
                        select_project(&t, &resolved, &attrs).map(TupleView::Owned)
                    }))
                }
                Phys::Project {
                    input,
                    input_schema,
                    attrs,
                    streaming: false,
                } => {
                    let upstream = go(input, tables, bound, only_shard, tallies, idx + 1, None);
                    let input_schema = input_schema.clone();
                    let attrs = attrs.clone();
                    lazy_iter(move || {
                        let tuples: Vec<NfTuple> = upstream.map(TupleView::into_owned).collect();
                        let rel = NfRelation::from_disjoint_tuples(input_schema, tuples)
                            .expect("pipeline tuples match their schema");
                        let out =
                            nf2_algebra::project(&rel, &attrs, &NestOrder::identity(attrs.len()))
                                .expect("attribute ids resolved at compile time");
                        Box::new(out.into_tuples().into_iter().map(TupleView::Owned))
                    })
                }
                Phys::Join {
                    left,
                    right,
                    layout,
                } => {
                    // Pre-order numbering: left child directly follows the
                    // join, right child follows the whole left subtree.
                    let left_idx = idx + 1;
                    let right_idx = idx + 1 + phys_size(left);
                    let build_side = go(right, tables, bound, only_shard, tallies, right_idx, None);
                    let probe_side = go(left, tables, bound, only_shard, tallies, left_idx, None);
                    let layout = layout.clone();
                    lazy_iter(move || {
                        let build: Vec<TupleView<'static>> = build_side.collect();
                        Box::new(probe_side.flat_map(move |l| {
                            let mut out = Vec::new();
                            layout.probe(&l, &build, &mut out);
                            out
                        }))
                    })
                }
            };
            match tallies {
                Some(ts) => Box::new(Timed {
                    inner: raw,
                    tally: Arc::clone(&ts[idx]),
                    fused: fused_select(node).map(|_| Arc::clone(&ts[idx + 1])),
                }),
                None => raw,
            }
        }
        go(&self.root, tables, bound, only_shard, tallies, 0, limit)
    }
}

/// Static half of the k-way-merge eligibility check (see
/// [`SelectPlan::merge`]). `attrs` are the resolved output-schema ids of
/// the ORDER BY keys; with `Projection::All` and a scan/select-only
/// pipeline those coincide with the table's own attribute ids, which is
/// what makes the nest-order comparison below meaningful.
pub(crate) fn merge_eligible(t: &NfTable, ob: &OrderBy, attrs: &[usize], root: &Phys) -> bool {
    fn scan_select_only(node: &Phys, constrained: &mut Vec<usize>) -> bool {
        match node {
            Phys::Scan { .. } => true,
            Phys::Select { input, constraints } => {
                constrained.extend(constraints.iter().map(|&(attr, _)| attr));
                scan_select_only(input, constrained)
            }
            Phys::Project { .. } | Phys::Join { .. } => false,
        }
    }
    if !ob.keys.iter().all(|k| k.dir == OrderDir::Asc) {
        // A segment stream ascends by each key's *minimum* set member;
        // descending needs the maximum, which the stored order does not
        // provide.
        return false;
    }
    // Kernel rebuilds sort each shard by (min P(n−1), min P(n−2), …) —
    // the nest order reversed — so only a prefix of that sequence is a
    // streamable sort key.
    let nest = t.order();
    let arity = t.schema().arity();
    if attrs.len() > arity
        || !attrs
            .iter()
            .enumerate()
            .all(|(i, &a)| a == nest.attr_at(arity - 1 - i))
    {
        return false;
    }
    let mut constrained = Vec::new();
    if !scan_select_only(root, &mut constrained) {
        return false;
    }
    // A conjunct on a key attribute narrows that component's value set,
    // which can change its minimum — the stored order no longer ranks
    // the filtered tuples.
    attrs.iter().all(|a| !constrained.contains(a))
}

/// One [`TupleOrder`] per ORDER BY key, all sharing a single dictionary
/// snapshot: values order by their *resolved strings*, not their
/// intern-order atom ids — `ORDER BY Student` means lexicographic,
/// whatever order values arrived in.
fn resolved_orders(dict: &SharedDictionary, ob: &OrderBy, attrs: &[usize]) -> Vec<TupleOrder> {
    let snap = dict.snapshot();
    let cmp: AtomCmp = Arc::new(move |a, b| snap.resolve(a).cmp(&snap.resolve(b)));
    ob.keys
        .iter()
        .zip(attrs)
        .map(|(k, &attr)| {
            let dir = match k.dir {
                OrderDir::Asc => SortDir::Asc,
                OrderDir::Desc => SortDir::Desc,
            };
            TupleOrder::with_cmp(attr, dir, cmp.clone())
        })
        .collect()
}

/// Per-scan pruning effect for EXPLAIN, computable only once every
/// parameter is bound: how many shards the routing conjuncts leave, how
/// many of their segments hold no tuple for the zone conjuncts (reported
/// per shard) and how many tuples the rest locate — the same
/// `ShardVersion::locate` call execution scans from.
fn scan_pruning_lines(
    node: &Phys,
    plan: &SelectPlan,
    engine: &Engine,
    bound: &[ValueSet],
    out: &mut Vec<String>,
) -> Result<(), QueryError> {
    match node {
        Phys::Scan { table, prune, zone } => {
            if prune.is_empty() && zone.is_empty() {
                return Ok(());
            }
            let name = &plan.tables[*table];
            // Pin a snapshot like execution would: the reported shard and
            // segment effects (and the epoch shown) describe one
            // consistent version even while writers install new ones.
            let t = engine.table(name)?.snapshot();
            let shards = t
                .routing()
                .shards_for_conjuncts(prune.iter().map(|&flat| bound[flat].as_slice()));
            let mut line = format!(
                "{name}: {}/{} shard(s) @ snapshot epoch {}",
                shards.len(),
                t.shard_count(),
                t.epoch()
            );
            if !zone.is_empty() {
                let zones: Vec<(usize, ValueSet)> = zone
                    .iter()
                    .map(|&(attr, flat)| (attr, bound[flat].clone()))
                    .collect();
                let counts = t.zone_skip_counts(&shards, &zones);
                let skipped: usize = counts.iter().map(|c| c.skipped).sum();
                let total: usize = counts.iter().map(|c| c.segments).sum();
                let located: usize = counts.iter().map(|c| c.located).sum();
                let per_shard: Vec<String> = shards
                    .iter()
                    .zip(&counts)
                    .map(|(s, c)| format!("s{s} {}/{}", c.skipped, c.segments))
                    .collect();
                line.push_str(&format!(
                    ", segments skipped {skipped}/{total}, rows located {located} [{}]",
                    per_shard.join(", ")
                ));
            }
            out.push(line);
            Ok(())
        }
        Phys::Select { input, .. } | Phys::Project { input, .. } => {
            scan_pruning_lines(input, plan, engine, bound, out)
        }
        Phys::Join { left, right, .. } => {
            scan_pruning_lines(left, plan, engine, bound, out)?;
            scan_pruning_lines(right, plan, engine, bound, out)
        }
    }
}

/// A compiled SELECT: the optimized expression with late-bound value
/// slots, plus everything needed to execute or explain it.
#[derive(Debug, Clone)]
pub(crate) struct SelectPlan {
    /// The plan before optimization (EXPLAIN shows both).
    pub(crate) raw: Expr,
    /// The optimized plan template, values encoded as slot atoms.
    pub(crate) expr: Expr,
    /// The compiled physical pipeline (attr ids, join layouts, schemas
    /// resolved once). Mandatory: [`PhysPlan::compile`] fails loudly on
    /// any plan shape it does not cover — a silently-degraded fallback
    /// would be worse than an error.
    pub(crate) phys: PhysPlan,
    /// Slot table: `Atom(SLOT_BASE + i)` ↔ `slots[i]`.
    pub(crate) slots: Vec<Slot>,
    /// The applied rewrites, in order (EXPLAIN / plan observability).
    pub(crate) trace: Vec<Applied>,
    pub(crate) projection: Projection,
    /// Every table the plan scans.
    pub(crate) tables: Vec<String>,
    /// Number of `?` parameters the plan expects.
    pub(crate) param_count: usize,
    /// `ORDER BY`: the clause plus each key attribute's id in the
    /// plan's **output** schema (resolved once at build time, one id
    /// per key, in clause order). With a limit the pair compiles to a
    /// streaming top-k (bounded heap); alone, to a blocking sort —
    /// unless [`Self::merge`] holds and the segments cooperate.
    pub(crate) order: Option<(OrderBy, Vec<usize>)>,
    /// Whether the plan is *statically* eligible for the streaming
    /// k-way segment merge: single table, no projection or join, every
    /// key ascending, the keys a prefix of the table's reversed nest
    /// order (the composite sort key of its segments), and no selection
    /// conjunct on any key attribute (narrowing a key's value set could
    /// change its ordering extreme). The cursor still checks the
    /// *dynamic* half — dictionary id-order — and falls back to the
    /// heap/sort path when it fails.
    pub(crate) merge: bool,
    /// `LIMIT n`: without an ORDER BY the cursor pipeline stops pulling
    /// after `n` NF² tuples, so upstream scans terminate early; with one
    /// it is the top-k bound.
    pub(crate) limit: Option<usize>,
}

impl SelectPlan {
    /// Plans and optimizes `stmt` against the engine's catalog if it is
    /// a SELECT; `None` for any other statement.
    pub(crate) fn of(engine: &Engine, stmt: &Statement) -> Result<Option<Self>, QueryError> {
        let Statement::Select {
            projection,
            table,
            joins,
            predicates,
            order_by,
            limit,
        } = stmt
        else {
            return Ok(None);
        };
        let _build_span = engine
            .obs()
            .span("plan.build")
            .observe(&engine.stmt_metrics().plan_build);
        check_slot_range(engine)?;
        let slot_capacity = (u32::MAX - SLOT_BASE) as usize + 1;
        let slot_count: usize = predicates.iter().map(|p| p.value_slots().len()).sum();
        if slot_count > slot_capacity {
            return Err(QueryError::Semantic(format!(
                "statement declares {slot_count} predicate values; at most {slot_capacity} \
                 are supported per statement"
            )));
        }
        // Validate tables up front and register them with the catalog.
        let mut catalog = SchemaCatalog::new();
        let mut tables = vec![table.clone()];
        tables.extend(joins.iter().cloned());
        let mut expr = Expr::rel(table);
        for name in &tables {
            let t = engine.table(name)?;
            catalog.insert(
                name.clone(),
                t.schema().attr_names().map(str::to_owned).collect(),
            );
        }
        for other in joins {
            expr = Expr::Join(Box::new(expr), Box::new(Expr::rel(other)));
        }
        // Every predicate value becomes a slot, resolved per execution.
        let mut slots: Vec<Slot> = Vec::new();
        let mut param_count = 0usize;
        if !predicates.is_empty() {
            let mut constraints = Vec::with_capacity(predicates.len());
            for p in predicates {
                let mut atoms = Vec::new();
                for v in p.value_slots() {
                    let slot = match v {
                        Value::Lit(s) => Slot::Lit(s.clone()),
                        Value::Param(i) => {
                            param_count = param_count.max(i + 1);
                            Slot::Param(*i)
                        }
                    };
                    atoms.push(Atom(SLOT_BASE + slots.len() as u32));
                    slots.push(slot);
                }
                constraints.push((p.attr().to_owned(), atoms));
            }
            expr = Expr::SelectBox {
                input: Box::new(expr),
                constraints,
            };
        }
        // LIMIT and ORDER BY constrain *result* rows. Aggregates produce
        // one logical value, so a limit must never truncate the stream
        // feeding them (COUNT(*) ... LIMIT 1 is the full count, and must
        // not depend on the physical shard layout), and an order over
        // one value is vacuous — but the ordered attribute is still
        // validated against the pre-aggregate schema first, so a typo
        // errors identically whether or not the projection aggregates.
        let (order_by, limit) = match projection {
            Projection::CountStar | Projection::CountDistinct(_) => {
                if let Some(ob) = order_by {
                    let source_attrs = nf2_algebra::optimize::output_attrs(&expr, &catalog)?;
                    for key in &ob.keys {
                        if !source_attrs.contains(&key.attr) {
                            return Err(QueryError::Model(nf2_core::NfError::UnknownAttribute(
                                key.attr.clone(),
                            )));
                        }
                    }
                }
                (None, None)
            }
            _ => (order_by.clone(), *limit),
        };
        match projection {
            Projection::Attrs(attrs) => {
                expr = Expr::Project {
                    input: Box::new(expr),
                    attrs: attrs.clone(),
                };
            }
            Projection::CountDistinct(attr) => {
                expr = Expr::Project {
                    input: Box::new(expr),
                    attrs: vec![attr.clone()],
                };
            }
            Projection::All | Projection::CountStar => {}
        }
        let obs = engine.obs();
        let metrics = engine.stmt_metrics();
        let optimized = {
            let _span = obs
                .span("plan.optimize")
                .field("table", table.as_str())
                .observe(&metrics.plan_optimize);
            if obs.enabled() {
                // A subscriber is listening: report every applied rule
                // with its estimated-work delta (the DataTracks-style
                // per-rule reward trace). Costing runs only on this
                // path, so the silent default pays nothing for it.
                let sizes: std::collections::HashMap<String, usize> = tables
                    .iter()
                    .filter_map(|n| Some((n.clone(), engine.table(n).ok()?.tuple_count())))
                    .collect();
                optimize_observed(&expr, &catalog, &mut |rule, before, after| {
                    let wb = estimate(before, &sizes).total_work;
                    let wa = estimate(after, &sizes).total_work;
                    obs.event("optimizer.rule", || {
                        vec![
                            ("rule", rule.into()),
                            ("work_before", wb.into()),
                            ("work_after", wa.into()),
                            ("work_delta", (wa - wb).into()),
                        ]
                    });
                })
            } else {
                optimize(&expr, &catalog)
            }
        };
        let phys = {
            let _span = obs.span("plan.compile").observe(&metrics.plan_compile);
            PhysPlan::compile(&optimized.expr, &tables, engine, &mut 0)?
        };
        // Every ORDER BY attribute must survive into the output schema
        // (ordering on a projected-away attribute is rejected here, at
        // prepare time, like any other unknown attribute).
        let order = match order_by {
            Some(ob) => {
                let attrs = ob
                    .keys
                    .iter()
                    .map(|k| phys.schema.attr_id(&k.attr))
                    .collect::<Result<Vec<_>, _>>()?;
                Some((ob, attrs))
            }
            None => None,
        };
        let merge = match (&order, projection) {
            (Some((ob, attrs)), Projection::All) if tables.len() == 1 => {
                let t = engine.table(&tables[0])?;
                merge_eligible(&t, ob, attrs, &phys.root)
            }
            _ => false,
        };
        let plan = SelectPlan {
            raw: expr,
            expr: optimized.expr,
            phys,
            slots,
            trace: optimized.trace,
            projection: projection.clone(),
            tables,
            param_count,
            order,
            merge,
            limit,
        };
        // Static plan verification (debug builds, or `NF2_VERIFY=1`):
        // the compiled pipeline must satisfy every physical contract —
        // any violation here is a planner bug, reported before the plan
        // can produce a wrong answer.
        if nf2_algebra::verify_enabled() {
            let _span = obs.span("plan.verify").observe(&metrics.plan_verify);
            crate::verify::check_plan(&plan, engine)
                .map_err(|v| QueryError::Verify(v.to_string()))?;
        }
        Ok(Some(plan))
    }

    /// The projection the plan computes.
    pub(crate) fn projection(&self) -> &Projection {
        &self.projection
    }

    /// Binds slots straight into the flat constraint store the compiled
    /// pipeline reads — one template traversal, no tree mutation.
    /// `Ok(None)` means some conjunct has no known value at all: the
    /// result is statically empty (see [`Self::bind_in_place`] for why
    /// that propagates to an empty result). Store order matches
    /// [`PhysPlan::compile`]'s flat numbering.
    fn bind_flat<P: AsRef<str>>(
        &self,
        dict: &SharedDictionary,
        params: &[P],
    ) -> Result<Option<Vec<ValueSet>>, QueryError> {
        if params.len() != self.param_count {
            return Err(QueryError::ParamCount {
                expected: self.param_count,
                got: params.len(),
            });
        }
        fn walk<F: Fn(Atom) -> Option<Atom>>(
            template: &Expr,
            out: &mut Vec<ValueSet>,
            resolve: &F,
        ) -> bool {
            match template {
                Expr::SelectBox { input, constraints } => {
                    for (_, atoms) in constraints {
                        let vals: Vec<Atom> = atoms.iter().filter_map(|&a| resolve(a)).collect();
                        match ValueSet::new(vals) {
                            Some(set) => out.push(set),
                            None => return false, // unsatisfiable conjunct
                        }
                    }
                    walk(input, out, resolve)
                }
                Expr::Project { input, .. } => walk(input, out, resolve),
                Expr::Join(l, r) => walk(l, out, resolve) && walk(r, out, resolve),
                _ => true,
            }
        }
        let slots = &self.slots;
        let resolve = |atom: Atom| -> Option<Atom> {
            if atom.id() < SLOT_BASE {
                return Some(atom);
            }
            match &slots[(atom.id() - SLOT_BASE) as usize] {
                Slot::Lit(s) => dict.lookup(s),
                Slot::Param(i) => dict.lookup(params[*i].as_ref()),
            }
        };
        let mut out = Vec::new();
        Ok(walk(&self.expr, &mut out, &resolve).then_some(out))
    }

    /// Binds and streams the plan as a [`Cursor`] over **pinned
    /// snapshots** of the engine's tables: the cursor owns its shard
    /// versions (`'static`), takes no locks while streaming, and keeps
    /// yielding the statement-start state even if the engine mutates —
    /// or drops the tables — mid-stream. A statically-empty result
    /// yields an empty cursor carrying the plan's output schema.
    pub(crate) fn cursor<P: AsRef<str>>(
        &self,
        engine: &Engine,
        params: &[P],
    ) -> Result<Cursor<'static>, QueryError> {
        self.cursor_instrumented(engine, params, None)
    }

    /// One [`OpTally`] per physical operator, numbered in the same
    /// pre-order as [`crate::verify::render_phys`] walks the tree — so
    /// tally `i` annotates the `i`-th rendered line.
    pub(crate) fn analyze_exec(&self) -> AnalyzeExec {
        AnalyzeExec {
            tallies: (0..phys_size(&self.phys.root))
                .map(|_| Arc::new(OpTally::default()))
                .collect(),
            order_path: None,
            topk: None,
            statically_empty: false,
        }
    }

    /// [`Self::cursor`] with an optional `EXPLAIN ANALYZE` recorder:
    /// when `analyze` is set every operator's pulls are tallied (rows +
    /// inclusive nanos) and the chosen order path is noted.
    pub(crate) fn cursor_instrumented<P: AsRef<str>>(
        &self,
        engine: &Engine,
        params: &[P],
        mut analyze: Option<&mut AnalyzeExec>,
    ) -> Result<Cursor<'static>, QueryError> {
        // One template traversal binds the flat constraint store;
        // everything else was resolved at prepare time.
        let Some(bound) = self.bind_flat(engine.dict(), params)? else {
            // Statically empty: keep the plan's *output* schema, so a
            // cursor's shape does not depend on which value was bound.
            if let Some(a) = analyze.as_deref_mut() {
                a.statically_empty = true;
            }
            return Ok(Cursor::new(RelStream::empty(self.phys.schema.clone())));
        };
        let tallies: Option<Vec<Arc<OpTally>>> = analyze.as_deref().map(|a| a.tallies.clone());
        let tallies = tallies.as_deref();
        // Pin one snapshot per table, once, at statement start: the
        // whole pipeline — every shard scan, the merge's per-shard
        // streams, the join's build side — reads exactly these epochs.
        // Concurrent writers install new versions without disturbing us.
        let tables = self
            .tables
            .iter()
            .map(|n| engine.table(n).map(|t| t.snapshot()))
            .collect::<Result<Vec<_>, _>>()?;
        // Streaming k-way segment merge: the plan is statically
        // eligible (see [`merge_eligible`]) and the dictionary's atom ids
        // still rank like resolved strings. Every shard's chunks, back
        // to back, are in the kernel's composite sort order at every version
        // (ordered §4 maintenance), so each shard streams already-ordered
        // and the merge emits globally ordered tuples without sorting;
        // `LIMIT n` pulls ≈ n + shards tuples instead of the whole scan.
        if let Some((ob, attrs)) = &self.order {
            if self.merge && engine.dict().is_id_ordered() {
                let t = &tables[0];
                let orders = resolved_orders(engine.dict(), ob, attrs);
                let parts = (0..t.shard_count())
                    .map(|s| {
                        RelStream::new(
                            self.phys.schema.clone(),
                            // Per-shard pipelines share the same
                            // tallies: the Arcs sum across shards.
                            self.phys
                                .stream_restricted(&tables, &bound, Some(s), tallies, None),
                        )
                    })
                    .collect();
                if let Some(a) = analyze.as_deref_mut() {
                    a.order_path = Some(match self.limit {
                        Some(n) => format!("streaming k-way segment merge, limit {n}"),
                        None => "streaming k-way segment merge".to_owned(),
                    });
                }
                let merged = RelStream::merge_sorted(self.phys.schema.clone(), parts, orders);
                let stream = match self.limit {
                    Some(n) => {
                        let schema = merged.schema().clone();
                        let limited: TupleIter<'static> = Box::new(merged.take(n));
                        RelStream::new(schema, limited)
                    }
                    None => merged,
                };
                return Ok(Cursor::new(stream));
            }
        }
        // Where no order operator sits above the pipeline, its root
        // takes the LIMIT as a cap (a located step then builds no more
        // outputs than the statement returns).
        let root_limit = self.limit.filter(|_| self.order.is_none());
        let iter = self
            .phys
            .stream_restricted(&tables, &bound, None, tallies, root_limit);
        let stream = RelStream::new(self.phys.schema.clone(), iter);
        let stream = match (&self.order, self.limit) {
            // ORDER BY + LIMIT fold into one streaming top-k: a bounded
            // heap pulls the pipeline exactly once and retains ≤ n
            // tuples — never a full sort's worth.
            // Bare ORDER BY falls back to a blocking (stable) sort.
            (Some((ob, attrs)), limit) => {
                let orders = resolved_orders(engine.dict(), ob, attrs);
                match limit {
                    Some(n) => match analyze.as_deref_mut() {
                        Some(a) => {
                            a.order_path = Some(format!("top-{n} bounded heap"));
                            let stats = Arc::new(TopKStats::default());
                            a.topk = Some(Arc::clone(&stats));
                            stream.top_k_by_with_stats(orders, n, stats)
                        }
                        None => stream.top_k_by(orders, n),
                    },
                    None => {
                        if let Some(a) = analyze {
                            a.order_path = Some("blocking sort".to_owned());
                        }
                        stream.sorted_by(orders)
                    }
                }
            }
            // Plain LIMIT rides the pull pipeline: `take` stops calling
            // upstream `next()` once satisfied, so scans terminate early
            // (the probe-counted cursor test pins this).
            (None, Some(n)) => {
                let schema = stream.schema().clone();
                let limited: TupleIter<'static> = Box::new(stream.take(n));
                RelStream::new(schema, limited)
            }
            (None, None) => stream,
        };
        Ok(Cursor::new(stream))
    }

    /// Renders the plan for EXPLAIN: the unoptimized tree with its cost
    /// estimate, plus (for `optimized`) the rewrite trace, the optimized
    /// tree and the estimate delta, plus (for `verify`) the static
    /// checker's verdict. `Ok(None)` when binding finds a
    /// statically-empty result.
    pub(crate) fn explain<P: AsRef<str>>(
        &self,
        engine: &Engine,
        params: &[P],
        optimized: bool,
        verify: bool,
    ) -> Result<Option<String>, QueryError> {
        self.explain_with(engine, params, optimized, verify, None)
    }

    /// `EXPLAIN ANALYZE`: executes the statement with per-operator
    /// tallies, drains the cursor, and renders the plan annotated with
    /// actual row counts and inclusive operator times. `Ok(None)` for a
    /// statically-empty result (nothing ran, so nothing to measure).
    pub(crate) fn explain_analyze<P: AsRef<str>>(
        &self,
        engine: &Engine,
        params: &[P],
        optimized: bool,
        verify: bool,
    ) -> Result<Option<String>, QueryError> {
        let mut exec = self.analyze_exec();
        let sw = Stopwatch::start();
        let cursor = self.cursor_instrumented(engine, params, Some(&mut exec))?;
        if exec.statically_empty {
            return Ok(None);
        }
        let result_rows = cursor.count() as u64;
        let report = AnalyzeReport {
            exec,
            result_rows,
            total_nanos: sw.elapsed_nanos(),
        };
        self.explain_with(engine, params, optimized, verify, Some(&report))
    }

    /// Shared renderer behind [`Self::explain`] (`analyzed: None`) and
    /// [`Self::explain_analyze`] (`analyzed` carries the actuals).
    fn explain_with<P: AsRef<str>>(
        &self,
        engine: &Engine,
        params: &[P],
        optimized: bool,
        verify: bool,
        analyzed: Option<&AnalyzeReport>,
    ) -> Result<Option<String>, QueryError> {
        // Both trees render from the template — literals as `'lit'`,
        // parameters as `?n` — so the text is identical to what
        // `Prepared::explain` shows for the cached plan. Binding is
        // still attempted (when every parameter is supplied) to detect
        // statically-empty results.
        let bound = if params.len() == self.param_count {
            match self.bind_flat(engine.dict(), params)? {
                Some(b) => Some(b),
                None => return Ok(None),
            }
        } else {
            None
        };
        let fmt_value = |a: Atom| -> String {
            if a.id() >= SLOT_BASE {
                match &self.slots[(a.id() - SLOT_BASE) as usize] {
                    Slot::Lit(s) => format!("'{s}'"),
                    Slot::Param(i) => format!("?{i}"),
                }
            } else {
                format!("{a:?}")
            }
        };
        let sizes: std::collections::HashMap<String, usize> = self
            .tables
            .iter()
            .map(|n| {
                (
                    n.clone(),
                    engine.table(n).map(|t| t.tuple_count()).unwrap_or(0),
                )
            })
            .collect();
        let before = estimate(&self.raw, &sizes);
        let mut text = format!("plan:\n{}", explain_expr(&self.raw, 0, &fmt_value));
        if let Some((ob, _)) = &self.order {
            // The order rides outside the algebra tree (the §3 algebra
            // is ordered-set-free); report the physical operator chosen.
            // A merge-eligible plan reports the merge (the cursor can
            // still fall back at run time if the dictionary stops being
            // id-ordered — eligibility here is the static half).
            let op = match analyzed.and_then(|r| r.exec.order_path.clone()) {
                // ANALYZE reports the path the cursor *actually* took
                // (merge eligibility has a dynamic half that can fall
                // back at run time).
                Some(actual) => actual,
                None => match (self.merge, self.limit) {
                    (true, Some(n)) => format!("streaming k-way segment merge, limit {n}"),
                    (true, None) => "streaming k-way segment merge".to_owned(),
                    (false, Some(n)) => format!("top-{n} bounded heap"),
                    (false, None) => "blocking sort".to_owned(),
                },
            };
            text.push_str(&format!("\norder: {ob} ({op})"));
            if let Some(stats) = analyzed.and_then(|r| r.exec.topk.as_ref()) {
                text.push_str(&format!(
                    " (actual pulled={} peak retained={})",
                    stats.pulled.load(std::sync::atomic::Ordering::Relaxed),
                    stats
                        .peak_retained
                        .load(std::sync::atomic::Ordering::Relaxed),
                ));
            }
        }
        text.push_str(&format!(
            "\nestimated work: {:.0} ({:.0} tuples out)",
            before.total_work, before.out_tuples
        ));
        if optimized {
            let after = estimate(&self.expr, &sizes);
            text.push_str("\nrewrites:");
            if self.trace.is_empty() {
                text.push_str("\n  (none applicable)");
            }
            for step in &self.trace {
                text.push_str(&format!("\n  [{}] {}", step.rule, step.result));
            }
            text.push_str(&format!(
                "\noptimized plan:\n{}",
                explain_expr(&self.expr, 0, &fmt_value)
            ));
            text.push_str(&format!(
                "\nestimated work: {:.0} -> {:.0}",
                before.total_work, after.total_work
            ));
        }
        match analyzed {
            Some(report) => {
                text.push_str(&format!(
                    "\nphysical:\n{}",
                    crate::verify::render_phys_analyzed(
                        &self.phys.root,
                        &self.tables,
                        Some(engine),
                        1,
                        &report.exec.tallies,
                        0,
                    )
                ));
                text.push_str(&format!(
                    "\nanalyze: {} row(s) out in {}",
                    report.result_rows,
                    nf2_obs::format_nanos(report.total_nanos)
                ));
            }
            None => text.push_str(&format!(
                "\nphysical:\n{}",
                crate::verify::render_phys(&self.phys.root, &self.tables, Some(engine), 1)
            )),
        }
        // With every parameter bound, the pruning effect is computable:
        // which shards the routing conjuncts leave, how many of their
        // segments hold no match, and how many tuples the rest locate.
        if let Some(bound) = &bound {
            let mut lines = Vec::new();
            scan_pruning_lines(&self.phys.root, self, engine, bound, &mut lines)?;
            if !lines.is_empty() {
                text.push_str("\npruning:");
                for line in lines {
                    text.push_str("\n  ");
                    text.push_str(&line);
                }
            }
        }
        if verify {
            text.push('\n');
            text.push_str(&crate::verify::verify_report(self, engine));
        }
        Ok(Some(text))
    }
}

/// Executes a bound select plan to a materialized [`Output`] — the
/// one-shot `Session::run` semantics (aggregates count, everything
/// else materializes its relation).
pub(crate) fn execute_select<P: AsRef<str>>(
    engine: &Engine,
    plan: &SelectPlan,
    params: &[P],
) -> Result<Output, QueryError> {
    let cursor = plan.cursor(engine, params)?;
    match plan.projection() {
        Projection::CountStar | Projection::CountDistinct(_) => {
            Ok(Output::Count(cursor.flat_count()))
        }
        _ => Ok(engine.output(cursor.into_relation()?)),
    }
}

/// How many plans of ad-hoc SELECT shapes an engine keeps (see
/// [`Session::run`]). A full cache is cleared, not evicted from, so
/// which statements hit depends only on the sequence of statements and
/// the `plan_cache.*` counters repeat run for run. A shape is a text:
/// statements that differ in keyword case, whitespace or comments, not
/// only in literals, are shapes of their own. The benchmark's ad-hoc
/// mix uses about 64 shapes (a top-k's `LIMIT k` is part of its shape).
pub const PLAN_CACHE_CAPACITY: usize = 256;

/// The engine's plans of ad-hoc SELECTs, one per *shape*: a key text
/// whose literals are lifted to `?` parameters — a [`Shape`]'s key, or
/// the text of a parsed statement's
/// [`lift_literals`](Statement::lift_literals). A key's plan is the
/// plan of `parse(key)`. Every predicate value is a late-bound slot in
/// a [`SelectPlan`], so `Student = 's1'` and `Student = 's2'` share
/// one plan, executed with the lifted literals as its parameters; they
/// still resolve against the dictionary per execution.
///
/// The plans are stamped with the [`ddl_epoch`](Engine::ddl_epoch)
/// they were built at: a lookup at another epoch clears them first.
/// Counted in the engine's registry as `plan_cache.hits`,
/// `plan_cache.misses` and `plan_cache.clears` (each time plans were
/// dropped, by DDL or by a full cache).
///
/// [`Shape`]: crate::token::Shape
#[derive(Debug)]
pub(crate) struct PlanCache {
    plans: parking_lot::Mutex<(u64, HashMap<String, Arc<SelectPlan>>)>,
    hits: Counter,
    misses: Counter,
    clears: Counter,
}

impl PlanCache {
    pub(crate) fn new(obs: &Obs) -> Self {
        let reg = obs.registry();
        PlanCache {
            plans: parking_lot::Mutex::new((0, HashMap::new())),
            hits: reg.counter("plan_cache.hits"),
            misses: reg.counter("plan_cache.misses"),
            clears: reg.counter("plan_cache.clears"),
        }
    }

    /// The plan kept under `key`; on a miss, the plan of the SELECT
    /// `lifted` gives — `parse(key)` — built now (outside the lock) and
    /// kept if the epoch has not moved meanwhile. A miss is counted
    /// once `lifted` succeeds.
    pub(crate) fn plan(
        &self,
        engine: &Engine,
        key: &str,
        lifted: impl FnOnce() -> Result<Statement, QueryError>,
    ) -> Result<Arc<SelectPlan>, QueryError> {
        let epoch = engine.ddl_epoch();
        {
            let mut guard = self.plans.lock();
            let (stamp, plans) = &mut *guard;
            if *stamp != epoch {
                self.clear(plans);
                *stamp = epoch;
            }
            if let Some(plan) = plans.get(key) {
                self.hits.incr();
                let plan = Arc::clone(plan);
                drop(guard);
                check_slot_range(engine)?;
                return Ok(plan);
            }
        }
        let lifted = lifted()?;
        self.misses.incr();
        let plan = Arc::new(SelectPlan::of(engine, &lifted)?.ok_or_else(|| {
            QueryError::Semantic("internal error: only a SELECT has a plan".into())
        })?);
        let mut guard = self.plans.lock();
        let (stamp, plans) = &mut *guard;
        if *stamp == epoch {
            if plans.len() >= PLAN_CACHE_CAPACITY {
                self.clear(plans);
            }
            plans.insert(key.to_owned(), Arc::clone(&plan));
        }
        Ok(plan)
    }

    fn clear(&self, plans: &mut HashMap<String, Arc<SelectPlan>>) {
        if !plans.is_empty() {
            plans.clear();
            self.clears.incr();
        }
    }
}

/// A statement compiled against an [`Engine`]: parsed once, planned and
/// optimized once (SELECTs), executable any number of times with
/// per-call parameters.
///
/// Handles are owned values, independent of any session: keep them
/// across sessions of the same engine and they stay valid — a DDL change
/// underneath is detected through the engine's epoch and triggers a
/// transparent re-plan (which surfaces errors like a dropped table at
/// the next execution, same as re-preparing by hand).
#[derive(Debug)]
pub struct Prepared {
    sql: String,
    stmt: Statement,
    plan: Option<SelectPlan>,
    /// Which engine the plan was compiled against.
    engine_id: u64,
    /// That engine's DDL epoch at compile (or last re-plan) time.
    epoch: u64,
    param_count: usize,
}

impl Prepared {
    /// Parses `sql` (one statement) and plans it if it is a SELECT.
    pub(crate) fn compile(engine: &Engine, sql: &str) -> Result<Self, QueryError> {
        let stmt = engine.parse_traced(sql)?;
        let plan = SelectPlan::of(engine, &stmt)?;
        Ok(Prepared {
            sql: sql.to_owned(),
            param_count: stmt.param_count(),
            stmt,
            plan,
            engine_id: engine.instance_id(),
            epoch: engine.ddl_epoch(),
        })
    }

    /// The original statement text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Number of `?` parameters the statement declares.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// Whether executing will stream a relation (the statement is a
    /// SELECT).
    pub fn is_query(&self) -> bool {
        self.plan.is_some()
    }

    /// Re-plans if DDL changed the catalog since this handle was
    /// compiled (or last revalidated).
    fn revalidate(&mut self, engine: &Engine) -> Result<(), QueryError> {
        if self.engine_id != engine.instance_id() || self.epoch != engine.ddl_epoch() {
            self.plan = SelectPlan::of(engine, &self.stmt)?;
            self.engine_id = engine.instance_id();
            self.epoch = engine.ddl_epoch();
        }
        Ok(())
    }

    /// The plan of a prepared SELECT, re-planned if DDL moved the
    /// catalog.
    fn select_plan(&mut self, engine: &Engine) -> Result<&SelectPlan, QueryError> {
        self.revalidate(engine)?;
        let sql = &self.sql;
        let plan = self.plan.as_ref();
        plan.ok_or_else(|| QueryError::Semantic(format!("not a SELECT: {sql}")))
    }

    /// Executes a prepared SELECT, streaming the result as a [`Cursor`]
    /// over snapshots pinned at this call. Non-SELECT statements are
    /// rejected — use [`execute`](Self::execute).
    pub fn query<P: AsRef<str>>(
        &mut self,
        session: &Session<'_>,
        params: &[P],
    ) -> Result<Cursor<'static>, QueryError> {
        let engine = session.engine();
        self.select_plan(engine)?.cursor(engine, params)
    }

    /// Executes the statement with the given parameters, materializing
    /// an [`Output`] (the same shape `Session::run` produces). SELECTs
    /// reuse the cached plan; mutations bind the parameters into the
    /// statement and run through the session (transactions and WAL
    /// autoflush included).
    pub fn execute<P: AsRef<str>>(
        &mut self,
        session: &mut Session<'_>,
        params: &[P],
    ) -> Result<Output, QueryError> {
        self.revalidate(session.engine())?;
        if let Some(plan) = &self.plan {
            // Prepared SELECTs bypass Session::execute, so the latency
            // series is settled here (mutations fall through to the
            // session below and are recorded there).
            let engine = session.engine();
            return engine.timed("select", || execute_select(engine, plan, params));
        }
        let lits: Vec<&str> = params.iter().map(AsRef::as_ref).collect();
        let bound = self.stmt.bind(&lits).map_err(|e| QueryError::ParamCount {
            expected: e.expected,
            got: e.got,
        })?;
        session.execute(bound)
    }

    /// Renders the cached plan — tree, cost estimate, applied rewrites —
    /// without executing. Parameters may be unbound; their slots print
    /// as `?n`. This is how prepared-plan reuse is observable: the text
    /// is stable across executions until DDL forces a re-plan.
    pub fn explain(&mut self, session: &Session<'_>) -> Result<String, QueryError> {
        let engine = session.engine();
        match self
            .select_plan(engine)?
            .explain(engine, NO_PARAMS, true, false)?
        {
            Some(text) => Ok(text),
            None => Ok("plan: <empty result — predicate value never interned>".to_owned()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> Engine {
        let engine = Engine::new();
        engine
            .session()
            .run_script(
                "CREATE TABLE sc (Student, Course);
                 INSERT INTO sc VALUES ('s1','c1'), ('s2','c1'), ('s1','c2'), ('s3','c3');
                 CREATE TABLE cp (Course, Prof);
                 INSERT INTO cp VALUES ('c1','p1'), ('c2','p2'), ('c3','p1');",
            )
            .unwrap();
        engine
    }

    fn rows_of(out: &Output) -> usize {
        match out {
            Output::Relation { relation, .. } => relation.expand().len(),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn prepared_select_binds_params_per_call() {
        let engine = engine();
        let mut session = engine.session();
        let mut stmt = session
            .prepare("SELECT Course FROM sc WHERE Student = ?")
            .unwrap();
        assert_eq!(stmt.param_count(), 1);
        assert!(stmt.is_query());
        let s1 = stmt.execute(&mut session, &["s1"]).unwrap();
        assert_eq!(rows_of(&s1), 2);
        let s2 = stmt.execute(&mut session, &["s2"]).unwrap();
        assert_eq!(rows_of(&s2), 1);
        // Unknown value: empty, not an error.
        let ghost = stmt.execute(&mut session, &["ghost"]).unwrap();
        assert_eq!(rows_of(&ghost), 0);
        // Wrong arity is an error.
        assert!(matches!(
            stmt.execute(&mut session, NO_PARAMS),
            Err(QueryError::ParamCount {
                expected: 1,
                got: 0
            })
        ));
    }

    #[test]
    fn prepared_matches_one_shot_run() {
        let engine = engine();
        let mut session = engine.session();
        let mut stmt = session
            .prepare("SELECT Student FROM sc JOIN cp WHERE Prof = ? AND Student IN ('s1', ?)")
            .unwrap();
        for (prof, student) in [("p1", "s2"), ("p2", "s3"), ("p1", "s1")] {
            let prepared = stmt.execute(&mut session, &[prof, student]).unwrap();
            let one_shot = session
                .run(&format!(
                    "SELECT Student FROM sc JOIN cp WHERE Prof = '{prof}' AND Student IN ('s1', '{student}')"
                ))
                .unwrap();
            assert_eq!(prepared, one_shot, "{prof}/{student}");
        }
    }

    #[test]
    fn wide_in_lists_stay_within_the_slot_range() {
        // 70k values would have overflowed a 16-bit slot range; the
        // reserved range is 2^24 ids with an explicit guard.
        let engine = engine();
        let mut session = engine.session();
        let values: Vec<String> = (0..70_000).map(|i| format!("'v{i}'")).collect();
        let sql = format!(
            "SELECT COUNT(*) FROM sc WHERE Student = 's1' AND Course IN ({}, 'c1')",
            values.join(", ")
        );
        assert_eq!(session.run(&sql).unwrap(), Output::Count(1));
    }

    #[test]
    fn literals_resolve_late() {
        let engine = engine();
        let mut session = engine.session();
        // 'c9' is not interned yet: the plan must not freeze the miss.
        let mut stmt = session
            .prepare("SELECT COUNT(*) FROM sc WHERE Course = 'c9'")
            .unwrap();
        assert_eq!(
            stmt.execute(&mut session, NO_PARAMS).unwrap(),
            Output::Count(0)
        );
        session.run("INSERT INTO sc VALUES ('s9','c9')").unwrap();
        assert_eq!(
            stmt.execute(&mut session, NO_PARAMS).unwrap(),
            Output::Count(1)
        );
    }

    #[test]
    fn ddl_triggers_replan() {
        let engine = engine();
        let mut session = engine.session();
        let mut stmt = session.prepare("SELECT COUNT(*) FROM sc").unwrap();
        assert_eq!(
            stmt.execute(&mut session, NO_PARAMS).unwrap(),
            Output::Count(4)
        );
        // Unrelated DDL: still works (re-planned transparently).
        session.run("CREATE TABLE other (A)").unwrap();
        assert_eq!(
            stmt.execute(&mut session, NO_PARAMS).unwrap(),
            Output::Count(4)
        );
        // Dropping the table surfaces at the next execution.
        session.run("DROP TABLE sc").unwrap();
        assert!(matches!(
            stmt.execute(&mut session, NO_PARAMS),
            Err(QueryError::NoSuchTable(_))
        ));
    }

    #[test]
    fn prepared_dml_binds_and_mutates() {
        let engine = engine();
        let mut session = engine.session();
        let mut ins = session.prepare("INSERT INTO sc VALUES (?, ?)").unwrap();
        assert!(!ins.is_query());
        assert_eq!(
            ins.execute(&mut session, &["s7", "c7"]).unwrap(),
            Output::Affected(1)
        );
        assert_eq!(
            ins.execute(&mut session, &["s7", "c7"]).unwrap(),
            Output::Affected(0),
            "set semantics"
        );
        let mut del = session.prepare("DELETE FROM sc WHERE Student = ?").unwrap();
        assert_eq!(
            del.execute(&mut session, &[Param::from("s7")]).unwrap(),
            Output::Affected(1)
        );
        // Cursors are for queries only.
        assert!(ins.query(&session, &["x", "y"]).is_err());
    }

    #[test]
    fn prepared_query_streams() {
        let engine = engine();
        let session = engine.session();
        let mut stmt = session
            .prepare("SELECT * FROM sc WHERE Student = ?")
            .unwrap();
        let cursor = stmt.query(&session, &["s1"]).unwrap();
        let flat: Vec<_> = cursor.flat_rows().collect();
        assert_eq!(flat.len(), 2);
    }

    #[test]
    fn prepared_handles_replan_across_engines() {
        // A handle compiled on one engine must not execute its cached
        // attribute ids against another engine's tables.
        let a = Engine::new();
        a.session()
            .run_script(
                "CREATE TABLE t (A, B, C);
                 INSERT INTO t VALUES ('x','y','z');",
            )
            .unwrap();
        let mut stmt = a.session().prepare("SELECT C FROM t WHERE A = ?").unwrap();
        // Engine B: same table name and epoch history, different shape.
        let b = Engine::new();
        b.session()
            .run_script(
                "CREATE TABLE t (C, A);
                 INSERT INTO t VALUES ('z2','x'), ('z3','w');",
            )
            .unwrap();
        assert_eq!(
            a.ddl_epoch(),
            b.ddl_epoch(),
            "epochs alone cannot tell them apart"
        );
        let mut session = b.session();
        match stmt.execute(&mut session, &["x"]).unwrap() {
            Output::Relation { relation, .. } => {
                assert_eq!(relation.arity(), 1);
                assert_eq!(relation.expand().len(), 1, "engine B's (C='z2', A='x') row");
            }
            other => panic!("unexpected {other:?}"),
        }
        // And back on engine A it re-plans again.
        let mut session = a.session();
        match stmt.execute(&mut session, &["x"]).unwrap() {
            Output::Relation { relation, .. } => assert_eq!(relation.flat_count(), 1),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn repeated_attr_conjuncts_fold_like_the_legacy_path() {
        let engine = engine();
        let mut session = engine.session();
        // {s1} ∩ {s2} = ∅: contradictory equalities on one attribute
        // must yield nothing, on every execution path.
        let sql = "SELECT * FROM sc WHERE Student = 's1' AND Student = 's2'";
        match session.run(sql).unwrap() {
            Output::Relation { relation, .. } => assert!(relation.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        let mut stmt = session
            .prepare("SELECT * FROM sc WHERE Student = ? AND Student = ?")
            .unwrap();
        match stmt.execute(&mut session, &["s1", "s2"]).unwrap() {
            Output::Relation { relation, .. } => assert!(relation.is_empty()),
            other => panic!("unexpected {other:?}"),
        }
        // And a satisfiable overlap narrows instead of replacing.
        let narrowed = stmt.execute(&mut session, &["s1", "s1"]).unwrap();
        let expected = session
            .run("SELECT * FROM sc WHERE Student = 's1'")
            .unwrap();
        assert_eq!(narrowed, expected);
    }

    #[test]
    fn empty_result_cursor_keeps_output_schema() {
        let engine = engine();
        let session = engine.session();
        let mut stmt = session
            .prepare("SELECT Course FROM sc WHERE Student = ?")
            .unwrap();
        // A hit and a statically-empty miss must report the same
        // (projected) schema.
        let hit = stmt.query(&session, &["s1"]).unwrap();
        let hit_names: Vec<String> = hit.schema().attr_names().map(str::to_owned).collect();
        assert_eq!(hit_names, vec!["Course"]);
        let miss = stmt.query(&session, &["never-interned"]).unwrap();
        let miss_names: Vec<String> = miss.schema().attr_names().map(str::to_owned).collect();
        assert_eq!(
            miss_names, hit_names,
            "schema must not depend on the bound value"
        );
        assert_eq!(miss.count(), 0);
        // Same for joins: the miss carries the joined schema.
        let mut stmt = session
            .prepare("SELECT * FROM sc JOIN cp WHERE Prof = ?")
            .unwrap();
        let miss = stmt.query(&session, &["never-interned"]).unwrap();
        let names: Vec<String> = miss.schema().attr_names().map(str::to_owned).collect();
        assert_eq!(names, vec!["Student", "Course", "Prof"]);
    }

    /// Flat rows of an output, as resolved strings (row-major), in
    /// cursor order.
    fn ordered_rows(session: &Session<'_>, sql: &str) -> Vec<Vec<String>> {
        let snap = session.engine().dict().snapshot();
        session
            .query(sql)
            .unwrap()
            .flat_rows()
            .map(|row| {
                row.iter()
                    .map(|&a| snap.resolve(a).unwrap().to_owned())
                    .collect()
            })
            .collect()
    }

    #[test]
    fn order_by_sorts_by_resolved_value_not_intern_order() {
        let engine = Engine::new();
        let mut session = engine.session();
        // Interned in anti-alphabetical order on purpose: atom ids rank
        // c > b > a, the strings rank a < b < c.
        session
            .run_script(
                "CREATE TABLE t (K, V);
                 INSERT INTO t VALUES ('c','3'), ('b','2'), ('a','1');",
            )
            .unwrap();
        let asc = ordered_rows(&session, "SELECT K FROM t ORDER BY K");
        assert_eq!(asc, vec![vec!["a"], vec!["b"], vec!["c"]]);
        let desc = ordered_rows(&session, "SELECT K FROM t ORDER BY K DESC");
        assert_eq!(desc, vec![vec!["c"], vec!["b"], vec!["a"]]);
        // Late-interned values order correctly on the next execution.
        session.run("INSERT INTO t VALUES ('aa','0')").unwrap();
        let asc = ordered_rows(&session, "SELECT K FROM t ORDER BY K LIMIT 2");
        assert_eq!(asc, vec![vec!["a"], vec!["aa"]]);
    }

    #[test]
    fn top_k_equals_sort_then_truncate_on_every_path() {
        let engine = engine();
        let mut session = engine.session();
        // LIMIT truncates NF² tuples, so the oracle compares ordered
        // tuple streams (a kept tuple may expand to several flat rows).
        let tuples = |session: &Session<'_>, sql: &str| -> Vec<nf2_core::tuple::NfTuple> {
            session
                .query(sql)
                .unwrap()
                .map(|t| t.into_owned())
                .collect()
        };
        for dir in ["", " DESC"] {
            for k in 0..6 {
                let all = tuples(
                    &session,
                    &format!("SELECT Student, Course FROM sc ORDER BY Course{dir}"),
                );
                let truncated: Vec<_> = all.into_iter().take(k).collect();
                let topk = tuples(
                    &session,
                    &format!("SELECT Student, Course FROM sc ORDER BY Course{dir} LIMIT {k}"),
                );
                assert_eq!(topk, truncated, "dir {dir:?} k {k}");
            }
        }
        // run() and prepared execution agree with the cursor path.
        let via_run = session
            .run("SELECT Course FROM sc WHERE Student = 's1' ORDER BY Course LIMIT 1")
            .unwrap();
        let mut stmt = session
            .prepare("SELECT Course FROM sc WHERE Student = ? ORDER BY Course LIMIT 1")
            .unwrap();
        let via_prepared = stmt.execute(&mut session, &["s1"]).unwrap();
        assert_eq!(via_run, via_prepared);
        // A prepared cursor streams the ordered prefix.
        let cursor = stmt.query(&session, &["s1"]).unwrap();
        assert_eq!(cursor.count(), 1);
    }

    #[test]
    fn order_by_rejects_unknown_and_projected_away_attributes() {
        let engine = engine();
        let session = engine.session();
        assert!(session.query("SELECT * FROM sc ORDER BY Nope").is_err());
        // Course is projected away: ordering the output on it is an
        // error at prepare time, not a silent no-op.
        assert!(session
            .prepare("SELECT Student FROM sc ORDER BY Course")
            .is_err());
        // On the joined schema, right-side attributes are orderable.
        assert!(session
            .prepare("SELECT * FROM sc JOIN cp ORDER BY Prof DESC")
            .is_ok());
    }

    #[test]
    fn aggregates_ignore_order_by_and_limit() {
        let engine = engine();
        let mut session = engine.session();
        assert_eq!(
            session
                .run("SELECT COUNT(*) FROM sc ORDER BY Student LIMIT 1")
                .unwrap(),
            Output::Count(4)
        );
        assert_eq!(
            session
                .run("SELECT COUNT(DISTINCT Course) FROM sc ORDER BY Course DESC LIMIT 2")
                .unwrap(),
            Output::Count(3)
        );
        // Ignoring the clause must not skip validating it: a typo'd
        // attribute errors exactly like it does without the aggregate.
        assert!(session
            .run("SELECT COUNT(*) FROM sc ORDER BY Nope LIMIT 2")
            .is_err());
        // The pre-aggregate schema is what counts: ordering on an
        // attribute the COUNT(DISTINCT …) projection drops is fine.
        assert_eq!(
            session
                .run("SELECT COUNT(DISTINCT Course) FROM sc ORDER BY Student")
                .unwrap(),
            Output::Count(3)
        );
    }

    #[test]
    fn explain_reports_the_order_operator() {
        let engine = engine();
        let session = engine.session();
        let mut stmt = session
            .prepare("SELECT * FROM sc ORDER BY Course DESC LIMIT 3")
            .unwrap();
        let text = stmt.explain(&session).unwrap();
        assert!(text.contains("ORDER BY Course DESC"), "{text}");
        assert!(
            text.contains("top-3 bounded heap"),
            "DESC cannot stream off ascending segments: {text}"
        );
        // Course is P(n−1) — the segment sort key — so an ascending
        // order streams straight off the merge.
        let mut stmt = session.prepare("SELECT * FROM sc ORDER BY Course").unwrap();
        let text = stmt.explain(&session).unwrap();
        assert!(text.contains("streaming k-way segment merge"), "{text}");
        let mut stmt = session
            .prepare("SELECT * FROM sc ORDER BY Course, Student LIMIT 2")
            .unwrap();
        let text = stmt.explain(&session).unwrap();
        assert!(text.contains("ORDER BY Course, Student"), "{text}");
        assert!(
            text.contains("streaming k-way segment merge, limit 2"),
            "{text}"
        );
        // Student is not a prefix of the reversed nest order.
        let mut stmt = session
            .prepare("SELECT * FROM sc ORDER BY Student")
            .unwrap();
        let text = stmt.explain(&session).unwrap();
        assert!(text.contains("blocking sort"), "{text}");
    }

    /// Parses the `N` out of `(actual rows=N time=…)` on one plan line.
    fn actual_rows(line: &str) -> u64 {
        let rest = line
            .split("actual rows=")
            .nth(1)
            .unwrap_or_else(|| panic!("no actuals on {line:?}"));
        rest.split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap_or_else(|e| panic!("bad rows in {line:?}: {e}"))
    }

    /// The indented operator lines of the `physical:` section.
    fn physical_lines(text: &str) -> Vec<&str> {
        text.lines()
            .skip_while(|l| !l.starts_with("physical:"))
            .skip(1)
            .take_while(|l| l.starts_with("  "))
            .collect()
    }

    #[test]
    fn explain_analyze_annotates_every_operator() {
        let engine = engine();
        let mut session = engine.session();
        let out = session
            .run("EXPLAIN ANALYZE SELECT Student FROM sc JOIN cp WHERE Prof = 'p1'")
            .unwrap();
        let Output::Message(text) = out else {
            panic!("unexpected {out:?}")
        };
        let phys = physical_lines(&text);
        assert!(phys.len() >= 4, "expected a join pipeline: {text}");
        for line in &phys {
            assert!(line.contains("(actual rows="), "{line}\n{text}");
            assert!(line.contains("time="), "{line}\n{text}");
        }
        // The summary line reports the drained result size, and the root
        // operator's actual matches it exactly (nothing re-orders above
        // the root here).
        let summary = text
            .lines()
            .find(|l| l.starts_with("analyze: "))
            .unwrap_or_else(|| panic!("no analyze summary: {text}"));
        let result_rows: u64 = summary
            .strip_prefix("analyze: ")
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(actual_rows(phys[0]), result_rows, "{text}");
        assert!(result_rows > 0, "p1 teaches interned courses: {text}");
        // The unfiltered scan of sc streamed the whole table.
        let sc_line = phys
            .iter()
            .find(|l| l.contains("scan[sc"))
            .unwrap_or_else(|| panic!("no sc scan: {text}"));
        assert_eq!(
            actual_rows(sc_line),
            engine.table("sc").unwrap().tuple_count() as u64,
            "{text}"
        );
    }

    #[test]
    fn explain_analyze_tells_located_from_passed_tuples() {
        // `B` outermost: one tuple per `B` value, `{a1, a3} × {b1}` and
        // `{a2} × {b2}`. Both meet each conjunct, so the scan locates
        // both; σ folds `{a1, a3}` to nothing and rejects the first.
        let engine = Engine::new();
        let mut session = engine.session();
        session
            .run_script(
                "CREATE TABLE t (A, B);
                 INSERT INTO t VALUES ('a1','b1'), ('a3','b1'), ('a2','b2');",
            )
            .unwrap();
        for (sql, out) in [("SELECT * FROM t", "σ["), ("SELECT A FROM t", "π[")] {
            let sql = format!("{sql} WHERE A IN ('a1', 'a2') AND A IN ('a2', 'a3')");
            let before = engine.table("t").unwrap().stats();
            let Output::Message(text) = session.run(&format!("EXPLAIN ANALYZE {sql}")).unwrap()
            else {
                panic!("EXPLAIN ANALYZE renders a message")
            };
            let probed = engine.table("t").unwrap().stats().units_probed - before.units_probed;
            let line = |prefix: &str| {
                physical_lines(&text)
                    .into_iter()
                    .find(|l| l.trim_start().starts_with(prefix))
                    .unwrap_or_else(|| panic!("no {prefix} line:\n{text}"))
            };
            assert_eq!((actual_rows(line("scan[")), probed), (2, 2), "{text}");
            assert_eq!(actual_rows(line("σ[")), 1, "{text}");
            assert_eq!(actual_rows(line(out)), 1, "{text}");
        }
    }

    #[test]
    fn explain_analyze_reports_order_operator_actuals() {
        let engine = engine();
        let mut session = engine.session();
        let out = session
            .run("EXPLAIN ANALYZE SELECT * FROM sc ORDER BY Student LIMIT 2")
            .unwrap();
        let Output::Message(text) = out else {
            panic!("unexpected {out:?}")
        };
        assert!(text.contains("top-2 bounded heap"), "{text}");
        assert!(text.contains("(actual pulled="), "{text}");
        assert!(text.contains("peak retained="), "{text}");
        // The heap pulled exactly what the root operator yielded.
        let pulled: u64 = text
            .split("actual pulled=")
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap();
        let phys = physical_lines(&text);
        assert_eq!(actual_rows(phys[0]), pulled, "{text}");
    }

    #[test]
    fn explain_analyze_of_statically_empty_result() {
        let engine = engine();
        let mut session = engine.session();
        let out = session
            .run("EXPLAIN ANALYZE SELECT * FROM sc WHERE Student = 'ghost'")
            .unwrap();
        assert!(out.to_text().contains("empty result"), "{out:?}");
    }

    #[test]
    fn explain_shows_template_and_estimates() {
        let engine = engine();
        let session = engine.session();
        let mut stmt = session
            .prepare("SELECT Student FROM sc JOIN cp WHERE Prof = ? AND Course = 'c1'")
            .unwrap();
        let text = stmt.explain(&session).unwrap();
        assert!(text.contains("plan:"), "{text}");
        assert!(text.contains("?0"), "param slot rendered: {text}");
        assert!(text.contains("'c1'"), "literal slot rendered: {text}");
        assert!(text.contains("estimated work:"), "{text}");
        assert!(text.contains("rewrites:"), "{text}");
        let again = stmt.explain(&session).unwrap();
        assert_eq!(text, again, "cached plan is stable across calls");
    }
}
