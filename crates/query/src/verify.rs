//! Static verification of compiled physical plans.
//!
//! The logical layer's typed-IR checker ([`nf2_algebra::check`]) vets
//! the algebra tree; this module vets what `SelectPlan::of` compiled
//! *from* it — the contracts the executor assumes but never re-checks:
//!
//! * every constraint's attribute id is within its input schema;
//! * the flat constraint numbering is exactly `0..n` in bind order, so
//!   the bound-value store and the pipeline agree on indices;
//! * **shard-prune-list soundness**: a scan's prune entries must be
//!   bound by an enclosing selection's conjunct on that table's
//!   routing attribute `P(n−1)` — pruning on anything else would skip
//!   shards that hold matching rows;
//! * **zone-map soundness**: every zone entry (segment min/max skip
//!   check) must be backed by an enclosing conjunct with the same
//!   attribute and bound-store index — otherwise a scan could skip
//!   segments no selection ever filters;
//! * **merge-flag soundness**: a plan claiming k-way-merge eligibility
//!   must re-derive it (ascending keys, a prefix of the reversed nest
//!   order, scan/select-only shape, no conjunct on a key attribute);
//! * projection and join nodes carry schemas consistent with their
//!   inputs (the join layout is recomputed and compared);
//! * **projection-arm soundness**: each projection's `streaming` flag
//!   must equal the verdict the checker re-derives from the optimized
//!   template — a streaming π over an unpinned dropped attribute would
//!   emit overlapping rectangles, a blocking one over pinned drops
//!   would quietly pay the all-pairs Def. 7 test again;
//! * slot atoms stay within the reserved range and parameter slots
//!   within the declared parameter count;
//! * `ORDER BY` names an attribute of the output schema, and the
//!   order/limit→top-k fold is never attached to an aggregate (whose
//!   input stream must not be truncated).
//!
//! [`check_plan`] runs all of it (plus the logical checker on both the
//! raw and optimized templates, and a re-run of the gated optimizer);
//! `SelectPlan::of` invokes it in debug builds and under
//! `NF2_VERIFY=1`, and `EXPLAIN VERIFY` reports its verdict on demand.

use std::fmt;
use std::sync::Arc;

use nf2_algebra::check::{self, CheckCatalog};
use nf2_algebra::stream::JoinLayout;
use nf2_algebra::{try_optimize, Expr, SchemaCatalog};
use nf2_core::schema::Schema;
use nf2_core::value::Atom;

use crate::ast::Projection;
use crate::engine::Engine;
use crate::exec::QueryError;
use crate::prepare::{Phys, SelectPlan, Slot, SLOT_BASE};

/// A physical-plan contract violation, naming the offending plan site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct PlanViolation {
    /// Which part of the plan is wrong (a rendered node or clause).
    pub site: String,
    /// What contract it breaks.
    pub reason: String,
}

impl fmt::Display for PlanViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "at {}: {}", self.site, self.reason)
    }
}

fn violation(site: impl Into<String>, reason: impl Into<String>) -> PlanViolation {
    PlanViolation {
        site: site.into(),
        reason: reason.into(),
    }
}

/// Statistics from a successful [`check_plan`] pass.
#[derive(Debug, Clone)]
pub(crate) struct PlanReport {
    /// Logical operator nodes checked (optimized template).
    pub logical_nodes: usize,
    /// Physical pipeline nodes checked.
    pub phys_nodes: usize,
    /// Scans carrying a non-empty shard prune list.
    pub pruned_scans: usize,
    /// Scans carrying a non-empty zone-map check list.
    pub zoned_scans: usize,
    /// Optimizer rule applications re-verified by the soundness gate.
    pub rewrite_steps: usize,
    /// Inferred output type of the optimized template.
    pub output_type: check::RelType,
    /// Non-fatal checker observations.
    pub warnings: Vec<String>,
}

/// Builds the checker catalog for a plan's tables, with per-table
/// routing attributes (`P(n−1)`) for sharded tables.
pub(crate) fn check_catalog(
    tables: &[String],
    engine: &Engine,
) -> Result<CheckCatalog, QueryError> {
    let mut cat = CheckCatalog::new();
    for name in tables {
        let t = engine.table(name)?;
        let attrs: Vec<&str> = t.schema().attr_names().collect();
        let routing = if t.shard_count() > 1 {
            t.routing().attr()
        } else {
            None
        };
        cat.insert_base(name.clone(), &attrs, routing);
    }
    Ok(cat)
}

/// Verifies every static contract of a compiled plan. See the module
/// docs for the list; any `Err` is a planner/optimizer bug.
pub(crate) fn check_plan(plan: &SelectPlan, engine: &Engine) -> Result<PlanReport, PlanViolation> {
    // Slot-range bounds: the dictionary must stay clear of the reserved
    // atom range, and the slot table must fit inside it.
    let capacity = (u32::MAX - SLOT_BASE) as usize + 1;
    if engine.dict().len() as u64 >= SLOT_BASE as u64 {
        return Err(violation(
            "slot table",
            "dictionary has grown into the reserved slot-atom range",
        ));
    }
    if plan.slots.len() > capacity {
        return Err(violation(
            "slot table",
            format!("{} slots exceed the reserved range", plan.slots.len()),
        ));
    }

    // Logical layer: both templates must type-check, and the optimized
    // template must match the compiled output schema.
    let cat =
        check_catalog(&plan.tables, engine).map_err(|e| violation("catalog", e.to_string()))?;
    check::check(&plan.raw, &cat).map_err(|e| violation("raw template", e.to_string()))?;
    let report = check::check(&plan.expr, &cat)
        .map_err(|e| violation("optimized template", e.to_string()))?;
    let phys_names: Vec<&str> = plan.phys.schema.attr_names().collect();
    if report.ty.names() != phys_names {
        return Err(violation(
            "optimized template",
            format!(
                "logical output {} does not match compiled schema ({})",
                report.ty,
                phys_names.join(", ")
            ),
        ));
    }

    // Re-run the optimizer with the rewrite-soundness gate forced on:
    // every rule application is re-vetted (this is what `EXPLAIN
    // VERIFY` relies on in release builds, where plain `optimize`
    // skips the gate unless NF2_VERIFY is set).
    let mut schema_cat = SchemaCatalog::new();
    for name in &plan.tables {
        let t = engine
            .table(name)
            .map_err(|e| violation(format!("table {name}"), e.to_string()))?;
        schema_cat.insert(
            name.clone(),
            t.schema().attr_names().map(str::to_owned).collect(),
        );
    }
    let reopt =
        try_optimize(&plan.raw, &schema_cat).map_err(|v| violation("optimizer", v.to_string()))?;
    if reopt.expr != plan.expr {
        return Err(violation(
            "optimized template",
            "re-optimization does not reproduce the cached plan",
        ));
    }

    // Physical layer.
    let mut flats = Vec::new();
    let mut phys_nodes = 0usize;
    let mut pruned_scans = 0usize;
    let mut zoned_scans = 0usize;
    let mut enclosing: Vec<(usize, usize)> = Vec::new();
    let root_schema = walk_phys(
        &plan.phys.root,
        plan,
        engine,
        &mut enclosing,
        &mut flats,
        &mut phys_nodes,
        &mut pruned_scans,
        &mut zoned_scans,
    )?;
    let root_names: Vec<&str> = root_schema.attr_names().collect();
    if root_names != phys_names {
        return Err(violation(
            "pipeline root",
            format!(
                "pipeline produces ({}) but the plan declares ({})",
                root_names.join(", "),
                phys_names.join(", ")
            ),
        ));
    }

    check_project_arms(&plan.phys.root, &plan.expr, &plan.tables, &cat)?;

    // Flat numbering: the pipeline's constraint indices must be exactly
    // 0..n with no gaps or duplicates, and n must equal the number of
    // conjuncts `bind_flat` will push from the template.
    let template_conjuncts = count_template_conjuncts(&plan.expr, plan)?;
    let mut sorted = flats.clone();
    sorted.sort_unstable();
    let contiguous = sorted.iter().copied().eq(0..sorted.len());
    if !contiguous || sorted.len() != template_conjuncts {
        return Err(violation(
            "bound-value store",
            format!(
                "pipeline reads flat indices {sorted:?} but the template binds 0..{template_conjuncts}"
            ),
        ));
    }

    // ORDER BY resolution and the top-k fold contract: each key's
    // resolved id must name that key in the output schema, pairwise.
    if let Some((ob, attrs)) = &plan.order {
        if attrs.len() != ob.keys.len() {
            return Err(violation(
                format!("ORDER BY {ob}"),
                format!(
                    "{} keys resolved to {} attribute ids",
                    ob.keys.len(),
                    attrs.len()
                ),
            ));
        }
        for (key, attr) in ob.keys.iter().zip(attrs) {
            match plan.phys.schema.attr_name(*attr) {
                Ok(name) if name == key.attr => {}
                Ok(name) => {
                    return Err(violation(
                        format!("ORDER BY {}", key.attr),
                        format!("resolved attribute id {attr} names {name} in the output schema"),
                    ))
                }
                Err(_) => {
                    return Err(violation(
                        format!("ORDER BY {}", key.attr),
                        format!(
                            "attribute id {attr} is outside the output schema (arity {})",
                            plan.phys.schema.arity()
                        ),
                    ))
                }
            }
        }
    }
    // A claimed merge eligibility must be re-derivable from the plan —
    // merging unsorted shard streams would silently misorder results.
    // (`merge == false` is always safe: the cursor falls back to the
    // heap/sort path.)
    if plan.merge {
        let Some((ob, attrs)) = &plan.order else {
            return Err(violation(
                "order operator",
                "merge flag without an ORDER BY",
            ));
        };
        if !matches!(plan.projection, Projection::All) || plan.tables.len() != 1 {
            return Err(violation(
                "order operator",
                "merge flag on a projected or multi-table plan",
            ));
        }
        let t = engine
            .table(&plan.tables[0])
            .map_err(|e| violation("order operator", e.to_string()))?;
        if !crate::prepare::merge_eligible(&t, ob, attrs, &plan.phys.root) {
            return Err(violation(
                "order operator",
                "merge flag on a plan that fails static merge eligibility",
            ));
        }
    }
    if matches!(
        plan.projection,
        Projection::CountStar | Projection::CountDistinct(_)
    ) && (plan.order.is_some() || plan.limit.is_some())
    {
        return Err(violation(
            "aggregate projection",
            "order/limit must not truncate an aggregate's input stream",
        ));
    }

    Ok(PlanReport {
        logical_nodes: report.nodes,
        phys_nodes,
        pruned_scans,
        zoned_scans,
        rewrite_steps: reopt.trace.len(),
        output_type: report.ty,
        warnings: report.warnings,
    })
}

/// Bottom-up physical walk. `enclosing` carries the `(attr, flat)`
/// conjuncts of selection nodes above the current node *within the same
/// select chain* (reset across projection and join boundaries, where
/// attribute ids change meaning) — prune-list soundness is judged
/// against it.
#[allow(clippy::too_many_arguments)]
fn walk_phys(
    node: &Phys,
    plan: &SelectPlan,
    engine: &Engine,
    enclosing: &mut Vec<(usize, usize)>,
    flats: &mut Vec<usize>,
    nodes: &mut usize,
    pruned: &mut usize,
    zoned: &mut usize,
) -> Result<Arc<Schema>, PlanViolation> {
    *nodes += 1;
    match node {
        Phys::Scan { table, prune, zone } => {
            let Some(name) = plan.tables.get(*table) else {
                return Err(violation(
                    format!("scan #{table}"),
                    format!("table index out of range (plan has {})", plan.tables.len()),
                ));
            };
            let t = engine
                .table(name)
                .map_err(|e| violation(format!("scan {name}"), e.to_string()))?;
            if !prune.is_empty() {
                *pruned += 1;
                if t.shard_count() <= 1 {
                    return Err(violation(
                        format!("scan {name}"),
                        "prune list on an unsharded table".to_string(),
                    ));
                }
                let Some(route_attr) = t.routing().attr() else {
                    return Err(violation(
                        format!("scan {name}"),
                        "prune list but the table has no routing attribute".to_string(),
                    ));
                };
                for &flat in prune {
                    let bound_by_routing = enclosing
                        .iter()
                        .any(|&(attr, f)| f == flat && attr == route_attr);
                    if !bound_by_routing {
                        let route_name = t
                            .schema()
                            .attr_name(route_attr)
                            .unwrap_or("<out of schema>");
                        return Err(violation(
                            format!("scan {name}"),
                            format!(
                                "prune entry #{flat} is not bound by an enclosing conjunct \
                                 on the routing attribute {route_name}"
                            ),
                        ));
                    }
                }
            }
            if !zone.is_empty() {
                *zoned += 1;
                // A zone entry may skip whole segments, so it must be
                // backed by a real enclosing conjunct — same attribute,
                // same bound-store index — or the scan would drop rows
                // no selection ever asked to drop.
                for &(attr, flat) in zone {
                    let backed = enclosing.contains(&(attr, flat));
                    if !backed {
                        let attr_name = t.schema().attr_name(attr).unwrap_or("<out of schema>");
                        return Err(violation(
                            format!("scan {name}"),
                            format!(
                                "zone entry {attr_name}∈#{flat} is not backed by an \
                                 enclosing selection conjunct"
                            ),
                        ));
                    }
                }
            }
            Ok(t.schema().clone())
        }
        Phys::Select { input, constraints } => {
            let depth = enclosing.len();
            enclosing.extend(constraints.iter().copied());
            let schema = walk_phys(input, plan, engine, enclosing, flats, nodes, pruned, zoned)?;
            enclosing.truncate(depth);
            for &(attr, flat) in constraints {
                if attr >= schema.arity() {
                    return Err(violation(
                        render_node(node, &plan.tables, None),
                        format!(
                            "constraint on attribute id {attr} exceeds input arity {}",
                            schema.arity()
                        ),
                    ));
                }
                flats.push(flat);
            }
            Ok(schema)
        }
        Phys::Project {
            input,
            input_schema,
            attrs,
            ..
        } => {
            let mut inner = Vec::new();
            let child = walk_phys(input, plan, engine, &mut inner, flats, nodes, pruned, zoned)?;
            let child_names: Vec<&str> = child.attr_names().collect();
            let stored_names: Vec<&str> = input_schema.attr_names().collect();
            if child_names != stored_names {
                return Err(violation(
                    render_node(node, &plan.tables, None),
                    format!(
                        "stored input schema ({}) does not match the pipeline ({})",
                        stored_names.join(", "),
                        child_names.join(", ")
                    ),
                ));
            }
            let names = attrs
                .iter()
                .map(|&a| child.attr_name(a))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| violation(render_node(node, &plan.tables, None), e.to_string()))?;
            Schema::new(format!("{}_proj", child.name()), &names)
                .map_err(|e| violation(render_node(node, &plan.tables, None), e.to_string()))
        }
        Phys::Join {
            left,
            right,
            layout,
        } => {
            let mut lctx = Vec::new();
            let lschema = walk_phys(left, plan, engine, &mut lctx, flats, nodes, pruned, zoned)?;
            let mut rctx = Vec::new();
            let rschema = walk_phys(right, plan, engine, &mut rctx, flats, nodes, pruned, zoned)?;
            let expected = JoinLayout::of(&lschema, &rschema)
                .map_err(|e| violation(render_node(node, &plan.tables, None), e.to_string()))?;
            let same = expected.shared == layout.shared
                && expected.right_only == layout.right_only
                && expected.schema.attr_names().eq(layout.schema.attr_names());
            if !same {
                return Err(violation(
                    render_node(node, &plan.tables, None),
                    format!(
                        "stored join layout ({}) disagrees with the input schemas ({})",
                        layout.schema, expected.schema
                    ),
                ));
            }
            Ok(layout.schema.clone())
        }
    }
}

/// Projection-arm soundness: walks the pipeline and the optimized
/// template in lockstep (they have the same shape — `compile` maps node
/// to node) and, at every projection, re-derives the static Def. 7
/// verdict from the template and compares it with the compiled flag.
fn check_project_arms(
    node: &Phys,
    expr: &Expr,
    tables: &[String],
    cat: &CheckCatalog,
) -> Result<(), PlanViolation> {
    match (node, expr) {
        (Phys::Scan { .. }, Expr::Rel(_)) => Ok(()),
        (Phys::Select { input, .. }, Expr::SelectBox { input: e, .. }) => {
            check_project_arms(input, e, tables, cat)
        }
        (Phys::Join { left, right, .. }, Expr::Join(l, r)) => {
            check_project_arms(left, l, tables, cat)?;
            check_project_arms(right, r, tables, cat)
        }
        (
            Phys::Project {
                input, streaming, ..
            },
            Expr::Project { input: e, attrs },
        ) => {
            let site = || render_node(node, tables, None);
            let input_ty =
                check::infer(e, cat).map_err(|err| violation(site(), err.to_string()))?;
            match (input_ty.unpinned_drop(attrs), *streaming) {
                (Some(attr), true) => Err(violation(
                    site(),
                    format!(
                        "streaming projection drops {attr}, which the plan below does not \
                         pin to one value — it is not fixed by construction"
                    ),
                )),
                (None, false) => Err(violation(
                    site(),
                    "blocking projection, but every dropped attribute is pinned: the plan \
                     proves it fixed by construction and it must stream",
                )),
                _ => check_project_arms(input, e, tables, cat),
            }
        }
        _ => Err(violation(
            render_node(node, tables, None),
            format!("pipeline node does not correspond to template node {expr}"),
        )),
    }
}

/// Counts the conjuncts `bind_flat` pushes for the template, validating
/// slot atoms on the way: slot ids must stay within the slot table and
/// parameter slots within the declared parameter count.
fn count_template_conjuncts(template: &Expr, plan: &SelectPlan) -> Result<usize, PlanViolation> {
    fn check_atom(a: Atom, plan: &SelectPlan) -> Result<(), PlanViolation> {
        if a.id() < SLOT_BASE {
            return Ok(());
        }
        let idx = (a.id() - SLOT_BASE) as usize;
        match plan.slots.get(idx) {
            None => Err(violation(
                "slot table",
                format!(
                    "template references slot #{idx}, but only {} exist",
                    plan.slots.len()
                ),
            )),
            Some(Slot::Param(i)) if *i >= plan.param_count => Err(violation(
                "slot table",
                format!(
                    "slot #{idx} binds parameter ?{i}, but the plan declares {}",
                    plan.param_count
                ),
            )),
            Some(_) => Ok(()),
        }
    }
    fn go(e: &Expr, plan: &SelectPlan, n: &mut usize) -> Result<(), PlanViolation> {
        match e {
            Expr::SelectBox { input, constraints } => {
                *n += constraints.len();
                for (_, atoms) in constraints {
                    for &a in atoms {
                        check_atom(a, plan)?;
                    }
                }
                go(input, plan, n)
            }
            Expr::Project { input, .. }
            | Expr::Nest { input, .. }
            | Expr::Unnest { input, .. }
            | Expr::Canonicalize { input, .. } => go(input, plan, n),
            Expr::Join(l, r)
            | Expr::Union(l, r)
            | Expr::Difference(l, r)
            | Expr::Intersect(l, r) => {
                go(l, plan, n)?;
                go(r, plan, n)
            }
            Expr::Rel(_) => Ok(()),
        }
    }
    let mut n = 0;
    go(template, plan, &mut n)?;
    Ok(n)
}

/// One-line rendering of a physical node. With an engine, prune and
/// zone entries render their predicate attribute by name (`prune
/// Course∈#0`); without one (violation sites) they fall back to bare
/// bound-store indices.
fn render_node(node: &Phys, tables: &[String], engine: Option<&Engine>) -> String {
    match node {
        Phys::Scan { table, prune, zone } => {
            let name = tables.get(*table).map(String::as_str).unwrap_or("?");
            let t = match engine {
                Some(e) => tables.get(*table).and_then(|n| e.table(n).ok()),
                None => None,
            };
            let attr_name = |attr: usize| -> Option<String> {
                t.as_ref()
                    .and_then(|t| t.schema().attr_name(attr).ok().map(str::to_owned))
            };
            let mut parts = vec![name.to_owned()];
            if !prune.is_empty() {
                let route = t
                    .as_ref()
                    .and_then(|t| t.routing().attr())
                    .and_then(&attr_name);
                let ids: Vec<String> = prune
                    .iter()
                    .map(|f| match &route {
                        Some(r) => format!("{r}∈#{f}"),
                        None => format!("#{f}"),
                    })
                    .collect();
                parts.push(format!("prune {}", ids.join(",")));
            }
            if !zone.is_empty() {
                let ids: Vec<String> = zone
                    .iter()
                    .map(|&(attr, flat)| match attr_name(attr) {
                        Some(n) => format!("{n}∈#{flat}"),
                        None => format!("@{attr}∈#{flat}"),
                    })
                    .collect();
                parts.push(format!("zone {}", ids.join(",")));
            }
            format!("scan[{}]", parts.join(" | "))
        }
        Phys::Select { constraints, .. } => {
            let parts: Vec<String> = constraints
                .iter()
                .map(|(a, f)| format!("@{a}∈#{f}"))
                .collect();
            format!("σ[{}]", parts.join(" ∧ "))
        }
        Phys::Project {
            attrs, streaming, ..
        } => {
            let ids: Vec<String> = attrs.iter().map(|a| format!("@{a}")).collect();
            let arm = if *streaming { " | streaming" } else { "" };
            format!("π[{}{arm}]", ids.join(","))
        }
        Phys::Join { layout, .. } => format!(
            "⋈[shared={}, right_only={}]",
            layout.shared.len(),
            layout.right_only.len()
        ),
    }
}

/// Renders the physical pipeline as an indented tree (EXPLAIN output).
/// The engine, when supplied, resolves prune/zone predicate attribute
/// names.
pub(crate) fn render_phys(
    node: &Phys,
    tables: &[String],
    engine: Option<&Engine>,
    indent: usize,
) -> String {
    let pad = "  ".repeat(indent);
    let mut text = format!("{pad}{}", render_node(node, tables, engine));
    let children: Vec<&Phys> = match node {
        Phys::Scan { .. } => vec![],
        Phys::Select { input, .. } | Phys::Project { input, .. } => vec![input],
        Phys::Join { left, right, .. } => vec![left, right],
    };
    for child in children {
        text.push('\n');
        text.push_str(&render_phys(child, tables, engine, indent + 1));
    }
    text
}

/// [`render_phys`] with per-operator actuals appended: each node line
/// gets `(actual rows=N time=…)` from its [`OpTally`]. `tallies` is
/// indexed by the same pre-order as [`crate::prepare::phys_size`]
/// numbers the tree (first child = `idx + 1`, a join's right child =
/// `idx + 1 + phys_size(left)`), which is exactly the order this walk
/// emits lines in.
pub(crate) fn render_phys_analyzed(
    node: &Phys,
    tables: &[String],
    engine: Option<&Engine>,
    indent: usize,
    tallies: &[std::sync::Arc<nf2_algebra::OpTally>],
    idx: usize,
) -> String {
    let pad = "  ".repeat(indent);
    let actual = match tallies.get(idx) {
        Some(t) => format!(
            " (actual rows={} time={})",
            t.rows(),
            nf2_obs::format_nanos(t.nanos())
        ),
        None => String::new(),
    };
    let mut text = format!("{pad}{}{actual}", render_node(node, tables, engine));
    let children: Vec<(&Phys, usize)> = match node {
        Phys::Scan { .. } => vec![],
        Phys::Select { input, .. } | Phys::Project { input, .. } => vec![(input, idx + 1)],
        Phys::Join { left, right, .. } => vec![
            (left, idx + 1),
            (right, idx + 1 + crate::prepare::phys_size(left)),
        ],
    };
    for (child, child_idx) in children {
        text.push('\n');
        text.push_str(&render_phys_analyzed(
            child,
            tables,
            engine,
            indent + 1,
            tallies,
            child_idx,
        ));
    }
    text
}

/// Runs [`check_plan`] and renders a human-readable verdict for
/// `EXPLAIN VERIFY`.
pub(crate) fn verify_report(plan: &SelectPlan, engine: &Engine) -> String {
    match check_plan(plan, engine) {
        Ok(r) => {
            let mut text = format!(
                "verify: ok — {} logical nodes, {} physical nodes, {} pruned scan(s), \
                 {} zone-mapped scan(s), {} rewrite step(s) gated; output type {}",
                r.logical_nodes,
                r.phys_nodes,
                r.pruned_scans,
                r.zoned_scans,
                r.rewrite_steps,
                r.output_type
            );
            for w in &r.warnings {
                text.push_str(&format!("\nverify: warning — {w}"));
            }
            text
        }
        Err(v) => format!("verify: FAILED — {v}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{OrderBy, OrderDir};
    use crate::prepare::NO_PARAMS;

    /// A 4-shard engine; `sc`'s routing attribute is `Course` (the last
    /// nest-applied attribute of the identity order).
    fn sharded_engine() -> Engine {
        let engine = Engine::builder().shards(4).build().unwrap();
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

    fn plan_for(engine: &Engine, sql: &str) -> SelectPlan {
        let stmt = crate::parser::parse(sql).unwrap();
        SelectPlan::of(engine, &stmt).unwrap().expect("a SELECT")
    }

    fn first_scan(node: &mut Phys) -> &mut Phys {
        match node {
            Phys::Scan { .. } => node,
            Phys::Select { input, .. } | Phys::Project { input, .. } => first_scan(input),
            Phys::Join { left, .. } => first_scan(left),
        }
    }

    #[test]
    fn sound_plans_pass_with_prune_stats() {
        let engine = sharded_engine();
        for (sql, pruned) in [
            ("SELECT * FROM sc", 0),
            ("SELECT * FROM sc WHERE Course = 'c1'", 1),
            ("SELECT Student FROM sc WHERE Course IN ('c1','c2')", 1),
            // Course routes sc but not cp (whose routing attribute is
            // Prof, the last nest-applied one), so only sc's scan prunes.
            ("SELECT * FROM sc JOIN cp WHERE Course = 'c1'", 1),
            (
                "SELECT * FROM sc WHERE Student = 's1' ORDER BY Course DESC LIMIT 2",
                0,
            ),
            ("SELECT COUNT(*) FROM sc WHERE Course = ?", 1),
        ] {
            let plan = plan_for(&engine, sql);
            let report = check_plan(&plan, &engine)
                .unwrap_or_else(|v| panic!("sound plan rejected for {sql}: {v}"));
            assert_eq!(report.pruned_scans, pruned, "{sql}");
            assert!(report.warnings.is_empty(), "{sql}: {:?}", report.warnings);
        }
    }

    #[test]
    fn bad_prune_list_is_rejected() {
        let engine = sharded_engine();
        // Conjunct #0 binds Student — NOT the routing attribute — so a
        // prune entry pointing at it must be called out by table name.
        let mut plan = plan_for(&engine, "SELECT * FROM sc WHERE Student = 's1'");
        if let Phys::Scan { prune, .. } = first_scan(&mut plan.phys.root) {
            prune.push(0);
        }
        let v = check_plan(&plan, &engine).unwrap_err();
        assert!(v.site.contains("scan sc"), "{v}");
        assert!(v.reason.contains("routing attribute"), "{v}");
    }

    #[test]
    fn prune_on_unsharded_table_is_rejected() {
        // Pin one shard: Engine::new() would read NF2_SHARDS and make
        // the table shardable (so a prune list could be legal).
        let engine = Engine::builder().shards(1).build().unwrap();
        engine
            .session()
            .run_script("CREATE TABLE t (A); INSERT INTO t VALUES ('x');")
            .unwrap();
        let mut plan = plan_for(&engine, "SELECT * FROM t WHERE A = 'x'");
        if let Phys::Scan { prune, .. } = first_scan(&mut plan.phys.root) {
            prune.push(0);
        }
        let v = check_plan(&plan, &engine).unwrap_err();
        assert!(v.reason.contains("unsharded"), "{v}");
    }

    #[test]
    fn out_of_schema_order_by_is_rejected() {
        let engine = sharded_engine();
        let mut plan = plan_for(&engine, "SELECT * FROM sc ORDER BY Course");
        plan.order = Some((OrderBy::single("Course", OrderDir::Asc), vec![7]));
        let v = check_plan(&plan, &engine).unwrap_err();
        assert!(v.site.contains("ORDER BY Course"), "{v}");
        assert!(v.reason.contains("outside the output schema"), "{v}");
        // A resolved-but-wrong id (names another attribute) also fails.
        plan.order = Some((OrderBy::single("Course", OrderDir::Asc), vec![0]));
        let v = check_plan(&plan, &engine).unwrap_err();
        assert!(v.reason.contains("names Student"), "{v}");
        // And a key-count mismatch is caught before pairwise checks.
        plan.order = Some((OrderBy::single("Course", OrderDir::Asc), vec![1, 0]));
        let v = check_plan(&plan, &engine).unwrap_err();
        assert!(v.reason.contains("resolved to"), "{v}");
    }

    #[test]
    fn unbacked_zone_entry_is_rejected() {
        let engine = sharded_engine();
        // Conjunct #0 exists (Student = 's1'), but a zone entry claiming
        // it constrains Course would skip segments no selection filters.
        let mut plan = plan_for(&engine, "SELECT * FROM sc WHERE Student = 's1'");
        if let Phys::Scan { zone, .. } = first_scan(&mut plan.phys.root) {
            zone.push((1, 0));
        }
        let v = check_plan(&plan, &engine).unwrap_err();
        assert!(v.site.contains("scan sc"), "{v}");
        assert!(v.reason.contains("not backed"), "{v}");
    }

    #[test]
    fn unsound_merge_flag_is_rejected() {
        let engine = sharded_engine();
        // Student is not a prefix of the reversed nest order (Course,
        // Student), so a forced merge flag must be called out.
        let mut plan = plan_for(&engine, "SELECT * FROM sc ORDER BY Student");
        assert!(!plan.merge);
        plan.merge = true;
        let v = check_plan(&plan, &engine).unwrap_err();
        assert!(v.reason.contains("merge"), "{v}");
        // A descending key is equally unsound.
        let mut plan = plan_for(&engine, "SELECT * FROM sc ORDER BY Course DESC");
        assert!(!plan.merge);
        plan.merge = true;
        let v = check_plan(&plan, &engine).unwrap_err();
        assert!(v.reason.contains("merge"), "{v}");
        // The legitimately eligible plan passes with the flag set.
        let plan = plan_for(&engine, "SELECT * FROM sc ORDER BY Course, Student");
        assert!(plan.merge);
        check_plan(&plan, &engine).unwrap();
    }

    #[test]
    fn flipped_projection_arm_is_rejected_both_ways() {
        let engine = sharded_engine();
        fn flip(plan: &mut SelectPlan) {
            let Phys::Project { streaming, .. } = &mut plan.phys.root else {
                panic!("not a projection plan")
            };
            *streaming = !*streaming;
        }
        // Two courses pin nothing: this π must block. Claiming it
        // streams is named with the attribute that breaks Def. 7.
        let mut plan = plan_for(
            &engine,
            "SELECT Student FROM sc WHERE Course IN ('c1','c2')",
        );
        check_plan(&plan, &engine).unwrap();
        flip(&mut plan);
        let v = check_plan(&plan, &engine).unwrap_err();
        assert_eq!(v.site, "π[@0 | streaming]", "{v}");
        assert!(v.reason.contains("drops Course"), "{v}");
        // One course pins it: this π streams, and a plan that blocks
        // anyway is rejected too — it would pay the all-pairs test the
        // static rule exists to skip.
        let mut plan = plan_for(&engine, "SELECT Student FROM sc WHERE Course = 'c1'");
        check_plan(&plan, &engine).unwrap();
        flip(&mut plan);
        let v = check_plan(&plan, &engine).unwrap_err();
        assert_eq!(v.site, "π[@0]", "{v}");
        assert!(v.reason.contains("fixed by construction"), "{v}");
    }

    #[test]
    fn aggregate_topk_fold_is_rejected() {
        let engine = sharded_engine();
        let mut plan = plan_for(&engine, "SELECT COUNT(*) FROM sc");
        plan.limit = Some(1);
        let v = check_plan(&plan, &engine).unwrap_err();
        assert!(v.site.contains("aggregate"), "{v}");
    }

    #[test]
    fn corrupted_flat_numbering_is_rejected() {
        let engine = sharded_engine();
        let mut plan = plan_for(
            &engine,
            "SELECT * FROM sc WHERE Student = 's1' AND Course = 'c1'",
        );
        fn first_select(node: &mut Phys) -> Option<&mut Vec<(usize, usize)>> {
            match node {
                Phys::Select { constraints, .. } => Some(constraints),
                Phys::Project { input, .. } => first_select(input),
                Phys::Join { left, .. } => first_select(left),
                Phys::Scan { .. } => None,
            }
        }
        // Give the Student conjunct (attr id 0) the Course conjunct's
        // flat index: the prune entry still resolves, but the numbering
        // now has a duplicate and a gap. The scan's zone list is kept
        // consistent so the flat-numbering check (not the zone-backing
        // check) is what trips.
        let constraints = first_select(&mut plan.phys.root).unwrap();
        let course_flat = constraints.iter().find(|(a, _)| *a == 1).unwrap().1;
        constraints.iter_mut().find(|(a, _)| *a == 0).unwrap().1 = course_flat;
        if let Phys::Scan { zone, .. } = first_scan(&mut plan.phys.root) {
            zone.iter_mut().find(|(a, _)| *a == 0).unwrap().1 = course_flat;
        }
        let v = check_plan(&plan, &engine).unwrap_err();
        assert!(v.site.contains("bound-value store"), "{v}");
    }

    #[test]
    fn constraint_attr_out_of_arity_is_rejected() {
        let engine = sharded_engine();
        let mut plan = plan_for(&engine, "SELECT * FROM sc WHERE Student = 's1'");
        if let Phys::Select { constraints, .. } = &mut plan.phys.root {
            constraints[0].0 = 9;
        }
        // Keep the zone mirror consistent so the arity check trips, not
        // the zone-backing one.
        if let Phys::Scan { zone, .. } = first_scan(&mut plan.phys.root) {
            zone[0].0 = 9;
        }
        let v = check_plan(&plan, &engine).unwrap_err();
        assert!(v.reason.contains("exceeds input arity"), "{v}");
    }

    #[test]
    fn explain_includes_physical_tree_and_verdict() {
        let engine = sharded_engine();
        let plan = plan_for(
            &engine,
            "SELECT Student FROM sc JOIN cp WHERE Course = 'c1'",
        );
        let text = plan
            .explain(&engine, NO_PARAMS, true, true)
            .unwrap()
            .unwrap();
        assert!(text.contains("physical:"), "{text}");
        // The pruning predicate renders by attribute name, and the same
        // conjunct doubles as a zone-map check.
        assert!(
            text.contains("scan[sc | prune Course∈#0 | zone Course∈#0]"),
            "{text}"
        );
        assert!(text.contains("⋈[shared=1"), "{text}");
        assert!(text.contains("verify: ok"), "{text}");
        assert!(text.contains("pruned scan"), "{text}");
        assert!(text.contains("zone-mapped scan"), "{text}");
        // Fully bound: the dynamic pruning section reports shard and
        // segment effect.
        assert!(text.contains("pruning:"), "{text}");
        assert!(text.contains("sc: 1/4 shard(s)"), "{text}");
        assert!(text.contains("segments skipped"), "{text}");
    }

    #[test]
    fn verify_report_names_rule_and_site_on_failure() {
        let engine = sharded_engine();
        let mut plan = plan_for(&engine, "SELECT COUNT(*) FROM sc");
        plan.limit = Some(3);
        let text = verify_report(&plan, &engine);
        assert!(text.starts_with("verify: FAILED"), "{text}");
        assert!(text.contains("aggregate"), "{text}");
    }
}
