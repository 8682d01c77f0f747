//! Rule-based optimizer over [`Expr`] trees.
//!
//! §5 of the paper leaves "the optimization strategy" as an open problem;
//! this module answers it with the two rules the query layer's plans
//! reach. Both are rooted at a selection and both are *structural*: the
//! rewritten plan's result is tuple-for-tuple identical to the original.
//!
//! | Rule | Rewrite | Law |
//! |------|---------|-----|
//! | `merge-selects` | `σc2(σc1(X)) → σ[c1∧c2](X)` | ∩ associativity |
//! | `select-into-join` | `σ(L ⋈ R) → σL ⋈ σR` (conjuncts routed by schema) | L8 |
//!
//! The other interaction laws of [`crate::laws`] — σ through ν and μ,
//! σ over the set operators, the ν/μ cancellations — stay executable
//! checks of the paper; no plan the planner builds has the shape they
//! would rewrite, so the optimizer does not apply them.

use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

use nf2_core::error::{NfError, Result};
use nf2_core::value::Atom;

use crate::check::{self, CheckCatalog, RewriteViolation};
use crate::expr::{Env, Expr};

/// Static schema information: relation name → attribute names. The
/// optimizer needs it to route selection conjuncts into join sides.
#[derive(Debug, Clone, Default)]
pub struct SchemaCatalog {
    attrs: HashMap<String, Vec<String>>,
}

impl SchemaCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a base relation's attribute names.
    pub fn insert(&mut self, name: impl Into<String>, attrs: Vec<String>) {
        self.attrs.insert(name.into(), attrs);
    }

    /// Builds the catalog from an evaluation environment.
    pub fn from_env(env: &Env) -> Self {
        let mut cat = Self::new();
        for name in env.names() {
            let rel = env.get(name).expect("name listed by env");
            cat.insert(name, rel.schema().attr_names().map(str::to_owned).collect());
        }
        cat
    }

    fn base_attrs(&self, name: &str) -> Result<&[String]> {
        self.attrs
            .get(name)
            .map(Vec::as_slice)
            .ok_or_else(|| NfError::UnknownAttribute(format!("relation {name}")))
    }

    /// Registered relations and their attribute names.
    pub fn relations(&self) -> impl Iterator<Item = (&str, &[String])> {
        self.attrs.iter().map(|(n, a)| (n.as_str(), a.as_slice()))
    }
}

/// Infers the output attribute names of `expr` without evaluating it.
pub fn output_attrs(expr: &Expr, catalog: &SchemaCatalog) -> Result<Vec<String>> {
    match expr {
        Expr::Rel(name) => Ok(catalog.base_attrs(name)?.to_vec()),
        Expr::SelectBox { input, .. }
        | Expr::Nest { input, .. }
        | Expr::Unnest { input, .. }
        | Expr::Canonicalize { input, .. } => output_attrs(input, catalog),
        Expr::Project { attrs, .. } => Ok(attrs.clone()),
        Expr::Union(l, _) | Expr::Difference(l, _) | Expr::Intersect(l, _) => {
            output_attrs(l, catalog)
        }
        Expr::Join(l, r) => {
            let mut out = output_attrs(l, catalog)?;
            for attr in output_attrs(r, catalog)? {
                if !out.contains(&attr) {
                    out.push(attr);
                }
            }
            Ok(out)
        }
    }
}

/// One applied rewrite, for EXPLAIN-style traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Applied {
    /// Rule identifier (see the module table).
    pub rule: &'static str,
    /// The subexpression after the rewrite, rendered.
    pub result: String,
}

/// The optimizer output: the rewritten expression and the rule trace.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The final expression.
    pub expr: Expr,
    /// Rules applied, in application order.
    pub trace: Vec<Applied>,
}

impl fmt::Display for Optimized {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan: {}", self.expr)?;
        for step in &self.trace {
            writeln!(f, "  [{}] → {}", step.rule, step.result)?;
        }
        Ok(())
    }
}

/// Upper bound on rewrite passes; each pass applies at most one rule per
/// node, so this comfortably exceeds any real fixpoint depth.
const MAX_PASSES: usize = 64;

/// Whether the rewrite-soundness gate is active for plain [`optimize`]
/// calls: always in debug builds, and under `NF2_VERIFY=1` in release.
pub fn verify_enabled() -> bool {
    if cfg!(debug_assertions) {
        return true;
    }
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| matches!(std::env::var("NF2_VERIFY"), Ok(v) if !v.is_empty() && v != "0"))
}

/// Optimizes `expr`, using `catalog` for attribute routing.
///
/// Runs the rule set to fixpoint (top-down, one rule per pass). The
/// result is tuple-identical to `expr`'s on every instance, which is
/// property-tested.
///
/// When [`verify_enabled`] (debug builds, or `NF2_VERIFY=1`), every rule
/// application is additionally vetted by the
/// [`check`](crate::check::check_rewrite) gate; a violation is a bug in
/// the rule set and panics with the offending rule and subtree. Use
/// [`try_optimize`] for a non-panicking, always-gated variant.
pub fn optimize(expr: &Expr, catalog: &SchemaCatalog) -> Optimized {
    optimize_observed(expr, catalog, &mut |_, _, _| {})
}

/// [`optimize`], reporting each applied rule to `on_rule` as
/// `(rule, before, after)` immediately after it passes the soundness
/// gate. The callback sees whole-tree expressions, so an observer can
/// cost both sides (this crate stays free of any metrics dependency —
/// callers bring their own cost model and sink). The rule also still
/// lands in [`Optimized::trace`]; the callback is purely additive.
pub fn optimize_observed(
    expr: &Expr,
    catalog: &SchemaCatalog,
    on_rule: &mut dyn FnMut(&'static str, &Expr, &Expr),
) -> Optimized {
    match optimize_gated(expr, catalog, verify_enabled(), on_rule) {
        Ok(opt) => opt,
        Err(v) => panic!("optimizer rewrite-soundness gate: {v}"),
    }
}

/// Optimizes with the rewrite-soundness gate forced on, reporting the
/// first unsound rule application instead of panicking.
pub fn try_optimize(
    expr: &Expr,
    catalog: &SchemaCatalog,
) -> std::result::Result<Optimized, RewriteViolation> {
    optimize_gated(expr, catalog, true, &mut |_, _, _| {})
}

fn optimize_gated(
    expr: &Expr,
    catalog: &SchemaCatalog,
    verify: bool,
    on_rule: &mut dyn FnMut(&'static str, &Expr, &Expr),
) -> std::result::Result<Optimized, RewriteViolation> {
    let check_catalog = verify.then(|| CheckCatalog::from_schema_catalog(catalog));
    let mut current = expr.clone();
    let mut trace = Vec::new();
    for _ in 0..MAX_PASSES {
        match rewrite(&current, catalog) {
            Some((next, rule)) => {
                if let Some(cat) = &check_catalog {
                    check::check_rewrite(rule, &current, &next, cat)?;
                }
                on_rule(rule, &current, &next);
                trace.push(Applied {
                    rule,
                    result: next.to_string(),
                });
                current = next;
            }
            None => break,
        }
    }
    Ok(Optimized {
        expr: current,
        trace,
    })
}

/// Tries to apply one rule anywhere in the tree (root first, then
/// children, left to right). Returns the rewritten tree and rule name.
fn rewrite(expr: &Expr, catalog: &SchemaCatalog) -> Option<(Expr, &'static str)> {
    if let Some(hit) = rewrite_root(expr, catalog) {
        return Some(hit);
    }
    // Recurse into children, rebuilding the node around the first hit.
    macro_rules! descend1 {
        ($input:expr, $build:expr) => {
            if let Some((new_input, rule)) = rewrite($input, catalog) {
                return Some(($build(Box::new(new_input)), rule));
            }
        };
    }
    match expr {
        Expr::Rel(_) => None,
        Expr::SelectBox { input, constraints } => {
            let constraints = constraints.clone();
            descend1!(input, |i| Expr::SelectBox {
                input: i,
                constraints: constraints.clone()
            });
            None
        }
        Expr::Project { input, attrs } => {
            let attrs = attrs.clone();
            descend1!(input, |i| Expr::Project {
                input: i,
                attrs: attrs.clone()
            });
            None
        }
        Expr::Nest { input, attr } => {
            let attr = attr.clone();
            descend1!(input, |i| Expr::Nest {
                input: i,
                attr: attr.clone()
            });
            None
        }
        Expr::Unnest { input, attr } => {
            let attr = attr.clone();
            descend1!(input, |i| Expr::Unnest {
                input: i,
                attr: attr.clone()
            });
            None
        }
        Expr::Canonicalize { input, order } => {
            let order = order.clone();
            descend1!(input, |i| Expr::Canonicalize {
                input: i,
                order: order.clone()
            });
            None
        }
        Expr::Union(l, r) | Expr::Difference(l, r) | Expr::Intersect(l, r) | Expr::Join(l, r) => {
            let rebuild = |l: Box<Expr>, r: Box<Expr>| match expr {
                Expr::Union(..) => Expr::Union(l, r),
                Expr::Difference(..) => Expr::Difference(l, r),
                Expr::Intersect(..) => Expr::Intersect(l, r),
                Expr::Join(..) => Expr::Join(l, r),
                _ => unreachable!(),
            };
            if let Some((new_l, rule)) = rewrite(l, catalog) {
                return Some((rebuild(Box::new(new_l), r.clone()), rule));
            }
            if let Some((new_r, rule)) = rewrite(r, catalog) {
                return Some((rebuild(l.clone(), Box::new(new_r)), rule));
            }
            None
        }
    }
}

/// A deliberately-unsound rule used to prove the soundness gate fires:
/// it silently drops the last attribute of a multi-attribute projection,
/// which the gate must reject as an output-schema change.
#[cfg(test)]
pub(crate) mod sabotage {
    use std::cell::Cell;

    pub(crate) const RULE: &str = "test-drop-projection-attr";

    thread_local! {
        static ENABLED: Cell<bool> = const { Cell::new(false) };
    }

    /// Enables the broken rule for the current thread until dropped.
    pub(crate) struct Armed;

    impl Armed {
        pub(crate) fn new() -> Self {
            ENABLED.with(|f| f.set(true));
            Armed
        }
    }

    impl Drop for Armed {
        fn drop(&mut self) {
            ENABLED.with(|f| f.set(false));
        }
    }

    pub(crate) fn active() -> bool {
        ENABLED.with(|f| f.get())
    }
}

/// Rule dispatch at a single node: both rules are rooted at σ.
fn rewrite_root(expr: &Expr, catalog: &SchemaCatalog) -> Option<(Expr, &'static str)> {
    #[cfg(test)]
    if sabotage::active() {
        if let Expr::Project { input, attrs } = expr {
            if attrs.len() > 1 {
                return Some((
                    Expr::Project {
                        input: input.clone(),
                        attrs: attrs[..attrs.len() - 1].to_vec(),
                    },
                    sabotage::RULE,
                ));
            }
        }
    }
    let Expr::SelectBox { input, constraints } = expr else {
        return None;
    };
    match input.as_ref() {
        // σc2(σc1(X)) → σ[c1 ∧ c2](X): conjuncts concatenate; repeated
        // attributes intersect inside `select_box`, so plain
        // concatenation is exact.
        Expr::SelectBox {
            input: inner,
            constraints: inner_c,
        } => {
            let mut merged = inner_c.clone();
            merged.extend(constraints.iter().cloned());
            Some((
                Expr::SelectBox {
                    input: inner.clone(),
                    constraints: merged,
                },
                "merge-selects",
            ))
        }
        Expr::Join(l, r) => select_into_join(l, r, constraints, catalog),
        _ => None,
    }
}

/// σ(L ⋈ R) → σL ⋈ σR, each conjunct routed to every side that owns the
/// attribute. Rectangle intersection is commutative and idempotent, so
/// the result is tuple-identical (L8 machinery).
fn select_into_join(
    l: &Expr,
    r: &Expr,
    constraints: &[(String, Vec<Atom>)],
    catalog: &SchemaCatalog,
) -> Option<(Expr, &'static str)> {
    let l_attrs = output_attrs(l, catalog).ok()?;
    let r_attrs = output_attrs(r, catalog).ok()?;
    let mut to_l = Vec::new();
    let mut to_r = Vec::new();
    let mut residual = Vec::new();
    for (attr, values) in constraints {
        let in_l = l_attrs.iter().any(|a| a == attr);
        let in_r = r_attrs.iter().any(|a| a == attr);
        if in_l {
            to_l.push((attr.clone(), values.clone()));
        }
        if in_r {
            to_r.push((attr.clone(), values.clone()));
        }
        if !in_l && !in_r {
            residual.push((attr.clone(), values.clone()));
        }
    }
    if to_l.is_empty() && to_r.is_empty() {
        return None; // nothing routable (or unknown attrs): leave for eval to report
    }
    let select = |input: Expr, constraints: Vec<(String, Vec<Atom>)>| {
        if constraints.is_empty() {
            input
        } else {
            Expr::SelectBox {
                input: Box::new(input),
                constraints,
            }
        }
    };
    let joined = Expr::Join(
        Box::new(select(l.clone(), to_l)),
        Box::new(select(r.clone(), to_r)),
    );
    Some((select(joined, residual), "select-into-join"))
}

/// A rough per-node cardinality model used to report estimated work.
///
/// Estimates are *heuristic* (selectivity 1/2 per conjunct, join
/// selectivity 1/4); they exist so EXPLAIN can rank plans, not to be
/// accurate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    /// Estimated NF² tuples flowing out of the node.
    pub out_tuples: f64,
    /// Estimated total work (sum of input cardinalities over all nodes).
    pub total_work: f64,
}

/// Estimates cardinality and work for `expr` against base-relation sizes.
pub fn estimate(expr: &Expr, sizes: &HashMap<String, usize>) -> CostEstimate {
    fn walk(expr: &Expr, sizes: &HashMap<String, usize>, work: &mut f64) -> f64 {
        let out = match expr {
            Expr::Rel(name) => sizes.get(name).copied().unwrap_or(0) as f64,
            Expr::SelectBox { input, constraints } => {
                let t = walk(input, sizes, work);
                *work += t;
                t * 0.5f64.powi(constraints.len() as i32)
            }
            Expr::Project { input, .. } => {
                let t = walk(input, sizes, work);
                *work += t;
                t
            }
            Expr::Union(l, r) => {
                let (a, b) = (walk(l, sizes, work), walk(r, sizes, work));
                *work += a + b;
                a + b
            }
            Expr::Difference(l, r) => {
                let (a, b) = (walk(l, sizes, work), walk(r, sizes, work));
                *work += a + b;
                a
            }
            Expr::Intersect(l, r) => {
                let (a, b) = (walk(l, sizes, work), walk(r, sizes, work));
                *work += a * b; // pairwise rectangle intersection
                a.min(b)
            }
            Expr::Join(l, r) => {
                let (a, b) = (walk(l, sizes, work), walk(r, sizes, work));
                *work += a * b;
                (a * b / 4.0).max(1.0)
            }
            Expr::Nest { input, .. } => {
                let t = walk(input, sizes, work);
                *work += t;
                (t * 0.7).max(1.0)
            }
            Expr::Unnest { input, .. } => {
                let t = walk(input, sizes, work);
                *work += t;
                t * 1.5
            }
            Expr::Canonicalize { input, order } => {
                let t = walk(input, sizes, work);
                *work += t * order.len() as f64;
                (t * 0.5).max(1.0)
            }
        };
        out
    }
    let mut work = 0.0;
    let out_tuples = walk(expr, sizes, &mut work);
    CostEstimate {
        out_tuples,
        total_work: work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf2_core::relation::{FlatRelation, NfRelation};
    use nf2_core::schema::Schema;

    fn env() -> Env {
        let mut env = Env::new();
        let mut load = |name: &str, attrs: &[&str], rows: &[[u32; 2]]| {
            let schema = Schema::new(name.to_uppercase(), attrs).unwrap();
            let rows = rows
                .iter()
                .map(|r| r.iter().map(|&v| Atom(v)).collect::<Vec<_>>());
            let flat = FlatRelation::from_rows(schema, rows).unwrap();
            env.insert(name, NfRelation::from_flat(&flat));
        };
        load(
            "sc",
            &["Student", "Course"],
            &[[1, 10], [1, 11], [2, 10], [3, 12]],
        );
        load("cp", &["Course", "Prereq"], &[[10, 90], [11, 91], [12, 91]]);
        load("pd", &["Prereq", "Dept"], &[[90, 70], [91, 71]]);
        env
    }

    fn sel(input: Expr, attr: &str, values: &[u32]) -> Expr {
        Expr::SelectBox {
            input: Box::new(input),
            constraints: vec![(attr.into(), values.iter().map(|&v| Atom(v)).collect())],
        }
    }

    fn join(l: Expr, r: Expr) -> Expr {
        Expr::Join(Box::new(l), Box::new(r))
    }

    /// Optimization must be tuple-identical.
    fn assert_structural_equiv(expr: &Expr) {
        let env = env();
        let catalog = SchemaCatalog::from_env(&env);
        let opt = optimize(expr, &catalog);
        assert_eq!(
            expr.eval(&env).unwrap(),
            opt.expr.eval(&env).unwrap(),
            "rewrite changed the result: {expr} vs {}",
            opt.expr
        );
    }

    #[test]
    fn merge_selects_flattens_cascade() {
        let expr = sel(sel(Expr::rel("sc"), "Student", &[1]), "Course", &[10]);
        let catalog = SchemaCatalog::from_env(&env());
        let opt = optimize(&expr, &catalog);
        match &opt.expr {
            Expr::SelectBox { constraints, input } => {
                assert_eq!(constraints.len(), 2);
                assert!(matches!(input.as_ref(), Expr::Rel(_)));
            }
            other => panic!("expected one SelectBox, got {other}"),
        }
        assert_eq!(opt.trace[0].rule, "merge-selects");
        assert_structural_equiv(&expr);
    }

    #[test]
    fn observer_sees_every_traced_rule_with_matching_after_tree() {
        let expr = sel(sel(Expr::rel("sc"), "Student", &[1]), "Course", &[10]);
        let catalog = SchemaCatalog::from_env(&env());
        let mut seen: Vec<(&'static str, String, String)> = Vec::new();
        let opt = optimize_observed(&expr, &catalog, &mut |rule, before, after| {
            seen.push((rule, before.to_string(), after.to_string()));
        });
        assert!(
            !opt.trace.is_empty(),
            "fixture must trigger at least one rule"
        );
        assert_eq!(seen.len(), opt.trace.len());
        for (observed, traced) in seen.iter().zip(&opt.trace) {
            assert_eq!(observed.0, traced.rule);
            assert_eq!(observed.2, traced.result, "after-tree must match trace");
        }
        // The first callback's `before` is the input expression itself.
        assert_eq!(seen[0].1, expr.to_string());
    }

    #[test]
    fn select_pushes_into_join_sides() {
        let expr = sel(
            sel(join(Expr::rel("sc"), Expr::rel("cp")), "Student", &[1]),
            "Prereq",
            &[91],
        );
        let catalog = SchemaCatalog::from_env(&env());
        let opt = optimize(&expr, &catalog);
        // Both conjuncts must end up below the join.
        match &opt.expr {
            Expr::Join(l, r) => {
                assert!(
                    matches!(l.as_ref(), Expr::SelectBox { .. }),
                    "left got Student"
                );
                assert!(
                    matches!(r.as_ref(), Expr::SelectBox { .. }),
                    "right got Prereq"
                );
            }
            other => panic!("expected Join at root, got {other}"),
        }
        assert_structural_equiv(&expr);
    }

    #[test]
    fn shared_attr_conjunct_pushes_to_both_sides() {
        let expr = sel(join(Expr::rel("sc"), Expr::rel("cp")), "Course", &[10]);
        let catalog = SchemaCatalog::from_env(&env());
        let opt = optimize(&expr, &catalog);
        match &opt.expr {
            Expr::Join(l, r) => {
                assert!(matches!(l.as_ref(), Expr::SelectBox { .. }));
                assert!(matches!(r.as_ref(), Expr::SelectBox { .. }));
            }
            other => panic!("expected Join, got {other}"),
        }
        assert_structural_equiv(&expr);
    }

    #[test]
    fn unroutable_conjunct_stays_put() {
        let expr = sel(join(Expr::rel("sc"), Expr::rel("cp")), "Nope", &[1]);
        let catalog = SchemaCatalog::from_env(&env());
        let opt = optimize(&expr, &catalog);
        assert_eq!(
            opt.expr, expr,
            "unknown attribute must not be silently dropped"
        );
        // Both plans error identically.
        assert!(expr.eval(&env()).is_err());
        assert!(opt.expr.eval(&env()).is_err());
    }

    #[test]
    fn different_attr_nest_pairs_kept() {
        // νA(μB(X)) must not be touched.
        let expr = Expr::Nest {
            input: Box::new(Expr::Unnest {
                input: Box::new(Expr::rel("sc")),
                attr: "Course".into(),
            }),
            attr: "Student".into(),
        };
        let catalog = SchemaCatalog::from_env(&env());
        let opt = optimize(&expr, &catalog);
        assert_eq!(opt.expr, expr);
    }

    /// Every shape one of the laws of `crate::laws` could rewrite, other
    /// than the two rules, comes back as written with an empty trace.
    #[test]
    fn only_selections_move() {
        let nest = |e: Expr, a: &str| Expr::Nest {
            input: Box::new(e),
            attr: a.into(),
        };
        let unnest = |e: Expr, a: &str| Expr::Unnest {
            input: Box::new(e),
            attr: a.into(),
        };
        let canon = |e: Expr| Expr::Canonicalize {
            input: Box::new(e),
            order: vec!["Student".into(), "Course".into()],
        };
        let proj = |e: Expr, attrs: &[&str]| Expr::Project {
            input: Box::new(e),
            attrs: attrs.iter().map(|s| s.to_string()).collect(),
        };
        let sc = || Box::new(Expr::rel("sc"));
        let catalog = SchemaCatalog::from_env(&env());
        for plan in [
            unnest(nest(Expr::rel("sc"), "Student"), "Student"),
            nest(unnest(Expr::rel("sc"), "Student"), "Student"),
            nest(nest(Expr::rel("sc"), "Student"), "Student"),
            unnest(unnest(Expr::rel("sc"), "Course"), "Course"),
            canon(canon(Expr::rel("sc"))),
            proj(proj(Expr::rel("sc"), &["Student", "Course"]), &["Student"]),
            Expr::SelectBox {
                input: sc(),
                constraints: vec![],
            },
            sel(unnest(Expr::rel("sc"), "Course"), "Student", &[1]),
            sel(nest(Expr::rel("sc"), "Student"), "Student", &[1, 2]),
            sel(nest(Expr::rel("sc"), "Student"), "Course", &[10]),
            sel(Expr::Intersect(sc(), sc()), "Course", &[10]),
            sel(Expr::Union(sc(), sc()), "Student", &[1]),
            sel(Expr::Difference(sc(), sc()), "Student", &[1]),
        ] {
            let opt = optimize(&plan, &catalog);
            assert_eq!(opt.expr, plan, "rewritten: {plan} → {}", opt.expr);
            assert!(opt.trace.is_empty(), "{plan}: {:?}", opt.trace);
        }
    }

    #[test]
    fn deep_pipeline_reaches_fixpoint() {
        // σ[Dept](σ[Student]((sc ⋈ cp) ⋈ pd)): the two selections merge,
        // then the merged one splits across the outer join and its
        // Student conjunct sinks through the inner one.
        let expr = sel(
            sel(
                join(join(Expr::rel("sc"), Expr::rel("cp")), Expr::rel("pd")),
                "Student",
                &[1],
            ),
            "Dept",
            &[71],
        );
        let catalog = SchemaCatalog::from_env(&env());
        let opt = optimize(&expr, &catalog);
        let rules: Vec<_> = opt.trace.iter().map(|s| s.rule).collect();
        assert_eq!(
            rules,
            ["merge-selects", "select-into-join", "select-into-join"]
        );
        assert_eq!(
            opt.expr,
            join(
                join(sel(Expr::rel("sc"), "Student", &[1]), Expr::rel("cp")),
                sel(Expr::rel("pd"), "Dept", &[71])
            )
        );
        assert_eq!(opt.expr.eval(&env()).unwrap().flat_count(), 1);
        assert_structural_equiv(&expr);
    }

    #[test]
    fn output_attrs_infers_join_schema() {
        let catalog = SchemaCatalog::from_env(&env());
        let j = join(Expr::rel("sc"), Expr::rel("cp"));
        assert_eq!(
            output_attrs(&j, &catalog).unwrap(),
            vec!["Student", "Course", "Prereq"]
        );
        let p = Expr::Project {
            input: Box::new(j),
            attrs: vec!["Prereq".into()],
        };
        assert_eq!(output_attrs(&p, &catalog).unwrap(), vec!["Prereq"]);
        assert!(output_attrs(&Expr::rel("nope"), &catalog).is_err());
    }

    #[test]
    fn estimate_prefers_pushed_down_plans() {
        let sizes = HashMap::from([("sc".to_string(), 1000), ("cp".to_string(), 1000)]);
        let unpushed = sel(join(Expr::rel("sc"), Expr::rel("cp")), "Student", &[1]);
        let catalog = {
            let mut c = SchemaCatalog::new();
            c.insert("sc", vec!["Student".into(), "Course".into()]);
            c.insert("cp", vec!["Course".into(), "Prereq".into()]);
            c
        };
        let pushed = optimize(&unpushed, &catalog).expr;
        let before = estimate(&unpushed, &sizes);
        let after = estimate(&pushed, &sizes);
        assert!(
            after.total_work < before.total_work,
            "pushdown must reduce estimated work: {before:?} vs {after:?}"
        );
    }

    #[test]
    fn estimate_handles_all_node_kinds() {
        let sizes = HashMap::from([("sc".to_string(), 100)]);
        let r = Expr::rel("sc");
        let exprs = vec![
            Expr::Union(Box::new(r.clone()), Box::new(r.clone())),
            Expr::Difference(Box::new(r.clone()), Box::new(r.clone())),
            Expr::Intersect(Box::new(r.clone()), Box::new(r.clone())),
            Expr::Project {
                input: Box::new(r.clone()),
                attrs: vec!["Student".into()],
            },
            Expr::Canonicalize {
                input: Box::new(r.clone()),
                order: vec!["Student".into(), "Course".into()],
            },
        ];
        for e in exprs {
            let est = estimate(&e, &sizes);
            assert!(est.out_tuples >= 0.0 && est.total_work > 0.0, "{e}");
        }
        // Unknown relation estimates to zero tuples, not a panic.
        assert_eq!(estimate(&Expr::rel("nope"), &sizes).out_tuples, 0.0);
    }

    /// The soundness gate must reject the deliberately-broken rule with
    /// a diagnostic naming the rule and the rewritten subtree.
    #[test]
    fn gate_rejects_sabotaged_rule() {
        let _armed = sabotage::Armed::new();
        let expr = Expr::Project {
            input: Box::new(Expr::rel("sc")),
            attrs: vec!["Student".into(), "Course".into()],
        };
        let catalog = SchemaCatalog::from_env(&env());
        let v = try_optimize(&expr, &catalog).expect_err("broken rule must be caught");
        assert_eq!(v.rule, sabotage::RULE);
        let text = v.to_string();
        assert!(text.contains(sabotage::RULE), "{text}");
        assert!(text.contains("π[Student](sc)"), "names the subtree: {text}");
    }

    /// In debug builds the gate is always on, so plain `optimize` panics
    /// on the broken rule instead of returning a wrong plan.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "gate is env-driven in release")]
    #[should_panic(expected = "rewrite-soundness gate")]
    fn gate_panics_in_optimize_on_sabotaged_rule() {
        let _armed = sabotage::Armed::new();
        let expr = Expr::Project {
            input: Box::new(Expr::rel("sc")),
            attrs: vec!["Student".into(), "Course".into()],
        };
        let catalog = SchemaCatalog::from_env(&env());
        let _ = optimize(&expr, &catalog);
    }

    /// Both rules pass the gate on representative plans, at the root and
    /// below other operators (the gate runs inside `try_optimize`).
    #[test]
    fn gate_accepts_entire_rule_set() {
        let catalog = SchemaCatalog::from_env(&env());
        let sc_cp = || join(Expr::rel("sc"), Expr::rel("cp"));
        let plans = vec![
            sel(sel(Expr::rel("sc"), "Student", &[1]), "Course", &[10]),
            sel(sc_cp(), "Course", &[10]),
            sel(sel(sc_cp(), "Student", &[1]), "Prereq", &[91]),
            sel(
                sel(join(sc_cp(), Expr::rel("pd")), "Student", &[1]),
                "Dept",
                &[71],
            ),
            Expr::Project {
                input: Box::new(sel(sc_cp(), "Prereq", &[91])),
                attrs: vec!["Student".into()],
            },
            Expr::Nest {
                input: Box::new(sel(sc_cp(), "Course", &[10, 11])),
                attr: "Student".into(),
            },
        ];
        for plan in plans {
            let opt = try_optimize(&plan, &catalog)
                .unwrap_or_else(|v| panic!("gate rejected a sound plan {plan}: {v}"));
            assert!(!opt.trace.is_empty(), "{plan}");
            assert_eq!(
                plan.eval(&env()).unwrap(),
                opt.expr.eval(&env()).unwrap(),
                "{plan}"
            );
        }
    }

    #[test]
    fn display_renders_trace() {
        let expr = sel(sel(Expr::rel("sc"), "Student", &[1]), "Course", &[10]);
        let catalog = SchemaCatalog::from_env(&env());
        let opt = optimize(&expr, &catalog);
        let text = opt.to_string();
        assert!(text.contains("plan:"), "{text}");
        assert!(text.contains("merge-selects"), "{text}");
    }
}
