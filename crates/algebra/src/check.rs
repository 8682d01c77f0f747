//! Static typing and soundness checks for [`Expr`] plans.
//!
//! Every identity in the paper's §3 is conditioned on *structural* side
//! conditions — ν/μ are only meaningful on the §2 structures, selection
//! boxes must name attributes of their input, set operators require
//! compatible schemas, and the canonical form `ν_P` fixes a routing
//! attribute `P(n−1)`. The optimizer assumes those conditions hold; this
//! module makes them checkable *before* evaluation.
//!
//! [`infer`] walks an expression bottom-up and assigns every node a
//! [`RelType`]: the output attribute list, a conservative
//! [`NestLevel`] per attribute (is the component provably a singleton,
//! or possibly a set?), whether the attribute is *pinned* (every output
//! tuple carries the same singleton there), and the routing attribute
//! when the grouping discipline is known. Inference is deliberately
//! conservative — `Set` means "may hold more than one value", never
//! "must", and an unpinned attribute may still be constant — so a
//! well-typed verdict is sound while ill-typed plans are always real
//! errors (zero false positives on legal plans).
//!
//! Pins are what decide Def. 7 statically. A projection whose dropped
//! attributes are all pinned in its input is **fixed by construction**
//! ([`RelType::unpinned_drop`]): the input rectangles are pairwise
//! disjoint in `R*` and agree on everything dropped, so two of them
//! sharing a kept combination would share a row. Such a π is typed as
//! what it is — a componentwise projection that re-nests nothing — and
//! the query layer compiles it to a streaming operator; this rule, not
//! a run-time `is_fixed_on`, is the engine's user of Def. 7.
//!
//! [`check_rewrite`] is the **rewrite-soundness gate** built on top: a
//! rule application `before → after` is accepted only if `after`
//! type-checks whenever `before` does, with an identical output
//! attribute list, identical nest levels and no lost pin. The optimizer
//! runs the gate on every rule application in debug builds and under
//! `NF2_VERIFY=1` in release builds; violations name the offending rule
//! and subtree.

use std::collections::HashMap;
use std::fmt;

use crate::expr::{Env, Expr};
use crate::optimize::SchemaCatalog;

/// How deeply an attribute's component may be nested in the output.
///
/// The paper's §2 structures have exactly two levels per attribute:
/// an atomic value or a set of atomic values. `Atomic` is a *guarantee*
/// (every component holds exactly one value); `Set` is the conservative
/// default (the component may hold several).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NestLevel {
    /// Every component of this attribute is a singleton (post-μ).
    Atomic,
    /// Components may hold several values (base canonical form, post-ν).
    Set,
}

impl NestLevel {
    /// The level after intersecting components from two inputs: a
    /// singleton intersected with anything stays at most a singleton.
    fn meet(self, other: NestLevel) -> NestLevel {
        if self == NestLevel::Atomic || other == NestLevel::Atomic {
            NestLevel::Atomic
        } else {
            NestLevel::Set
        }
    }
}

/// One attribute of an inferred output schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttrType {
    /// Attribute name.
    pub name: String,
    /// Inferred nest level.
    pub level: NestLevel,
    /// Every tuple of the node's output carries the *same singleton*
    /// here — equivalently, `R*` holds at most one value in this column.
    /// A one-value selection conjunct establishes it; being a property
    /// of `R*`, it survives every operator that preserves or shrinks
    /// `R*` (σ, ⋈, ∩, −, ν, μ, canonicalization) and is lost only where
    /// a column can widen (∪).
    pub pinned: bool,
}

/// The inferred type of an expression: its output attributes with nest
/// levels, plus the routing attribute `P(n−1)` when the grouping
/// discipline is statically known.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelType {
    /// Output attributes in order.
    pub attrs: Vec<AttrType>,
    /// Index of the routing attribute (the last-applied nest attribute
    /// of a canonical form), when known.
    pub routing: Option<usize>,
}

impl RelType {
    /// A type where every attribute is set-valued (the canonical-form
    /// default) and unpinned, and the routing attribute is unknown.
    pub fn all_set<S: AsRef<str>>(names: &[S]) -> Self {
        RelType {
            attrs: names
                .iter()
                .map(|n| AttrType {
                    name: n.as_ref().to_owned(),
                    level: NestLevel::Set,
                    pinned: false,
                })
                .collect(),
            routing: None,
        }
    }

    /// The static form of Def. 7 for `π[kept]` over a node of this type:
    /// the first attribute the projection drops that is **not** pinned,
    /// or `None` when every dropped attribute is — the projection is
    /// then *fixed by construction* (see the module docs), including the
    /// pure permutation, which drops nothing.
    pub fn unpinned_drop<S: AsRef<str>>(&self, kept: &[S]) -> Option<&str> {
        self.attrs
            .iter()
            .find(|a| !a.pinned && !kept.iter().any(|k| k.as_ref() == a.name))
            .map(|a| a.name.as_str())
    }

    /// Number of output attributes.
    pub fn arity(&self) -> usize {
        self.attrs.len()
    }

    /// Output attribute names in order.
    pub fn names(&self) -> Vec<&str> {
        self.attrs.iter().map(|a| a.name.as_str()).collect()
    }

    /// Resolves an attribute name to its position.
    pub fn attr_index(&self, name: &str) -> Option<usize> {
        self.attrs.iter().position(|a| a.name == name)
    }

    fn levels(&self) -> Vec<NestLevel> {
        self.attrs.iter().map(|a| a.level).collect()
    }

    /// This type with every level reset to `Set` and the routing
    /// forgotten — what a re-nesting operator leaves of its input. Pins
    /// stay: re-nesting regroups `R*`, it never widens a column.
    fn renested(mut self) -> Self {
        for a in &mut self.attrs {
            a.level = NestLevel::Set;
        }
        self.routing = None;
        self
    }
}

impl fmt::Display for RelType {
    /// Renders as `(Student, {Course})`: set-valued attributes braced,
    /// with the routing attribute (if known) appended.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, a) in self.attrs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            match a.level {
                NestLevel::Atomic => write!(f, "{}", a.name)?,
                NestLevel::Set => write!(f, "{{{}}}", a.name)?,
            }
        }
        write!(f, ")")?;
        if let Some(r) = self.routing {
            if let Some(a) = self.attrs.get(r) {
                write!(f, " routed by {}", a.name)?;
            }
        }
        Ok(())
    }
}

/// Base-relation types for the checker, keyed by relation name.
#[derive(Debug, Clone, Default)]
pub struct CheckCatalog {
    rels: HashMap<String, RelType>,
}

impl CheckCatalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a base relation with an explicit type.
    pub fn insert(&mut self, name: impl Into<String>, ty: RelType) {
        self.rels.insert(name.into(), ty);
    }

    /// Registers a base relation as an all-set canonical form with an
    /// optional routing attribute index.
    pub fn insert_base<S: AsRef<str>>(
        &mut self,
        name: impl Into<String>,
        attrs: &[S],
        routing: Option<usize>,
    ) {
        let mut ty = RelType::all_set(attrs);
        ty.routing = routing;
        self.insert(name, ty);
    }

    /// Builds a catalog from the optimizer's name-only [`SchemaCatalog`]:
    /// every attribute is conservatively set-valued, routing unknown.
    pub fn from_schema_catalog(catalog: &SchemaCatalog) -> Self {
        let mut cat = Self::new();
        for (name, attrs) in catalog.relations() {
            cat.insert_base(name, attrs, None);
        }
        cat
    }

    /// Builds a catalog from an evaluation environment.
    pub fn from_env(env: &Env) -> Self {
        let mut cat = Self::new();
        for name in env.names() {
            if let Ok(rel) = env.get(name) {
                let attrs: Vec<&str> = rel.schema().attr_names().collect();
                cat.insert_base(name, &attrs, None);
            }
        }
        cat
    }

    fn get(&self, name: &str) -> Option<&RelType> {
        self.rels.get(name)
    }
}

/// A static typing error, carrying the offending subtree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckError {
    /// What was wrong.
    pub reason: String,
    /// The subtree (rendered algebra notation) where it was detected.
    pub node: String,
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} in subtree {}", self.reason, self.node)
    }
}

impl std::error::Error for CheckError {}

fn err(node: &Expr, reason: impl Into<String>) -> CheckError {
    CheckError {
        reason: reason.into(),
        node: node.to_string(),
    }
}

/// The result of a full [`check`] pass.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// Inferred type of the root expression.
    pub ty: RelType,
    /// Number of operator nodes inspected.
    pub nodes: usize,
    /// Non-fatal observations (e.g. a vacuous μ over an already-atomic
    /// attribute, which §2 renders meaningless but the engine treats as
    /// the identity).
    pub warnings: Vec<String>,
}

/// Infers the output type of `expr` against `catalog`.
///
/// Errors when an operator's §2/§3 side conditions are violated:
/// unknown relations or attributes, duplicate projection attributes,
/// empty selection value lists, incompatible set-operation schemas, or a
/// non-permutation canonicalization order.
pub fn infer(expr: &Expr, catalog: &CheckCatalog) -> Result<RelType, CheckError> {
    let mut nodes = 0usize;
    let mut warnings = Vec::new();
    walk(expr, catalog, &mut nodes, &mut warnings)
}

/// Runs [`infer`] and also reports node counts and warnings.
pub fn check(expr: &Expr, catalog: &CheckCatalog) -> Result<CheckReport, CheckError> {
    let mut nodes = 0usize;
    let mut warnings = Vec::new();
    let ty = walk(expr, catalog, &mut nodes, &mut warnings)?;
    Ok(CheckReport {
        ty,
        nodes,
        warnings,
    })
}

fn walk(
    expr: &Expr,
    catalog: &CheckCatalog,
    nodes: &mut usize,
    warnings: &mut Vec<String>,
) -> Result<RelType, CheckError> {
    *nodes += 1;
    match expr {
        Expr::Rel(name) => catalog
            .get(name)
            .cloned()
            .ok_or_else(|| err(expr, format!("unknown relation {name}"))),
        Expr::SelectBox { input, constraints } => {
            let mut ty = walk(input, catalog, nodes, warnings)?;
            for (attr, values) in constraints {
                let Some(idx) = ty.attr_index(attr) else {
                    return Err(err(expr, format!("selection on unknown attribute {attr}")));
                };
                if values.is_empty() {
                    return Err(err(expr, format!("empty value list for attribute {attr}")));
                }
                // A one-entry list narrows every surviving component to
                // that one value (a late-bound slot binds to one atom or
                // the statement is statically empty); further conjuncts
                // on the attribute can only shrink the set.
                if values.len() == 1 {
                    ty.attrs[idx].pinned = true;
                }
            }
            Ok(ty)
        }
        Expr::Project { input, attrs } => {
            let ty = walk(input, catalog, nodes, warnings)?;
            let mut seen = std::collections::HashSet::new();
            let mut kept = Vec::with_capacity(attrs.len());
            for attr in attrs {
                let Some(idx) = ty.attr_index(attr) else {
                    return Err(err(expr, format!("projection of unknown attribute {attr}")));
                };
                if !seen.insert(attr.as_str()) {
                    return Err(err(expr, format!("duplicate projection attribute {attr}")));
                }
                kept.push(ty.attrs[idx].clone());
            }
            let kept = RelType {
                attrs: kept,
                routing: ty
                    .routing
                    .and_then(|r| attrs.iter().position(|a| *a == ty.attrs[r].name)),
            };
            Ok(match ty.unpinned_drop(attrs) {
                // Fixed by construction: each rectangle is projected
                // componentwise and nothing is re-nested, so levels and
                // routing carry over with the kept attributes.
                None => kept,
                // Otherwise the projection may re-canonicalize (the
                // non-fixed path of `ops::project`).
                Some(_) => kept.renested(),
            })
        }
        Expr::Union(l, r) | Expr::Difference(l, r) => {
            let (lt, rt) = (
                walk(l, catalog, nodes, warnings)?,
                walk(r, catalog, nodes, warnings)?,
            );
            if lt.names() != rt.names() {
                return Err(err(
                    expr,
                    format!("incompatible set-operation schemas {lt} vs {rt}"),
                ));
            }
            // Both set operators re-canonicalize under the identity
            // order, so the result routes by the last attribute. L − R
            // is a subset of L and keeps its pins; the two sides of a ∪
            // may pin different values, so it keeps none.
            let mut ty = match expr {
                Expr::Difference(..) => lt.renested(),
                _ => RelType::all_set(&lt.names()),
            };
            ty.routing = ty.arity().checked_sub(1);
            Ok(ty)
        }
        Expr::Intersect(l, r) => {
            let (lt, rt) = (
                walk(l, catalog, nodes, warnings)?,
                walk(r, catalog, nodes, warnings)?,
            );
            if lt.names() != rt.names() {
                return Err(err(
                    expr,
                    format!("incompatible intersection schemas {lt} vs {rt}"),
                ));
            }
            // Pairwise rectangle intersection: componentwise meet, and
            // a value pinned on either side is pinned in the result.
            let attrs = lt
                .attrs
                .iter()
                .zip(rt.attrs.iter())
                .map(|(a, b)| AttrType {
                    name: a.name.clone(),
                    level: a.level.meet(b.level),
                    pinned: a.pinned || b.pinned,
                })
                .collect();
            Ok(RelType {
                attrs,
                routing: if lt.routing == rt.routing {
                    lt.routing
                } else {
                    None
                },
            })
        }
        Expr::Join(l, r) => {
            let (lt, rt) = (
                walk(l, catalog, nodes, warnings)?,
                walk(r, catalog, nodes, warnings)?,
            );
            let mut attrs: Vec<AttrType> = Vec::with_capacity(lt.arity() + rt.arity());
            for a in &lt.attrs {
                let (level, pinned) = match rt.attr_index(&a.name) {
                    // Shared attribute: components intersect.
                    Some(ri) => {
                        let b = &rt.attrs[ri];
                        (a.level.meet(b.level), a.pinned || b.pinned)
                    }
                    None => (a.level, a.pinned),
                };
                attrs.push(AttrType {
                    name: a.name.clone(),
                    level,
                    pinned,
                });
            }
            for b in &rt.attrs {
                if lt.attr_index(&b.name).is_none() {
                    attrs.push(b.clone());
                }
            }
            Ok(RelType {
                attrs,
                routing: None,
            })
        }
        Expr::Nest { input, attr } => {
            let mut ty = walk(input, catalog, nodes, warnings)?;
            let Some(idx) = ty.attr_index(attr) else {
                return Err(err(expr, format!("nest on unknown attribute {attr}")));
            };
            ty.attrs[idx].level = NestLevel::Set;
            Ok(ty)
        }
        Expr::Unnest { input, attr } => {
            let mut ty = walk(input, catalog, nodes, warnings)?;
            let Some(idx) = ty.attr_index(attr) else {
                return Err(err(expr, format!("unnest on unknown attribute {attr}")));
            };
            if ty.attrs[idx].level == NestLevel::Atomic {
                // §2 defines μ only on set-valued attributes; the engine
                // treats μ over singletons as the identity, so this is a
                // vacuous-but-legal plan, not an error (the gate must
                // accept `μa(νa(X)) → μa(X)` even when X has atomic a).
                warnings.push(format!("vacuous μ over atomic attribute {attr} in {expr}"));
            }
            ty.attrs[idx].level = NestLevel::Atomic;
            Ok(ty)
        }
        Expr::Canonicalize { input, order } => {
            let ty = walk(input, catalog, nodes, warnings)?;
            if order.len() != ty.arity() {
                return Err(err(
                    expr,
                    format!(
                        "canonicalization order covers {} of {} attributes",
                        order.len(),
                        ty.arity()
                    ),
                ));
            }
            let mut seen = std::collections::HashSet::new();
            for attr in order {
                if ty.attr_index(attr).is_none() {
                    return Err(err(
                        expr,
                        format!("canonicalization over unknown attribute {attr}"),
                    ));
                }
                if !seen.insert(attr.as_str()) {
                    return Err(err(
                        expr,
                        format!("attribute {attr} listed twice in canonicalization order"),
                    ));
                }
            }
            // ν_P yields an all-set canonical form routed by the
            // last-applied attribute P(n−1).
            let routing = order.last().and_then(|last| ty.attr_index(last));
            let mut out = ty.renested();
            out.routing = routing;
            Ok(out)
        }
    }
}

/// A rewrite-soundness violation: a rule application whose output plan
/// is ill-typed or changes the inferred output schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewriteViolation {
    /// The rule that produced the unsound plan.
    pub rule: &'static str,
    /// Why the gate rejected it.
    pub reason: String,
    /// The rewritten subtree, rendered.
    pub subtree: String,
}

impl fmt::Display for RewriteViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rule [{}] produced an unsound plan: {}; subtree: {}",
            self.rule, self.reason, self.subtree
        )
    }
}

impl std::error::Error for RewriteViolation {}

/// Checks one optimizer rule application `before → after`.
///
/// The gate is *conditional*: if `before` is already ill-typed (e.g. a
/// user plan over unknown attributes, which rewrites must preserve, not
/// repair), the step is accepted and the error is left for evaluation to
/// report. When `before` type-checks, `after` must too, with the same
/// output attribute names and the same nest level for every attribute,
/// and without losing a pin — a tuple-identical plan from which less can
/// be proved would silently turn a streaming projection above it into a
/// blocking one.
pub fn check_rewrite(
    rule: &'static str,
    before: &Expr,
    after: &Expr,
    catalog: &CheckCatalog,
) -> Result<(), RewriteViolation> {
    let Ok(before_ty) = infer(before, catalog) else {
        return Ok(());
    };
    let after_ty = match infer(after, catalog) {
        Ok(ty) => ty,
        Err(e) => {
            return Err(RewriteViolation {
                rule,
                reason: e.to_string(),
                subtree: after.to_string(),
            })
        }
    };
    if before_ty.names() != after_ty.names() {
        return Err(RewriteViolation {
            rule,
            reason: format!("output schema changed from {} to {}", before_ty, after_ty),
            subtree: after.to_string(),
        });
    }
    if before_ty.levels() != after_ty.levels() {
        return Err(RewriteViolation {
            rule,
            reason: format!("nest levels changed from {} to {}", before_ty, after_ty),
            subtree: after.to_string(),
        });
    }
    let lost = before_ty
        .attrs
        .iter()
        .zip(&after_ty.attrs)
        .find(|(b, a)| b.pinned && !a.pinned);
    if let Some((attr, _)) = lost {
        return Err(RewriteViolation {
            rule,
            reason: format!("the pin on {} was lost", attr.name),
            subtree: after.to_string(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use nf2_core::value::Atom;

    fn catalog() -> CheckCatalog {
        let mut cat = CheckCatalog::new();
        cat.insert_base("sc", &["Student", "Course"], Some(1));
        cat.insert_base("cp", &["Course", "Prereq"], Some(1));
        cat
    }

    fn sel(input: Expr, attr: &str, values: &[u32]) -> Expr {
        Expr::SelectBox {
            input: Box::new(input),
            constraints: vec![(attr.into(), values.iter().map(|&v| Atom(v)).collect())],
        }
    }

    #[test]
    fn base_relation_type() {
        let ty = infer(&Expr::rel("sc"), &catalog()).unwrap();
        assert_eq!(ty.names(), vec!["Student", "Course"]);
        assert_eq!(ty.routing, Some(1));
        assert_eq!(ty.to_string(), "({Student}, {Course}) routed by Course");
    }

    #[test]
    fn unknown_relation_rejected() {
        let e = infer(&Expr::rel("nope"), &catalog()).unwrap_err();
        assert!(e.reason.contains("unknown relation"), "{e}");
        assert!(e.node.contains("nope"), "{e}");
    }

    #[test]
    fn selection_checks_attrs_and_values() {
        let cat = catalog();
        assert!(infer(&sel(Expr::rel("sc"), "Student", &[1]), &cat).is_ok());
        let bad_attr = infer(&sel(Expr::rel("sc"), "Nope", &[1]), &cat).unwrap_err();
        assert!(bad_attr.reason.contains("unknown attribute"), "{bad_attr}");
        let empty = infer(&sel(Expr::rel("sc"), "Student", &[]), &cat).unwrap_err();
        assert!(empty.reason.contains("empty value list"), "{empty}");
    }

    #[test]
    fn projection_checks_containment_and_duplicates() {
        let cat = catalog();
        let ok = Expr::Project {
            input: Box::new(Expr::rel("sc")),
            attrs: vec!["Course".into()],
        };
        assert_eq!(infer(&ok, &cat).unwrap().names(), vec!["Course"]);
        let unknown = Expr::Project {
            input: Box::new(Expr::rel("sc")),
            attrs: vec!["Nope".into()],
        };
        assert!(infer(&unknown, &cat).is_err());
        let dup = Expr::Project {
            input: Box::new(Expr::rel("sc")),
            attrs: vec!["Course".into(), "Course".into()],
        };
        assert!(infer(&dup, &cat)
            .unwrap_err()
            .reason
            .contains("duplicate projection attribute"));
    }

    #[test]
    fn set_ops_require_compatible_schemas() {
        let cat = catalog();
        let mismatched = Expr::Union(Box::new(Expr::rel("sc")), Box::new(Expr::rel("cp")));
        assert!(infer(&mismatched, &cat)
            .unwrap_err()
            .reason
            .contains("incompatible"));
        let ok = Expr::Union(Box::new(Expr::rel("sc")), Box::new(Expr::rel("sc")));
        let ty = infer(&ok, &cat).unwrap();
        assert_eq!(ty.names(), vec!["Student", "Course"]);
        assert_eq!(ty.routing, Some(1));
    }

    #[test]
    fn join_merges_schemas_and_levels() {
        let cat = catalog();
        let unnested_cp = Expr::Unnest {
            input: Box::new(Expr::rel("cp")),
            attr: "Course".into(),
        };
        let j = Expr::Join(Box::new(Expr::rel("sc")), Box::new(unnested_cp));
        let ty = infer(&j, &cat).unwrap();
        assert_eq!(ty.names(), vec!["Student", "Course", "Prereq"]);
        // Shared Course meets the right side's atomic level.
        assert_eq!(ty.attrs[1].level, NestLevel::Atomic);
        assert_eq!(ty.attrs[0].level, NestLevel::Set);
    }

    #[test]
    fn nest_unnest_update_levels() {
        let cat = catalog();
        let un = Expr::Unnest {
            input: Box::new(Expr::rel("sc")),
            attr: "Student".into(),
        };
        let ty = infer(&un, &cat).unwrap();
        assert_eq!(ty.attrs[0].level, NestLevel::Atomic);
        let renest = Expr::Nest {
            input: Box::new(un.clone()),
            attr: "Student".into(),
        };
        assert_eq!(infer(&renest, &cat).unwrap().attrs[0].level, NestLevel::Set);
        // A vacuous μ over the now-atomic attribute warns but passes.
        let vacuous = Expr::Unnest {
            input: Box::new(un),
            attr: "Student".into(),
        };
        let report = check(&vacuous, &cat).unwrap();
        assert_eq!(report.warnings.len(), 1);
        assert!(
            report.warnings[0].contains("vacuous"),
            "{:?}",
            report.warnings
        );
    }

    fn proj(input: Expr, attrs: &[&str]) -> Expr {
        Expr::Project {
            input: Box::new(input),
            attrs: attrs.iter().map(|a| (*a).to_owned()).collect(),
        }
    }

    fn pins(ty: &RelType) -> Vec<bool> {
        ty.attrs.iter().map(|a| a.pinned).collect()
    }

    #[test]
    fn one_value_conjuncts_pin_and_joins_carry_pins() {
        let cat = catalog();
        assert_eq!(
            pins(&infer(&Expr::rel("sc"), &cat).unwrap()),
            [false, false]
        );
        let one = sel(Expr::rel("sc"), "Course", &[10]);
        assert_eq!(pins(&infer(&one, &cat).unwrap()), [false, true]);
        // A list of two values pins nothing, even beside a pinning one;
        // a second conjunct on a pinned attribute can only shrink it.
        let two = sel(Expr::rel("sc"), "Course", &[10, 11]);
        assert_eq!(pins(&infer(&two, &cat).unwrap()), [false, false]);
        assert_eq!(
            pins(&infer(&sel(one.clone(), "Course", &[10, 11]), &cat).unwrap()),
            [false, true]
        );
        // A pin on either side of a join (shared or not) reaches the
        // output, through the side that owns it.
        let j = Expr::Join(
            Box::new(Expr::rel("sc")),
            Box::new(sel(sel(Expr::rel("cp"), "Course", &[10]), "Prereq", &[90])),
        );
        assert_eq!(pins(&infer(&j, &cat).unwrap()), [false, true, true]);
    }

    #[test]
    fn projection_dropping_only_pinned_attributes_is_fixed_by_construction() {
        let cat = catalog();
        let pinned = sel(
            Expr::Unnest {
                input: Box::new(Expr::rel("sc")),
                attr: "Student".into(),
            },
            "Course",
            &[10],
        );
        let input = infer(&pinned, &cat).unwrap();
        assert_eq!(input.unpinned_drop(&["Student"]), None);
        assert_eq!(input.unpinned_drop(&["Course"]), Some("Student"));
        assert_eq!(input.unpinned_drop(&["Course", "Student"]), None);
        // Fixed: the kept attribute keeps its level; the routing
        // attribute was dropped with Course.
        let fixed = infer(&proj(pinned.clone(), &["Student"]), &cat).unwrap();
        assert_eq!(fixed.attrs[0].level, NestLevel::Atomic);
        assert_eq!(fixed.routing, None);
        // The pure permutation drops nothing: levels, pins and the
        // (re-indexed) routing attribute all survive.
        let swapped = infer(&proj(pinned.clone(), &["Course", "Student"]), &cat).unwrap();
        assert_eq!(swapped.to_string(), "({Course}, Student) routed by Course");
        assert_eq!(pins(&swapped), [true, false]);
        // Dropping the unpinned Student may re-nest: all-set, unrouted —
        // but Course is still the one value it was.
        let renested = infer(&proj(pinned, &["Course"]), &cat).unwrap();
        assert_eq!(renested.to_string(), "({Course})");
        assert_eq!(pins(&renested), [true]);
    }

    #[test]
    fn only_union_loses_a_pin() {
        let cat = catalog();
        let one = sel(Expr::rel("sc"), "Course", &[10]);
        let wrap =
            |f: &dyn Fn(Box<Expr>) -> Expr| pins(&infer(&f(Box::new(one.clone())), &cat).unwrap());
        let attr = || "Student".to_owned();
        assert_eq!(
            wrap(&|input| Expr::Nest {
                input,
                attr: attr()
            }),
            [false, true]
        );
        assert_eq!(
            wrap(&|input| Expr::Unnest {
                input,
                attr: attr()
            }),
            [false, true]
        );
        assert_eq!(
            wrap(&|input| Expr::Canonicalize {
                input,
                order: vec!["Course".into(), "Student".into()]
            }),
            [false, true]
        );
        let other = || Box::new(sel(Expr::rel("sc"), "Course", &[11]));
        assert_eq!(wrap(&|l| Expr::Difference(l, other())), [false, true]);
        assert_eq!(wrap(&|l| Expr::Intersect(other(), l)), [false, true]);
        // σ[Course=10] ∪ σ[Course=11] holds two courses.
        assert_eq!(wrap(&|l| Expr::Union(l, other())), [false, false]);
    }

    #[test]
    fn canonicalize_requires_permutation() {
        let cat = catalog();
        let ok = Expr::Canonicalize {
            input: Box::new(Expr::rel("sc")),
            order: vec!["Course".into(), "Student".into()],
        };
        let ty = infer(&ok, &cat).unwrap();
        assert_eq!(ty.routing, Some(0), "routing attr is the last applied");
        let short = Expr::Canonicalize {
            input: Box::new(Expr::rel("sc")),
            order: vec!["Course".into()],
        };
        assert!(infer(&short, &cat).is_err());
        let dup = Expr::Canonicalize {
            input: Box::new(Expr::rel("sc")),
            order: vec!["Course".into(), "Course".into()],
        };
        assert!(infer(&dup, &cat).is_err());
    }

    #[test]
    fn check_counts_nodes() {
        let cat = catalog();
        let expr = sel(
            Expr::Join(Box::new(Expr::rel("sc")), Box::new(Expr::rel("cp"))),
            "Student",
            &[1],
        );
        let report = check(&expr, &cat).unwrap();
        assert_eq!(report.nodes, 4);
        assert!(report.warnings.is_empty());
    }

    #[test]
    fn gate_accepts_sound_step() {
        let cat = catalog();
        let before = sel(sel(Expr::rel("sc"), "Student", &[1]), "Course", &[10]);
        let after = Expr::SelectBox {
            input: Box::new(Expr::rel("sc")),
            constraints: vec![
                ("Student".into(), vec![Atom(1)]),
                ("Course".into(), vec![Atom(10)]),
            ],
        };
        check_rewrite("merge-selects", &before, &after, &cat).unwrap();
    }

    #[test]
    fn gate_skips_ill_typed_inputs() {
        let cat = catalog();
        let before = sel(Expr::rel("sc"), "Nope", &[1]);
        let after = sel(Expr::rel("sc"), "AlsoNope", &[2]);
        // Both sides ill-typed: the gate leaves the error to evaluation.
        check_rewrite("bogus", &before, &after, &cat).unwrap();
    }

    #[test]
    fn gate_rejects_schema_change() {
        let cat = catalog();
        let before = Expr::Project {
            input: Box::new(Expr::rel("sc")),
            attrs: vec!["Student".into(), "Course".into()],
        };
        let after = Expr::Project {
            input: Box::new(Expr::rel("sc")),
            attrs: vec!["Student".into()],
        };
        let v = check_rewrite("drop-attr", &before, &after, &cat).unwrap_err();
        assert_eq!(v.rule, "drop-attr");
        assert!(v.reason.contains("output schema changed"), "{v}");
        assert!(v.subtree.contains("π[Student](sc)"), "{v}");
    }

    #[test]
    fn gate_rejects_ill_typed_output() {
        let cat = catalog();
        let before = sel(Expr::rel("sc"), "Student", &[1]);
        let after = sel(Expr::rel("sc"), "Ghost", &[1]);
        let v = check_rewrite("rename-attr", &before, &after, &cat).unwrap_err();
        assert!(v.reason.contains("unknown attribute"), "{v}");
    }

    #[test]
    fn gate_rejects_level_change_in_structural_mode() {
        let cat = catalog();
        let before = Expr::rel("sc");
        let after = Expr::Unnest {
            input: Box::new(Expr::rel("sc")),
            attr: "Student".into(),
        };
        let v = check_rewrite("sneaky-unnest", &before, &after, &cat).unwrap_err();
        assert!(v.reason.contains("nest levels changed"), "{v}");
    }

    #[test]
    fn gate_rejects_a_lost_pin_in_structural_mode() {
        let cat = catalog();
        // Tuple-identical on every instance, but the second form proves
        // less: a streaming π above it would silently turn blocking.
        let before = sel(Expr::rel("sc"), "Course", &[10]);
        let after = Expr::Intersect(
            Box::new(Expr::rel("sc")),
            Box::new(Expr::Union(
                Box::new(before.clone()),
                Box::new(before.clone()),
            )),
        );
        let v = check_rewrite("widen", &before, &after, &cat).unwrap_err();
        assert!(v.reason.contains("pin on Course was lost"), "{v}");
        // Gaining a pin is fine.
        check_rewrite("narrow", &after, &before, &cat).unwrap();
    }
}
