//! The binder: name resolution and QGM construction from the AST.
//!
//! A query without aggregation binds to a single SELECT box. A query with
//! GROUP BY / aggregates binds to the paper's three-box shape (§6 and the
//! Q3 walk-through):
//!
//! ```text
//!   SELECT box   — joins + predicates, passing through every column the
//!                  upper boxes need
//!   GROUP BY box — grouping columns + aggregate outputs
//!   SELECT box   — the final select list (scalar expressions over
//!                  grouping columns, aggregate results), DISTINCT, and
//!                  the ORDER BY output requirement
//! ```

use crate::ast::*;
use fto_catalog::Catalog;
use fto_common::{ColId, ColSet, DataType, FtoError, Result};
use fto_expr::{AggCall, CompareOp, Expr, Predicate};
use fto_order::{OrderSpec, SortKey};
use fto_qgm::graph::{BoxId, BoxKind, OutputCol, OutputExpr, QueryGraph};

/// Binds a parsed query against a catalog, producing a query graph ready
/// for the rewrites and the order scan.
pub fn bind(query: &Query, catalog: &Catalog) -> Result<QueryGraph> {
    let mut graph = QueryGraph::new();
    let root = bind_any(&mut graph, catalog, query)?;
    graph.root = root;
    Ok(graph)
}

/// Binds either a plain query or a UNION of queries.
fn bind_any(graph: &mut QueryGraph, catalog: &Catalog, q: &Query) -> Result<BoxId> {
    if q.union_branches.is_empty() {
        bind_query(graph, catalog, q)
    } else {
        bind_union(graph, catalog, q)
    }
}

/// Binds `q UNION [ALL] b1 UNION [ALL] b2 ...` into a Union box; the
/// trailing ORDER BY / LIMIT / set-semantics DISTINCT apply to the whole
/// union.
fn bind_union(graph: &mut QueryGraph, catalog: &Catalog, q: &Query) -> Result<BoxId> {
    let first_core = Query {
        union_branches: Vec::new(),
        order_by: Vec::new(),
        limit: None,
        ..q.clone()
    };
    let mut distinct_union = false;
    let mut branches = vec![bind_any(graph, catalog, &first_core)?];
    for b in &q.union_branches {
        if !b.all {
            distinct_union = true;
        }
        branches.push(bind_any(graph, catalog, &b.query)?);
    }

    let arity = graph.boxed(branches[0]).output.len();
    for &b in &branches[1..] {
        if graph.boxed(b).output.len() != arity {
            return Err(FtoError::Semantic(format!(
                "UNION branches have different arities ({} vs {})",
                arity,
                graph.boxed(b).output.len()
            )));
        }
    }

    let union_box = graph.add_box(BoxKind::Union);
    for &b in &branches {
        graph.add_box_quantifier(union_box, b);
    }
    // Union outputs are fresh columns (a merged value is not any single
    // branch's column); names and types come from the first branch.
    let first_cols = graph.boxed(branches[0]).output_cols();
    let mut outputs = Vec::with_capacity(arity);
    let mut names = Vec::with_capacity(arity);
    for &c in &first_cols {
        let name = graph.registry.name(c).to_string();
        let dt = graph.registry.info(c).data_type;
        let out = graph.fresh_derived(union_box, name.clone(), dt);
        outputs.push(OutputCol::passthrough(out));
        names.push(name);
    }

    let empty_scope = Scope {
        bindings: Vec::new(),
    };
    let order = resolve_order_by(graph, &empty_scope, q, &outputs, &names)?;
    let b = graph.boxed_mut(union_box);
    b.output = outputs;
    b.distinct = distinct_union;
    b.output_order = order;
    b.limit = q.limit;
    Ok(union_box)
}

/// Per-column (qualifier, name) metadata of a binding.
type QualifiedNames = Vec<(Option<String>, String)>;

/// One visible FROM binding. Columns carry individual qualifiers so an
/// explicit join tree (one binding, many source tables) still resolves
/// `a.x` and `b.y`.
struct Binding {
    cols: Vec<ColId>,
    /// Per-column (qualifier, name) pairs.
    col_names: QualifiedNames,
}

impl Binding {
    /// The distinct qualifiers this binding introduces.
    fn qualifiers(&self) -> Vec<&str> {
        let mut out: Vec<&str> = self
            .col_names
            .iter()
            .filter_map(|(q, _)| q.as_deref())
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

struct Scope {
    bindings: Vec<Binding>,
}

impl Scope {
    fn resolve(&self, r: &ColumnRef) -> Result<ColId> {
        let name = r.name.to_ascii_lowercase();
        let mut found: Option<ColId> = None;
        for b in &self.bindings {
            for (i, (cq, cn)) in b.col_names.iter().enumerate() {
                if *cn != name {
                    continue;
                }
                if let Some(q) = &r.qualifier {
                    let matches = cq.as_deref().is_some_and(|c| c.eq_ignore_ascii_case(q));
                    if !matches {
                        continue;
                    }
                }
                if found.is_some() {
                    return Err(FtoError::Resolution(format!(
                        "ambiguous column '{}'",
                        display_ref(r)
                    )));
                }
                found = Some(b.cols[i]);
            }
        }
        found.ok_or_else(|| FtoError::Resolution(format!("unknown column '{}'", display_ref(r))))
    }

    fn all_cols(&self) -> Vec<(ColId, String)> {
        self.bindings
            .iter()
            .flat_map(|b| {
                b.cols
                    .iter()
                    .copied()
                    .zip(b.col_names.iter().map(|(_, n)| n.clone()))
            })
            .collect()
    }
}

fn display_ref(r: &ColumnRef) -> String {
    match &r.qualifier {
        Some(q) => format!("{q}.{}", r.name),
        None => r.name.clone(),
    }
}

fn bind_query(graph: &mut QueryGraph, catalog: &Catalog, q: &Query) -> Result<BoxId> {
    let sel = graph.add_box(BoxKind::Select);

    // FROM items become quantifiers.
    let mut scope = Scope {
        bindings: Vec::new(),
    };
    for item in &q.from {
        let binding = bind_from_item(graph, catalog, sel, item)?;
        for qual in binding.qualifiers() {
            let clash = scope
                .bindings
                .iter()
                .any(|b| b.qualifiers().iter().any(|x| x.eq_ignore_ascii_case(qual)));
            if clash {
                return Err(FtoError::Resolution(format!(
                    "duplicate table binding '{qual}'"
                )));
            }
        }
        scope.bindings.push(binding);
    }

    // WHERE predicates. `IN (subquery)` conjuncts apply the QGM
    // subquery-to-join transformation (paper §3): the subquery becomes a
    // DISTINCT derived table joined on equality — semantically a
    // semi-join, with the DISTINCT guaranteeing join multiplicity one.
    for pred in &q.predicates {
        match pred {
            WherePred::Compare(pred) => {
                let p = Predicate::new(
                    pred.op,
                    bind_expr(&scope, &pred.left)?,
                    bind_expr(&scope, &pred.right)?,
                );
                let pid = graph.add_predicate(p);
                graph.boxed_mut(sel).predicates.push(pid);
            }
            WherePred::InSubquery { expr, query } => {
                let tested = bind_expr(&scope, expr)?;
                let child = bind_any(graph, catalog, query)?;
                if graph.boxed(child).output.len() != 1 {
                    return Err(FtoError::Semantic(
                        "IN subquery must produce exactly one column".into(),
                    ));
                }
                graph.boxed_mut(child).distinct = true;
                graph.add_box_quantifier(sel, child);
                let sub_col = graph.boxed(sel).quantifiers.last().unwrap().cols[0];
                let p = Predicate::new(CompareOp::Eq, tested, Expr::col(sub_col));
                let pid = graph.add_predicate(p);
                graph.boxed_mut(sel).predicates.push(pid);
            }
        }
    }

    // Expand the select list.
    let has_aggs =
        q.items.iter().any(|i| matches!(i, SelectItem::Agg { .. })) || !q.group_by.is_empty();

    if !has_aggs {
        if !q.having.is_empty() {
            return Err(FtoError::Semantic(
                "HAVING requires GROUP BY or aggregates".into(),
            ));
        }
        bind_plain_select(graph, &scope, q, sel)
    } else {
        bind_aggregate_select(graph, &scope, q, sel)
    }
}

/// Binds one FROM item into `sel`, returning its visible binding.
fn bind_from_item(
    graph: &mut QueryGraph,
    catalog: &Catalog,
    sel: BoxId,
    item: &TableRef,
) -> Result<Binding> {
    match item {
        TableRef::Table { name, alias } => {
            let td = catalog.table_by_name(name)?.clone();
            graph.add_table_quantifier(sel, &td);
            let cols = graph.boxed(sel).quantifiers.last().unwrap().cols.clone();
            let qual = Some(alias.clone().unwrap_or_else(|| td.name.clone()));
            Ok(Binding {
                col_names: td
                    .columns
                    .iter()
                    .map(|c| (qual.clone(), c.name.clone()))
                    .collect(),
                cols,
            })
        }
        TableRef::Subquery { query, alias } => {
            let child = bind_any(graph, catalog, query)?;
            graph.add_box_quantifier(sel, child);
            let cols = graph.boxed(sel).quantifiers.last().unwrap().cols.clone();
            let col_names = cols
                .iter()
                .map(|&c| (Some(alias.clone()), graph.registry.name(c).to_string()))
                .collect();
            Ok(Binding { cols, col_names })
        }
        TableRef::Join { .. } => {
            let (jb, col_names) = bind_join_tree(graph, catalog, item)?;
            graph.add_box_quantifier(sel, jb);
            let cols = graph.boxed(sel).quantifiers.last().unwrap().cols.clone();
            Ok(Binding { cols, col_names })
        }
    }
}

/// Builds the box for an explicit join tree. Inner joins become plain
/// SELECT boxes (the view-merging rewrite flattens them back into the
/// enclosing join); LEFT OUTER joins become [`BoxKind::OuterJoin`] boxes
/// whose ON predicates feed only one-directional order facts.
fn bind_join_tree(
    graph: &mut QueryGraph,
    catalog: &Catalog,
    item: &TableRef,
) -> Result<(BoxId, QualifiedNames)> {
    let TableRef::Join {
        left,
        kind,
        right,
        on,
    } = item
    else {
        return Err(FtoError::internal("bind_join_tree expects a join"));
    };
    let jb = graph.add_box(match kind {
        JoinKind::Inner => BoxKind::Select,
        JoinKind::LeftOuter => BoxKind::OuterJoin { on: Vec::new() },
    });
    let mut col_names = attach_join_side(graph, catalog, jb, left)?;
    let rnames = attach_join_side(graph, catalog, jb, right)?;
    col_names.extend(rnames);

    let mut cols: Vec<ColId> = Vec::new();
    for q in &graph.boxed(jb).quantifiers {
        cols.extend(q.cols.iter().copied());
    }
    graph.boxed_mut(jb).output = cols.iter().map(|&c| OutputCol::passthrough(c)).collect();

    let local = Scope {
        bindings: vec![Binding {
            cols,
            col_names: col_names.clone(),
        }],
    };
    let mut pids = Vec::with_capacity(on.len());
    for pred in on {
        let p = Predicate::new(
            pred.op,
            bind_expr(&local, &pred.left)?,
            bind_expr(&local, &pred.right)?,
        );
        pids.push(graph.add_predicate(p));
    }
    match kind {
        JoinKind::Inner => graph.boxed_mut(jb).predicates = pids,
        JoinKind::LeftOuter => graph.boxed_mut(jb).kind = BoxKind::OuterJoin { on: pids },
    }
    Ok((jb, col_names))
}

/// Attaches one side of a join tree as a quantifier of `jb`.
fn attach_join_side(
    graph: &mut QueryGraph,
    catalog: &Catalog,
    jb: BoxId,
    side: &TableRef,
) -> Result<QualifiedNames> {
    match side {
        TableRef::Table { name, alias } => {
            let td = catalog.table_by_name(name)?.clone();
            graph.add_table_quantifier(jb, &td);
            let qual = Some(alias.clone().unwrap_or_else(|| td.name.clone()));
            Ok(td
                .columns
                .iter()
                .map(|c| (qual.clone(), c.name.clone()))
                .collect())
        }
        TableRef::Subquery { query, alias } => {
            let child = bind_any(graph, catalog, query)?;
            let cols = graph.boxed(child).output_cols();
            graph.add_box_quantifier(jb, child);
            Ok(cols
                .iter()
                .map(|&c| (Some(alias.clone()), graph.registry.name(c).to_string()))
                .collect())
        }
        TableRef::Join { .. } => {
            let (child, names) = bind_join_tree(graph, catalog, side)?;
            graph.add_box_quantifier(jb, child);
            Ok(names)
        }
    }
}

/// The non-aggregating shape: outputs, DISTINCT, and ORDER BY all live on
/// the one select box.
fn bind_plain_select(
    graph: &mut QueryGraph,
    scope: &Scope,
    q: &Query,
    sel: BoxId,
) -> Result<BoxId> {
    let mut outputs: Vec<OutputCol> = Vec::new();
    let mut names: Vec<String> = Vec::new();
    for (i, item) in q.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                for (col, name) in scope.all_cols() {
                    outputs.push(column_output(graph, sel, &outputs, col, &name));
                    names.push(name);
                }
            }
            SelectItem::Expr { expr, alias } => {
                let e = bind_expr(scope, expr)?;
                match e.as_col() {
                    Some(c) => {
                        let name = alias
                            .clone()
                            .unwrap_or_else(|| graph.registry.name(c).to_string());
                        outputs.push(column_output(graph, sel, &outputs, c, &name));
                        names.push(name);
                    }
                    None => {
                        let name = alias.clone().unwrap_or_else(|| format!("col{}", i + 1));
                        let col = graph.fresh_derived(sel, name.clone(), expr_type(&e));
                        outputs.push(OutputCol {
                            col,
                            expr: OutputExpr::Scalar(e),
                        });
                        names.push(name);
                    }
                }
            }
            SelectItem::Agg { .. } => unreachable!("agg handled in aggregate path"),
        }
    }
    let order = resolve_order_by(graph, scope, q, &outputs, &names)?;
    let b = graph.boxed_mut(sel);
    b.output = outputs;
    b.distinct = q.distinct;
    b.output_order = order;
    b.limit = q.limit;
    Ok(sel)
}

/// The aggregating shape: select box → group-by box → final select box.
fn bind_aggregate_select(
    graph: &mut QueryGraph,
    scope: &Scope,
    q: &Query,
    sel: BoxId,
) -> Result<BoxId> {
    // Resolve grouping columns and aggregate calls.
    let grouping: Vec<ColId> = q
        .group_by
        .iter()
        .map(|r| scope.resolve(r))
        .collect::<Result<Vec<_>>>()?;
    let grouping_set: ColSet = grouping.iter().copied().collect();

    enum FinalItem {
        /// Pass a grouping column through.
        Pass(ColId, String),
        /// A scalar expression over grouping columns.
        Computed(Expr, String),
        /// The result of `aggs[i]`.
        AggSlot(usize, String),
    }
    let mut aggs: Vec<(AggCall, ColId, String)> = Vec::new();
    let mut final_items: Vec<FinalItem> = Vec::new();

    // Everything the upper boxes need must pass through the select box.
    let mut needed: ColSet = grouping_set.clone();

    for (i, item) in q.items.iter().enumerate() {
        match item {
            SelectItem::Wildcard => {
                return Err(FtoError::Semantic(
                    "SELECT * cannot be combined with GROUP BY/aggregates".into(),
                ))
            }
            SelectItem::Expr { expr, alias } => {
                let e = bind_expr(scope, expr)?;
                if !e.cols().is_subset(&grouping_set) {
                    return Err(FtoError::Semantic(format!(
                        "select item {} must reference only grouping columns",
                        i + 1
                    )));
                }
                needed.union_with(&e.cols());
                match e.as_col() {
                    Some(c) => final_items.push(FinalItem::Pass(
                        c,
                        alias
                            .clone()
                            .unwrap_or_else(|| graph.registry.name(c).to_string()),
                    )),
                    None => {
                        let name = alias.clone().unwrap_or_else(|| format!("col{}", i + 1));
                        final_items.push(FinalItem::Computed(e, name));
                    }
                }
            }
            SelectItem::Agg { agg, alias } => {
                let arg = match &agg.arg {
                    Some(e) => bind_expr(scope, e)?,
                    None => Expr::int(1), // count(*) ≡ count(1)
                };
                needed.union_with(&arg.cols());
                let mut call = AggCall::new(agg.func, arg);
                if agg.distinct {
                    call = call.distinct();
                }
                let name = alias
                    .clone()
                    .unwrap_or_else(|| format!("{}{}", agg.func.name(), i + 1));
                // Result column minted on the group-by box (below).
                aggs.push((call, ColId(u32::MAX), name.clone()));
                final_items.push(FinalItem::AggSlot(aggs.len() - 1, name));
            }
        }
    }

    // HAVING operands may match select-list aggregates or introduce
    // hidden ones; they must be bound before aggregate columns are
    // minted so hidden aggregates join the group-by box's outputs.
    let mut having_bound: Vec<(fto_expr::CompareOp, HavingExpr, HavingExpr)> = Vec::new();
    for pred in &q.having {
        let left = bind_having_expr(scope, &pred.left, &grouping_set, &mut aggs, &mut needed)?;
        let right = bind_having_expr(scope, &pred.right, &grouping_set, &mut aggs, &mut needed)?;
        having_bound.push((pred.op, left, right));
    }

    // Select box outputs: pass through every needed column.
    graph.boxed_mut(sel).output = needed.iter().map(OutputCol::passthrough).collect();

    // Group-by box.
    let gb = graph.add_box(BoxKind::GroupBy {
        grouping: grouping.clone(),
    });
    graph.add_box_quantifier(gb, sel);
    let mut gb_outputs: Vec<OutputCol> = grouping
        .iter()
        .map(|&c| OutputCol::passthrough(c))
        .collect();
    for (call, col_slot, name) in &mut aggs {
        let col = graph.fresh_derived(gb, name.clone(), agg_type(call));
        *col_slot = col;
        gb_outputs.push(OutputCol {
            col,
            expr: OutputExpr::Agg(call.clone()),
        });
    }
    graph.boxed_mut(gb).output = gb_outputs;

    // Final select box over the group-by.
    let fin = graph.add_box(BoxKind::Select);
    graph.add_box_quantifier(fin, gb);
    for (op, left, right) in having_bound {
        let pred = Predicate::new(op, left.lower(&aggs), right.lower(&aggs));
        let pid = graph.add_predicate(pred);
        graph.boxed_mut(fin).predicates.push(pid);
    }
    let mut outputs = Vec::new();
    let mut names = Vec::new();
    for item in final_items {
        let (output, name) = match item {
            FinalItem::Pass(c, name) => (column_output(graph, fin, &outputs, c, &name), name),
            FinalItem::Computed(e, name) => {
                let col = graph.fresh_derived(fin, name.clone(), expr_type(&e));
                (
                    OutputCol {
                        col,
                        expr: OutputExpr::Scalar(e),
                    },
                    name,
                )
            }
            FinalItem::AggSlot(i, name) => {
                (column_output(graph, fin, &outputs, aggs[i].1, &name), name)
            }
        };
        outputs.push(output);
        names.push(name);
    }
    let order = resolve_order_by(graph, scope, q, &outputs, &names)?;
    let b = graph.boxed_mut(fin);
    b.output = outputs;
    b.distinct = q.distinct;
    b.output_order = order;
    b.limit = q.limit;
    Ok(fin)
}

/// The output for a select item whose value is column `c`: a pass-through
/// the first time `c` appears in `outputs`, a fresh derived copy of it
/// after that. Every output position thus gets its own `ColId` (a row
/// layout maps each id to exactly one position), and ORDER BY on the
/// column resolves to the first occurrence.
fn column_output(
    graph: &mut QueryGraph,
    box_id: BoxId,
    outputs: &[OutputCol],
    c: ColId,
    name: &str,
) -> OutputCol {
    if !outputs.iter().any(|o| o.col == c) {
        return OutputCol::passthrough(c);
    }
    let data_type = graph.registry.info(c).data_type;
    OutputCol {
        col: graph.fresh_derived(box_id, name, data_type),
        expr: OutputExpr::Scalar(Expr::col(c)),
    }
}

/// Resolves ORDER BY items against the output list (aliases and ordinals)
/// or, failing that, the FROM scope — requiring the resolved column to be
/// among the outputs so the sort can run on the final stream.
fn resolve_order_by(
    graph: &QueryGraph,
    scope: &Scope,
    q: &Query,
    outputs: &[OutputCol],
    names: &[String],
) -> Result<Option<OrderSpec>> {
    if q.order_by.is_empty() {
        return Ok(None);
    }
    let mut spec = OrderSpec::empty();
    for item in &q.order_by {
        let col = match &item.target {
            SortTarget::Ordinal(n) => outputs
                .get(n - 1)
                .map(|o| o.col)
                .ok_or_else(|| FtoError::Semantic(format!("ORDER BY ordinal {n} out of range")))?,
            SortTarget::Name(r) => {
                // Alias first (unqualified only), then scope resolution.
                let alias_hit = r.qualifier.is_none().then(|| {
                    names
                        .iter()
                        .position(|n| n.eq_ignore_ascii_case(&r.name))
                        .map(|i| outputs[i].col)
                });
                match alias_hit.flatten() {
                    Some(c) => c,
                    None => {
                        let c = scope.resolve(r)?;
                        if !outputs.iter().any(|o| o.col == c) {
                            return Err(FtoError::Semantic(format!(
                                "ORDER BY column '{}' must appear in the select list",
                                display_ref(r)
                            )));
                        }
                        c
                    }
                }
            }
        };
        spec.push(SortKey {
            col,
            dir: if item.desc {
                fto_common::Direction::Desc
            } else {
                fto_common::Direction::Asc
            },
        });
    }
    let _ = graph;
    Ok(Some(spec))
}

fn bind_expr(scope: &Scope, e: &SqlExpr) -> Result<Expr> {
    Ok(match e {
        SqlExpr::Column(r) => Expr::col(scope.resolve(r)?),
        SqlExpr::Literal(v) => Expr::Lit(v.clone()),
        SqlExpr::Arith { op, left, right } => {
            Expr::arith(*op, bind_expr(scope, left)?, bind_expr(scope, right)?)
        }
        SqlExpr::Agg(_) => {
            return Err(FtoError::Semantic(
                "aggregate calls are only allowed in the select list and HAVING".into(),
            ))
        }
    })
}

/// A HAVING operand before aggregate results have column ids: aggregates
/// are referenced by their index in the aggregate list.
enum HavingExpr {
    Lit(fto_common::Value),
    Col(ColId),
    AggRef(usize),
    Arith(fto_expr::ArithOp, Box<HavingExpr>, Box<HavingExpr>),
}

impl HavingExpr {
    /// Lowers to a real expression once aggregate columns are minted.
    fn lower(&self, aggs: &[(AggCall, ColId, String)]) -> Expr {
        match self {
            HavingExpr::Lit(v) => Expr::Lit(v.clone()),
            HavingExpr::Col(c) => Expr::col(*c),
            HavingExpr::AggRef(i) => Expr::col(aggs[*i].1),
            HavingExpr::Arith(op, l, r) => Expr::arith(*op, l.lower(aggs), r.lower(aggs)),
        }
    }
}

/// Binds one HAVING operand: scalar parts must use grouping columns;
/// aggregate calls are matched against the select list's aggregates or
/// appended as hidden aggregates computed by the group-by box.
fn bind_having_expr(
    scope: &Scope,
    e: &SqlExpr,
    grouping_set: &ColSet,
    aggs: &mut Vec<(AggCall, ColId, String)>,
    needed: &mut ColSet,
) -> Result<HavingExpr> {
    Ok(match e {
        SqlExpr::Literal(v) => HavingExpr::Lit(v.clone()),
        SqlExpr::Column(r) => {
            let c = scope.resolve(r)?;
            if !grouping_set.contains(c) {
                return Err(FtoError::Semantic(format!(
                    "HAVING column '{}' must be a grouping column or inside an aggregate",
                    display_ref(r)
                )));
            }
            HavingExpr::Col(c)
        }
        SqlExpr::Arith { op, left, right } => HavingExpr::Arith(
            *op,
            Box::new(bind_having_expr(scope, left, grouping_set, aggs, needed)?),
            Box::new(bind_having_expr(scope, right, grouping_set, aggs, needed)?),
        ),
        SqlExpr::Agg(call) => {
            let arg = match &call.arg {
                Some(e) => bind_expr(scope, e)?,
                None => Expr::int(1),
            };
            needed.union_with(&arg.cols());
            let mut bound = AggCall::new(call.func, arg);
            if call.distinct {
                bound = bound.distinct();
            }
            let idx = match aggs.iter().position(|(a, _, _)| *a == bound) {
                Some(i) => i,
                None => {
                    let name = format!("having_{}{}", call.func.name(), aggs.len());
                    aggs.push((bound, ColId(u32::MAX), name));
                    aggs.len() - 1
                }
            };
            HavingExpr::AggRef(idx)
        }
    })
}

/// Crude output typing for derived columns (display metadata only).
fn expr_type(_e: &Expr) -> DataType {
    DataType::Double
}

fn agg_type(call: &AggCall) -> DataType {
    match call.func {
        fto_expr::AggFunc::Count => DataType::Int,
        _ => DataType::Double,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_query;
    use fto_catalog::{ColumnDef, KeyDef};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.create_table(
            "orders",
            vec![
                ColumnDef::new("o_orderkey", DataType::Int),
                ColumnDef::new("o_custkey", DataType::Int),
                ColumnDef::new("o_orderdate", DataType::Date),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
        cat.create_table(
            "lineitem",
            vec![
                ColumnDef::new("l_orderkey", DataType::Int),
                ColumnDef::new("l_price", DataType::Double),
            ],
            vec![],
        )
        .unwrap();
        cat
    }

    fn bind_sql(sql: &str) -> Result<QueryGraph> {
        let q = parse_query(sql)?;
        bind(&q, &catalog())
    }

    #[test]
    fn binds_simple_join() {
        let g = bind_sql(
            "select o_orderkey, l_price from orders, lineitem \
             where o_orderkey = l_orderkey order by o_orderkey desc",
        )
        .unwrap();
        let root = g.boxed(g.root);
        assert_eq!(root.quantifiers.len(), 2);
        assert_eq!(root.predicates.len(), 1);
        assert_eq!(root.output.len(), 2);
        let order = root.output_order.as_ref().unwrap();
        assert_eq!(order.keys()[0].dir, fto_common::Direction::Desc);
    }

    #[test]
    fn binds_aggregate_into_three_boxes() {
        let g = bind_sql(
            "select o_custkey, count(*) as n, sum(o_orderkey) \
             from orders group by o_custkey order by n desc",
        )
        .unwrap();
        // select → group-by → final select.
        let order = g.bottom_up();
        assert_eq!(order.len(), 3);
        let gb = g
            .boxes
            .iter()
            .find(|b| matches!(b.kind, BoxKind::GroupBy { .. }))
            .unwrap();
        assert_eq!(gb.output.len(), 3); // o_custkey + two aggs
        let root = g.boxed(g.root);
        assert_eq!(root.output.len(), 3);
        // ORDER BY alias resolves to the count output.
        let req = root.output_order.as_ref().unwrap();
        assert_eq!(g.registry.name(req.keys()[0].col), "n");
    }

    #[test]
    fn scalar_items_must_use_grouping_columns() {
        let err =
            bind_sql("select o_orderdate, count(*) from orders group by o_custkey").unwrap_err();
        assert!(matches!(err, FtoError::Semantic(_)));
    }

    #[test]
    fn wildcard_with_group_by_rejected() {
        assert!(bind_sql("select * from orders group by o_custkey").is_err());
    }

    #[test]
    fn ambiguous_and_unknown_columns() {
        let err = bind_sql("select orderkey from orders, lineitem where o_orderkey = l_orderkey")
            .unwrap_err();
        assert!(matches!(err, FtoError::Resolution(_)));
        // qualified reference resolves.
        let g = bind_sql(
            "select orders.o_orderkey from orders, lineitem \
             where o_orderkey = l_orderkey",
        )
        .unwrap();
        assert_eq!(g.boxed(g.root).output.len(), 1);
    }

    #[test]
    fn duplicate_binding_rejected() {
        assert!(bind_sql("select 1 from orders, orders").is_err());
        // With distinct aliases the self-join binds.
        let g = bind_sql(
            "select a.o_orderkey from orders a, orders b \
             where a.o_orderkey = b.o_custkey",
        )
        .unwrap();
        assert_eq!(g.boxed(g.root).quantifiers.len(), 2);
    }

    #[test]
    fn subquery_binds_and_exposes_columns() {
        let g = bind_sql(
            "select v.o_custkey from \
             (select o_custkey from orders where o_orderkey > 5) as v \
             order by v.o_custkey",
        )
        .unwrap();
        assert_eq!(g.bottom_up().len(), 2);
        let root = g.boxed(g.root);
        assert!(root.output_order.is_some());
    }

    #[test]
    fn order_by_non_output_column_rejected() {
        let err = bind_sql("select o_custkey from orders order by o_orderdate").unwrap_err();
        assert!(matches!(err, FtoError::Semantic(_)));
    }

    #[test]
    fn computed_output_gets_fresh_column() {
        let g = bind_sql("select o_orderkey + 1 as k1 from orders").unwrap();
        let root = g.boxed(g.root);
        assert_eq!(root.output.len(), 1);
        assert!(!root.output[0].is_passthrough());
        assert_eq!(g.registry.name(root.output[0].col), "k1");
    }

    #[test]
    fn wildcard_expands_all_tables() {
        let g = bind_sql("select * from orders, lineitem where o_orderkey = l_orderkey").unwrap();
        assert_eq!(g.boxed(g.root).output.len(), 5);
    }
}
