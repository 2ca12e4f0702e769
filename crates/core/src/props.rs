//! [`StreamProps`]: the per-stream data properties the paper tracks
//! (§5.2.1) — order, applied predicates, keys, and functional dependencies
//! — together with their propagation through relational operators.
//!
//! Each operator in a plan determines the properties of its output stream
//! from the properties of its inputs and the operation applied (paper §3).
//! The planner calls the methods here operator by operator as it builds
//! plans bottom-up.

use crate::context::OrderContext;
use crate::eqclass::EquivalenceClasses;
use crate::fd::{Fd, FdSet};
use crate::keyprop::KeyProperty;
use crate::spec::OrderSpec;
use fto_common::{ColId, ColSet};
use fto_expr::{PredClass, PredId, Predicate};
use std::sync::Arc;

/// The data properties of one plan stream.
///
/// The equivalence classes and functional dependencies are private: the
/// reasoning context derived from them ([`StreamProps::ctx`]) is built
/// once, by the few methods that change those facts, and shared by
/// handle with every stream derived from this one that keeps them
/// (projections, sorts, DISTINCT, installed orders). No write from
/// outside can leave the context stale.
#[derive(Clone, Debug)]
pub struct StreamProps {
    /// Columns available in the stream.
    pub cols: ColSet,
    /// The order property: what the stream is physically ordered by
    /// (always originating from an index scan or a sort, paper §3).
    pub order: OrderSpec,
    /// The predicate property: ids of predicates already applied, sorted.
    pub preds: Vec<PredId>,
    /// The key property (uniqueness facts, incl. the one-record condition).
    pub keys: KeyProperty,
    /// The equivalences and FDs with the context derived from them,
    /// shared by handle.
    facts: Arc<Facts>,
}

/// The facts a stream's order reasoning draws on, and the context built
/// from them once.
#[derive(Debug)]
struct Facts {
    /// The functional-dependency property (raw, before head-space
    /// normalization).
    fds: FdSet,
    /// The reasoning context: the stream's column equivalences (induced
    /// by the applied predicates) and its FDs normalized to head space.
    ctx: OrderContext,
}

impl Facts {
    fn new(eq: EquivalenceClasses, fds: FdSet) -> Arc<Facts> {
        let ctx = OrderContext::new(eq, &fds);
        Arc::new(Facts { fds, ctx })
    }
}

impl StreamProps {
    /// Properties of a base-table access: the table's columns, its keys
    /// (each contributing the FD `key → all columns`), no applied
    /// predicates, and no order (scans add an order separately via
    /// [`StreamProps::with_order`]).
    pub fn base_table(cols: ColSet, keys: Vec<ColSet>) -> StreamProps {
        let mut fds = FdSet::new();
        for k in &keys {
            fds.add_key(k.clone(), cols.clone());
        }
        StreamProps {
            cols,
            order: OrderSpec::empty(),
            preds: Vec::new(),
            keys: KeyProperty::from_keys(keys),
            facts: Facts::new(EquivalenceClasses::new(), fds),
        }
    }

    /// The reasoning context for this stream's order operations, shared
    /// with every stream derived from this one that kept its
    /// equivalences and FDs.
    pub fn ctx(&self) -> &OrderContext {
        &self.facts.ctx
    }

    /// The functional-dependency property (raw, as recorded).
    pub fn fds(&self) -> &FdSet {
        &self.facts.fds
    }

    /// Column equivalences induced by the applied predicates.
    pub fn eq(&self) -> &EquivalenceClasses {
        self.facts.ctx.equivalences()
    }

    /// Returns the stream with an order property installed (index scans
    /// and sorts). The order is stored *reduced*, which both canonicalizes
    /// comparisons between plans and — for sorts — yields the minimal list
    /// of sort columns (paper §4.2).
    pub fn with_order(mut self, order: OrderSpec) -> StreamProps {
        self.order = self.ctx().reduce(&order);
        self
    }

    /// Applies a predicate to the stream: records it in the predicate
    /// property, feeds equivalence classes and FDs per the paper's §4.1
    /// mapping, and re-canonicalizes the key property (which may surface
    /// the one-record condition).
    pub fn apply_predicate(&mut self, id: PredId, pred: &Predicate) {
        match self.preds.binary_search(&id) {
            Ok(_) => return, // already applied
            Err(pos) => self.preds.insert(pos, id),
        }
        match pred.classify() {
            PredClass::ColEqConst(col, v) => {
                let (mut eq, mut fds) = (self.eq().clone(), self.fds().clone());
                eq.bind_constant(col, v);
                fds.add_constant(col);
                self.facts = Facts::new(eq, fds);
            }
            PredClass::ColEqCol(a, b) => {
                let (mut eq, mut fds) = (self.eq().clone(), self.fds().clone());
                eq.merge(a, b);
                fds.add_equivalence(a, b);
                self.facts = Facts::new(eq, fds);
            }
            PredClass::Opaque => {}
        }
        self.keys.canonicalize(&self.facts.ctx);
        // The physical order of rows is unchanged by filtering; keep the
        // order property but re-reduce it, since new constants may have
        // shortened it.
        self.order = self.ctx().reduce(&self.order);
    }

    /// Records the FDs `e.cols() → {c}` of computed output columns (and
    /// any other dependency the caller knows holds), rebuilding the shared
    /// context once for the whole batch.
    pub fn add_fds(&mut self, new: impl IntoIterator<Item = Fd>) {
        let mut fds = self.fds().clone();
        for fd in new {
            fds.add(fd);
        }
        if fds.len() != self.fds().len() {
            self.facts = Facts::new(self.eq().clone(), fds);
        }
    }

    /// Properties after projecting the stream down to `keep`.
    ///
    /// * The order property survives up to the first sort column with no
    ///   retained equivalent (the context may substitute an equivalent
    ///   retained column, so `SELECT b.x ... WHERE a.x = b.x` keeps an
    ///   order on `a.x`).
    /// * Keys containing projected-away columns are dropped (paper
    ///   §5.2.1).
    /// * FDs and equivalences are retained in full: they remain true
    ///   statements about the visible columns and may mention invisible
    ///   ones harmlessly. The context is shared, not rebuilt.
    pub fn project(&self, keep: &ColSet) -> StreamProps {
        let cols = self.cols.intersection(keep);
        let (order, _complete) = self.ctx().homogenize_prefix(&self.order, &cols);
        StreamProps {
            cols,
            order,
            preds: self.preds.clone(),
            keys: self.keys.project(keep),
            facts: Arc::clone(&self.facts),
        }
    }

    /// Properties after sorting the stream by `spec` (which the sort
    /// reduces to its minimal column list). Everything else passes through
    /// unchanged (paper §3: "a sort operator passes on all the properties
    /// of its input stream unchanged except for the order property").
    pub fn sorted(&self, spec: &OrderSpec) -> StreamProps {
        let mut out = self.clone();
        out.order = self.ctx().reduce(spec);
        out
    }

    /// Combines the properties of two join inputs, *before* the join's own
    /// predicates are applied:
    ///
    /// * available columns are the union;
    /// * applied predicates are the union (the inputs applied disjoint
    ///   sets);
    /// * FDs and equivalences are unioned;
    /// * the key property is computed by [`KeyProperty::join`] from the
    ///   equi-join pairs in `equates`;
    /// * the order property is `outer_order` — the caller passes the order
    ///   the join method actually preserves (the outer stream's order for
    ///   nested-loop and merge joins, or empty).
    ///
    /// The caller then applies the join predicates through
    /// [`StreamProps::apply_predicate`], which merges the equivalence
    /// classes and re-canonicalizes keys.
    pub fn join(
        left: &StreamProps,
        right: &StreamProps,
        equates: &[(ColId, ColId)],
        outer_order: OrderSpec,
    ) -> StreamProps {
        let mut fds = left.fds().clone();
        fds.absorb(right.fds());
        let mut eq = left.eq().clone();
        eq.absorb(right.eq());
        let facts = Facts::new(eq, fds);
        StreamProps {
            cols: left.cols.union(&right.cols),
            order: facts.ctx.reduce(&outer_order),
            preds: union_preds(&left.preds, &right.preds),
            keys: KeyProperty::join(&left.keys, &right.keys, equates),
            facts,
        }
    }

    /// Combines the properties of a left outer join's inputs, *before*
    /// its ON predicates are applied. Null padding invalidates every fact
    /// local to the inner side (its constants, equivalences and FDs no
    /// longer hold once unmatched rows carry NULLs), so the output keeps
    /// only the preserved side's facts — and its context, by handle —
    /// plus the joined key property; the preserved side's order survives.
    /// The caller then applies each ON predicate through
    /// [`StreamProps::apply_outer_join_predicate`].
    pub fn outer_join(
        preserved: &StreamProps,
        inner: &StreamProps,
        equates: &[(ColId, ColId)],
    ) -> StreamProps {
        StreamProps {
            cols: preserved.cols.union(&inner.cols),
            order: preserved.ctx().reduce(&preserved.order),
            preds: union_preds(&preserved.preds, &inner.preds),
            keys: KeyProperty::join(&preserved.keys, &inner.keys, equates),
            facts: Arc::clone(&preserved.facts),
        }
    }

    /// Records an outer-join ON predicate (paper §4.1): the predicate id
    /// joins the predicate property, and an equality `x = y` contributes
    /// only the one-directional FD `{x} → {y}` for `x` on the preserved
    /// side — never an equivalence class or a constant binding, because
    /// null-padded rows violate both.
    pub fn apply_outer_join_predicate(&mut self, id: PredId, pred: &Predicate, preserved: &ColSet) {
        match self.preds.binary_search(&id) {
            Ok(_) => return,
            Err(pos) => self.preds.insert(pos, id),
        }
        if let PredClass::ColEqCol(a, b) = pred.classify() {
            if preserved.contains(a) {
                self.add_fds([Fd::implies(a, b)]);
            } else if preserved.contains(b) {
                self.add_fds([Fd::implies(b, a)]);
            }
        }
        self.keys.canonicalize(&self.facts.ctx);
        self.order = self.ctx().reduce(&self.order);
    }

    /// Properties after a GROUP BY on `grouping` producing aggregate
    /// output columns `agg_cols`.
    ///
    /// * The grouping columns become a key of the output.
    /// * The FD `{grouping} → {aggregates}` holds (paper §4.1).
    /// * For order-based (streaming) group-by the input order survives on
    ///   the grouping columns; the caller passes `input_order` for a
    ///   streaming group-by or `OrderSpec::empty()` for a hash group-by.
    pub fn group_by(
        &self,
        grouping: &ColSet,
        agg_cols: &ColSet,
        input_order: OrderSpec,
    ) -> StreamProps {
        let cols = grouping.union(agg_cols);
        let facts = if agg_cols.is_empty() {
            Arc::clone(&self.facts)
        } else {
            let mut fds = self.fds().clone();
            fds.add_key(grouping.clone(), cols.clone());
            Facts::new(self.eq().clone(), fds)
        };
        let mut keys = self.keys.clone().project(&cols);
        keys.add_key(grouping.clone());
        keys.canonicalize(&facts.ctx);
        let (order, _) = facts.ctx.homogenize_prefix(&input_order, &cols);
        StreamProps {
            cols,
            order,
            preds: self.preds.clone(),
            keys,
            facts,
        }
    }

    /// Properties after DISTINCT: every output column together forms a key.
    pub fn distinct(&self) -> StreamProps {
        let mut out = self.clone();
        out.keys.add_key(self.cols.clone());
        out.keys.canonicalize(&out.facts.ctx);
        out
    }

    /// Plan-comparison dominance for pruning (paper §5.2.1): `self` is at
    /// least as good as `other` on the property dimensions when
    ///
    /// * `self`'s order property satisfies `other`'s (reduced prefix), and
    /// * `self` has applied every predicate `other` has, and
    /// * every key of `other` is implied by some key of `self`.
    ///
    /// Two plans with mutually incomparable properties must both be kept.
    pub fn dominates(&self, other: &StreamProps) -> bool {
        self.dominates_under(other, self.ctx())
    }

    /// [`StreamProps::dominates`] with an explicit reasoning context —
    /// pass [`OrderContext::trivial`] to compare orders verbatim (the
    /// paper's "order optimization disabled" baseline).
    pub fn dominates_under(&self, other: &StreamProps, ctx: &OrderContext) -> bool {
        if !ctx.test_order(&other.order, &self.order) {
            return false;
        }
        if !other
            .preds
            .iter()
            .all(|p| self.preds.binary_search(p).is_ok())
        {
            return false;
        }
        other
            .keys
            .keys()
            .iter()
            .all(|ok| self.keys.keys().iter().any(|sk| sk.is_subset(ok)))
    }
}

/// The union of two sorted predicate-id lists, sorted.
fn union_preds(left: &[PredId], right: &[PredId]) -> Vec<PredId> {
    let mut preds = left.to_vec();
    for p in right {
        if let Err(pos) = preds.binary_search(p) {
            preds.insert(pos, *p);
        }
    }
    preds
}

#[cfg(test)]
mod tests {
    use super::*;
    use fto_common::Value;
    use fto_expr::Expr;

    fn c(i: u32) -> ColId {
        ColId(i)
    }

    fn cs(ids: &[u32]) -> ColSet {
        ids.iter().map(|&i| ColId(i)).collect()
    }

    fn asc(ids: &[u32]) -> OrderSpec {
        OrderSpec::ascending(ids.iter().map(|&i| ColId(i)))
    }

    fn base() -> StreamProps {
        // Table with columns 0..4, key {0}.
        StreamProps::base_table(cs(&[0, 1, 2, 3]), vec![cs(&[0])])
    }

    #[test]
    fn base_table_key_fd() {
        let p = base();
        assert!(p.fds().determines(&cs(&[0]), c(3)));
        assert!(p.keys.determined_by(&cs(&[0])));
        assert!(p.order.is_empty());
        assert!(p.preds.is_empty());
    }

    #[test]
    fn with_order_reduces() {
        // Key {0}: an index order (0, 1) stores as (0).
        let p = base().with_order(asc(&[0, 1]));
        assert_eq!(p.order, asc(&[0]));
    }

    #[test]
    fn apply_constant_predicate_shortens_order() {
        let mut p = base().with_order(asc(&[1, 2]));
        p.apply_predicate(PredId(0), &Predicate::col_eq_const(c(1), Value::Int(5)));
        assert_eq!(p.order, asc(&[2]));
        assert_eq!(p.preds, vec![PredId(0)]);
        assert!(p.eq().is_constant(c(1)));
    }

    #[test]
    fn apply_predicate_is_idempotent() {
        let mut p = base();
        let pred = Predicate::col_eq_col(c(1), c(2));
        p.apply_predicate(PredId(3), &pred);
        p.apply_predicate(PredId(3), &pred);
        assert_eq!(p.preds, vec![PredId(3)]);
        assert!(p.eq().same_class(c(1), c(2)));
    }

    #[test]
    fn constant_on_key_gives_one_record() {
        let mut p = base();
        p.apply_predicate(PredId(0), &Predicate::col_eq_const(c(0), Value::Int(9)));
        assert!(p.keys.is_one_record());
    }

    #[test]
    fn project_keeps_order_through_equivalents() {
        // Order on column 1; 1 = 2 applied; project away 1 but keep 2.
        let mut p = StreamProps::base_table(cs(&[1, 2, 3]), vec![]);
        p = p.with_order(asc(&[1]));
        p.apply_predicate(PredId(0), &Predicate::col_eq_col(c(1), c(2)));
        let projected = p.project(&cs(&[2, 3]));
        assert_eq!(projected.order, asc(&[2]));
        assert_eq!(projected.cols, cs(&[2, 3]));
    }

    #[test]
    fn project_truncates_order_at_lost_column() {
        let p = StreamProps::base_table(cs(&[1, 2, 3]), vec![]).with_order(asc(&[1, 2, 3]));
        let projected = p.project(&cs(&[1, 3]));
        assert_eq!(projected.order, asc(&[1]));
    }

    #[test]
    fn project_drops_keys() {
        let p = StreamProps::base_table(cs(&[0, 1]), vec![cs(&[0])]);
        let projected = p.project(&cs(&[1]));
        assert!(projected.keys.is_empty());
    }

    #[test]
    fn sorted_replaces_order_only() {
        let mut p = base();
        p.apply_predicate(PredId(0), &Predicate::col_eq_col(c(1), c(2)));
        let s = p.sorted(&asc(&[2, 1, 3]));
        // 1 = 2 merges: (2,1,3) reduces to (1,3) in head space.
        assert_eq!(s.order, asc(&[1, 3]));
        assert_eq!(s.preds, p.preds);
    }

    #[test]
    fn join_combines_properties() {
        // Left: cols 0..2, key {0}; right: cols 10..12, key {10}.
        let left = StreamProps::base_table(cs(&[0, 1, 2]), vec![cs(&[0])]).with_order(asc(&[1]));
        let right = StreamProps::base_table(cs(&[10, 11]), vec![cs(&[10])]);
        // join predicate: 1 = 10 (n-to-1: right key fully qualified).
        let mut joined = StreamProps::join(&left, &right, &[(c(1), c(10))], left.order.clone());
        joined.apply_predicate(PredId(5), &Predicate::col_eq_col(c(1), c(10)));
        assert_eq!(joined.cols, cs(&[0, 1, 2, 10, 11]));
        // n-to-1: left key {0} propagates.
        assert!(joined.keys.determined_by(&cs(&[0])));
        // Order on the outer is preserved.
        assert_eq!(joined.order, asc(&[1]));
        // Equivalence 1 = 10 holds downstream.
        assert!(joined.eq().same_class(c(1), c(10)));
        // Key FD from the right side flows through: {10} -> {11}.
        assert!(joined.fds().determines(&cs(&[10]), c(11)));
        // And via equivalence, {1} -> {11}.
        assert!(joined.ctx().fds().determines(&cs(&[1]), c(11)));
    }

    #[test]
    fn group_by_props() {
        let p = base().with_order(asc(&[1, 2]));
        let out = p.group_by(&cs(&[1, 2]), &cs(&[7]), asc(&[1, 2]));
        assert_eq!(out.cols, cs(&[1, 2, 7]));
        assert!(out.keys.determined_by(&cs(&[1, 2])));
        assert!(out.fds().determines(&cs(&[1, 2]), c(7)));
        assert_eq!(out.order, asc(&[1, 2]));
    }

    #[test]
    fn hash_group_by_has_no_order() {
        let p = base().with_order(asc(&[1]));
        let out = p.group_by(&cs(&[1]), &cs(&[7]), OrderSpec::empty());
        assert!(out.order.is_empty());
    }

    #[test]
    fn distinct_makes_all_columns_a_key() {
        let p = StreamProps::base_table(cs(&[1, 2]), vec![]);
        let d = p.distinct();
        assert!(d.keys.determined_by(&cs(&[1, 2])));
        assert!(!d.keys.determined_by(&cs(&[1])));
    }

    #[test]
    fn dominance() {
        let unordered = base();
        let ordered = base().with_order(asc(&[1]));
        // An ordered stream dominates an unordered one (other things equal)
        assert!(ordered.dominates(&unordered));
        assert!(!unordered.dominates(&ordered));
        // More predicates applied dominates fewer.
        let mut filtered = base();
        filtered.apply_predicate(PredId(0), &Predicate::eq(Expr::col(c(2)), Expr::int(5)));
        assert!(filtered.dominates(&base()));
        assert!(!base().dominates(&filtered));
        // Incomparable: one has an order (on c1), the other a predicate
        // (on the unrelated c2).
        assert!(!ordered.dominates(&filtered));
        assert!(!filtered.dominates(&ordered));
        // But a predicate binding the *order* column to a constant makes
        // that order trivial: the filtered plan then dominates.
        let mut binds_order_col = base();
        binds_order_col.apply_predicate(PredId(1), &Predicate::eq(Expr::col(c(1)), Expr::int(5)));
        assert!(binds_order_col.dominates(&ordered));
    }

    #[test]
    fn derived_streams_share_the_context_until_facts_change() {
        let p = base().with_order(asc(&[1]));
        let shares = |q: &StreamProps| std::ptr::eq(p.ctx(), q.ctx());
        assert!(shares(&p.project(&cs(&[1, 2]))));
        assert!(shares(&p.sorted(&asc(&[2]))));
        assert!(shares(&p.distinct()));
        assert!(shares(&p.group_by(&cs(&[1]), &ColSet::new(), asc(&[1]))));
        // A predicate that adds no equivalence or FD keeps the handle...
        let mut range = p.clone();
        range.apply_predicate(
            PredId(1),
            &Predicate::new(fto_expr::CompareOp::Lt, Expr::col(c(2)), Expr::int(3)),
        );
        assert!(shares(&range));
        // ...and one that does builds a context that knows it.
        let mut bound = p.clone();
        bound.apply_predicate(PredId(2), &Predicate::col_eq_const(c(1), Value::Int(5)));
        assert!(!shares(&bound));
        assert!(bound.ctx().fds().determines(&ColSet::new(), c(1)));
        assert!(!p.ctx().fds().determines(&ColSet::new(), c(1)));
        let mut computed = p.clone();
        computed.add_fds([Fd::new(cs(&[2]), cs(&[9]))]);
        assert!(computed.ctx().fds().determines(&cs(&[2]), c(9)));
        // Re-adding a known FD changes nothing and keeps the handle.
        let before = computed.clone();
        computed.add_fds([Fd::new(cs(&[2]), cs(&[9]))]);
        assert!(std::ptr::eq(before.ctx(), computed.ctx()));
    }

    #[test]
    fn dominance_on_keys() {
        let strong = StreamProps::base_table(cs(&[0, 1]), vec![cs(&[0])]);
        let weak = StreamProps::base_table(cs(&[0, 1]), vec![]);
        assert!(strong.dominates(&weak));
        assert!(!weak.dominates(&strong));
    }
}
