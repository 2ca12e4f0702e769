//! [`Session`]: the public entry point for compiling and executing SQL.
//!
//! A session borrows a loaded [`Database`] and carries an
//! [`OptimizerConfig`]; queries flow parse → bind → rewrite → order scan →
//! cost-based planning → streaming execution:
//!
//! ```no_run
//! use fto_exec::prelude::*;
//! # fn demo(db: &fto_storage::Database) -> fto_common::Result<()> {
//! let out = Session::new(db)
//!     .config(OptimizerConfig::default().with_batch_size(512))
//!     .plan("select k, v from t order by k")?
//!     .execute()?;
//! println!("{} rows, {}", out.num_rows(), out.io);
//! # Ok(()) }
//! ```

use crate::interp::run_plan_materialized;
use crate::metrics::PlanMetrics;
use crate::obs::Observability;
use crate::sortkernel::{self, SegmentStats, SortStats, SpillStats};
use crate::stream::{
    execute_plan, execute_plan_instrumented, reject_retired_switches, Batch, ExecOptions,
    StreamResult,
};
use fto_common::{Result, Row};
use fto_obs::{ExecutionProfile, Profiler, Trace, TraceGuard};
use fto_planner::{OptimizerConfig, Plan, Planner, PlannerStats};
use fto_qgm::{rewrite, OrderScan, QueryGraph};
use fto_sql::{bind, parse_query, parse_statement, ExplainMode, Statement};
use fto_storage::{Database, IoStats};
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Duration;

/// Everything a query execution produced: the output (columnar batches,
/// with rows materialized on demand) plus the three observables the
/// paper's evaluation reports (simulated I/O, planner work, wall-clock
/// time).
#[derive(Debug)]
pub struct QueryOutput {
    /// Output batches, in the plan's output layout and order.
    batches: Vec<Batch>,
    /// Row materialization of `batches`, built lazily on first
    /// [`QueryOutput::rows`] call (pre-filled by the reference engine,
    /// which produces rows natively).
    rows_cache: OnceLock<Vec<Row>>,
    /// Simulated page I/O accumulated across the whole plan.
    pub io: IoStats,
    /// How much work the planner did choosing the plan.
    pub planner: PlannerStats,
    /// Wall-clock execution time (excluding planning).
    pub elapsed: Duration,
    /// Sort-kernel work this execution performed: normalized key bytes
    /// encoded and comparator calls, across every sort/merge in the plan
    /// (all worker threads included).
    pub sort: SortStats,
    /// Spill work this execution performed under a memory budget: runs
    /// (or hash partitions) written to spill files and external merge
    /// passes. All zero when the plan ran fully in memory.
    pub spill: SpillStats,
    /// Segmented (partial) sort work: prefix groups formed across every
    /// `SegmentedSort` operator in the plan. Zero when no segmented sort
    /// ran.
    pub segment: SegmentStats,
}

impl QueryOutput {
    /// The output as columnar batches, in emission order.
    pub fn batches(&self) -> &[Batch] {
        &self.batches
    }

    /// The output as rows, materialized lazily from the batches on first
    /// call and cached. Order matches [`QueryOutput::batches`].
    pub fn rows(&self) -> &[Row] {
        self.rows_cache.get_or_init(|| {
            let mut out = Vec::with_capacity(self.num_rows());
            for b in &self.batches {
                b.append_rows_to(&mut out);
            }
            out
        })
    }

    /// Total output row count (no materialization).
    pub fn num_rows(&self) -> usize {
        self.batches.iter().map(Batch::len).sum()
    }
}

/// A query pipeline over one database under one optimizer configuration.
pub struct Session<'db> {
    db: &'db Database,
    config: OptimizerConfig,
    obs: Option<Observability>,
}

impl<'db> Session<'db> {
    /// Opens a session over a loaded database with the default
    /// configuration.
    pub fn new(db: &'db Database) -> Session<'db> {
        Session {
            db,
            config: OptimizerConfig::default(),
            obs: None,
        }
    }

    /// Replaces the optimizer/executor configuration (builder style).
    pub fn config(mut self, config: OptimizerConfig) -> Self {
        self.config = config;
        self
    }

    /// Attaches an observability handle (builder style): every query this
    /// session plans and executes is recorded into its registry and
    /// slow-query log. The handle is `Arc`-shared — attach clones of one
    /// handle to many sessions to aggregate across them.
    pub fn observe(mut self, obs: Observability) -> Self {
        self.obs = Some(obs);
        self
    }

    /// The attached observability handle, if any.
    pub fn observability(&self) -> Option<&Observability> {
        self.obs.as_ref()
    }

    /// Text exposition of the attached registry's metrics; `None` when no
    /// observability handle is attached.
    pub fn metrics_snapshot(&self) -> Option<String> {
        self.obs.as_ref().map(Observability::metrics_snapshot)
    }

    /// The optimizer trace of the most recently planned query; `None`
    /// when no handle is attached or tracing was off.
    pub fn last_optimizer_trace(&self) -> Option<Trace> {
        self.obs.as_ref().and_then(Observability::last_trace)
    }

    /// The active configuration.
    pub fn current_config(&self) -> &OptimizerConfig {
        &self.config
    }

    /// The underlying database.
    pub fn database(&self) -> &'db Database {
        self.db
    }

    /// Compiles SQL to an executable query: parse → bind → predicate
    /// pushdown → view merging → order scan → cost-based planning.
    pub fn plan(&self, sql: &str) -> Result<PreparedQuery<'db>> {
        self.plan_inner(&parse_query(sql)?, Some(sql), false)
    }

    /// [`Session::plan`] with optimizer tracing forced on for this one
    /// compilation, whether or not an observability handle is attached.
    /// The collected trace is available via [`PreparedQuery::trace`] and
    /// rendered by [`PreparedQuery::explain_optimizer`].
    pub fn plan_traced(&self, sql: &str) -> Result<PreparedQuery<'db>> {
        self.plan_inner(&parse_query(sql)?, Some(sql), true)
    }

    /// [`Session::plan`] starting from an already-parsed query AST.
    pub fn plan_parsed(&self, ast: &fto_sql::ast::Query) -> Result<PreparedQuery<'db>> {
        self.plan_inner(ast, None, false)
    }

    /// Compiles with an optional optimizer trace. The trace collector is
    /// installed around the whole compile pipeline (order scan included)
    /// on the calling thread, so the trace never depends on the executor
    /// thread count.
    fn plan_inner(
        &self,
        ast: &fto_sql::ast::Query,
        sql: Option<&str>,
        force_trace: bool,
    ) -> Result<PreparedQuery<'db>> {
        reject_retired_switches(self.config.sort_key_codec, self.config.row_shim)?;
        let trace_on = force_trace
            || self
                .obs
                .as_ref()
                .is_some_and(|o| o.options().trace_planning);
        let capacity = self
            .obs
            .as_ref()
            .map(|o| o.options().trace_capacity)
            .unwrap_or(fto_obs::trace::DEFAULT_CAPACITY);
        let guard = trace_on.then(|| TraceGuard::install(capacity));

        let compiled: Result<(QueryGraph, Plan, PlannerStats)> = (|| {
            let mut graph = bind(ast, self.db.catalog())?;
            rewrite::push_down_predicates(&mut graph);
            rewrite::merge_views(&mut graph);
            OrderScan::run(&mut graph, self.db.catalog());
            let (plan, stats) = {
                let mut planner = Planner::new(&graph, self.db.catalog(), self.config.clone());
                let plan = planner.plan_query()?;
                (plan, planner.stats)
            };
            Ok((graph, plan, stats))
        })();
        let trace = guard.map(TraceGuard::finish);
        let (graph, plan, planner_stats) = compiled?;

        if let Some(obs) = &self.obs {
            obs.record_planning(&planner_stats, trace.as_ref());
        }
        Ok(PreparedQuery {
            db: self.db,
            graph,
            plan,
            planner: planner_stats,
            batch_size: self.config.batch_size,
            threads: self.config.threads,
            memory_budget: self.config.memory_budget,
            obs: self.obs.clone(),
            sql: sql.map(str::to_string),
            trace,
        })
    }

    /// Compile + execute in one call.
    pub fn execute(&self, sql: &str) -> Result<QueryOutput> {
        self.plan(sql)?.execute()
    }

    /// Compile + execute with the timeline profiler attached: alongside
    /// the normal output, returns the merged [`ExecutionProfile`]
    /// (export with [`ExecutionProfile::to_chrome_trace`] /
    /// [`ExecutionProfile::to_folded_stacks`]). Rows, I/O totals, and
    /// metric rollups are bit-identical to an unprofiled run.
    pub fn profile(&self, sql: &str) -> Result<(QueryOutput, ExecutionProfile)> {
        let (out, _, profile) = self.plan(sql)?.execute_profiled()?;
        Ok((out, profile))
    }

    /// Renders the chosen plan for `sql` (estimates only) without
    /// executing it.
    pub fn explain(&self, sql: &str) -> Result<String> {
        Ok(self.plan(sql)?.explain())
    }

    /// Parses and runs a top-level statement, dispatching the
    /// `EXPLAIN [ANALYZE | OPTIMIZER]` forms to the plan renderers: plain
    /// queries return rows, `EXPLAIN` returns the estimated plan tree,
    /// `EXPLAIN ANALYZE` executes the query and returns the tree
    /// annotated with per-operator actuals, and `EXPLAIN OPTIMIZER`
    /// returns the optimizer's decision trace with an enumeration
    /// summary (the query is planned but not executed).
    pub fn run(&self, sql: &str) -> Result<StatementOutput> {
        match parse_statement(sql)? {
            Statement::Query(q) => Ok(StatementOutput::Rows(Box::new(
                self.plan_inner(&q, Some(sql), false)?.execute()?,
            ))),
            Statement::Explain { mode, query } => {
                let force_trace = mode == ExplainMode::Optimizer;
                let prepared = self.plan_inner(&query, Some(sql), force_trace)?;
                let text = match mode {
                    ExplainMode::Plan => prepared.explain(),
                    ExplainMode::Analyze => prepared.explain_analyze()?,
                    ExplainMode::Optimizer => prepared.explain_optimizer(),
                };
                Ok(StatementOutput::Explain(text))
            }
        }
    }
}

/// What one top-level statement produced (see [`Session::run`]).
#[derive(Debug)]
pub enum StatementOutput {
    /// A plain query: its rows and observables (boxed: [`QueryOutput`]
    /// is large next to the explain text).
    Rows(Box<QueryOutput>),
    /// An `EXPLAIN [ANALYZE]` form: the rendered plan tree.
    Explain(String),
}

/// A compiled query bound to its database, ready to execute (repeatedly).
pub struct PreparedQuery<'db> {
    db: &'db Database,
    graph: QueryGraph,
    plan: Plan,
    planner: PlannerStats,
    batch_size: usize,
    threads: usize,
    memory_budget: Option<usize>,
    obs: Option<Observability>,
    sql: Option<String>,
    trace: Option<Trace>,
}

impl PreparedQuery<'_> {
    fn exec_options(&self) -> ExecOptions {
        ExecOptions {
            batch_size: self.batch_size,
            threads: self.threads,
            memory_budget: self.memory_budget,
            ..ExecOptions::default()
        }
    }

    /// Executes through the streaming batched executor (the default
    /// engine), at the parallel degree the session's
    /// [`OptimizerConfig::threads`] selected.
    ///
    /// With an observability handle attached, execution goes through the
    /// instrumented engine (identical rows and totals) so per-worker
    /// attribution lands in the registry, and the run is recorded:
    /// session counters, latency/rows/pages histograms, and — past the
    /// slow threshold — a slow-query log entry.
    pub fn execute(&self) -> Result<QueryOutput> {
        if self.obs.is_some() {
            return self.execute_instrumented().map(|(out, _)| out);
        }
        let before = sortkernel::stats_snapshot();
        let spill_before = sortkernel::spill_stats_snapshot();
        let segment_before = sortkernel::segment_stats_snapshot();
        let result = execute_plan(self.db, &self.graph, &self.plan, &self.exec_options())?;
        Ok(self.wrap(
            result,
            sortkernel::stats_snapshot().delta_since(before),
            sortkernel::spill_stats_snapshot().delta_since(spill_before),
            sortkernel::segment_stats_snapshot().delta_since(segment_before),
        ))
    }

    /// [`PreparedQuery::execute`] with per-operator instrumentation:
    /// alongside the normal output, returns a [`PlanMetrics`] recording
    /// rows/batches, [`IoStats`] deltas, and elapsed time per plan node
    /// (pre-order ids, root = 0). The rows and session totals are
    /// identical to the uninstrumented path. Recorded into the attached
    /// observability handle, if any.
    pub fn execute_instrumented(&self) -> Result<(QueryOutput, PlanMetrics)> {
        self.execute_instrumented_inner(None)
    }

    /// [`PreparedQuery::execute_instrumented`] with the timeline
    /// profiler attached: additionally returns the merged
    /// [`ExecutionProfile`] — per-lane operator spans, spill/segment
    /// instants, and per-worker exchange lanes, merged deterministically
    /// by (lane, seq). Profiling only observes: rows, [`IoStats`], and
    /// the [`PlanMetrics`] rollup are bit-identical to
    /// [`PreparedQuery::execute_instrumented`], and the run is recorded
    /// into the attached observability handle the same way.
    pub fn execute_profiled(&self) -> Result<(QueryOutput, PlanMetrics, ExecutionProfile)> {
        let profiler = Profiler::new();
        let (out, metrics) = self.execute_instrumented_inner(Some(profiler.clone()))?;
        Ok((out, metrics, profiler.finish()))
    }

    fn execute_instrumented_inner(
        &self,
        profiler: Option<Profiler>,
    ) -> Result<(QueryOutput, PlanMetrics)> {
        let before = sortkernel::stats_snapshot();
        let spill_before = sortkernel::spill_stats_snapshot();
        let segment_before = sortkernel::segment_stats_snapshot();
        let mut opts = self.exec_options();
        opts.profiler = profiler;
        let (result, metrics) = execute_plan_instrumented(self.db, &self.graph, &self.plan, &opts)?;
        let out = self.wrap(
            result,
            sortkernel::stats_snapshot().delta_since(before),
            sortkernel::spill_stats_snapshot().delta_since(spill_before),
            sortkernel::segment_stats_snapshot().delta_since(segment_before),
        );
        if let Some(obs) = &self.obs {
            obs.record_execution(
                self.sql.as_deref(),
                out.elapsed,
                out.num_rows() as u64,
                &out.io,
                &out.sort,
                &out.spill,
                &out.segment,
                &self.explain(),
                self.trace.as_ref(),
                Some(&metrics),
            );
            obs.record_workers(&metrics);
        }
        Ok((out, metrics))
    }

    /// Executes through the materializing reference interpreter. Exists
    /// for differential testing and engine comparisons; the rows are
    /// identical to [`PreparedQuery::execute`], the I/O accounting is the
    /// old all-up-front model. Deliberately *not* recorded into the
    /// observability registry: its I/O model would skew the `session.io`
    /// totals that reconcile against the streaming engine.
    pub fn execute_materialized(&self) -> Result<QueryOutput> {
        let result = run_plan_materialized(self.db, &self.graph, &self.plan)?;
        let batches = if result.rows.is_empty() {
            Vec::new()
        } else {
            vec![Batch::from_rows(&result.rows)]
        };
        let rows_cache = OnceLock::new();
        let _ = rows_cache.set(result.rows);
        Ok(QueryOutput {
            batches,
            rows_cache,
            io: result.io,
            planner: self.planner,
            elapsed: result.elapsed,
            // The reference interpreter sorts with its own comparator, not
            // the kernel, so it records no kernel statistics. It ignores
            // the budget (it exists to check rows, not memory), so it
            // never spills — and it full-sorts segmented enforcers, so it
            // never forms groups.
            sort: SortStats::default(),
            spill: SpillStats::default(),
            segment: SegmentStats::default(),
        })
    }

    fn wrap(
        &self,
        result: StreamResult,
        sort: SortStats,
        spill: SpillStats,
        segment: SegmentStats,
    ) -> QueryOutput {
        QueryOutput {
            batches: result.batches,
            rows_cache: OnceLock::new(),
            io: result.io,
            planner: self.planner,
            elapsed: result.elapsed,
            sort,
            spill,
            segment,
        }
    }

    /// The optimizer trace collected while planning this query, when
    /// tracing was on ([`Session::plan_traced`], `EXPLAIN OPTIMIZER`, or
    /// an attached handle with
    /// [`trace_planning`](crate::obs::ObsOptions::trace_planning)).
    pub fn trace(&self) -> Option<&Trace> {
        self.trace.as_ref()
    }

    /// The chosen physical plan.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The rewritten query graph the plan was built from.
    pub fn graph(&self) -> &QueryGraph {
        &self.graph
    }

    /// Planner work counters for this compilation.
    pub fn planner_stats(&self) -> PlannerStats {
        self.planner
    }

    /// Renders the plan with resolved column names.
    pub fn explain(&self) -> String {
        let registry = &self.graph.registry;
        self.plan.explain(&|c| registry.name(c).to_string())
    }

    /// Renders the plan with the order/key/predicate properties the
    /// optimizer tracked for every stream (paper §5.2.1).
    pub fn explain_properties(&self) -> String {
        let registry = &self.graph.registry;
        self.plan
            .explain_properties(&|c| registry.name(c).to_string())
    }

    /// Executes the query and renders the plan tree with each operator's
    /// estimates (`rows`, `cost` — the optimizer's view) annotated with
    /// what actually happened: the estimated rows next to rows and
    /// batches produced with their cardinality Q-error
    /// (`max(est, act) / min(est, act)`, 1.00 = exact), the pages the
    /// operator itself charged (children excluded), the resulting
    /// [`IoStats::weighted_page_cost`] against the estimated self cost,
    /// and time spent. A totals line closes the report; the per-operator
    /// page deltas sum exactly to it.
    pub fn explain_analyze(&self) -> Result<String> {
        let (out, metrics) = self.execute_instrumented()?;
        let registry = &self.graph.registry;
        let mut text =
            self.plan
                .explain_annotated(&|c| registry.name(c).to_string(), &|id, node| {
                    let m = &metrics.ops[id];
                    match metrics.self_io(id) {
                        Some(s) => {
                            let mut note = format!(
                                "est: rows={:.0} | actual: rows={} batches={} | q-err={:.2} | \
                         self pages: seq={} rand={} index={} \
                         (wpc {:.1} vs est {:.1}) | {:.1?}",
                                m.est_rows,
                                m.rows,
                                m.batches,
                                m.rows_q_error(),
                                s.sequential_pages,
                                s.random_pages,
                                s.index_pages,
                                s.weighted_page_cost(),
                                node.self_cost(),
                                metrics.self_elapsed(id),
                            );
                            if let Some(est_groups) = m.est_groups {
                                let _ = write!(
                                    note,
                                    " | groups est={est_groups} act={}",
                                    m.segment_groups
                                );
                            }
                            if s.spill_pages_written + s.spill_pages_read > 0 {
                                let _ = write!(
                                    note,
                                    " | spill: w={} r={}",
                                    s.spill_pages_written, s.spill_pages_read
                                );
                            }
                            if s.pool_hits + s.pool_misses > 0 {
                                let _ = write!(
                                    note,
                                    " | pool: hits={} misses={}",
                                    s.pool_hits, s.pool_misses
                                );
                            }
                            if !m.workers.is_empty() {
                                let _ = write!(note, " | workers:");
                                for (k, w) in m.workers.iter().enumerate() {
                                    let _ = write!(
                                        note,
                                        " p{k} rows={} batches={} ({:.1?})",
                                        w.rows, w.batches, w.elapsed
                                    );
                                }
                            }
                            note
                        }
                        None => "actual: <inconsistent I/O attribution>".to_string(),
                    }
                });
        let _ = write!(
            text,
            "totals: {} | {} rows in {:.1?} | sort: key_bytes={} comparisons={}",
            out.io,
            out.num_rows(),
            out.elapsed,
            out.sort.key_bytes,
            out.sort.comparisons
        );
        if out.spill != SpillStats::default() {
            let _ = write!(
                text,
                " | spill: runs={} merge_passes={}",
                out.spill.runs_formed, out.spill.merge_passes
            );
        }
        if out.segment != SegmentStats::default() {
            let _ = write!(text, " | segmented: groups={}", out.segment.groups_formed);
        }
        text.push('\n');
        Ok(text)
    }

    /// Renders the optimizer's decision trace for this compilation: the
    /// chosen plan, then every span/plan/sort decision the planner made
    /// (pruning losers named with their winners, sort-ahead variants with
    /// the interesting order that motivated them), closed by the
    /// enumeration summary. The trace carries no timestamps and planning
    /// always runs on the calling thread, so the output is byte-identical
    /// across runs and executor thread counts.
    pub fn explain_optimizer(&self) -> String {
        let mut text = String::from("chosen plan:\n");
        text.push_str(&self.explain());
        if !text.ends_with('\n') {
            text.push('\n');
        }
        match &self.trace {
            Some(t) => {
                text.push_str("optimizer trace:\n");
                text.push_str(&t.render());
                text.push_str(&t.summary());
            }
            None => text.push_str("optimizer trace: <not collected; tracing was off>\n"),
        }
        text
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Database {
        let mut cat = fto_catalog::Catalog::new();
        let t = cat
            .create_table(
                "t",
                vec![
                    fto_catalog::ColumnDef::new("k", fto_common::DataType::Int),
                    fto_catalog::ColumnDef::new("v", fto_common::DataType::Int),
                ],
                vec![fto_catalog::KeyDef::primary([0])],
            )
            .unwrap();
        let mut db = Database::new(cat);
        db.load_table(
            t,
            (0..40)
                .map(|i| {
                    vec![fto_common::Value::Int(i), fto_common::Value::Int(i % 4)]
                        .into_boxed_slice()
                })
                .collect(),
        )
        .unwrap();
        db
    }

    #[test]
    fn builder_chain_plans_and_executes() {
        let db = db();
        let out = Session::new(&db)
            .config(OptimizerConfig::default().with_batch_size(8))
            .plan("select k, v from t order by k desc")
            .unwrap()
            .execute()
            .unwrap();
        assert_eq!(out.num_rows(), 40);
        assert_eq!(out.rows()[0][0], fto_common::Value::Int(39));
        assert!(out.io.rows_read >= 40);
    }

    #[test]
    fn retired_execution_switches_are_rejected() {
        let db = db();
        let sql = "select k, v from t order by v";
        let prepared = Session::new(&db).plan(sql).unwrap();
        for (sort_key_codec, row_shim) in [(false, false), (true, true), (false, true)] {
            let mut config = OptimizerConfig::default();
            (config.sort_key_codec, config.row_shim) = (sort_key_codec, row_shim);
            let err = Session::new(&db).config(config).plan(sql).err();
            assert!(
                matches!(err, Some(fto_common::FtoError::Exec(_))),
                "{err:?}"
            );
            let opts = ExecOptions {
                sort_key_codec,
                row_shim,
                ..ExecOptions::default()
            };
            let (graph, plan) = (&prepared.graph, &prepared.plan);
            assert!(execute_plan(&db, graph, plan, &opts).is_err());
            assert!(execute_plan_instrumented(&db, graph, plan, &opts).is_err());
        }
        assert!(execute_plan(
            &db,
            &prepared.graph,
            &prepared.plan,
            &ExecOptions::default()
        )
        .is_ok());
    }

    #[test]
    fn both_engines_agree_through_prepared_query() {
        let db = db();
        let session = Session::new(&db);
        let q = session
            .plan("select v, count(*) as n from t group by v order by v")
            .unwrap();
        let streaming = q.execute().unwrap();
        let materialized = q.execute_materialized().unwrap();
        assert_eq!(streaming.rows(), materialized.rows());
        assert_eq!(streaming.num_rows(), 4);
    }

    #[test]
    fn explain_analyze_annotates_actuals() {
        let db = db();
        let q = Session::new(&db)
            .plan("select k, v from t order by v limit 5")
            .unwrap();
        let text = q.explain_analyze().unwrap();
        assert!(text.contains("actual: rows="), "{text}");
        assert!(text.contains("totals:"), "{text}");
        let (out, metrics) = q.execute_instrumented().unwrap();
        assert!(metrics.validate().is_ok(), "{:?}", metrics.validate());
        assert_eq!(metrics.total_io(), out.io);
        assert_eq!(out.num_rows(), 5);
    }

    #[test]
    fn run_dispatches_statements() {
        let db = db();
        let s = Session::new(&db);
        match s.run("select k from t limit 3").unwrap() {
            StatementOutput::Rows(out) => assert_eq!(out.num_rows(), 3),
            other => panic!("expected rows, got {other:?}"),
        }
        match s.run("explain select k from t order by k").unwrap() {
            StatementOutput::Explain(text) => {
                assert!(text.contains("rows="), "{text}");
                assert!(!text.contains("actual:"), "{text}");
            }
            other => panic!("expected explain text, got {other:?}"),
        }
        match s.run("explain analyze select k from t order by k").unwrap() {
            StatementOutput::Explain(text) => assert!(text.contains("actual:"), "{text}"),
            other => panic!("expected explain text, got {other:?}"),
        }
        match s
            .run("explain optimizer select k from t order by k")
            .unwrap()
        {
            StatementOutput::Explain(text) => {
                assert!(text.contains("chosen plan:"), "{text}");
                assert!(text.contains("optimizer trace:"), "{text}");
                assert!(text.contains("summary:"), "{text}");
            }
            other => panic!("expected explain text, got {other:?}"),
        }
    }

    #[test]
    fn observed_session_records_and_reconciles() {
        let db = db();
        let obs = Observability::default();
        let s = Session::new(&db).observe(obs.clone());
        let out = s.execute("select k, v from t order by v limit 7").unwrap();
        let snapshot = obs.metrics_snapshot();
        assert!(snapshot.contains("counter session.queries 1"), "{snapshot}");
        assert!(
            snapshot.contains(&format!("counter session.rows {}", out.num_rows())),
            "{snapshot}"
        );
        assert!(
            snapshot.contains(&format!(
                "counter session.io.rows_read {}",
                out.io.rows_read
            )),
            "{snapshot}"
        );
        assert!(
            snapshot.contains("histogram query.latency_us"),
            "{snapshot}"
        );
        assert!(
            s.last_optimizer_trace().is_some(),
            "trace_planning default should capture a trace"
        );
    }

    #[test]
    fn explain_names_columns() {
        let db = db();
        let q = Session::new(&db)
            .plan("select k from t order by k")
            .unwrap();
        let text = q.explain();
        assert!(text.contains('k'), "{text}");
        let props = q.explain_properties();
        assert!(props.contains("order") || props.contains("keys"), "{props}");
    }
}
