//! The traced run's instrument: the pipeline `Session::plan` runs,
//! driven by hand through each layer's public entry point, with a span
//! around every call.
//!
//! Spans live in memory ([`Tracer`]) and are written out once, when the
//! run ends. Every span has a name, a start and end (relative to the
//! tracer's creation), a parent, and the id of the query it belongs to.
//! One query's spans are a root `query` span with one child per call.

use fto_common::Result;
use fto_exec::sortkernel::{
    segment_stats_snapshot, spill_stats_snapshot, stats_snapshot, SegmentStats, SortStats,
    SpillStats,
};
use fto_exec::{execute_plan_instrumented, Batch, ExecOptions, PlanMetrics};
use fto_planner::{OptimizerConfig, Plan, Planner, PlannerStats};
use fto_qgm::{rewrite, OrderScan, QueryGraph};
use fto_sql::{bind, parse_query};
use fto_storage::{Database, IoStats};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The compile and execute phases a traced query is split into, in
/// pipeline order. `Rewrite` covers two calls (predicate pushdown and
/// view merging), each with its own span.
#[derive(Clone, Copy, Debug)]
pub enum Phase {
    /// `fto_sql::parse_query`.
    Parse,
    /// `fto_sql::bind`.
    Bind,
    /// `fto_qgm::rewrite::{push_down_predicates, merge_views}`.
    Rewrite,
    /// `fto_qgm::OrderScan::run`.
    OrderScan,
    /// `Planner::new` + `fto_planner::Planner::plan_query`.
    Enumerate,
    /// `fto_exec::execute_plan_instrumented`.
    Execute,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 6;
}

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// The query this span belongs to.
    pub query: u64,
    /// The span this one was caused by (`None` for a query's root).
    pub parent: Option<usize>,
    /// The entry point called.
    pub name: &'static str,
    /// Start, relative to the tracer's creation.
    pub start: Duration,
    /// End, relative to the tracer's creation.
    pub end: Duration,
}

/// A query compiled by hand, phase by phase.
pub struct Compiled {
    /// The rewritten query graph.
    pub graph: QueryGraph,
    /// The chosen plan.
    pub plan: Plan,
    /// The planner's work counters.
    pub planner: PlannerStats,
}

impl Compiled {
    /// The plan rendered as `PreparedQuery::explain` renders it.
    pub fn explain(&self) -> String {
        self.plan
            .explain(&|c| self.graph.registry.name(c).to_string())
    }
}

/// Everything one traced execution produced.
pub struct TracedQuery {
    /// Time per [`Phase`], indexed by `Phase as usize`.
    pub phases: [Duration; Phase::COUNT],
    /// The root span's duration: SQL text in to last row out.
    pub total: Duration,
    /// The output batches.
    pub batches: Vec<Batch>,
    /// The planner's work counters.
    pub planner: PlannerStats,
    /// Simulated I/O of the execution.
    pub io: IoStats,
    /// Sort-kernel counters of the execution.
    pub sort: SortStats,
    /// Spill counters of the execution.
    pub spill: SpillStats,
    /// Segmented-sort counters of the execution.
    pub segment: SegmentStats,
    /// Per-operator metrics of the execution.
    pub metrics: PlanMetrics,
}

/// An in-memory span collector.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    next_query: u64,
}

impl Tracer {
    /// A collector whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            next_query: 0,
        }
    }

    /// Runs `f` inside a span and returns its result and duration.
    fn span<T>(
        &mut self,
        query: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        self.spans.push(Span {
            query,
            parent,
            name,
            start,
            end,
        });
        (out, end - start)
    }

    /// The spans recorded so far, in completion order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines: `{"id", "query", "parent", "name",
    /// "start_us", "end_us"}`, where `id` is the span's index.
    pub fn to_json_lines(&self) -> String {
        let mut text = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\": {id}, \"query\": {}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                s.query,
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.end.as_secs_f64() * 1e6
            );
        }
        text
    }

    /// Opens a root span for a new query and returns its query id and
    /// span index. The root's end is fixed by [`Tracer::close_root`].
    fn open_root(&mut self) -> (u64, usize) {
        let query = self.next_query;
        self.next_query += 1;
        let now = self.origin.elapsed();
        self.spans.push(Span {
            query,
            parent: None,
            name: "query",
            start: now,
            end: now,
        });
        (query, self.spans.len() - 1)
    }

    fn close_root(&mut self, root: usize) -> Duration {
        let span = &mut self.spans[root];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    /// Compiles `sql` through the same calls, in the same order, as
    /// `Session::plan`, recording a span per call under `root`.
    fn compile_phases(
        &mut self,
        query: u64,
        root: usize,
        db: &Database,
        config: &OptimizerConfig,
        sql: &str,
        phases: &mut [Duration; Phase::COUNT],
    ) -> Result<Compiled> {
        let catalog = db.catalog();
        let parent = Some(root);
        let (ast, t) = self.span(query, parent, "fto_sql::parse_query", || parse_query(sql));
        phases[Phase::Parse as usize] = t;
        let ast = ast?;
        let (graph, t) = self.span(query, parent, "fto_sql::bind", || bind(&ast, catalog));
        phases[Phase::Bind as usize] = t;
        let mut graph = graph?;
        let (_, t1) = self.span(
            query,
            parent,
            "fto_qgm::rewrite::push_down_predicates",
            || rewrite::push_down_predicates(&mut graph),
        );
        let (_, t2) = self.span(query, parent, "fto_qgm::rewrite::merge_views", || {
            rewrite::merge_views(&mut graph)
        });
        phases[Phase::Rewrite as usize] = t1 + t2;
        let (_, t) = self.span(query, parent, "fto_qgm::OrderScan::run", || {
            OrderScan::run(&mut graph, catalog)
        });
        phases[Phase::OrderScan as usize] = t;
        let ((plan, planner), t) =
            self.span(query, parent, "fto_planner::Planner::plan_query", || {
                let mut planner = Planner::new(&graph, catalog, config.clone());
                (planner.plan_query(), planner.stats)
            });
        phases[Phase::Enumerate as usize] = t;
        Ok(Compiled {
            plan: plan?,
            graph,
            planner,
        })
    }

    /// Compiles `sql` by hand under a root span (no execution): what
    /// the phase-equivalence check compares with `Session::plan`.
    pub fn compile(
        &mut self,
        db: &Database,
        config: &OptimizerConfig,
        sql: &str,
    ) -> Result<Compiled> {
        let (query, root) = self.open_root();
        let compiled = self.compile_phases(
            query,
            root,
            db,
            config,
            sql,
            &mut [Duration::ZERO; Phase::COUNT],
        );
        self.close_root(root);
        compiled
    }

    /// Compiles and executes `sql` by hand, SQL text in to last row out,
    /// with a span around each layer's entry point.
    pub fn run(
        &mut self,
        db: &Database,
        config: &OptimizerConfig,
        sql: &str,
    ) -> Result<TracedQuery> {
        let (query, root) = self.open_root();
        let mut phases = [Duration::ZERO; Phase::COUNT];
        let result = self
            .compile_phases(query, root, db, config, sql, &mut phases)
            .and_then(|c| {
                let opts = ExecOptions {
                    batch_size: config.batch_size,
                    threads: config.threads,
                    sort_key_codec: config.sort_key_codec,
                    memory_budget: config.memory_budget,
                    row_shim: config.row_shim,
                    ..ExecOptions::default()
                };
                let sort = stats_snapshot();
                let spill = spill_stats_snapshot();
                let segment = segment_stats_snapshot();
                let (out, t) = self.span(query, Some(root), "fto_exec::execute_plan", || {
                    execute_plan_instrumented(db, &c.graph, &c.plan, &opts)
                });
                phases[Phase::Execute as usize] = t;
                let (out, metrics) = out?;
                Ok((c.planner, out, metrics, sort, spill, segment))
            });
        let total = self.close_root(root);
        let (planner, out, metrics, sort, spill, segment) = result?;
        Ok(TracedQuery {
            phases,
            total,
            batches: out.batches,
            planner,
            io: out.io,
            sort: stats_snapshot().delta_since(sort),
            spill: spill_stats_snapshot().delta_since(spill),
            segment: segment_stats_snapshot().delta_since(segment),
            metrics,
        })
    }
}
