//! The execution engine: a streaming, batched (Volcano-style) executor
//! for [`fto_planner::PlanNode`] trees against an
//! [`fto_storage::Database`], plus the [`Session`] API that wraps the
//! whole compile-and-execute pipeline.
//!
//! # Architecture
//!
//! * [`stream`] — the default engine. Plans lower to a tree of
//!   [`Operator`]s (`open` / `next_batch` / `close`); data flows upward
//!   in columnar [`Batch`]es (typed column vectors with validity
//!   bitmaps, [`fto_common::column`]) of at most `batch_size` rows.
//!   Filters refine selection vectors with typed kernels, projections
//!   share untouched columns by `Arc` clone, and sorts/group-bys encode
//!   their keys column-at-a-time. Scans charge simulated page I/O
//!   incrementally as batches are pulled, so early-terminating queries
//!   (LIMIT, Top-N) pay only for the pages behind the rows they actually
//!   produce. The only general pipeline breaker is the in-memory sort;
//!   hash group-by and Top-N are inherently blocking, and joins
//!   materialize only their build side.
//! * [`sortkernel`] — the executor's sort kernel (stable sorts, Top-N
//!   selection, order-preserving K-way merge of sorted runs), used by the
//!   streaming operators, the external sort, and the exchange layer. It
//!   decorates rows with normalized binary sort keys
//!   (`fto_common::sortkey`) and sorts/merges by `memcmp`, with an MSB
//!   radix path for fixed-width keys. Its stability/tie-order contract
//!   is what makes parallel merges deterministic.
//! * [`parallel`] — the exchange layer. At parallel degree `p > 1`,
//!   lowering fans partitionable pipeline segments out over `p`
//!   `std::thread` workers: `Gather` concatenates partition outputs in
//!   partition order, `MergeExchange` sorts per-partition runs and
//!   K-way-merges them order-preservingly, and `Repartition` deals a
//!   serial stream round-robin to parallel bucket sorts. Results are
//!   bit-identical to serial execution at every degree.
//! * [`interp`] — the original fully materializing interpreter, kept as
//!   the reference engine. It sorts with its own `Value` comparator, not
//!   the kernel. The differential test suite runs every query through
//!   both engines and requires identical rows in identical order.
//! * [`session`] — [`Session`] / [`PreparedQuery`] / [`QueryOutput`]:
//!   `Session::new(&db).config(cfg).plan(sql)?.execute()?`.
//! * [`metrics`] — per-operator observability. Executing through
//!   [`execute_plan_instrumented`] (or
//!   `PreparedQuery::execute_instrumented` / `explain_analyze`) records
//!   rows, batches, I/O, and time per plan node into a [`PlanMetrics`],
//!   with per-operator I/O deltas that sum exactly to the session totals.
//! * [`obs`] — session-level observability. An [`Observability`] handle
//!   attached via [`Session::observe`](session::Session::observe)
//!   aggregates every query into an [`fto_obs::Registry`] (counters,
//!   latency/rows/pages histograms), keeps a slow-query log, and holds
//!   the last optimizer decision trace (`EXPLAIN OPTIMIZER`).
//!
//! Entry points: [`Session`] for SQL, [`execute_plan`] for an
//! already-planned query, [`compile_pipeline`] to drive batches by hand.

#![deny(missing_docs)]

pub(crate) mod extsort;
pub mod interp;
pub mod metrics;
pub mod obs;
pub mod parallel;
pub mod session;
pub mod sortkernel;
pub mod stream;

pub use fto_obs::{ExecutionProfile, Profiler};
pub use interp::{run_plan_materialized, QueryResult};
pub use metrics::{q_error, OpMetrics, PlanMetrics, WorkerOpMetrics};
pub use obs::{ObsOptions, Observability};
pub use session::{PreparedQuery, QueryOutput, Session, StatementOutput};
pub use sortkernel::{SegmentStats, SortStats, SpillStats};
pub use stream::{
    compile_pipeline, execute_plan, execute_plan_instrumented, Batch, ExecContext, ExecOptions,
    Operator, StreamResult,
};

/// Executes a plan to completion through the streaming executor with the
/// default batch size.
///
/// Retained for source compatibility with the materializing engine's old
/// entry point; new code should use [`Session`] or [`execute_plan`].
#[deprecated(note = "use Session::plan(..)?.execute() or execute_plan()")]
pub fn run_plan(
    db: &fto_storage::Database,
    graph: &fto_qgm::QueryGraph,
    plan: &fto_planner::Plan,
) -> fto_common::Result<StreamResult> {
    execute_plan(db, graph, plan, &ExecOptions::default())
}

/// Convenience re-exports for the common execution workflow.
pub mod prelude {
    pub use crate::{
        execute_plan, ExecOptions, ObsOptions, Observability, PlanMetrics, PreparedQuery,
        QueryOutput, QueryResult, Session, StatementOutput,
    };
    pub use fto_planner::{OptimizerConfig, PlannerStats};
    pub use fto_storage::{Database, IoStats};
}
