//! Per-layer metrics: the traced executions of one run, summed and
//! turned into per-query means by layer.
//!
//! Times come from the spans around each layer's entry point, so the
//! phases add up to the traced latency. Counts come from the engine's
//! own telemetry: `PlannerStats`, `IoStats`, the sort kernel's
//! `SortStats` / `SpillStats` / `SegmentStats`, and the per-operator
//! `PlanMetrics` of the instrumented executor.

use crate::report::Metric;
use crate::trace::{Phase, TracedQuery};
use fto_planner::PlannerStats;
use fto_storage::IoStats;
use std::time::Duration;

/// Operator kinds reported by `exec.self_us.<kind>`: `Plan::op_name`
/// with `-` and `(` turned into `_` and `)` dropped. A kind the engine
/// adds later lands in `exec.self_us.other` until it is listed here.
pub const OP_KINDS: [&str; 18] = [
    "table_scan",
    "index_scan",
    "filter",
    "project",
    "sort",
    "segmented_sort",
    "top_n",
    "limit",
    "hash_join",
    "merge_join",
    "index_nested_loop_join",
    "nested_loop_join",
    "left_outer_join",
    "group_by_hash",
    "group_by_stream",
    "distinct_hash",
    "distinct_stream",
    "union_all",
];

/// `Plan::op_name` as a metric-name segment.
fn sanitize(op_name: &str) -> String {
    op_name.replace(['-', '('], "_").replace(')', "")
}

/// Sums over the traced executions of one run.
#[derive(Default)]
pub struct LayerTotals {
    queries: u64,
    phases: [Duration; Phase::COUNT],
    total: Duration,
    planner: PlannerStats,
    io: IoStats,
    rows_out: u64,
    key_bytes: u64,
    comparisons: u64,
    groups_formed: u64,
    runs_formed: u64,
    merge_passes: u64,
    /// Self time per entry of [`OP_KINDS`], then `other`.
    self_time: [Duration; OP_KINDS.len() + 1],
    /// Σ (max ÷ mean worker busy time) over exchanged operators.
    skew_sum: f64,
    exchanged_ops: u64,
}

impl LayerTotals {
    /// Adds one traced execution.
    pub fn add(&mut self, q: &TracedQuery) {
        self.queries += 1;
        for (sum, t) in self.phases.iter_mut().zip(q.phases) {
            *sum += t;
        }
        self.total += q.total;
        let p = &mut self.planner;
        p.joins_considered += q.planner.joins_considered;
        p.plans_generated += q.planner.plans_generated;
        p.plans_pruned += q.planner.plans_pruned;
        p.sorts_added += q.planner.sorts_added;
        p.sorts_avoided += q.planner.sorts_avoided;
        p.partial_sorts += q.planner.partial_sorts;
        self.io.merge(&q.io);
        self.rows_out += q.batches.iter().map(|b| b.len() as u64).sum::<u64>();
        self.key_bytes += q.sort.key_bytes;
        self.comparisons += q.sort.comparisons;
        self.groups_formed += q.segment.groups_formed;
        self.runs_formed += q.spill.runs_formed;
        self.merge_passes += q.spill.merge_passes;
        for (id, op) in q.metrics.ops.iter().enumerate() {
            let kind = sanitize(&op.name);
            let slot = OP_KINDS
                .iter()
                .position(|k| *k == kind)
                .unwrap_or(OP_KINDS.len());
            self.self_time[slot] += q.metrics.self_elapsed(id);
            if op.workers.len() > 1 {
                let busy: Vec<f64> = op.workers.iter().map(|w| w.elapsed.as_secs_f64()).collect();
                let mean = busy.iter().sum::<f64>() / busy.len() as f64;
                if mean > 0.0 {
                    let max = busy.iter().copied().fold(0.0, f64::max);
                    self.skew_sum += max / mean;
                    self.exchanged_ops += 1;
                }
            }
        }
    }

    /// Mean traced latency, SQL text in to last row out.
    pub fn mean_total(&self) -> Duration {
        self.total / self.queries.max(1) as u32
    }

    /// The per-layer metrics, as per-query means.
    pub fn metrics(&self) -> Vec<Metric> {
        let n = self.queries.max(1) as f64;
        let us = |d: Duration| d.as_secs_f64() * 1e6 / n;
        let per_query = |c: u64| c as f64 / n;
        let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
        let ph = |p: Phase| self.phases[p as usize];
        let compile = ph(Phase::Parse)
            + ph(Phase::Bind)
            + ph(Phase::Rewrite)
            + ph(Phase::OrderScan)
            + ph(Phase::Enumerate);
        let p = &self.planner;
        let io = &self.io;
        let mut m = vec![
            Metric::new("sql.parse_us", us(ph(Phase::Parse)), "us"),
            Metric::new("sql.bind_us", us(ph(Phase::Bind)), "us"),
            Metric::new("qgm.rewrite_us", us(ph(Phase::Rewrite)), "us"),
            Metric::new("qgm.order_scan_us", us(ph(Phase::OrderScan)), "us"),
            Metric::new("planner.enumerate_us", us(ph(Phase::Enumerate)), "us"),
            Metric::new(
                "planner.compile_share",
                ratio(
                    compile.as_secs_f64(),
                    (compile + ph(Phase::Execute)).as_secs_f64(),
                ),
                "ratio",
            ),
            Metric::new(
                "planner.joins_considered",
                per_query(p.joins_considered),
                "count",
            ),
            Metric::new(
                "planner.plans_generated",
                per_query(p.plans_generated),
                "count",
            ),
            Metric::new("planner.plans_pruned", per_query(p.plans_pruned), "count"),
            Metric::new("planner.sorts_added", per_query(p.sorts_added), "count"),
            Metric::new("planner.sorts_avoided", per_query(p.sorts_avoided), "count"),
            Metric::new("planner.partial_sorts", per_query(p.partial_sorts), "count"),
            Metric::new("exec.execute_us", us(ph(Phase::Execute)), "us"),
        ];
        for (kind, t) in OP_KINDS.iter().chain(&["other"]).zip(self.self_time) {
            m.push(Metric::new(&format!("exec.self_us.{kind}"), us(t), "us"));
        }
        m.extend([
            Metric::new("exec.sort.key_bytes", per_query(self.key_bytes), "bytes"),
            Metric::new(
                "exec.sort.comparisons",
                per_query(self.comparisons),
                "count",
            ),
            Metric::new(
                "exec.segment.groups_formed",
                per_query(self.groups_formed),
                "count",
            ),
            Metric::new(
                "exec.spill.runs_formed",
                per_query(self.runs_formed),
                "count",
            ),
            Metric::new(
                "exec.spill.merge_passes",
                per_query(self.merge_passes),
                "count",
            ),
            Metric::new(
                "exec.worker_skew",
                ratio(self.skew_sum, self.exchanged_ops as f64),
                "ratio",
            ),
            Metric::new("storage.seq_pages", per_query(io.sequential_pages), "pages"),
            Metric::new("storage.random_pages", per_query(io.random_pages), "pages"),
            Metric::new("storage.index_pages", per_query(io.index_pages), "pages"),
            Metric::new("storage.rows_read", per_query(io.rows_read), "rows"),
            Metric::new(
                "storage.rows_read_per_row_out",
                ratio(io.rows_read as f64, self.rows_out as f64),
                "ratio",
            ),
            Metric::new(
                "storage.spill_pages_written",
                per_query(io.spill_pages_written),
                "pages",
            ),
            Metric::new(
                "storage.spill_pages_read",
                per_query(io.spill_pages_read),
                "pages",
            ),
            Metric::new(
                "storage.pool_hit_rate",
                ratio(io.pool_hits as f64, (io.pool_hits + io.pool_misses) as f64),
                "ratio",
            ),
        ]);
        m
    }

    /// The counts that must repeat exactly when the same queries run
    /// again at P=1: planner work, storage I/O, sort-kernel work and
    /// simulated pages (time-free by construction).
    pub fn counts_signature(&self) -> String {
        format!(
            "planner={:?} io={:?} sort.key_bytes={} sort.comparisons={} pages={}",
            self.planner,
            self.io,
            self.key_bytes,
            self.comparisons,
            self.io.weighted_page_cost()
        )
    }
}
