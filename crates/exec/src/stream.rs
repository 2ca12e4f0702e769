//! The streaming, batched (Volcano-style) executor — columnar batches.
//!
//! Plans are lowered to a tree of [`Operator`]s. Each operator exposes
//! `open` / `next_batch` / `close` and data flows upward in columnar
//! [`Batch`]es ([`fto_common::column`]) of at most
//! [`ExecContext::batch_size`] rows (default 1024). Scans pull through
//! the batched cursors in `fto_storage::scan`, so simulated page I/O is
//! charged as pages are actually touched — a `LIMIT 10` over a
//! million-row table pays for the handful of pages behind the ten rows it
//! returns, not the whole heap.
//!
//! Hot operators run columnar: filters refine a selection vector with
//! typed kernels and gather survivors (never materializing rows),
//! projections of bare column references are `Arc` clones, joins,
//! group-bys and distinct key on byte-encoded columns and emit through
//! gathers, and sorts encode normalized keys straight from the column
//! vectors (they still buffer and emit rows). Operators with inherently
//! row-wise logic (segmented-sort absorb, top-n, the nested-loop joins)
//! materialize rows through `Batch::row`.
//!
//! Pipeline breakers: [`PlanNode::Sort`], [`PlanNode::TopN`], and
//! [`PlanNode::HashGroupBy`] must consume their whole input before
//! producing anything and drain it at `open`. Join operators materialize
//! only their *inner* (build) side; the outer side streams. Everything
//! else — filter, project, order-based group-by / distinct, merge join,
//! limit, union — is fully streaming.
//!
//! The executor is row-for-row equivalent to the materializing reference
//! interpreter in [`crate::interp`] (enforced by the differential test
//! suite), including output order: streaming operators reproduce the
//! reference engine's exact emission order, not merely the same bag of
//! rows.

use crate::extsort::{FinishedSort, RunFormer, SpilledSort};
use crate::interp::{concat, eval_preds, positions};
use crate::metrics::{OpMetrics, PlanMetrics};
use crate::parallel::{
    GatherOp, MergeExchangeOp, PartitionSpec, RepartitionSortOp, TopNExchangeOp,
};
use crate::sortkernel::{self, resolve_keys, SortKeys};
use fto_common::column::{batch_row_bytes, encode_batch_keys_arena, Column};
use fto_common::{row_bytes, ColId, Direction, FtoError, IndexId, Result, Row, TableId, Value};
use fto_expr::{agg::Accumulator, vector, AggCall, Expr, PredId, RowLayout};
use fto_obs::profile;
use fto_planner::{Plan, PlanNode, ScanRange};
use fto_qgm::QueryGraph;
use fto_storage::{
    spill, BufferPool, Database, HeapScanState, IndexScanState, IoStats, PageCursor, SpillCursor,
    SpillFile,
};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// The columnar batch flowing between operators. Operators never return
/// an empty batch: exhaustion is signalled by `None` from
/// [`Operator::next_batch`].
pub use fto_common::column::Batch;

/// Result of a streaming execution: the produced batches plus I/O and
/// timing. The row-based reference engine keeps its own
/// [`crate::interp::QueryResult`]; the differential suites hold the two
/// bit-identical.
#[derive(Debug)]
pub struct StreamResult {
    /// Output batches in emission order (none of them empty).
    pub batches: Vec<Batch>,
    /// Simulated I/O charged during execution.
    pub io: IoStats,
    /// Wall-clock execution time.
    pub elapsed: Duration,
}

impl StreamResult {
    /// Total output row count (no materialization).
    pub fn num_rows(&self) -> usize {
        self.batches.iter().map(Batch::len).sum()
    }

    /// Materializes the output as rows, in emission order.
    pub fn rows(&self) -> Vec<Row> {
        let mut out = Vec::with_capacity(self.num_rows());
        for b in &self.batches {
            b.append_rows_to(&mut out);
        }
        out
    }
}

/// Execution-wide state passed to every operator call.
pub struct ExecContext<'a> {
    /// The database supplying heaps and indexes.
    pub db: &'a Database,
    /// The query graph (predicate definitions live here).
    pub graph: &'a QueryGraph,
    /// Maximum rows per batch (always ≥ 1).
    pub batch_size: usize,
    /// Degree of parallelism this execution was lowered with (always ≥ 1;
    /// worker-side contexts are always 1 so pipelines never nest
    /// exchanges).
    pub threads: usize,
    /// Per-query memory budget in bytes for pipeline breakers, or `None`
    /// for unbounded in-memory execution. When set, sort and Top-N bound
    /// their buffered working sets (spilling sorted runs), hash group-by
    /// spills overflow partitions, and the hash-join build side spills
    /// rows past the budget — all bit-identical to unbounded execution.
    pub memory_budget: Option<usize>,
    /// The bounded buffer pool heap-page touches route through when a
    /// budget is set (`budget / PAGE_SIZE` frames, clock eviction);
    /// `None` leaves page charging exactly as before. `RefCell` because
    /// operators share the context immutably; each context (coordinator
    /// or per-worker, which gets `budget / P`) owns a private pool used
    /// only by its own thread, and borrows are taken only around leaf
    /// page touches, never across child calls.
    pub pool: Option<RefCell<BufferPool>>,
    /// Timeline profiler for this execution, or `None` (the default).
    /// Event *emission* is thread-local (see [`fto_obs::profile`]); this
    /// handle exists so exchange coordinators can allocate and install
    /// per-worker lanes deterministically before spawning. Profiling
    /// only observes: rows, [`IoStats`], and metric rollups are
    /// bit-identical with or without it.
    pub profiler: Option<fto_obs::Profiler>,
}

impl<'a> ExecContext<'a> {
    /// The single construction site for execution contexts: clamps
    /// `batch_size` and `threads` to at least 1 in one place, so the
    /// serial, instrumented, and per-worker contexts cannot diverge on
    /// the clamping rule.
    ///
    /// A memory budget composes with parallelism: the coordinator's
    /// pipeline keeps the full budget (and its buffer pool), while each
    /// exchange worker rebuilds its context with `budget / P` (at least
    /// one byte) and a private pool — see
    /// [`crate::parallel`]. Workers' spill streams are private and merge
    /// into the session stream in partition order, so the exact-
    /// accounting invariants hold and rows stay bit-identical at every
    /// `(budget, threads)` combination.
    pub fn new(db: &'a Database, graph: &'a QueryGraph, opts: &ExecOptions) -> ExecContext<'a> {
        let memory_budget = opts.memory_budget;
        let threads = opts.threads.max(1);
        ExecContext {
            db,
            graph,
            batch_size: opts.batch_size.max(1),
            threads,
            memory_budget,
            pool: memory_budget.map(|b| RefCell::new(BufferPool::new(b))),
            profiler: opts.profiler.clone(),
        }
    }

    /// Runs `f` with a mutable borrow of the buffer pool (or `None` when
    /// unbounded). Callers must not re-enter child operators inside `f`.
    fn with_pool<R>(&self, f: impl FnOnce(Option<&mut BufferPool>) -> R) -> R {
        match &self.pool {
            Some(pool) => f(Some(&mut pool.borrow_mut())),
            None => f(None),
        }
    }
}

/// A streaming operator in the lowered plan tree.
///
/// Lifecycle: `open` once, `next_batch` until it returns `Ok(None)`,
/// then `close`. Operators own their children and drive them through the
/// same protocol.
pub trait Operator {
    /// Acquires resources and opens children. Pipeline breakers drain
    /// their input here, charging any buffering I/O (e.g. `sort_rows`).
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()>;

    /// Produces the next non-empty batch, or `None` when exhausted.
    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>>;

    /// Releases buffered state. Called once; also safe to call early to
    /// abandon a partially consumed stream.
    fn close(&mut self) {}
}

/// Tuning options for [`execute_plan`].
#[derive(Clone, Debug)]
pub struct ExecOptions {
    /// Rows per batch (clamped to ≥ 1).
    pub batch_size: usize,
    /// Degree of intra-query parallelism (clamped to ≥ 1). With `1`,
    /// lowering inserts no exchange operators and execution is exactly
    /// the classic single-threaded pipeline.
    pub threads: usize,
    /// Retired switch, kept only because the benchmark harness
    /// (`benchmark/src/trace.rs`) still names it. Must stay `true` (the
    /// default): the executor has one sort path, the normalized-key
    /// codec, and [`execute_plan`] returns an error for `false`.
    #[doc(hidden)]
    pub sort_key_codec: bool,
    /// Per-query memory budget in bytes, or `None` (the default) for
    /// unbounded execution. See [`ExecContext::memory_budget`].
    pub memory_budget: Option<usize>,
    /// Timeline profiler to attach, or `None` (the default; zero
    /// overhead beyond one thread-local branch per hook). See
    /// [`ExecContext::profiler`].
    pub profiler: Option<fto_obs::Profiler>,
    /// Retired switch, kept only because the benchmark harness
    /// (`benchmark/src/trace.rs`) still names it. Must stay `false` (the
    /// default): there are no row-at-a-time operators any more, and
    /// [`execute_plan`] returns an error for `true`.
    #[doc(hidden)]
    pub row_shim: bool,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            batch_size: 1024,
            threads: 1,
            sort_key_codec: true,
            memory_budget: None,
            profiler: None,
            row_shim: false,
        }
    }
}

/// Rejects the retired execution switches: a caller that asks for the
/// legacy comparator sort (`sort_key_codec = false`) or the row-at-a-time
/// operators (`row_shim = true`) gets an error instead of silently
/// running the one remaining path. [`crate::Session::plan`] and the
/// `execute_plan*` entry points all check through here.
pub(crate) fn reject_retired_switches(sort_key_codec: bool, row_shim: bool) -> Result<()> {
    if sort_key_codec && !row_shim {
        return Ok(());
    }
    Err(FtoError::Exec(format!(
        "unsupported execution options (sort_key_codec={sort_key_codec}, \
         row_shim={row_shim}): the executor has a single path, the \
         normalized-key codec with columnar operators"
    )))
}

/// Lowers a plan to its streaming operator tree without running it.
///
/// Most callers want [`execute_plan`] (or [`crate::Session`]); this is
/// exposed for drivers that consume batches incrementally.
pub fn compile_pipeline(plan: &Plan) -> Result<Box<dyn Operator>> {
    lower(plan)
}

/// Executes a plan to completion through the streaming executor.
pub fn execute_plan(
    db: &Database,
    graph: &QueryGraph,
    plan: &Plan,
    opts: &ExecOptions,
) -> Result<StreamResult> {
    reject_retired_switches(opts.sort_key_codec, opts.row_shim)?;
    let start = Instant::now();
    let mut io = IoStats::new();
    let cx = ExecContext::new(db, graph, opts);
    let mut root = lower_impl(plan, &mut LowerCx::new(None, cx.threads))?;
    root.open(&cx, &mut io)?;
    let mut batches = Vec::new();
    while let Some(batch) = root.next_batch(&cx, &mut io)? {
        batches.push(batch);
    }
    root.close();
    Ok(StreamResult {
        batches,
        io,
        elapsed: start.elapsed(),
    })
}

/// [`execute_plan`] with per-operator instrumentation: every lowered
/// operator is wrapped so that rows/batches produced, subtree-inclusive
/// [`IoStats`] deltas, and elapsed time are recorded per plan node,
/// returned as a [`PlanMetrics`] alongside the normal result.
///
/// Metric slots are indexed by the plan's pre-order node id (root = 0,
/// children outer/left first), matching
/// [`fto_planner::Plan::explain_annotated`]. The query result is
/// identical to the uninstrumented path — the wrappers only observe.
pub fn execute_plan_instrumented(
    db: &Database,
    graph: &QueryGraph,
    plan: &Plan,
    opts: &ExecOptions,
) -> Result<(StreamResult, PlanMetrics)> {
    reject_retired_switches(opts.sort_key_codec, opts.row_shim)?;
    let start = Instant::now();
    let mut io = IoStats::new();
    let cx = ExecContext::new(db, graph, opts);
    // Lane 0 = the coordinator thread, for the lifetime of this
    // execution. Workers install their own lanes (see crate::parallel).
    let _lane = cx.profiler.as_ref().map(|p| p.install_lane("coordinator"));
    let slots = Arc::new(Mutex::new(Vec::new()));
    let mut root = lower_impl(
        plan,
        &mut LowerCx::new(Some(Arc::clone(&slots)), cx.threads),
    )?;
    root.open(&cx, &mut io)?;
    let mut batches = Vec::new();
    while let Some(batch) = root.next_batch(&cx, &mut io)? {
        batches.push(batch);
    }
    root.close();
    drop(root);
    let ops = Arc::try_unwrap(slots)
        .expect("all operator wrappers dropped")
        .into_inner()
        .expect("metrics mutex poisoned");
    let metrics = PlanMetrics {
        ops,
        children: preorder_children(plan),
    };
    Ok((
        StreamResult {
            batches,
            io,
            elapsed: start.elapsed(),
        },
        metrics,
    ))
}

/// Direct-children ids per plan node under pre-order numbering — the
/// tree shape half of [`PlanMetrics`].
fn preorder_children(plan: &Plan) -> Vec<Vec<usize>> {
    fn walk(p: &Plan, out: &mut Vec<Vec<usize>>) -> usize {
        let id = out.len();
        out.push(Vec::new());
        for c in p.children() {
            let cid = walk(c, out);
            out[id].push(cid);
        }
        id
    }
    let mut out = Vec::new();
    walk(plan, &mut out);
    out
}

// ---------------------------------------------------------------------
// Shared bits
// ---------------------------------------------------------------------

/// Rows produced faster than they are consumed; drained in batch-size
/// chunks.
#[derive(Default)]
struct OutQueue {
    rows: VecDeque<Row>,
}

impl OutQueue {
    fn push(&mut self, row: Row) {
        self.rows.push_back(row);
    }

    fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    fn take(&mut self, n: usize) -> Batch {
        let n = n.min(self.rows.len());
        let rows: Vec<Row> = self.rows.drain(..n).collect();
        Batch::from_rows(&rows)
    }

    fn clear(&mut self) {
        self.rows.clear();
    }
}

/// Output batches produced faster than they are consumed, drained in
/// batch-size chunks — the columnar counterpart of [`OutQueue`].
///
/// `take(n)` emits exactly `min(n, pending)` rows, reproducing
/// [`OutQueue`]'s emission boundaries bit for bit, so instrumented
/// row/batch counts are identical whichever queue an operator uses.
/// Queued batches are stored whole (Arc-shared columns); a take that
/// consumes an entire queued batch at offset zero re-emits it without
/// copying.
#[derive(Default)]
struct BatchQueue {
    parts: VecDeque<Batch>,
    /// Rows of the front batch already taken.
    front: usize,
    len: usize,
}

impl BatchQueue {
    fn push(&mut self, batch: Batch) {
        if !batch.is_empty() {
            self.len += batch.len();
            self.parts.push_back(batch);
        }
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes and returns the next `min(n, pending)` rows as one batch.
    /// `arity` disambiguates the all-consumed case (concat of zero
    /// parts); callers pass their output layout's arity.
    fn take(&mut self, n: usize, arity: usize) -> Batch {
        let n = n.min(self.len);
        let mut picked: Vec<Batch> = Vec::new();
        let mut need = n;
        while need > 0 {
            let avail = self.parts.front().expect("take past queue length").len() - self.front;
            if avail <= need {
                let part = self.parts.pop_front().expect("front checked above");
                picked.push(if self.front == 0 {
                    part
                } else {
                    part.slice(self.front, avail)
                });
                self.front = 0;
                need -= avail;
            } else {
                picked.push(
                    self.parts
                        .front()
                        .expect("front checked above")
                        .slice(self.front, need),
                );
                self.front += need;
                need = 0;
            }
        }
        self.len -= n;
        Batch::concat(arity, &picked)
    }

    fn clear(&mut self) {
        self.parts.clear();
        self.front = 0;
        self.len = 0;
    }
}

pub(crate) fn drain_all(
    child: &mut Box<dyn Operator>,
    cx: &ExecContext<'_>,
    io: &mut IoStats,
) -> Result<Vec<Row>> {
    child.open(cx, io)?;
    let mut rows = Vec::new();
    while let Some(batch) = child.next_batch(cx, io)? {
        batch.append_rows_to(&mut rows);
    }
    child.close();
    Ok(rows)
}

fn key_of(row: &Row, pos: &[usize]) -> Vec<Value> {
    pos.iter().map(|&p| row[p].clone()).collect()
}

// ---------------------------------------------------------------------
// Leaves
// ---------------------------------------------------------------------

struct ScanOp {
    table: TableId,
    /// Which page-aligned partition of the heap this cursor walks;
    /// `(0, 1)` outside worker pipelines, i.e. the whole heap.
    part: usize,
    parts: usize,
    state: HeapScanState,
}

impl Operator for ScanOp {
    fn open(&mut self, cx: &ExecContext<'_>, _io: &mut IoStats) -> Result<()> {
        let heap = cx.db.heap(self.table)?;
        self.state = HeapScanState::partition(heap, self.part, self.parts);
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        let heap = cx.db.heap(self.table)?;
        let batch = cx.with_pool(|pool| {
            self.state
                .next_columns_pooled(heap, cx.batch_size, io, pool)
        });
        Ok(if batch.is_empty() { None } else { Some(batch) })
    }
}

struct IndexScanOp {
    index: IndexId,
    table: TableId,
    range: Option<ScanRange>,
    reverse: bool,
    /// Which leaf-aligned partition of the matching entries this cursor
    /// walks, in *emission* order; `(0, 1)` outside worker pipelines.
    part: usize,
    parts: usize,
    state: Option<IndexScanState>,
}

impl Operator for IndexScanOp {
    fn open(&mut self, cx: &ExecContext<'_>, _io: &mut IoStats) -> Result<()> {
        let ix = cx.db.index(self.index)?;
        let (lo, hi) = match &self.range {
            Some(ScanRange { lo, hi }) => (lo.as_ref(), hi.as_ref()),
            None => (None, None),
        };
        // `open_partition` counts partitions in key order; a reverse scan
        // emits high keys first, so emission-order partition `part` is
        // key-order partition `parts - 1 - part`.
        let kpart = if self.reverse {
            self.parts - 1 - self.part
        } else {
            self.part
        };
        self.state = Some(IndexScanState::open_partition(
            ix,
            lo,
            hi,
            self.reverse,
            kpart,
            self.parts,
        ));
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        let ix = cx.db.index(self.index)?;
        let heap = cx.db.heap(self.table)?;
        let state = self
            .state
            .as_mut()
            .ok_or_else(|| FtoError::internal("index scan used before open"))?;
        let batch = cx.with_pool(|pool| {
            state.next_columns_pooled(
                ix,
                heap,
                cx.batch_size,
                io,
                pool,
                fto_storage::index_leaf_tag(self.index),
            )
        });
        Ok(if batch.is_empty() { None } else { Some(batch) })
    }

    fn close(&mut self) {
        self.state = None;
    }
}

// ---------------------------------------------------------------------
// Row-at-a-time streamers
// ---------------------------------------------------------------------

struct FilterOp {
    child: Box<dyn Operator>,
    predicates: Vec<PredId>,
    layout: RowLayout,
}

impl Operator for FilterOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        self.child.open(cx, io)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        loop {
            let Some(batch) = self.child.next_batch(cx, io)? else {
                return Ok(None);
            };
            // Refine a selection vector predicate by predicate — typed
            // column kernels where the predicate shape allows, the row
            // evaluator over still-selected rows otherwise. Sequential
            // refinement preserves the row path's short-circuit AND:
            // rows rejected by an earlier predicate never reach (and so
            // never error in) a later one.
            let mut sel: Vec<u32> = (0..batch.len() as u32).collect();
            for pid in &self.predicates {
                if sel.is_empty() {
                    break;
                }
                vector::filter_selection(cx.graph.predicate(*pid), &batch, &self.layout, &mut sel)?;
            }
            if sel.len() == batch.len() {
                return Ok(Some(batch));
            }
            if !sel.is_empty() {
                return Ok(Some(batch.gather(&sel)));
            }
        }
    }

    fn close(&mut self) {
        self.child.close();
    }
}

struct ProjectOp {
    child: Box<dyn Operator>,
    exprs: Vec<Expr>,
    layout: RowLayout,
}

impl Operator for ProjectOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        self.child.open(cx, io)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        let Some(batch) = self.child.next_batch(cx, io)? else {
            return Ok(None);
        };
        Ok(Some(vector::project_batch(
            &self.exprs,
            &batch,
            &self.layout,
        )?))
    }

    fn close(&mut self) {
        self.child.close();
    }
}

struct LimitOp {
    child: Box<dyn Operator>,
    remaining: u64,
}

impl Operator for LimitOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        self.child.open(cx, io)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        if self.remaining == 0 {
            // Early termination: the child is never pulled again, so the
            // pages behind unproduced rows are never charged.
            self.child.close();
            return Ok(None);
        }
        let Some(mut batch) = self.child.next_batch(cx, io)? else {
            return Ok(None);
        };
        if batch.len() as u64 > self.remaining {
            let keep: Vec<u32> = (0..self.remaining as u32).collect();
            batch = batch.gather(&keep);
        }
        self.remaining -= batch.len() as u64;
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.child.close();
    }
}

/// All of a batch's columns as ascending sort keys — the encoding keys a
/// distinct operator deduplicates whole rows under.
fn all_cols_asc(batch: &Batch) -> SortKeys {
    (0..batch.arity()).map(|p| (p, Direction::Asc)).collect()
}

/// Streaming DISTINCT over sorted input, fully vectorized: rows become
/// memcmp-able byte strings column-at-a-time via the sort-key codec,
/// adjacent duplicates drop on slice inequality, and the survivors
/// gather out columnar — no per-row `Vec<Value>` materialization. The
/// codec canonicalizes exactly like `Value`'s `Eq` (both follow
/// `total_cmp`), so byte equality drops precisely the rows a `Value`
/// comparison would drop.
struct StreamDistinctOp {
    child: Box<dyn Operator>,
    /// Last emitted row's encoded key.
    last_key: Option<Vec<u8>>,
}

impl Operator for StreamDistinctOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        self.last_key = None;
        self.child.open(cx, io)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        let (mut kb, mut ko) = (Vec::new(), Vec::new());
        loop {
            let Some(batch) = self.child.next_batch(cx, io)? else {
                return Ok(None);
            };
            encode_batch_keys_arena(&batch, &all_cols_asc(&batch), &mut kb, &mut ko);
            let mut sel: Vec<u32> = Vec::new();
            let mut last = self.last_key.as_deref();
            for i in 0..batch.len() {
                let key = &kb[ko[i]..ko[i + 1]];
                if last != Some(key) {
                    last = Some(key);
                    sel.push(i as u32);
                }
            }
            if let Some(&i) = sel.last() {
                let i = i as usize;
                self.last_key = Some(kb[ko[i]..ko[i + 1]].to_vec());
            }
            if sel.len() == batch.len() {
                return Ok(Some(batch));
            }
            if !sel.is_empty() {
                return Ok(Some(batch.gather(&sel)));
            }
        }
    }

    fn close(&mut self) {
        self.last_key = None;
        self.child.close();
    }
}

/// Hash DISTINCT, vectorized the same way as [`StreamDistinctOp`]: the
/// seen-set is keyed on encoded bytes and survivors gather out columnar.
struct HashDistinctOp {
    child: Box<dyn Operator>,
    /// Encoded keys seen so far (byte equality ≡ `Value` equality).
    seen_keys: HashSet<Vec<u8>>,
}

impl Operator for HashDistinctOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        self.seen_keys.clear();
        self.child.open(cx, io)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        let (mut kb, mut ko) = (Vec::new(), Vec::new());
        loop {
            let Some(batch) = self.child.next_batch(cx, io)? else {
                return Ok(None);
            };
            encode_batch_keys_arena(&batch, &all_cols_asc(&batch), &mut kb, &mut ko);
            let mut sel: Vec<u32> = Vec::new();
            for i in 0..batch.len() {
                let key = &kb[ko[i]..ko[i + 1]];
                if !self.seen_keys.contains(key) {
                    self.seen_keys.insert(key.to_vec());
                    sel.push(i as u32);
                }
            }
            if sel.len() == batch.len() {
                return Ok(Some(batch));
            }
            if !sel.is_empty() {
                return Ok(Some(batch.gather(&sel)));
            }
        }
    }

    fn close(&mut self) {
        self.seen_keys.clear();
        self.child.close();
    }
}

struct UnionAllOp {
    children: Vec<Box<dyn Operator>>,
    current: usize,
    opened: bool,
}

impl Operator for UnionAllOp {
    fn open(&mut self, _cx: &ExecContext<'_>, _io: &mut IoStats) -> Result<()> {
        // Children open lazily, one at a time, as the union advances.
        self.current = 0;
        self.opened = false;
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        while self.current < self.children.len() {
            let child = &mut self.children[self.current];
            if !self.opened {
                child.open(cx, io)?;
                self.opened = true;
            }
            match child.next_batch(cx, io)? {
                Some(batch) => return Ok(Some(batch)),
                None => {
                    child.close();
                    self.current += 1;
                    self.opened = false;
                }
            }
        }
        Ok(None)
    }

    fn close(&mut self) {
        for c in &mut self.children {
            c.close();
        }
    }
}

// ---------------------------------------------------------------------
// Pipeline breakers
// ---------------------------------------------------------------------

struct SortOp {
    child: Box<dyn Operator>,
    keys: SortKeys,
    buf: Vec<Row>,
    pos: usize,
    /// The spilled external sort, when a memory budget forced one; the
    /// final K-way merge streams from here instead of `buf`.
    spilled: Option<SpilledSort>,
}

impl SortOp {
    /// The bounded path: rows feed a [`RunFormer`] that seals and spills
    /// sorted runs as the working set crosses the budget. Run tags are
    /// global input positions, so the merged output — and `sort_rows`,
    /// charged per run — is bit-identical to the unbounded operator at
    /// any budget.
    fn open_bounded(
        &mut self,
        budget: usize,
        cx: &ExecContext<'_>,
        io: &mut IoStats,
    ) -> Result<()> {
        self.child.open(cx, io)?;
        let mut former = RunFormer::new(budget, self.keys.clone());
        let (mut bb, mut bo) = (Vec::new(), Vec::new());
        let mut rows = Vec::new();
        while let Some(batch) = self.child.next_batch(cx, io)? {
            encode_batch_keys_arena(&batch, &self.keys, &mut bb, &mut bo);
            rows.clear();
            batch.append_rows_to(&mut rows);
            for (i, row) in rows.drain(..).enumerate() {
                former.push(row, &bb[bo[i]..bo[i + 1]], io);
            }
        }
        self.child.close();
        match former.finish(io) {
            FinishedSort::InMemory(sorted) => {
                self.buf = sorted;
                self.pos = 0;
            }
            FinishedSort::Spilled(s) => self.spilled = Some(s),
        }
        Ok(())
    }
}

impl Operator for SortOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        if let Some(budget) = cx.memory_budget {
            return self.open_bounded(budget, cx, io);
        }
        // Sort keys are encoded column-at-a-time while the input is still
        // columnar — a tight per-type loop per key column — and the
        // pre-encoded keys are handed to the kernel. Empty keys encode
        // nothing and the kernel leaves the input order as is.
        let encode = !self.keys.is_empty();
        self.child.open(cx, io)?;
        let mut rows = Vec::new();
        // Key arena accumulated across batches: one backing buffer, no
        // per-row allocation during encoding.
        let mut key_bytes: Vec<u8> = Vec::new();
        let mut key_offsets: Vec<usize> = vec![0];
        let (mut bb, mut bo) = (Vec::new(), Vec::new());
        while let Some(batch) = self.child.next_batch(cx, io)? {
            if encode {
                encode_batch_keys_arena(&batch, &self.keys, &mut bb, &mut bo);
                let base = key_bytes.len();
                key_bytes.extend_from_slice(&bb);
                key_offsets.extend(bo[1..].iter().map(|&o| base + o));
            }
            batch.append_rows_to(&mut rows);
        }
        self.child.close();
        io.sort_rows += rows.len() as u64;
        sortkernel::sort_rows_arena(&mut rows, &key_bytes, &key_offsets, &self.keys);
        self.buf = rows;
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        if let Some(spilled) = &mut self.spilled {
            // Stream the final merge: the fully sorted output is never
            // materialized whole, only one batch of rows at a time.
            let mut rows = Vec::with_capacity(cx.batch_size);
            while rows.len() < cx.batch_size {
                match spilled.next_row(io) {
                    Some(row) => rows.push(row),
                    None => break,
                }
            }
            if rows.is_empty() {
                return Ok(None);
            }
            return Ok(Some(Batch::from_rows(&rows)));
        }
        if self.pos >= self.buf.len() {
            return Ok(None);
        }
        let end = (self.pos + cx.batch_size).min(self.buf.len());
        let batch = Batch::from_rows(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.buf = Vec::new();
        self.spilled = None;
    }
}

/// One sealed prefix group awaiting emission from a segmented sort: an
/// in-memory sorted group, or the streaming merge of an oversized group
/// that external-sorted under the memory budget.
enum SegmentEmit {
    Mem(Vec<Row>, usize),
    Spill(SpilledSort),
}

/// Segmented (partial) sort: the input already arrives ordered on the
/// first `prefix_len` sort keys, so rows sharing a prefix value are
/// contiguous and only the residual suffix keys need sorting — one
/// prefix group at a time.
///
/// Unlike [`SortOp`], this is *not* a pipeline breaker: groups are pulled,
/// sorted, and emitted incrementally, so memory stays bounded by the
/// largest group (plus one input batch) and a `LIMIT n` above stops
/// pulling input after the first ⌈n / group⌉ groups. Group boundaries are
/// detected by encoded-prefix byte equality — the codec is injective up
/// to `total_cmp`, so the groups are exactly the runs of equal prefix
/// values. Each group sorts stably on the suffix keys alone (its prefix
/// columns are all equal, so this equals the full-key sort), and
/// concatenating groups in arrival order reproduces the global stable
/// sort bit for bit. Under a memory
/// budget every group feeds a per-group [`RunFormer`], so a single
/// oversized group external-sorts exactly like the bounded [`SortOp`].
struct SegmentedSortOp {
    child: Box<dyn Operator>,
    /// Prefix keys (boundary detection) and suffix keys (per-group sort).
    pkeys: SortKeys,
    skeys: SortKeys,
    /// Current group: rows plus their suffix-key arena.
    grp_rows: Vec<Row>,
    grp_kb: Vec<u8>,
    grp_ko: Vec<usize>,
    /// Current group's prefix identity (its encoded prefix keys).
    lead_enc: Vec<u8>,
    group_started: bool,
    /// Per-group run former (present only under a memory budget).
    former: Option<RunFormer>,
    /// Sealed groups not yet emitted, in arrival order.
    emits: VecDeque<SegmentEmit>,
    input_done: bool,
    /// This node's metric slot, when instrumented: sealed groups count
    /// into [`OpMetrics::segment_groups`] so EXPLAIN ANALYZE can show
    /// the actual group count next to the planner's estimate.
    slot: Option<(usize, Arc<Mutex<Vec<OpMetrics>>>)>,
}

impl SegmentedSortOp {
    fn new(
        child: Box<dyn Operator>,
        keys: SortKeys,
        prefix_len: usize,
        slot: Option<(usize, Arc<Mutex<Vec<OpMetrics>>>)>,
    ) -> SegmentedSortOp {
        let (pkeys, skeys) = {
            let (p, s) = keys.split_at(prefix_len.min(keys.len()));
            (p.to_vec(), s.to_vec())
        };
        SegmentedSortOp {
            child,
            pkeys,
            skeys,
            grp_rows: Vec::new(),
            grp_kb: Vec::new(),
            grp_ko: vec![0],
            lead_enc: Vec::new(),
            group_started: false,
            former: None,
            emits: VecDeque::new(),
            input_done: false,
            slot,
        }
    }

    /// Sorts and queues the current group for emission (no-op when no
    /// group is open). Counts one formed group toward the process-wide
    /// segmented-sort statistics.
    fn seal_group(&mut self, io: &mut IoStats) {
        if !self.group_started {
            return;
        }
        sortkernel::note_segment_groups(1);
        if let Some((id, slots)) = &self.slot {
            slots.lock().expect("metrics mutex poisoned")[*id].segment_groups += 1;
        }
        if let Some(former) = self.former.take() {
            // The former charged `sort_rows` per run itself.
            match former.finish(io) {
                FinishedSort::InMemory(sorted) => self.emits.push_back(SegmentEmit::Mem(sorted, 0)),
                FinishedSort::Spilled(s) => self.emits.push_back(SegmentEmit::Spill(s)),
            }
        } else {
            let mut rows = std::mem::take(&mut self.grp_rows);
            io.sort_rows += rows.len() as u64;
            sortkernel::sort_rows_arena(&mut rows, &self.grp_kb, &self.grp_ko, &self.skeys);
            self.emits.push_back(SegmentEmit::Mem(rows, 0));
        }
        self.grp_kb.clear();
        self.grp_ko.clear();
        self.grp_ko.push(0);
        self.group_started = false;
    }

    /// Absorbs one input batch, sealing groups at every prefix boundary.
    fn absorb(&mut self, batch: &Batch, cx: &ExecContext<'_>, io: &mut IoStats) {
        let (mut pb, mut po) = (Vec::new(), Vec::new());
        let (mut sb, mut so) = (Vec::new(), Vec::new());
        encode_batch_keys_arena(batch, &self.pkeys, &mut pb, &mut po);
        encode_batch_keys_arena(batch, &self.skeys, &mut sb, &mut so);
        for i in 0..batch.len() {
            let row = batch.row(i);
            let pref = &pb[po[i]..po[i + 1]];
            if self.group_started && pref != self.lead_enc.as_slice() {
                self.seal_group(io);
            }
            if !self.group_started {
                self.group_started = true;
                self.lead_enc.clear();
                self.lead_enc.extend_from_slice(pref);
                if let Some(budget) = cx.memory_budget {
                    self.former = Some(RunFormer::new(budget, self.skeys.clone()));
                }
            }
            let skey = &sb[so[i]..so[i + 1]];
            match &mut self.former {
                Some(former) => former.push(row, skey, io),
                None => {
                    self.grp_kb.extend_from_slice(skey);
                    self.grp_ko.push(self.grp_kb.len());
                    self.grp_rows.push(row);
                }
            }
        }
    }
}

impl Operator for SegmentedSortOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        self.grp_rows = Vec::new();
        self.grp_kb = Vec::new();
        self.grp_ko = vec![0];
        self.group_started = false;
        self.former = None;
        self.emits = VecDeque::new();
        self.input_done = false;
        self.child.open(cx, io)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        loop {
            // Drain sealed groups first, in arrival order.
            match self.emits.front_mut() {
                Some(SegmentEmit::Mem(rows, pos)) => {
                    if *pos < rows.len() {
                        let end = (*pos + cx.batch_size).min(rows.len());
                        let batch = Batch::from_rows(&rows[*pos..end]);
                        *pos = end;
                        return Ok(Some(batch));
                    }
                    self.emits.pop_front();
                    continue;
                }
                Some(SegmentEmit::Spill(s)) => {
                    let mut rows = Vec::with_capacity(cx.batch_size);
                    while rows.len() < cx.batch_size {
                        match s.next_row(io) {
                            Some(row) => rows.push(row),
                            None => break,
                        }
                    }
                    if !rows.is_empty() {
                        return Ok(Some(Batch::from_rows(&rows)));
                    }
                    self.emits.pop_front();
                    continue;
                }
                None => {}
            }
            if self.input_done {
                return Ok(None);
            }
            match self.child.next_batch(cx, io)? {
                Some(batch) => self.absorb(&batch, cx, io),
                None => {
                    self.input_done = true;
                    self.child.close();
                    self.seal_group(io);
                }
            }
        }
    }

    fn close(&mut self) {
        self.grp_rows = Vec::new();
        self.grp_kb = Vec::new();
        self.former = None;
        self.emits = VecDeque::new();
        self.child.close();
    }
}

struct TopNOp {
    child: Box<dyn Operator>,
    keys: SortKeys,
    n: u64,
    buf: Vec<Row>,
    pos: usize,
}

impl TopNOp {
    /// The bounded path: candidates carry their global input positions
    /// and the buffer is pruned back to the current top `n` by
    /// `(keys, seq)` whenever it crosses the budget (or `2n` rows,
    /// whichever comes first). A row outside the running top `n` can
    /// never re-enter it, so the survivors — and their order — are
    /// exactly the unbounded operator's stable-sort prefix. Memory stays
    /// under `max(budget, 2n rows)` with no spilling.
    fn open_bounded(
        &mut self,
        budget: usize,
        cx: &ExecContext<'_>,
        io: &mut IoStats,
    ) -> Result<()> {
        let n = self.n as usize;
        self.child.open(cx, io)?;
        let mut pending: Vec<(u64, Row)> = Vec::new();
        let mut bytes = 0usize;
        let mut seq = 0u64;
        while let Some(batch) = self.child.next_batch(cx, io)? {
            for i in 0..batch.len() {
                let row = batch.row(i);
                bytes += row_bytes(&row);
                pending.push((seq, row));
                seq += 1;
                if pending.len() > n && (bytes > budget || pending.len() >= 2 * n.max(1)) {
                    pending = sortkernel::top_n_tagged(std::mem::take(&mut pending), &self.keys, n);
                    bytes = pending.iter().map(|(_, r)| row_bytes(r)).sum();
                }
            }
        }
        self.child.close();
        let top = sortkernel::top_n_tagged(pending, &self.keys, n);
        io.sort_rows += top.len() as u64;
        self.buf = top.into_iter().map(|(_, row)| row).collect();
        self.pos = 0;
        Ok(())
    }
}

impl Operator for TopNOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        if let Some(budget) = cx.memory_budget {
            return self.open_bounded(budget, cx, io);
        }
        let tagged: Vec<(u64, Row)> = drain_all(&mut self.child, cx, io)?
            .into_iter()
            .enumerate()
            .map(|(i, r)| (i as u64, r))
            .collect();
        let top = sortkernel::top_n_run(tagged, &self.keys, self.n as usize).rows;
        io.sort_rows += top.len() as u64;
        self.buf = top;
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, _io: &mut IoStats) -> Result<Option<Batch>> {
        if self.pos >= self.buf.len() {
            return Ok(None);
        }
        let end = (self.pos + cx.batch_size).min(self.buf.len());
        let batch = Batch::from_rows(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.buf = Vec::new();
    }
}

/// Number of key-hash partitions a budgeted hash group-by (or its
/// recursive sub-aggregations) spills overflow rows into.
const GROUP_SPILL_PARTITIONS: usize = 8;

/// Recursion depth past which a partition aggregates fully in memory — a
/// correctness backstop; the per-level salted hash makes reaching it
/// essentially impossible (each level also retires at least one key).
const MAX_GROUP_SPILL_DEPTH: usize = 6;

/// FNV-1a over an encoded grouping key, salted per recursion level so a
/// partition's keys re-split differently when it recurses. Hashing the
/// *encoded* key makes the partitioning codec-independent: the group-by
/// always encodes keys for its hash table, on either comparator path.
fn partition_hash(key: &[u8], salt: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    for &b in key {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The grouping machinery resolved once per execution: key positions,
/// their ascending sort keys (for the codec encoder), and the aggregate
/// argument expressions.
struct GroupEnv {
    gpos: Vec<usize>,
    gkeys: SortKeys,
    args: Vec<Expr>,
}

/// In-flight state of one (sub)aggregation in the bounded hash group-by:
/// the in-memory groups (each remembering the global position of its
/// first row, which fixes its output rank), the byte-keyed index over
/// them, the tracked working-set size, and — once the budget is crossed —
/// the key-hash partitions overflow rows spill into.
#[derive(Default)]
struct GroupState {
    groups: Vec<(Vec<Value>, Vec<Accumulator>, u64)>,
    index: HashMap<Vec<u8>, usize>,
    bytes: usize,
    parts: Vec<SpillFile>,
}

struct HashGroupByOp {
    child: Box<dyn Operator>,
    grouping: Vec<ColId>,
    aggs: Vec<(ColId, AggCall)>,
    layout: RowLayout,
    buf: Vec<Row>,
    pos: usize,
}

impl HashGroupByOp {
    fn env(&self) -> Result<GroupEnv> {
        let gpos: Vec<usize> = self
            .grouping
            .iter()
            .map(|c| {
                self.layout
                    .position(*c)
                    .ok_or_else(|| FtoError::internal("grouping column missing from layout"))
            })
            .collect::<Result<_>>()?;
        Ok(GroupEnv {
            gkeys: gpos.iter().map(|&p| (p, Direction::Asc)).collect(),
            gpos,
            args: self.aggs.iter().map(|(_, c)| c.arg.clone()).collect(),
        })
    }

    /// Absorbs one batch into `state`. Rows of already-admitted keys
    /// aggregate in place (no new memory); a first-seen key is admitted
    /// while the working set fits the budget, and once it no longer does,
    /// new keys' rows spill `[u64 seq][row]` records to the partition
    /// their key hashes to. A key therefore lives entirely in memory or
    /// entirely in one partition — the hash is deterministic — which is
    /// what lets each partition re-aggregate independently.
    #[allow(clippy::too_many_arguments)]
    fn absorb_batch(
        &self,
        state: &mut GroupState,
        batch: &Batch,
        seqs: &[u64],
        env: &GroupEnv,
        budget: usize,
        salt: u64,
        kb: &mut Vec<u8>,
        ko: &mut Vec<usize>,
        io: &mut IoStats,
    ) -> Result<()> {
        encode_batch_keys_arena(batch, &env.gkeys, kb, ko);
        let argcols = vector::eval_agg_args(&env.args, batch, &self.layout)?;
        // Overflow rows collect into per-partition selection vectors and
        // spill once per (batch, partition) as one column-page record:
        // `[u32 nrows][nrows × u64 seq][column pages]`. Per-partition
        // row order is arrival order either way, so replay — and with it
        // the rebuilt aggregation — is unchanged.
        let mut psel: Vec<(Vec<u32>, Vec<u64>)> = Vec::new();
        for i in 0..batch.len() {
            let key = &kb[ko[i]..ko[i + 1]];
            let slot = match state.index.get(key) {
                Some(&slot) => Some(slot),
                None => {
                    let kvals: Vec<Value> =
                        env.gpos.iter().map(|&p| batch.column(p).value(i)).collect();
                    // Estimated resident cost of admitting this group:
                    // its index key, key values, and rough per-
                    // accumulator (64) and hash-entry (48) overheads.
                    let cost = key.len() + row_bytes(&kvals) + 64 * self.aggs.len() + 48;
                    if state.bytes + cost > budget && !state.groups.is_empty() {
                        if psel.is_empty() {
                            psel = (0..GROUP_SPILL_PARTITIONS)
                                .map(|_| (Vec::new(), Vec::new()))
                                .collect();
                        }
                        let p = (partition_hash(key, salt) as usize) % GROUP_SPILL_PARTITIONS;
                        psel[p].0.push(i as u32);
                        psel[p].1.push(seqs[i]);
                        None
                    } else {
                        state.bytes += cost;
                        let accs: Vec<_> = self.aggs.iter().map(|(_, c)| c.accumulator()).collect();
                        state.index.insert(key.to_vec(), state.groups.len());
                        state.groups.push((kvals, accs, seqs[i]));
                        Some(state.groups.len() - 1)
                    }
                }
            };
            if let Some(slot) = slot {
                for (acc, col) in state.groups[slot].1.iter_mut().zip(&argcols) {
                    acc.update_value(col.value(i));
                }
            }
        }
        if !psel.is_empty() {
            if state.parts.is_empty() {
                state.parts = (0..GROUP_SPILL_PARTITIONS)
                    .map(|_| SpillFile::new())
                    .collect();
            }
            let mut payload = Vec::new();
            for (p, (sel, pseqs)) in psel.iter().enumerate() {
                if sel.is_empty() {
                    continue;
                }
                payload.clear();
                payload.extend_from_slice(&(sel.len() as u32).to_le_bytes());
                for &s in pseqs {
                    payload.extend_from_slice(&s.to_le_bytes());
                }
                spill::write_batch(&batch.gather(sel), &mut payload);
                state.parts[p].append_record(&payload, io);
            }
        }
        Ok(())
    }

    /// Finishes a state: in-memory groups emit `(first_seq, output_row)`
    /// pairs, then each non-empty partition streams back through a fresh
    /// sub-aggregation under a salted hash (records re-batch and re-spill
    /// under the same budget, so the read-back stays bounded too).
    #[allow(clippy::too_many_arguments, clippy::only_used_in_recursion)]
    fn drain_state(
        &self,
        state: GroupState,
        env: &GroupEnv,
        budget: usize,
        depth: usize,
        cx: &ExecContext<'_>,
        io: &mut IoStats,
        out: &mut Vec<(u64, Row)>,
    ) -> Result<()> {
        let GroupState { groups, parts, .. } = state;
        for (kvals, accs, first_seq) in groups {
            let mut row = kvals;
            row.extend(accs.iter().map(|a| a.finish()));
            out.push((first_seq, row.into_boxed_slice()));
        }
        let (mut kb, mut ko) = (Vec::new(), Vec::new());
        for file in parts {
            if file.is_empty() {
                continue;
            }
            sortkernel::note_spill_runs(1);
            let sub_budget = if depth + 1 >= MAX_GROUP_SPILL_DEPTH {
                usize::MAX
            } else {
                budget
            };
            let mut sub = GroupState::default();
            let mut cursor = SpillCursor::new(0, file.len());
            let mut seqs: Vec<u64> = Vec::new();
            while let Some(rec) = cursor.read_record(&file, io) {
                let n = u32::from_le_bytes(rec[0..4].try_into().expect("spill record truncated"))
                    as usize;
                let mut pos = 4;
                seqs.clear();
                for _ in 0..n {
                    seqs.push(u64::from_le_bytes(
                        rec[pos..pos + 8]
                            .try_into()
                            .expect("spill record truncated"),
                    ));
                    pos += 8;
                }
                let batch = spill::read_batch(&rec, &mut pos);
                self.absorb_batch(
                    &mut sub,
                    &batch,
                    &seqs,
                    env,
                    sub_budget,
                    depth as u64 + 1,
                    &mut kb,
                    &mut ko,
                    io,
                )?;
            }
            self.drain_state(sub, env, budget, depth + 1, cx, io, out)?;
        }
        Ok(())
    }

    /// The bounded path. Output rows sort by their group's first-seen
    /// global position, which *is* the unbounded operator's first-seen
    /// insertion order — and every row of a key aggregates in arrival
    /// order whether the key stayed in memory or spilled, so accumulator
    /// results (float sums included) are bit-identical too.
    fn open_bounded(
        &mut self,
        budget: usize,
        env: &GroupEnv,
        cx: &ExecContext<'_>,
        io: &mut IoStats,
    ) -> Result<()> {
        let mut state = GroupState::default();
        let (mut kb, mut ko) = (Vec::new(), Vec::new());
        let mut saw_input = false;
        let mut seq = 0u64;
        let mut seqs: Vec<u64> = Vec::new();
        while let Some(batch) = self.child.next_batch(cx, io)? {
            saw_input = true;
            seqs.clear();
            seqs.extend(seq..seq + batch.len() as u64);
            seq += batch.len() as u64;
            self.absorb_batch(
                &mut state, &batch, &seqs, env, budget, 0, &mut kb, &mut ko, io,
            )?;
        }
        self.child.close();
        let mut out: Vec<(u64, Row)> = Vec::new();
        self.drain_state(state, env, budget, 0, cx, io, &mut out)?;
        out.sort_unstable_by_key(|&(s, _)| s);
        if !saw_input && self.grouping.is_empty() {
            // A global aggregate over an empty input still produces one
            // row (COUNT(*) = 0, SUM = NULL).
            let accs: Vec<_> = self.aggs.iter().map(|(_, c)| c.accumulator()).collect();
            let row: Vec<Value> = accs.iter().map(|a| a.finish()).collect();
            out.push((0, row.into_boxed_slice()));
        }
        self.buf = out.into_iter().map(|(_, row)| row).collect();
        self.pos = 0;
        Ok(())
    }
}

impl Operator for HashGroupByOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        // Columnar grouping: per input batch, grouping keys become
        // memcmp-comparable byte strings via the sort-key codec (encoded
        // column-at-a-time) and the hash table is keyed on bytes instead
        // of `Vec<Value>`. The codec is an order-preserving injection up
        // to `Value::total_cmp` equality, which canonicalizes exactly
        // like `Value`'s `Eq`/`Hash` (Int 5 ≡ Double 5.0, one NaN, one
        // zero) — so byte equality groups precisely the rows the row
        // engine groups, and insertion order matches its output order.
        self.child.open(cx, io)?;
        let env = self.env()?;
        if let Some(budget) = cx.memory_budget {
            return self.open_bounded(budget, &env, cx, io);
        }
        let mut groups: Vec<(Vec<Value>, Vec<Accumulator>)> = Vec::new();
        let mut index: HashMap<Vec<u8>, usize> = HashMap::new();
        let mut saw_input = false;
        let (mut key_bytes, mut key_offsets) = (Vec::new(), Vec::new());
        while let Some(batch) = self.child.next_batch(cx, io)? {
            saw_input = true;
            // Keys land in one contiguous arena; only a first-seen group
            // copies its key out (HashMap probes borrow the slice).
            encode_batch_keys_arena(&batch, &env.gkeys, &mut key_bytes, &mut key_offsets);
            let argcols = vector::eval_agg_args(&env.args, &batch, &self.layout)?;
            for i in 0..batch.len() {
                let key = &key_bytes[key_offsets[i]..key_offsets[i + 1]];
                let slot = match index.get(key) {
                    Some(&slot) => slot,
                    None => {
                        let kvals: Vec<Value> =
                            env.gpos.iter().map(|&p| batch.column(p).value(i)).collect();
                        let accs: Vec<_> = self.aggs.iter().map(|(_, c)| c.accumulator()).collect();
                        groups.push((kvals, accs));
                        index.insert(key.to_vec(), groups.len() - 1);
                        groups.len() - 1
                    }
                };
                for (acc, col) in groups[slot].1.iter_mut().zip(&argcols) {
                    acc.update_value(col.value(i));
                }
            }
        }
        self.child.close();
        if !saw_input && self.grouping.is_empty() {
            // A global aggregate over an empty input still produces one
            // row (COUNT(*) = 0, SUM = NULL).
            let accs: Vec<_> = self.aggs.iter().map(|(_, c)| c.accumulator()).collect();
            groups.push((Vec::new(), accs));
        }
        self.buf = groups
            .into_iter()
            .map(|(key, accs)| {
                let mut row = key;
                row.extend(accs.iter().map(|a| a.finish()));
                row.into_boxed_slice()
            })
            .collect();
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, _io: &mut IoStats) -> Result<Option<Batch>> {
        if self.pos >= self.buf.len() {
            return Ok(None);
        }
        let end = (self.pos + cx.batch_size).min(self.buf.len());
        let batch = Batch::from_rows(&self.buf[self.pos..end]);
        self.pos = end;
        Ok(Some(batch))
    }

    fn close(&mut self) {
        self.buf = Vec::new();
    }
}

// ---------------------------------------------------------------------
// Order-based group-by (fully streaming)
// ---------------------------------------------------------------------

/// Order-based group-by, vectorized: group keys encode into a
/// memcmp-able arena once per batch (byte equality ≡ `Value` equality,
/// same canonicalization argument as [`StreamDistinctOp`]), aggregate
/// arguments evaluate column-at-a-time via [`vector::eval_agg_args`],
/// and boundary detection is a byte-slice comparison against the running
/// group's encoded key — no per-row `Vec<Value>` round trip.
struct StreamGroupByOp {
    child: Box<dyn Operator>,
    aggs: Vec<(ColId, AggCall)>,
    layout: RowLayout,
    gpos: Vec<usize>,
    gkeys: SortKeys,
    args: Vec<Expr>,
    grouping_is_empty: bool,
    /// Running group: encoded key, key values (for the output row), and
    /// one accumulator per aggregate.
    current: Option<(Vec<u8>, Vec<Value>, Vec<Accumulator>)>,
    saw_input: bool,
    input_done: bool,
    out: OutQueue,
}

impl StreamGroupByOp {
    fn flush(&mut self, kvals: Vec<Value>, accs: Vec<Accumulator>) {
        let mut row: Vec<Value> = kvals;
        row.extend(accs.iter().map(|a| a.finish()));
        self.out.push(row.into_boxed_slice());
    }

    fn absorb(&mut self, batch: &Batch, kb: &mut Vec<u8>, ko: &mut Vec<usize>) -> Result<()> {
        encode_batch_keys_arena(batch, &self.gkeys, kb, ko);
        let argcols = vector::eval_agg_args(&self.args, batch, &self.layout)?;
        for i in 0..batch.len() {
            let key = &kb[ko[i]..ko[i + 1]];
            let boundary = match &self.current {
                Some((ckey, _, _)) => ckey[..] != *key,
                None => true,
            };
            if boundary {
                if let Some((_, kvals, accs)) = self.current.take() {
                    self.flush(kvals, accs);
                }
                let kvals: Vec<Value> = self
                    .gpos
                    .iter()
                    .map(|&p| batch.column(p).value(i))
                    .collect();
                let accs: Vec<_> = self.aggs.iter().map(|(_, c)| c.accumulator()).collect();
                self.current = Some((key.to_vec(), kvals, accs));
            }
            let (_, _, accs) = self.current.as_mut().expect("current set above");
            for (acc, col) in accs.iter_mut().zip(&argcols) {
                acc.update_value(col.value(i));
            }
        }
        Ok(())
    }
}

impl Operator for StreamGroupByOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        self.current = None;
        self.saw_input = false;
        self.input_done = false;
        self.child.open(cx, io)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        let (mut kb, mut ko) = (Vec::new(), Vec::new());
        loop {
            if !self.out.is_empty() {
                return Ok(Some(self.out.take(cx.batch_size)));
            }
            if self.input_done {
                return Ok(None);
            }
            match self.child.next_batch(cx, io)? {
                Some(batch) => {
                    self.saw_input |= !batch.is_empty();
                    self.absorb(&batch, &mut kb, &mut ko)?;
                }
                None => {
                    self.input_done = true;
                    if let Some((_, kvals, accs)) = self.current.take() {
                        self.flush(kvals, accs);
                    } else if !self.saw_input && self.grouping_is_empty {
                        // A global aggregate over an empty input still
                        // produces one row (COUNT(*) = 0, SUM = NULL).
                        let accs: Vec<_> = self.aggs.iter().map(|(_, c)| c.accumulator()).collect();
                        self.flush(Vec::new(), accs);
                    }
                }
            }
        }
    }

    fn close(&mut self) {
        self.current = None;
        self.out.clear();
        self.child.close();
    }
}

// ---------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------

/// Nested-loop join: inner side materialized once at open, outer side
/// streamed through it batch by batch.
struct NestedLoopJoinOp {
    outer: Box<dyn Operator>,
    inner: Box<dyn Operator>,
    predicates: Vec<PredId>,
    layout: RowLayout,
    inner_rows: Vec<Row>,
    out: OutQueue,
}

impl Operator for NestedLoopJoinOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        self.inner_rows = drain_all(&mut self.inner, cx, io)?;
        self.outer.open(cx, io)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        loop {
            if !self.out.is_empty() {
                return Ok(Some(self.out.take(cx.batch_size)));
            }
            let Some(batch) = self.outer.next_batch(cx, io)? else {
                return Ok(None);
            };
            for i in 0..batch.len() {
                let orow = batch.row(i);
                for irow in &self.inner_rows {
                    let joined = concat(&orow, irow);
                    if eval_preds(cx.graph, &self.predicates, &joined, &self.layout)? {
                        self.out.push(joined);
                    }
                }
            }
        }
    }

    fn close(&mut self) {
        self.inner_rows = Vec::new();
        self.out.clear();
        self.outer.close();
    }
}

/// Index nested-loop join: streams the outer, probing the inner table's
/// index per row. One [`PageCursor`] persists for the operator's
/// lifetime, so probes arriving in inner-page order (the paper's ordered
/// nested-loop join) hit the just-read page for free.
struct IndexNestedLoopJoinOp {
    outer: Box<dyn Operator>,
    table: TableId,
    index: IndexId,
    probe_pos: Vec<usize>,
    predicates: Vec<PredId>,
    layout: RowLayout,
    cursor: PageCursor,
    out: OutQueue,
}

impl Operator for IndexNestedLoopJoinOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        // Probe streams pay a full seek on their first fetch.
        self.cursor = PageCursor::probing();
        self.outer.open(cx, io)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        let heap = cx.db.heap(self.table)?;
        let ix = cx.db.index(self.index)?;
        loop {
            if !self.out.is_empty() {
                return Ok(Some(self.out.take(cx.batch_size)));
            }
            let Some(batch) = self.outer.next_batch(cx, io)? else {
                return Ok(None);
            };
            for oi in 0..batch.len() {
                let orow = batch.row(oi);
                let key = key_of(&orow, &self.probe_pos);
                // The descent touches one leaf. The probe encodes once and
                // binary-searches the index's stored normalized keys by
                // memcmp (same hits as `Index::probe`, asserted in the
                // storage tests).
                io.index_pages += 1;
                for (_, rid) in ix.probe_encoded(&ix.encode_probe(&key)) {
                    // Probe fetches share the budgeted buffer pool with
                    // the scans (keyed by table id); unbounded executions
                    // charge exactly as before.
                    cx.with_pool(|pool| {
                        self.cursor.touch_pooled(
                            heap.table().0 as u64,
                            heap.page_of(*rid),
                            io,
                            pool,
                        )
                    });
                    io.rows_read += 1;
                    let joined = concat(&orow, heap.row(*rid));
                    if eval_preds(cx.graph, &self.predicates, &joined, &self.layout)? {
                        self.out.push(joined);
                    }
                }
            }
        }
    }

    fn close(&mut self) {
        self.out.clear();
        self.outer.close();
    }
}

/// How many build rows each spilled record groups together: overflow
/// rows seal into fixed-size column pages so probe-side re-reads
/// amortize one decode over a whole group instead of one row.
const JOIN_SPILL_GROUP_ROWS: usize = 256;

/// Where a hash-join build row lives: resident at slot `i` of the
/// build's `mem` batch, or at `row` inside spilled column-page group
/// `group`. Either way the table entry vector keeps rows in build
/// (arrival) order, so match order — and with it output order — does
/// not depend on which rows spilled.
#[derive(Clone, Copy)]
enum BuildRef {
    Mem(u32),
    Spilled { group: u32, row: u32 },
}

/// The materialized build side of a hash or left-outer join, consumed
/// batch-at-a-time: keys arena-encode per input batch (byte equality ≡
/// `Value` equality by codec canonicalization), resident rows gather
/// into columnar segments, and overflow rows past the memory budget
/// spill as [`JOIN_SPILL_GROUP_ROWS`]-row column pages
/// ([`spill::write_batch`]). Shared by the hash and left-outer join
/// operators.
struct JoinBuild {
    ipos: Vec<usize>,
    ikeys: SortKeys,
    /// Whether equi keys exist. NULL-key build rows are dropped when
    /// they do (NULL never joins); the non-keyed nested loop needs every
    /// build row, in arrival order, via `refs`.
    keyed: bool,
    arity: usize,
    /// Resident segments, concatenated into `mem` at [`Self::finish`].
    segs: Vec<Batch>,
    mem: Batch,
    mem_rows: u32,
    bytes: usize,
    table: HashMap<Vec<u8>, Vec<BuildRef>>,
    /// All build refs in arrival order (non-keyed path).
    refs: Vec<BuildRef>,
    /// Overflow rows not yet sealed into a spilled group.
    pending: VecDeque<Batch>,
    pending_rows: usize,
    spilled_rows: u32,
    group_offsets: Vec<u64>,
    file: SpillFile,
    /// Single-entry decode cache over spilled groups; sorted probe key
    /// runs re-read their group once.
    cache: Option<(u32, Batch)>,
}

impl JoinBuild {
    fn new(ipos: Vec<usize>, keyed: bool, arity: usize) -> JoinBuild {
        JoinBuild {
            ikeys: ipos.iter().map(|&p| (p, Direction::Asc)).collect(),
            ipos,
            keyed,
            arity,
            segs: Vec::new(),
            mem: Batch::empty(arity),
            mem_rows: 0,
            bytes: 0,
            table: HashMap::new(),
            refs: Vec::new(),
            pending: VecDeque::new(),
            pending_rows: 0,
            spilled_rows: 0,
            group_offsets: Vec::new(),
            file: SpillFile::new(),
            cache: None,
        }
    }

    fn reset(&mut self) {
        self.segs.clear();
        self.mem = Batch::empty(self.arity);
        self.mem_rows = 0;
        self.bytes = 0;
        self.table.clear();
        self.refs.clear();
        self.pending.clear();
        self.pending_rows = 0;
        self.spilled_rows = 0;
        self.group_offsets.clear();
        self.file = SpillFile::new();
        self.cache = None;
    }

    /// Absorbs one build batch: rows that fit the budget stay resident
    /// (gathered into a columnar segment), overflow rows queue toward
    /// the next spilled group, in arrival order. Per-row costs are
    /// [`batch_row_bytes`] (≡ `row_bytes`), the measure every budgeted
    /// operator uses.
    fn absorb(
        &mut self,
        batch: &Batch,
        budget: Option<usize>,
        kb: &mut Vec<u8>,
        ko: &mut Vec<usize>,
        io: &mut IoStats,
    ) {
        encode_batch_keys_arena(batch, &self.ikeys, kb, ko);
        let mut mem_sel: Vec<u32> = Vec::new();
        let mut spill_sel: Vec<u32> = Vec::new();
        for i in 0..batch.len() {
            if self.keyed && self.ipos.iter().any(|&p| !batch.column(p).is_valid(i)) {
                continue; // NULL never joins
            }
            let overflow = match budget {
                Some(budget) => {
                    let cost = batch_row_bytes(batch, i);
                    if self.bytes + cost > budget && self.mem_rows > 0 {
                        true
                    } else {
                        self.bytes += cost;
                        false
                    }
                }
                None => false,
            };
            let r = if overflow {
                spill_sel.push(i as u32);
                let r = BuildRef::Spilled {
                    group: self.spilled_rows / JOIN_SPILL_GROUP_ROWS as u32,
                    row: self.spilled_rows % JOIN_SPILL_GROUP_ROWS as u32,
                };
                self.spilled_rows += 1;
                r
            } else {
                mem_sel.push(i as u32);
                let r = BuildRef::Mem(self.mem_rows);
                self.mem_rows += 1;
                r
            };
            if self.keyed {
                self.table
                    .entry(kb[ko[i]..ko[i + 1]].to_vec())
                    .or_default()
                    .push(r);
            } else {
                self.refs.push(r);
            }
        }
        if mem_sel.len() == batch.len() {
            self.segs.push(batch.clone());
        } else if !mem_sel.is_empty() {
            self.segs.push(batch.gather(&mem_sel));
        }
        if !spill_sel.is_empty() {
            let g = batch.gather(&spill_sel);
            self.pending_rows += g.len();
            self.pending.push_back(g);
            self.flush_groups(false, io);
        }
    }

    /// Seals pending overflow rows into spilled column-page records of
    /// exactly [`JOIN_SPILL_GROUP_ROWS`] rows (the final group may be
    /// shorter when `fin`).
    fn flush_groups(&mut self, fin: bool, io: &mut IoStats) {
        let mut payload = Vec::new();
        while self.pending_rows >= JOIN_SPILL_GROUP_ROWS || (fin && self.pending_rows > 0) {
            let take = self.pending_rows.min(JOIN_SPILL_GROUP_ROWS);
            let mut picked: Vec<Batch> = Vec::new();
            let mut need = take;
            while need > 0 {
                let front = self.pending.pop_front().expect("pending rows counted");
                if front.len() <= need {
                    need -= front.len();
                    picked.push(front);
                } else {
                    picked.push(front.slice(0, need));
                    self.pending
                        .push_front(front.slice(need, front.len() - need));
                    need = 0;
                }
            }
            self.pending_rows -= take;
            let group = Batch::concat(self.arity, &picked);
            payload.clear();
            spill::write_batch(&group, &mut payload);
            self.group_offsets
                .push(self.file.append_record(&payload, io));
        }
    }

    fn finish(&mut self, io: &mut IoStats) {
        self.flush_groups(true, io);
        self.mem = Batch::concat(self.arity, &std::mem::take(&mut self.segs));
        if !self.file.is_empty() {
            sortkernel::note_spill_runs(1);
        }
    }

    /// Re-reads (and decodes) one spilled group, through the
    /// single-entry cache.
    fn group_batch(&mut self, g: u32, io: &mut IoStats) -> Batch {
        if let Some((cg, b)) = &self.cache {
            if *cg == g {
                return b.clone();
            }
        }
        let rec = SpillCursor::new(self.group_offsets[g as usize], self.file.len())
            .read_record(&self.file, io)
            .expect("spilled build group missing");
        let batch = spill::read_batch(&rec, &mut 0);
        self.cache = Some((g, batch.clone()));
        batch
    }

    /// Assembles the candidate batch for one probe batch: outer columns
    /// gathered by `osel` (probe row of the j-th candidate), build
    /// columns gathered from `mem` and any spilled groups by `brefs` —
    /// all Arc-shared, no per-row concat.
    fn candidates(
        &mut self,
        outer: &Batch,
        osel: &[u32],
        brefs: &[BuildRef],
        io: &mut IoStats,
    ) -> Result<Batch> {
        let mut sources: Vec<Batch> = vec![self.mem.clone()];
        let mut pairs: Vec<(u32, u32)> = Vec::with_capacity(brefs.len());
        // Consecutive refs into the same spilled group share one source
        // slot, so a run of matches in one group decodes it once through
        // the single-entry cache.
        let mut last: Option<(u32, u32)> = None;
        for &r in brefs {
            match r {
                BuildRef::Mem(i) => pairs.push((0, i)),
                BuildRef::Spilled { group, row } => {
                    let src = match last {
                        Some((g, s)) if g == group => s,
                        _ => {
                            let b = self.group_batch(group, io);
                            sources.push(b);
                            (sources.len() - 1) as u32
                        }
                    };
                    last = Some((group, src));
                    pairs.push((src, row));
                }
            }
        }
        let srcs: Vec<&Batch> = sources.iter().collect();
        let mut cols = outer.gather(osel).columns().to_vec();
        cols.extend(Batch::gather_multi(&srcs, &pairs).columns().iter().cloned());
        Batch::from_columns_with_len(cols, osel.len())
    }
}

/// Hash join, vectorized: build side consumes whole batches at open,
/// probe side streams; probe keys arena-encode per batch, matches
/// collect into a selection vector, and output assembles by columnar
/// gather with Arc-shared columns. Output preserves the outer's order.
struct HashJoinOp {
    outer: Box<dyn Operator>,
    inner: Box<dyn Operator>,
    opos: Vec<usize>,
    okeys: SortKeys,
    predicates: Vec<PredId>,
    layout: RowLayout,
    build: JoinBuild,
    out: BatchQueue,
}

impl Operator for HashJoinOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        self.build.reset();
        self.inner.open(cx, io)?;
        let (mut kb, mut ko) = (Vec::new(), Vec::new());
        while let Some(batch) = self.inner.next_batch(cx, io)? {
            self.build
                .absorb(&batch, cx.memory_budget, &mut kb, &mut ko, io);
        }
        self.inner.close();
        self.build.finish(io);
        self.outer.open(cx, io)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        let (mut kb, mut ko) = (Vec::new(), Vec::new());
        loop {
            if !self.out.is_empty() {
                return Ok(Some(self.out.take(cx.batch_size, self.layout.arity())));
            }
            let Some(batch) = self.outer.next_batch(cx, io)? else {
                return Ok(None);
            };
            encode_batch_keys_arena(&batch, &self.okeys, &mut kb, &mut ko);
            let mut osel: Vec<u32> = Vec::new();
            let mut brefs: Vec<BuildRef> = Vec::new();
            for i in 0..batch.len() {
                if self.opos.iter().any(|&p| !batch.column(p).is_valid(i)) {
                    continue; // NULL never joins
                }
                if let Some(matches) = self.build.table.get(&kb[ko[i]..ko[i + 1]]) {
                    for &r in matches {
                        osel.push(i as u32);
                        brefs.push(r);
                    }
                }
            }
            if osel.is_empty() {
                continue;
            }
            let cand = self.build.candidates(&batch, &osel, &brefs, io)?;
            let mut sel: Vec<u32> = (0..cand.len() as u32).collect();
            for pid in &self.predicates {
                if sel.is_empty() {
                    break;
                }
                vector::filter_selection(cx.graph.predicate(*pid), &cand, &self.layout, &mut sel)?;
            }
            if sel.len() == cand.len() {
                self.out.push(cand);
            } else if !sel.is_empty() {
                self.out.push(cand.gather(&sel));
            }
        }
    }

    fn close(&mut self) {
        self.build.reset();
        self.out.clear();
        self.outer.close();
    }
}

/// Left outer join, vectorized: inner materialized into a [`JoinBuild`]
/// at open (hash build when equi keys exist), outer streamed; candidate
/// matches assemble by columnar gather, and unmatched outer rows splice
/// in from a null-padded copy of the probe batch — all in outer order.
struct LeftOuterJoinOp {
    outer: Box<dyn Operator>,
    inner: Box<dyn Operator>,
    opos: Vec<usize>,
    okeys: SortKeys,
    keyed: bool,
    predicates: Vec<PredId>,
    layout: RowLayout,
    build: JoinBuild,
    out: BatchQueue,
}

impl Operator for LeftOuterJoinOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        self.build.reset();
        self.inner.open(cx, io)?;
        let (mut kb, mut ko) = (Vec::new(), Vec::new());
        while let Some(batch) = self.inner.next_batch(cx, io)? {
            self.build
                .absorb(&batch, cx.memory_budget, &mut kb, &mut ko, io);
        }
        self.inner.close();
        self.build.finish(io);
        self.outer.open(cx, io)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        let (mut kb, mut ko) = (Vec::new(), Vec::new());
        loop {
            if !self.out.is_empty() {
                return Ok(Some(self.out.take(cx.batch_size, self.layout.arity())));
            }
            let Some(batch) = self.outer.next_batch(cx, io)? else {
                return Ok(None);
            };
            let mut osel: Vec<u32> = Vec::new();
            let mut brefs: Vec<BuildRef> = Vec::new();
            if self.keyed {
                encode_batch_keys_arena(&batch, &self.okeys, &mut kb, &mut ko);
                for i in 0..batch.len() {
                    if self.opos.iter().any(|&p| !batch.column(p).is_valid(i)) {
                        continue; // NULL never matches; row null-pads below
                    }
                    if let Some(matches) = self.build.table.get(&kb[ko[i]..ko[i + 1]]) {
                        for &r in matches {
                            osel.push(i as u32);
                            brefs.push(r);
                        }
                    }
                }
            } else {
                // No equi keys: nested loop with ON residuals.
                for i in 0..batch.len() {
                    for &r in &self.build.refs {
                        osel.push(i as u32);
                        brefs.push(r);
                    }
                }
            }
            let cand = if osel.is_empty() {
                Batch::empty(self.layout.arity())
            } else {
                self.build.candidates(&batch, &osel, &brefs, io)?
            };
            let mut sel: Vec<u32> = (0..cand.len() as u32).collect();
            for pid in &self.predicates {
                if sel.is_empty() {
                    break;
                }
                vector::filter_selection(cx.graph.predicate(*pid), &cand, &self.layout, &mut sel)?;
            }
            // Splice surviving candidates and null-padded unmatched
            // outers back into outer order: `sel` is ascending and
            // `osel` non-decreasing, so one forward merge suffices.
            let inner_arity = self.layout.arity() - batch.arity();
            let nulls = Arc::new(Column::from_values(std::iter::repeat_n(
                &Value::Null,
                batch.len(),
            )));
            let mut pcols = batch.columns().to_vec();
            pcols.extend(std::iter::repeat_n(nulls, inner_arity));
            let padded = Batch::from_columns_with_len(pcols, batch.len())?;
            let mut pairs: Vec<(u32, u32)> = Vec::new();
            let mut si = 0;
            for oi in 0..batch.len() as u32 {
                let mut matched = false;
                while si < sel.len() && osel[sel[si] as usize] == oi {
                    pairs.push((0, sel[si]));
                    matched = true;
                    si += 1;
                }
                if !matched {
                    pairs.push((1, oi));
                }
            }
            self.out
                .push(Batch::gather_multi(&[&cand, &padded], &pairs));
        }
    }

    fn close(&mut self) {
        self.build.reset();
        self.out.clear();
        self.outer.close();
    }
}

// ---------------------------------------------------------------------
// Merge join (fully streaming)
// ---------------------------------------------------------------------

/// One side of an in-progress merge join: a window of buffered batches
/// (Arc-shared columns) plus the cursor into it, with every buffered
/// row's equality key encoded into a memcmp-able arena as it arrives.
/// The window resets once fully consumed, so memory stays bounded by
/// the current tie group plus the batches that arrived alongside it.
struct MergeSide {
    win: Batch,
    /// Encoded-key arena over `win` (`ko` holds n+1 offsets).
    kb: Vec<u8>,
    ko: Vec<usize>,
    /// Per-batch encode scratch, appended onto `kb`/`ko`.
    sb: Vec<u8>,
    so: Vec<usize>,
    pos: usize,
    done: bool,
    kpos: Vec<usize>,
    /// The key positions as ascending sort keys — equality detection
    /// encodes under these (direction is irrelevant for equality;
    /// ascending keeps the encoding canonical).
    keys_asc: SortKeys,
}

impl MergeSide {
    fn new(kpos: Vec<usize>) -> MergeSide {
        MergeSide {
            win: Batch::empty(0),
            kb: Vec::new(),
            ko: vec![0],
            sb: Vec::new(),
            so: Vec::new(),
            pos: 0,
            done: false,
            keys_asc: kpos.iter().map(|&p| (p, Direction::Asc)).collect(),
            kpos,
        }
    }

    fn key(&self, i: usize) -> &[u8] {
        &self.kb[self.ko[i]..self.ko[i + 1]]
    }

    fn key_is_null(&self) -> bool {
        self.kpos
            .iter()
            .any(|&p| !self.win.column(p).is_valid(self.pos))
    }

    fn absorb(&mut self, batch: Batch) {
        encode_batch_keys_arena(&batch, &self.keys_asc, &mut self.sb, &mut self.so);
        let base = self.kb.len();
        self.kb.extend_from_slice(&self.sb);
        self.ko.extend(self.so[1..].iter().map(|&o| base + o));
        self.win = if self.win.is_empty() {
            batch
        } else {
            Batch::concat(batch.arity(), &[self.win.clone(), batch])
        };
    }

    /// Drops the consumed prefix `[0, start)` before the window grows:
    /// without this, a run touching the window's end would concat the
    /// next batch onto every already-emitted row, and the window (plus
    /// the per-absorb copy) would grow with the whole input instead of
    /// staying bounded by one tie group plus one batch. Emitted group
    /// slices stay valid — `slice` hands out its own columns.
    fn trim(&mut self, start: usize) {
        self.win = self.win.slice(start, self.win.len() - start);
        let base = self.ko[start];
        self.kb.drain(..base);
        self.ko.drain(..start);
        for o in &mut self.ko {
            *o -= base;
        }
        self.pos -= start;
    }
}

/// Ensures `side.win` has a row at `side.pos`; returns false when the
/// input is exhausted.
fn merge_fill(
    side: &mut MergeSide,
    child: &mut Box<dyn Operator>,
    cx: &ExecContext<'_>,
    io: &mut IoStats,
) -> Result<bool> {
    while side.pos >= side.win.len() && !side.done {
        if side.pos > 0 {
            // Whole window consumed: drop it (slices handed out earlier
            // keep their columns alive via Arc).
            side.win = Batch::empty(side.win.arity());
            side.kb.clear();
            side.ko.clear();
            side.ko.push(0);
            side.pos = 0;
        }
        match child.next_batch(cx, io)? {
            Some(batch) => side.absorb(batch),
            None => side.done = true,
        }
    }
    Ok(side.pos < side.win.len())
}

/// Consumes and returns the full run of rows sharing the current row's
/// key, pulling more input as needed to find the run's end. Ties cut on
/// encoded-prefix equality — memcmp of the arena slices, same outcome
/// as the per-column `Value` walk.
fn merge_take_group(
    side: &mut MergeSide,
    child: &mut Box<dyn Operator>,
    cx: &ExecContext<'_>,
    io: &mut IoStats,
) -> Result<Batch> {
    let mut start = side.pos;
    let mut end = start + 1;
    loop {
        while end < side.win.len() && side.key(end) == side.key(start) {
            end += 1;
        }
        if end < side.win.len() || side.done {
            break;
        }
        // The run may continue into the next batch. Compact the consumed
        // prefix away before growing the window.
        if start > 0 {
            side.trim(start);
            end -= start;
            start = 0;
        }
        match child.next_batch(cx, io)? {
            Some(batch) => side.absorb(batch),
            None => side.done = true,
        }
    }
    side.pos = end;
    Ok(side.win.slice(start, end - start))
}

/// Merge join, vectorized: both sides advance on encoded key columns
/// with memcmp (the per-column encodings are prefix-free, so comparing
/// the concatenated keys ≡ the zipped `total_cmp` walk), tie groups cut
/// on arena-slice equality, and each group pair's cross product builds
/// by columnar gather.
struct MergeJoinOp {
    outer: Box<dyn Operator>,
    inner: Box<dyn Operator>,
    o: MergeSide,
    i: MergeSide,
    predicates: Vec<PredId>,
    layout: RowLayout,
    done: bool,
    out: BatchQueue,
}

impl Operator for MergeJoinOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        self.done = false;
        self.outer.open(cx, io)?;
        self.inner.open(cx, io)
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        loop {
            if !self.out.is_empty() {
                return Ok(Some(self.out.take(cx.batch_size, self.layout.arity())));
            }
            if self.done {
                return Ok(None);
            }
            if !merge_fill(&mut self.o, &mut self.outer, cx, io)?
                || !merge_fill(&mut self.i, &mut self.inner, cx, io)?
            {
                self.done = true;
                continue;
            }
            // NULL keys never join; skip them on either side.
            if self.o.key_is_null() {
                self.o.pos += 1;
                continue;
            }
            if self.i.key_is_null() {
                self.i.pos += 1;
                continue;
            }
            match self.o.key(self.o.pos).cmp(self.i.key(self.i.pos)) {
                Ordering::Less => self.o.pos += 1,
                Ordering::Greater => self.i.pos += 1,
                Ordering::Equal => {
                    let og = merge_take_group(&mut self.o, &mut self.outer, cx, io)?;
                    let ig = merge_take_group(&mut self.i, &mut self.inner, cx, io)?;
                    // Outer-major cross product by gather: outer rows
                    // repeat, inner rows tile.
                    let mut rep = Vec::with_capacity(og.len() * ig.len());
                    let mut tile = Vec::with_capacity(og.len() * ig.len());
                    for oi in 0..og.len() as u32 {
                        for ii in 0..ig.len() as u32 {
                            rep.push(oi);
                            tile.push(ii);
                        }
                    }
                    let mut cols = og.gather(&rep).columns().to_vec();
                    cols.extend(ig.gather(&tile).columns().iter().cloned());
                    let cand = Batch::from_columns_with_len(cols, rep.len())?;
                    let mut sel: Vec<u32> = (0..cand.len() as u32).collect();
                    for pid in &self.predicates {
                        if sel.is_empty() {
                            break;
                        }
                        vector::filter_selection(
                            cx.graph.predicate(*pid),
                            &cand,
                            &self.layout,
                            &mut sel,
                        )?;
                    }
                    if sel.len() == cand.len() {
                        self.out.push(cand);
                    } else if !sel.is_empty() {
                        self.out.push(cand.gather(&sel));
                    }
                }
            }
        }
    }

    fn close(&mut self) {
        self.o = MergeSide::new(std::mem::take(&mut self.o.kpos));
        self.i = MergeSide::new(std::mem::take(&mut self.i.kpos));
        self.out.clear();
        self.outer.close();
        self.inner.close();
    }
}

// ---------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------

/// Lowering context: instrumentation slots, pre-order id assignment, and
/// the parallelism state.
///
/// The coordinator lowers with `push = true` (slots are created as
/// lowering reaches each node, so slot index == pre-order id) and
/// `partition = None`. When lowering inserts an exchange, it *reserves*
/// slots for the exchange's partitioned subtree without building
/// coordinator-side operators for it; each worker then re-lowers that
/// subtree via [`lower_worker`] with `push = false` and `next_id` starting
/// at the subtree root's reserved id, so worker wrappers record into the
/// already-reserved slots. Workers always lower with `threads = 1`, so
/// exchanges never nest.
struct LowerCx {
    slots: Option<Arc<Mutex<Vec<OpMetrics>>>>,
    push: bool,
    next_id: usize,
    threads: usize,
    /// `Some((part, parts))` while lowering one worker's partition of an
    /// exchanged subtree: scans restrict themselves to that partition.
    partition: Option<(usize, usize)>,
}

impl LowerCx {
    fn new(slots: Option<Arc<Mutex<Vec<OpMetrics>>>>, threads: usize) -> LowerCx {
        LowerCx {
            slots,
            push: true,
            next_id: 0,
            threads,
            partition: None,
        }
    }
}

/// Lowers one worker's copy of an exchanged subtree: scans restricted to
/// partition `part` of `parts`, instrumentation recording into the slots
/// the coordinator reserved starting at `base_id`. Called from inside the
/// worker thread, so the built operators never cross threads.
pub(crate) fn lower_worker(
    plan: &Plan,
    part: usize,
    parts: usize,
    slots: Option<Arc<Mutex<Vec<OpMetrics>>>>,
    base_id: usize,
) -> Result<Box<dyn Operator>> {
    let mut lw = LowerCx {
        slots,
        push: false,
        next_id: base_id,
        threads: 1,
        partition: Some((part, parts)),
    };
    lower_impl(plan, &mut lw)
}

/// Records subtree-inclusive metrics for one operator into its slot.
///
/// The wrapper snapshots the session [`IoStats`] before delegating and
/// merges the delta afterwards, so a slot accumulates everything charged
/// while control was inside its subtree — children included. Exclusive
/// figures are derived later by [`PlanMetrics::self_io`]; recording
/// inclusively here is what makes that subtraction telescope exactly to
/// the session totals. Under an exchange, the workers' wrappers all
/// record into the same slots (one worker's private I/O stream each), so
/// a slot accumulates the sum over workers — which is exactly what the
/// coordinator merges into the session stream, keeping the telescoping
/// intact at every parallel degree.
struct InstrumentedOp {
    inner: Box<dyn Operator>,
    id: usize,
    slots: Arc<Mutex<Vec<OpMetrics>>>,
    /// `name#id` — the span label this wrapper emits into the timeline
    /// profiler (when the executing thread has a lane installed).
    label: String,
}

impl InstrumentedOp {
    fn record(&self, before: &IoStats, after: &IoStats, started: Instant) {
        let mut slots = self.slots.lock().expect("metrics mutex poisoned");
        let m = &mut slots[self.id];
        m.elapsed += started.elapsed();
        m.io.merge(&after.delta_since(before));
    }
}

impl Operator for InstrumentedOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        profile::span_begin("operator", || format!("{}.open", self.label));
        let before = *io;
        let started = Instant::now();
        let result = self.inner.open(cx, io);
        self.record(&before, io, started);
        profile::span_end_with(
            "operator",
            || format!("{}.open", self.label),
            || {
                let d = io.delta_since(&before);
                vec![
                    ("seq_pages", d.sequential_pages),
                    ("sort_rows", d.sort_rows),
                ]
            },
        );
        result
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<Option<Batch>> {
        profile::span_begin("operator", || format!("{}.next", self.label));
        let before = *io;
        let started = Instant::now();
        let result = self.inner.next_batch(cx, io);
        self.record(&before, io, started);
        let rows = match &result {
            Ok(Some(batch)) => batch.len() as u64,
            _ => 0,
        };
        if let Ok(Some(batch)) = &result {
            let mut slots = self.slots.lock().expect("metrics mutex poisoned");
            let m = &mut slots[self.id];
            m.rows += batch.len() as u64;
            m.batches += 1;
        }
        profile::span_end_with(
            "operator",
            || format!("{}.next", self.label),
            || vec![("rows", rows)],
        );
        result
    }

    fn close(&mut self) {
        profile::span_begin("operator", || format!("{}.close", self.label));
        self.inner.close();
        profile::span_end("operator", || format!("{}.close", self.label));
    }
}

fn lower(plan: &Plan) -> Result<Box<dyn Operator>> {
    lower_impl(plan, &mut LowerCx::new(None, 1))
}

/// True when a subtree can run partitioned: a chain of filters and
/// projections over one table or index scan. Such a pipeline has no
/// cross-row state, so P workers each running it over a scan partition
/// together produce exactly the serial row stream, segment by segment.
fn partitionable(plan: &Plan) -> bool {
    match &plan.node {
        PlanNode::TableScan { .. } | PlanNode::IndexScan { .. } => true,
        PlanNode::Filter { input, .. } | PlanNode::Project { input, .. } => partitionable(input),
        _ => false,
    }
}

/// The freshly-reserved metric slot for one plan node: actual counters
/// zeroed, the planner's estimates copied in at lowering time so every
/// recorded slot carries its own est-vs-actual pair (Q-error feedback).
fn op_metrics_for(plan: &Plan) -> OpMetrics {
    OpMetrics {
        name: plan.op_name().to_string(),
        est_rows: plan.cost.rows,
        est_cost: plan.self_cost(),
        est_groups: match &plan.node {
            PlanNode::SegmentedSort { est_groups, .. } => Some(*est_groups),
            _ => None,
        },
        ..OpMetrics::default()
    }
}

/// Reserves metric slots for an exchanged subtree the coordinator will
/// not itself lower, mirroring [`lower_impl`]'s pre-order id assignment
/// so worker-side wrappers land in the right slots and sibling nodes
/// after the subtree keep their ids.
fn reserve_subtree(plan: &Plan, lw: &mut LowerCx) {
    lw.next_id += 1;
    if lw.push {
        if let Some(slots) = &lw.slots {
            slots
                .lock()
                .expect("metrics mutex poisoned")
                .push(op_metrics_for(plan));
        }
    }
    for c in plan.children() {
        reserve_subtree(c, lw);
    }
}

/// Builds the [`PartitionSpec`] for exchanging `input` over
/// `lw.threads` workers, reserving the subtree's metric slots.
fn exchange_spec(input: &Arc<Plan>, lw: &mut LowerCx) -> PartitionSpec {
    let base_id = lw.next_id;
    reserve_subtree(input, lw);
    PartitionSpec {
        plan: Arc::clone(input),
        parts: lw.threads,
        slots: lw.slots.clone(),
        base_id,
    }
}

/// The (id, slots) handle an exchange operator uses to attach per-worker
/// metrics to its own plan node.
fn own_slot(lw: &LowerCx, id: usize) -> Option<(usize, Arc<Mutex<Vec<OpMetrics>>>)> {
    lw.slots.as_ref().map(|s| (id, Arc::clone(s)))
}

/// Lowers a child subtree that its parent fully drains at `open` (a join
/// build side, a hash group-by input). At parallel degree > 1 a
/// partitionable subtree becomes a [`GatherOp`] that drains the P
/// partition pipelines on worker threads and concatenates their outputs
/// in partition order — which *is* the serial order, so parents observe
/// the exact serial row stream.
fn lower_drained(plan: &Arc<Plan>, lw: &mut LowerCx) -> Result<Box<dyn Operator>> {
    if lw.partition.is_none() && lw.threads > 1 && partitionable(plan) {
        Ok(Box::new(GatherOp::new(exchange_spec(plan, lw))))
    } else {
        lower_impl(plan, lw)
    }
}

/// Lowers `plan`, wrapping every operator in an [`InstrumentedOp`] when
/// slots are present. Slots are reserved parent-before-children and
/// children in [`Plan::children`] order, which is exactly pre-order —
/// the numbering [`PlanMetrics`] documents. At parallel degree > 1 the
/// coordinator replaces eligible Sort/TopN nodes and fully-drained join
/// build sides with exchange operators from [`crate::parallel`]; worker
/// threads then re-lower the exchanged subtrees via [`lower_worker`].
fn lower_impl(plan: &Plan, lw: &mut LowerCx) -> Result<Box<dyn Operator>> {
    let id = lw.next_id;
    lw.next_id += 1;
    if lw.push {
        if let Some(slots) = &lw.slots {
            let mut slots = slots.lock().expect("metrics mutex poisoned");
            debug_assert_eq!(id, slots.len(), "slot ids must be pre-order");
            slots.push(op_metrics_for(plan));
        }
    }
    // Exchange insertion happens only on the coordinator (never inside a
    // worker's partition pipeline, where `threads` is pinned to 1).
    let parallel = lw.partition.is_none() && lw.threads > 1;
    let op: Box<dyn Operator> = match &plan.node {
        PlanNode::TableScan { table, .. } => {
            let (part, parts) = lw.partition.unwrap_or((0, 1));
            Box::new(ScanOp {
                table: *table,
                part,
                parts,
                state: HeapScanState::new(),
            })
        }
        PlanNode::IndexScan {
            index,
            table,
            range,
            reverse,
            ..
        } => {
            let (part, parts) = lw.partition.unwrap_or((0, 1));
            Box::new(IndexScanOp {
                index: *index,
                table: *table,
                range: range.clone(),
                reverse: *reverse,
                part,
                parts,
                state: None,
            })
        }
        PlanNode::Filter { input, predicates } => Box::new(FilterOp {
            child: lower_impl(input, lw)?,
            predicates: predicates.clone(),
            layout: input.layout.clone(),
        }),
        PlanNode::Project { input, exprs } => Box::new(ProjectOp {
            child: lower_impl(input, lw)?,
            exprs: exprs.iter().map(|(_, e)| e.clone()).collect(),
            layout: input.layout.clone(),
        }),
        PlanNode::Sort { input, spec } => {
            let keys = resolve_keys(spec, &input.layout)?;
            if parallel && partitionable(input) {
                // Merge exchange: workers scan disjoint partitions, sort
                // their runs, and the coordinator K-way merges — order-
                // preserving by the kernel's (keys, seq) contract.
                let slot = own_slot(lw, id);
                Box::new(MergeExchangeOp::new(exchange_spec(input, lw), keys, slot))
            } else if parallel {
                // Repartition: drain the (serial) child on the
                // coordinator, deal round-robin, sort buckets on worker
                // threads, merge back by global sequence tags.
                let slot = own_slot(lw, id);
                let child = lower_impl(input, lw)?;
                Box::new(RepartitionSortOp::new(child, keys, lw.threads, slot))
            } else {
                Box::new(SortOp {
                    child: lower_impl(input, lw)?,
                    keys,
                    buf: Vec::new(),
                    pos: 0,
                    spilled: None,
                })
            }
        }
        PlanNode::SegmentedSort {
            input,
            spec,
            prefix_len,
            ..
        } => {
            let keys = resolve_keys(spec, &input.layout)?;
            if parallel && partitionable(input) {
                // Parallel degrees reuse the full-sort exchanges: a
                // merge exchange over the full keys produces the same
                // (globally sorted) stream the segmented operator does.
                let slot = own_slot(lw, id);
                Box::new(MergeExchangeOp::new(exchange_spec(input, lw), keys, slot))
            } else if parallel {
                let slot = own_slot(lw, id);
                let child = lower_impl(input, lw)?;
                Box::new(RepartitionSortOp::new(child, keys, lw.threads, slot))
            } else {
                let slot = own_slot(lw, id);
                Box::new(SegmentedSortOp::new(
                    lower_impl(input, lw)?,
                    keys,
                    *prefix_len,
                    slot,
                ))
            }
        }
        PlanNode::NestedLoopJoin {
            outer,
            inner,
            predicates,
        } => Box::new(NestedLoopJoinOp {
            outer: lower_impl(outer, lw)?,
            inner: lower_drained(inner, lw)?,
            predicates: predicates.clone(),
            layout: plan.layout.clone(),
            inner_rows: Vec::new(),
            out: OutQueue::default(),
        }),
        PlanNode::IndexNestedLoopJoin {
            outer,
            table,
            index,
            probe_cols,
            predicates,
            ..
        } => Box::new(IndexNestedLoopJoinOp {
            outer: lower_impl(outer, lw)?,
            table: *table,
            index: *index,
            probe_pos: probe_cols
                .iter()
                .map(|&c| {
                    outer.layout.position(c).ok_or_else(|| {
                        FtoError::internal(format!("probe column {c} missing from outer"))
                    })
                })
                .collect::<Result<Vec<_>>>()?,
            predicates: predicates.clone(),
            layout: plan.layout.clone(),
            cursor: PageCursor::new(),
            out: OutQueue::default(),
        }),
        PlanNode::MergeJoin {
            outer,
            inner,
            outer_keys,
            inner_keys,
            predicates,
        } => {
            let okpos = positions(&outer.layout, outer_keys)?;
            let ikpos = positions(&inner.layout, inner_keys)?;
            Box::new(MergeJoinOp {
                o: MergeSide::new(okpos),
                i: MergeSide::new(ikpos),
                outer: lower_impl(outer, lw)?,
                inner: lower_impl(inner, lw)?,
                predicates: predicates.clone(),
                layout: plan.layout.clone(),
                done: false,
                out: BatchQueue::default(),
            })
        }
        PlanNode::LeftOuterJoin {
            outer,
            inner,
            outer_keys,
            inner_keys,
            predicates,
        } => {
            let opos = positions(&outer.layout, outer_keys)?;
            let keyed = !outer_keys.is_empty();
            let build = JoinBuild::new(
                positions(&inner.layout, inner_keys)?,
                keyed,
                inner.layout.arity(),
            );
            Box::new(LeftOuterJoinOp {
                okeys: opos.iter().map(|&p| (p, Direction::Asc)).collect(),
                opos,
                keyed,
                build,
                outer: lower_impl(outer, lw)?,
                inner: lower_drained(inner, lw)?,
                predicates: predicates.clone(),
                layout: plan.layout.clone(),
                out: BatchQueue::default(),
            })
        }
        PlanNode::HashJoin {
            outer,
            inner,
            outer_keys,
            inner_keys,
            predicates,
        } => {
            let opos = positions(&outer.layout, outer_keys)?;
            let build = JoinBuild::new(
                positions(&inner.layout, inner_keys)?,
                true,
                inner.layout.arity(),
            );
            Box::new(HashJoinOp {
                okeys: opos.iter().map(|&p| (p, Direction::Asc)).collect(),
                opos,
                build,
                outer: lower_impl(outer, lw)?,
                inner: lower_drained(inner, lw)?,
                predicates: predicates.clone(),
                layout: plan.layout.clone(),
                out: BatchQueue::default(),
            })
        }
        PlanNode::StreamGroupBy {
            input,
            grouping,
            aggs,
        } => {
            let gpos = positions(&input.layout, grouping)?;
            Box::new(StreamGroupByOp {
                gkeys: gpos.iter().map(|&p| (p, Direction::Asc)).collect(),
                gpos,
                args: aggs.iter().map(|(_, c)| c.arg.clone()).collect(),
                grouping_is_empty: grouping.is_empty(),
                child: lower_impl(input, lw)?,
                aggs: aggs.clone(),
                layout: input.layout.clone(),
                current: None,
                saw_input: false,
                input_done: false,
                out: OutQueue::default(),
            })
        }
        PlanNode::HashGroupBy {
            input,
            grouping,
            aggs,
        } => Box::new(HashGroupByOp {
            child: lower_drained(input, lw)?,
            grouping: grouping.clone(),
            aggs: aggs.clone(),
            layout: input.layout.clone(),
            buf: Vec::new(),
            pos: 0,
        }),
        PlanNode::StreamDistinct { input } => Box::new(StreamDistinctOp {
            child: lower_impl(input, lw)?,
            last_key: None,
        }),
        PlanNode::HashDistinct { input } => Box::new(HashDistinctOp {
            child: lower_impl(input, lw)?,
            seen_keys: HashSet::new(),
        }),
        PlanNode::UnionAll { inputs } => Box::new(UnionAllOp {
            children: inputs
                .iter()
                .map(|p| lower_impl(p, lw))
                .collect::<Result<Vec<_>>>()?,
            current: 0,
            opened: false,
        }),
        PlanNode::Limit { input, n } => Box::new(LimitOp {
            child: lower_impl(input, lw)?,
            remaining: *n,
        }),
        PlanNode::TopN { input, spec, n } => {
            let keys = resolve_keys(spec, &input.layout)?;
            if parallel && partitionable(input) {
                let slot = own_slot(lw, id);
                Box::new(TopNExchangeOp::new(
                    exchange_spec(input, lw),
                    keys,
                    *n as usize,
                    slot,
                ))
            } else {
                Box::new(TopNOp {
                    keys,
                    child: lower_impl(input, lw)?,
                    n: *n,
                    buf: Vec::new(),
                    pos: 0,
                })
            }
        }
    };
    Ok(match &lw.slots {
        Some(slots) => Box::new(InstrumentedOp {
            inner: op,
            id,
            slots: Arc::clone(slots),
            label: format!("{}#{id}", plan.op_name()),
        }),
        None => op,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::run_plan_materialized;
    use fto_common::{ColId, ColSet, Direction, QuantifierId};
    use fto_order::StreamProps;
    use fto_planner::cost::Cost;
    use fto_storage::Database;
    use std::sync::Arc;

    fn test_db(rows: i64) -> Database {
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
            (0..rows)
                .map(|i| vec![Value::Int(i), Value::Int(i % 5)].into_boxed_slice())
                .collect(),
        )
        .unwrap();
        db
    }

    fn scan_plan() -> Arc<Plan> {
        Arc::new(Plan {
            node: PlanNode::TableScan {
                table: TableId(0),
                quantifier: QuantifierId(0),
            },
            layout: RowLayout::new(vec![ColId(0), ColId(1)]),
            props: StreamProps::base_table(ColSet::from_cols([ColId(0), ColId(1)]), vec![]),
            cost: Cost {
                total: 0.0,
                rows: 0.0,
            },
        })
    }

    #[test]
    fn streaming_scan_matches_materialized() {
        let db = test_db(500);
        let graph = QueryGraph::new();
        let plan = scan_plan();
        let old = run_plan_materialized(&db, &graph, &plan).unwrap();
        let new = execute_plan(
            &db,
            &graph,
            &plan,
            &ExecOptions {
                batch_size: 64,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(old.rows, new.rows());
        assert_eq!(old.io.sequential_pages, new.io.sequential_pages);
        assert_eq!(old.io.rows_read, new.io.rows_read);
    }

    #[test]
    fn limit_reads_strictly_fewer_pages() {
        let db = test_db(5000);
        let graph = QueryGraph::new();
        let scan = scan_plan();
        let limit = Plan {
            node: PlanNode::Limit {
                input: scan.clone(),
                n: 10,
            },
            layout: scan.layout.clone(),
            props: scan.props.clone(),
            cost: scan.cost,
        };
        let old = run_plan_materialized(&db, &graph, &limit).unwrap();
        let new = execute_plan(&db, &graph, &limit, &ExecOptions::default()).unwrap();
        assert_eq!(old.rows, new.rows());
        assert_eq!(new.num_rows(), 10);
        // Streaming output arrives as non-empty batches that sum to the
        // row count — operators never emit empties.
        assert!(new.batches.iter().all(|b| !b.is_empty()));
        assert_eq!(new.batches.iter().map(Batch::len).sum::<usize>(), 10);
        let full_pages = db.heap(TableId(0)).unwrap().page_count();
        assert_eq!(old.io.sequential_pages, full_pages);
        assert!(
            new.io.sequential_pages < full_pages,
            "streaming LIMIT read {} of {} pages",
            new.io.sequential_pages,
            full_pages
        );
    }

    #[test]
    fn tiny_batches_still_agree() {
        let db = test_db(97);
        let graph = QueryGraph::new();
        let scan = scan_plan();
        let sort = Plan {
            node: PlanNode::Sort {
                input: scan.clone(),
                spec: [fto_order::SortKey {
                    col: ColId(1),
                    dir: Direction::Desc,
                }]
                .into_iter()
                .collect(),
            },
            layout: scan.layout.clone(),
            props: scan.props.clone(),
            cost: scan.cost,
        };
        let old = run_plan_materialized(&db, &graph, &sort).unwrap();
        let new = execute_plan(
            &db,
            &graph,
            &sort,
            &ExecOptions {
                batch_size: 1,
                ..ExecOptions::default()
            },
        )
        .unwrap();
        assert_eq!(old.rows, new.rows());
        assert_eq!(old.io.sort_rows, new.io.sort_rows);
    }

    #[test]
    fn parallel_sort_matches_serial_bit_for_bit() {
        let db = test_db(1777);
        let graph = QueryGraph::new();
        let scan = scan_plan();
        let sort = Plan {
            node: PlanNode::Sort {
                input: scan.clone(),
                spec: [
                    fto_order::SortKey {
                        col: ColId(1),
                        dir: Direction::Desc,
                    },
                    fto_order::SortKey {
                        col: ColId(0),
                        dir: Direction::Asc,
                    },
                ]
                .into_iter()
                .collect(),
            },
            layout: scan.layout.clone(),
            props: scan.props.clone(),
            cost: scan.cost,
        };
        let serial = execute_plan(&db, &graph, &sort, &ExecOptions::default()).unwrap();
        for threads in [2usize, 3, 4] {
            let par = execute_plan(
                &db,
                &graph,
                &sort,
                &ExecOptions {
                    batch_size: 97,
                    threads,
                    ..ExecOptions::default()
                },
            )
            .unwrap();
            assert_eq!(serial.rows(), par.rows(), "threads={threads}");
            // Page-aligned partitions charge exactly the serial totals.
            assert_eq!(serial.io.sequential_pages, par.io.sequential_pages);
            assert_eq!(serial.io.rows_read, par.io.rows_read);
            assert_eq!(serial.io.sort_rows, par.io.sort_rows);
        }
    }

    #[test]
    fn parallel_instrumented_rollup_stays_exact() {
        let db = test_db(2048);
        let graph = QueryGraph::new();
        let scan = scan_plan();
        let sort = Plan {
            node: PlanNode::Sort {
                input: scan.clone(),
                spec: [fto_order::SortKey {
                    col: ColId(1),
                    dir: Direction::Asc,
                }]
                .into_iter()
                .collect(),
            },
            layout: scan.layout.clone(),
            props: scan.props.clone(),
            cost: scan.cost,
        };
        for threads in [1usize, 2, 4] {
            let opts = ExecOptions {
                batch_size: 128,
                threads,
                ..ExecOptions::default()
            };
            let (result, metrics) = execute_plan_instrumented(&db, &graph, &sort, &opts).unwrap();
            assert_eq!(result.num_rows(), 2048);
            assert!(
                metrics.validate().is_ok(),
                "threads={threads}: {:?}",
                metrics.validate()
            );
            assert_eq!(metrics.total_io(), result.io, "threads={threads}");
            if threads > 1 {
                // The Sort node carries one entry per exchange worker.
                assert_eq!(metrics.ops[0].workers.len(), threads);
                let worker_rows: u64 = metrics.ops[0].workers.iter().map(|w| w.rows).sum();
                assert_eq!(worker_rows, 2048);
            }
        }
    }
}
