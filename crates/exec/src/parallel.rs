//! The exchange layer: morsel-style intra-query parallelism on plain
//! `std::thread`.
//!
//! At parallel degree P > 1, lowering (in [`crate::stream`]) replaces
//! eligible plan positions with the operators here. Each exchange fans a
//! *partitionable* subtree — a Filter/Project chain over one table or
//! index scan — out over P scoped worker threads. Every worker lowers its
//! own copy of the subtree **inside** its thread (operator trees never
//! cross threads, so [`crate::stream::Operator`] needs no `Send` bound),
//! drives it over a deterministic scan partition
//! ([`fto_storage::HeapScanState::partition`] /
//! [`fto_storage::IndexScanState::open_partition`]), and charges a
//! private [`IoStats`] that the coordinator merges into the session
//! stream in partition order. Page/leaf-aligned partitions charge exactly
//! the pages a serial scan charges, so session totals — and the
//! [`crate::metrics::PlanMetrics`] exact-rollup invariant — are preserved
//! at every degree.
//!
//! Determinism contract (what makes parallel output bit-identical to
//! serial):
//!
//! * [`GatherOp`] concatenates worker outputs in partition order, and
//!   partition k of a scan *is* segment k of the serial emission order
//!   (reverse index scans map partitions accordingly) — so a gather
//!   reproduces the serial stream exactly.
//! * [`MergeExchangeOp`] has each worker sort its run with the kernel,
//!   tagged with local positions, then K-way merges by `(keys, seq)`
//!   after rebasing run k's tags onto the interval of serial positions
//!   its partition covered ([`crate::sortkernel::SortedRun::shift`]) —
//!   reproducing the serial stable sort.
//! * [`RepartitionSortOp`] handles non-partitionable sort inputs: the
//!   coordinator drains the child serially, deals rows round-robin
//!   tagging each with its global position, workers sort buckets by
//!   `(keys, seq)`, and the merge restores the serial stable sort.
//! * [`TopNExchangeOp`] takes each partition's local top-N (kernel
//!   selection, position-tagged), merges by `(keys, seq)`, and truncates
//!   — any row of the global top-N is necessarily in its partition's
//!   top-N, so the result equals the serial Top-N exactly.
//!
//! All exchanges are pipeline breakers that materialize at `open`; they
//! are only inserted where the serial plan drained its input at `open`
//! anyway (Sort, TopN, join build sides, hash group-by inputs), so
//! early-termination behavior above them is unchanged.

use crate::metrics::{OpMetrics, WorkerOpMetrics};
use crate::sortkernel::{self, SortKeys, SortedRun};
use crate::stream::{drain_all, lower_worker, Batch, ExecContext, ExecOptions, Operator};
use fto_common::{Result, Row};
use fto_obs::profile;
use fto_planner::Plan;
use fto_storage::IoStats;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Everything a worker needs to lower and drive its partition of an
/// exchanged subtree.
pub(crate) struct PartitionSpec {
    /// The subtree each worker lowers privately.
    pub plan: Arc<Plan>,
    /// Number of partitions (the exchange's degree of parallelism).
    pub parts: usize,
    /// Instrumentation slots shared with the coordinator, if any.
    pub slots: Option<Arc<Mutex<Vec<OpMetrics>>>>,
    /// Pre-order id of the subtree's root slot (workers record into the
    /// ids the coordinator reserved starting here).
    pub base_id: usize,
}

/// One worker's result: the finished payload plus its private I/O stream
/// and drive statistics.
struct WorkerRun<T> {
    out: T,
    io: IoStats,
    batches: u64,
    elapsed: Duration,
}

/// Runs the spec's subtree over all partitions on scoped threads; worker
/// `k` drains partition `k` and then applies `finish` (e.g. sorting the
/// run) before returning. Results come back in partition order, and a
/// worker's private `IoStats` captures everything it charged — including
/// whatever `finish` adds — so the coordinator can merge the streams in a
/// deterministic order.
fn run_partitions<T, F>(
    cx: &ExecContext<'_>,
    spec: &PartitionSpec,
    finish: F,
) -> Result<Vec<WorkerRun<T>>>
where
    T: Send,
    F: Fn(Vec<Row>, &mut IoStats) -> T + Sync,
{
    let parts = spec.parts;
    // Workers rebuild their own contexts from plain copies of the
    // coordinator's knobs: `ExecContext` itself is not `Sync` (its buffer
    // pool is a `RefCell`). A memory budget splits into per-worker
    // sub-budgets of `budget / P` (at least one byte), so P bounded
    // partition pipelines together stay within the query's budget; each
    // worker context builds its own private pool from its share.
    let (db, graph, batch_size) = (cx.db, cx.graph, cx.batch_size);
    let sub_budget = cx.memory_budget.map(|b| (b / parts).max(1));
    // Profiler lanes are allocated here on the coordinator, before any
    // worker spawns, so lane numbering reflects partition order — never
    // thread scheduling. Each worker installs its pre-assigned lane for
    // the lifetime of its partition pipeline.
    let lane_base = cx.profiler.as_ref().map(|p| p.alloc_lanes(parts as u32));
    let results: Vec<Result<WorkerRun<T>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..parts)
            .map(|part| {
                let finish = &finish;
                let profiler = cx.profiler.clone();
                s.spawn(move || -> Result<WorkerRun<T>> {
                    let started = Instant::now();
                    let _lane = profiler.as_ref().map(|p| {
                        p.install_lane_at(
                            lane_base.expect("lanes pre-allocated") + part as u32,
                            format!("worker p{part}"),
                        )
                    });
                    profile::span_begin("exchange", || format!("partition p{part}"));
                    // Worker contexts pin threads to 1: partition
                    // pipelines never nest exchanges.
                    let wcx = ExecContext::new(
                        db,
                        graph,
                        &ExecOptions {
                            batch_size,
                            threads: 1,
                            memory_budget: sub_budget,
                            ..ExecOptions::default()
                        },
                    );
                    let mut wio = IoStats::new();
                    let mut op =
                        lower_worker(&spec.plan, part, parts, spec.slots.clone(), spec.base_id)?;
                    op.open(&wcx, &mut wio)?;
                    let mut rows = Vec::new();
                    let mut batches = 0u64;
                    while let Some(batch) = op.next_batch(&wcx, &mut wio)? {
                        batches += 1;
                        batch.append_rows_to(&mut rows);
                    }
                    op.close();
                    let out = finish(rows, &mut wio);
                    profile::span_end("exchange", || format!("partition p{part}"));
                    Ok(WorkerRun {
                        out,
                        io: wio,
                        batches,
                        elapsed: started.elapsed(),
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    results.into_iter().collect()
}

/// Attaches per-worker metrics to the slot with pre-order id `id`.
fn record_workers(
    slot: &Option<(usize, Arc<Mutex<Vec<OpMetrics>>>)>,
    workers: Vec<WorkerOpMetrics>,
) {
    if let Some((id, slots)) = slot {
        slots.lock().expect("metrics mutex poisoned")[*id].workers = workers;
    }
}

/// Streams a buffered result in batch-size chunks (the tail shared by all
/// exchange operators).
fn emit(buf: &[Row], pos: &mut usize, batch_size: usize) -> Option<Batch> {
    if *pos >= buf.len() {
        return None;
    }
    let end = (*pos + batch_size).min(buf.len());
    let batch = Batch::from_rows(&buf[*pos..end]);
    *pos = end;
    Some(batch)
}

/// Order-preserving gather: drains the P partition pipelines on worker
/// threads and concatenates their outputs in partition order — exactly
/// the serial emission order. Inserted where the parent fully drains the
/// child at `open` (join build sides, hash group-by inputs).
///
/// The gather deliberately has no metric slot of its own: the workers'
/// wrappers record rows/batches/I/O into the exchanged subtree's slots,
/// and their per-worker breakdown lands on the subtree root's
/// [`OpMetrics::workers`].
pub(crate) struct GatherOp {
    spec: PartitionSpec,
    buf: Vec<Row>,
    pos: usize,
}

impl GatherOp {
    pub(crate) fn new(spec: PartitionSpec) -> GatherOp {
        GatherOp {
            spec,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl Operator for GatherOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        let runs = run_partitions(cx, &self.spec, |rows, _| rows)?;
        let mut workers = Vec::with_capacity(runs.len());
        self.buf = Vec::new();
        for run in runs {
            io.merge(&run.io);
            workers.push(WorkerOpMetrics {
                rows: run.out.len() as u64,
                batches: run.batches,
                io: run.io,
                elapsed: run.elapsed,
            });
            self.buf.extend(run.out);
        }
        let slot = self
            .spec
            .slots
            .as_ref()
            .map(|s| (self.spec.base_id, Arc::clone(s)));
        record_workers(&slot, workers);
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, _io: &mut IoStats) -> Result<Option<Batch>> {
        Ok(emit(&self.buf, &mut self.pos, cx.batch_size))
    }

    fn close(&mut self) {
        self.buf = Vec::new();
    }
}

/// Parallel sort over a partitionable input: workers drain and stably
/// sort disjoint partitions of the serial stream, the coordinator tags
/// each run with its partition's serial interval and K-way merges by
/// `(keys, seq)` — bit-identical to the serial sort operator's output.
pub(crate) struct MergeExchangeOp {
    spec: PartitionSpec,
    keys: SortKeys,
    own_slot: Option<(usize, Arc<Mutex<Vec<OpMetrics>>>)>,
    buf: Vec<Row>,
    pos: usize,
}

impl MergeExchangeOp {
    pub(crate) fn new(
        spec: PartitionSpec,
        keys: SortKeys,
        own_slot: Option<(usize, Arc<Mutex<Vec<OpMetrics>>>)>,
    ) -> MergeExchangeOp {
        MergeExchangeOp {
            spec,
            keys,
            own_slot,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl Operator for MergeExchangeOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        let keys = &self.keys;
        // Each worker charges its run to `sort_rows` and sorts it inside
        // the thread — the parallel half of the work — keeping its
        // normalized keys (tagged with local positions) so the
        // coordinator's merge is memcmp-only.
        let runs = run_partitions(cx, &self.spec, |rows, wio| {
            wio.sort_rows += rows.len() as u64;
            sortkernel::sort_run(rows, keys)
        })?;
        let mut workers = Vec::with_capacity(runs.len());
        let mut sorted = Vec::with_capacity(runs.len());
        let mut base = 0u64;
        for run in runs {
            io.merge(&run.io);
            workers.push(WorkerOpMetrics {
                rows: run.out.rows.len() as u64,
                batches: run.batches,
                io: run.io,
                elapsed: run.elapsed,
            });
            let mut srun = run.out;
            let len = srun.rows.len() as u64;
            // Rebase local tags onto the partition's serial interval.
            srun.shift(base);
            sorted.push(srun);
            base += len;
        }
        record_workers(&self.own_slot, workers);
        self.buf = sortkernel::merge_runs(sorted);
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, _io: &mut IoStats) -> Result<Option<Batch>> {
        Ok(emit(&self.buf, &mut self.pos, cx.batch_size))
    }

    fn close(&mut self) {
        self.buf = Vec::new();
    }
}

/// Parallel sort for inputs that cannot be partitioned (joins,
/// aggregations): the coordinator drains the serial child, deals rows
/// round-robin into P buckets tagged with their global positions, workers
/// sort the buckets by `(keys, seq)`, and the K-way merge restores the
/// serial stable sort exactly.
pub(crate) struct RepartitionSortOp {
    child: Box<dyn Operator>,
    keys: SortKeys,
    parts: usize,
    own_slot: Option<(usize, Arc<Mutex<Vec<OpMetrics>>>)>,
    buf: Vec<Row>,
    pos: usize,
}

impl RepartitionSortOp {
    pub(crate) fn new(
        child: Box<dyn Operator>,
        keys: SortKeys,
        parts: usize,
        own_slot: Option<(usize, Arc<Mutex<Vec<OpMetrics>>>)>,
    ) -> RepartitionSortOp {
        RepartitionSortOp {
            child,
            keys,
            parts,
            own_slot,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl Operator for RepartitionSortOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        let rows = drain_all(&mut self.child, cx, io)?;
        io.sort_rows += rows.len() as u64;
        let mut buckets: Vec<Vec<(u64, Row)>> = (0..self.parts).map(|_| Vec::new()).collect();
        for (g, row) in rows.into_iter().enumerate() {
            buckets[g % self.parts].push((g as u64, row));
        }
        let keys = &self.keys;
        // Lanes pre-allocated on the coordinator, as in run_partitions.
        let lane_base = cx
            .profiler
            .as_ref()
            .map(|p| p.alloc_lanes(self.parts as u32));
        let runs: Vec<(SortedRun, Duration)> = std::thread::scope(|s| {
            let handles: Vec<_> = buckets
                .into_iter()
                .enumerate()
                .map(|(part, bucket)| {
                    let profiler = cx.profiler.clone();
                    s.spawn(move || {
                        let _lane = profiler.as_ref().map(|p| {
                            p.install_lane_at(
                                lane_base.expect("lanes pre-allocated") + part as u32,
                                format!("bucket-sort p{part}"),
                            )
                        });
                        profile::span_begin("exchange", || format!("bucket p{part}"));
                        let started = Instant::now();
                        let run = sortkernel::sort_tagged_run(bucket, keys);
                        let elapsed = started.elapsed();
                        profile::span_end("exchange", || format!("bucket p{part}"));
                        (run, elapsed)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                .collect()
        });
        // Bucket sorts touch no pages and pull no batches; only rows and
        // sort time are meaningful per worker here.
        let workers = runs
            .iter()
            .map(|(run, elapsed)| WorkerOpMetrics {
                rows: run.rows.len() as u64,
                batches: 0,
                io: IoStats::new(),
                elapsed: *elapsed,
            })
            .collect();
        record_workers(&self.own_slot, workers);
        self.buf = sortkernel::merge_runs(runs.into_iter().map(|(run, _)| run).collect());
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, _io: &mut IoStats) -> Result<Option<Batch>> {
        Ok(emit(&self.buf, &mut self.pos, cx.batch_size))
    }

    fn close(&mut self) {
        self.buf = Vec::new();
        self.child.close();
    }
}

/// Parallel Top-N over a partitionable input: each worker selects its
/// partition's local top-N tagged with local positions; the coordinator
/// shifts tags onto the partitions' serial intervals, merges by
/// `(keys, seq)`, and truncates. Any row of the global top-N is in its
/// partition's top-N, so the result is bit-identical to the serial
/// operator — including the choice among boundary ties (earliest serial
/// positions win).
pub(crate) struct TopNExchangeOp {
    spec: PartitionSpec,
    keys: SortKeys,
    n: usize,
    own_slot: Option<(usize, Arc<Mutex<Vec<OpMetrics>>>)>,
    buf: Vec<Row>,
    pos: usize,
}

impl TopNExchangeOp {
    pub(crate) fn new(
        spec: PartitionSpec,
        keys: SortKeys,
        n: usize,
        own_slot: Option<(usize, Arc<Mutex<Vec<OpMetrics>>>)>,
    ) -> TopNExchangeOp {
        TopNExchangeOp {
            spec,
            keys,
            n,
            own_slot,
            buf: Vec::new(),
            pos: 0,
        }
    }
}

impl Operator for TopNExchangeOp {
    fn open(&mut self, cx: &ExecContext<'_>, io: &mut IoStats) -> Result<()> {
        let keys = &self.keys;
        let n = self.n;
        let runs = run_partitions(cx, &self.spec, |rows, _| {
            let total = rows.len() as u64;
            let tagged: Vec<(u64, Row)> = rows
                .into_iter()
                .enumerate()
                .map(|(i, r)| (i as u64, r))
                .collect();
            (sortkernel::top_n_run(tagged, keys, n), total)
        })?;
        let mut workers = Vec::with_capacity(runs.len());
        let mut sorted = Vec::with_capacity(runs.len());
        let mut base = 0u64;
        for run in runs {
            io.merge(&run.io);
            let (mut top, drained) = run.out;
            workers.push(WorkerOpMetrics {
                rows: top.rows.len() as u64,
                batches: run.batches,
                io: run.io,
                elapsed: run.elapsed,
            });
            // Local tags shift onto the partition's serial interval
            // (stored keys get their seq suffix patched in place).
            top.shift(base);
            sorted.push(top);
            base += drained;
        }
        record_workers(&self.own_slot, workers);
        let mut merged = sortkernel::merge_runs(sorted);
        merged.truncate(n);
        // Charge what the serial operator charges: the surviving prefix.
        io.sort_rows += merged.len() as u64;
        self.buf = merged;
        self.pos = 0;
        Ok(())
    }

    fn next_batch(&mut self, cx: &ExecContext<'_>, _io: &mut IoStats) -> Result<Option<Batch>> {
        Ok(emit(&self.buf, &mut self.pos, cx.batch_size))
    }

    fn close(&mut self) {
        self.buf = Vec::new();
    }
}
