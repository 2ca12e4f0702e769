//! Execution-timeline profiler and plan-quality (Q-error) contracts:
//!
//! * **invisibility** — running with the profiler attached changes
//!   nothing observable: rows are bit-identical, `IoStats` are equal,
//!   and the per-operator `PlanMetrics` rollup is exactly the same, for
//!   every corpus query at threads 1/2/4;
//! * **structure** — the captured timeline is well formed: within every
//!   lane, Begin/End span events balance and nest with matching names,
//!   timestamps are monotone, and parallel plans produce per-worker
//!   lanes beyond the coordinator's;
//! * **export** — the Chrome trace-event JSON and folded-stack exports
//!   render the same events they were built from;
//! * **Q-error** — a query whose conjunctive predicate breaks the
//!   independence assumption (perfectly correlated columns) surfaces in
//!   `EXPLAIN ANALYZE`'s `q-err` column and in
//!   [`fto_exec::PlanMetrics::worst_q_error`].

use fto_bench::corpus::{emp_db, EMP_QUERIES};
use fto_bench::Session;
use fto_catalog::{Catalog, ColumnDef, KeyDef};
use fto_common::{DataType, Value};
use fto_exec::PlanMetrics;
use fto_obs::{ExecutionProfile, SpanKind};
use fto_planner::OptimizerConfig;
use fto_storage::Database;

/// Asserts two instrumented rollups agree on everything deterministic
/// (elapsed times excluded — they are wall-clock).
fn assert_same_rollup(plain: &PlanMetrics, profiled: &PlanMetrics, sql: &str) {
    assert_eq!(plain.len(), profiled.len(), "operator count\nsql: {sql}");
    assert_eq!(plain.children, profiled.children, "tree shape\nsql: {sql}");
    for (id, (a, b)) in plain.ops.iter().zip(&profiled.ops).enumerate() {
        assert_eq!(a.name, b.name, "op {id} name\nsql: {sql}");
        assert_eq!(a.rows, b.rows, "op {id} rows\nsql: {sql}");
        assert_eq!(a.batches, b.batches, "op {id} batches\nsql: {sql}");
        assert_eq!(a.io, b.io, "op {id} io\nsql: {sql}");
        assert_eq!(a.est_rows, b.est_rows, "op {id} est rows\nsql: {sql}");
        assert_eq!(a.est_groups, b.est_groups, "op {id} est groups\nsql: {sql}");
        assert_eq!(
            a.segment_groups, b.segment_groups,
            "op {id} groups\nsql: {sql}"
        );
        assert_eq!(
            a.workers.len(),
            b.workers.len(),
            "op {id} worker count\nsql: {sql}"
        );
    }
    assert_eq!(
        plain.total_io(),
        profiled.total_io(),
        "total io\nsql: {sql}"
    );
    plain.validate().unwrap_or_else(|e| panic!("{sql}: {e}"));
    profiled.validate().unwrap_or_else(|e| panic!("{sql}: {e}"));
}

/// Walks every lane asserting Begin/End events balance, nest with
/// matching names, and timestamps never go backwards. Returns the number
/// of operator-category spans seen.
fn assert_well_formed(profile: &ExecutionProfile, sql: &str) -> usize {
    let mut operator_spans = 0usize;
    for lane in &profile.lanes {
        assert_eq!(
            lane.dropped, 0,
            "lane {} dropped events\nsql: {sql}",
            lane.lane
        );
        let mut stack: Vec<&str> = Vec::new();
        let mut last_ts = 0u64;
        for e in &lane.events {
            assert!(
                e.ts_us >= last_ts,
                "lane {} ts went backwards at {:?}\nsql: {sql}",
                lane.lane,
                e.name
            );
            last_ts = e.ts_us;
            match e.kind {
                SpanKind::Begin => {
                    if e.cat == "operator" {
                        operator_spans += 1;
                    }
                    stack.push(&e.name);
                }
                SpanKind::End => {
                    let open = stack.pop().unwrap_or_else(|| {
                        panic!(
                            "lane {}: End {:?} with no span open\nsql: {sql}",
                            lane.lane, e.name
                        )
                    });
                    assert_eq!(
                        open, e.name,
                        "lane {} mismatched span\nsql: {sql}",
                        lane.lane
                    );
                }
                SpanKind::Instant => {}
            }
        }
        assert!(
            stack.is_empty(),
            "lane {} left spans open: {stack:?}\nsql: {sql}",
            lane.lane
        );
    }
    operator_spans
}

#[test]
fn profiler_is_invisible_at_every_degree_and_codec() {
    let db = emp_db();
    for sql in EMP_QUERIES {
        for threads in [1usize, 2, 4] {
            let cfg = OptimizerConfig::default().with_threads(threads);
            let prepared = Session::new(&db)
                .config(cfg)
                .plan(sql)
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            let (plain, plain_metrics) = prepared
                .execute_instrumented()
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            let (profiled, profiled_metrics, profile) = prepared
                .execute_profiled()
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            assert_eq!(
                plain.rows(),
                profiled.rows(),
                "profiling changed rows at threads={threads}\nsql: {sql}"
            );
            assert_eq!(
                plain.io, profiled.io,
                "profiling changed IoStats at threads={threads}\nsql: {sql}"
            );
            assert_same_rollup(&plain_metrics, &profiled_metrics, sql);
            let spans = assert_well_formed(&profile, sql);
            assert!(spans > 0, "no operator spans captured\nsql: {sql}");
        }
    }
}

#[test]
fn parallel_plans_profile_into_per_worker_lanes() {
    let db = emp_db();
    let mut saw_workers = false;
    for sql in EMP_QUERIES {
        let (_, _, profile) = Session::new(&db)
            .config(OptimizerConfig::default().with_threads(4))
            .plan(sql)
            .unwrap_or_else(|e| panic!("{sql}: {e}"))
            .execute_profiled()
            .unwrap_or_else(|e| panic!("{sql}: {e}"));
        assert!(!profile.lanes.is_empty(), "no lanes captured\nsql: {sql}");
        assert_eq!(profile.lanes[0].label, "coordinator", "sql: {sql}");
        // Lane ids are allocated on the coordinator before workers spawn,
        // so the merged order is deterministic: strictly increasing ids.
        for pair in profile.lanes.windows(2) {
            assert!(pair[0].lane < pair[1].lane, "lane order\nsql: {sql}");
        }
        if profile
            .lanes
            .iter()
            .any(|l| l.label.starts_with("worker p"))
        {
            saw_workers = true;
        }
    }
    assert!(
        saw_workers,
        "no corpus query produced per-worker exchange lanes at threads=4"
    );
}

#[test]
fn exports_render_the_captured_events() {
    let db = emp_db();
    let (_, _, profile) = Session::new(&db)
        .config(OptimizerConfig::default().with_threads(2))
        .plan(EMP_QUERIES[2])
        .unwrap()
        .execute_profiled()
        .unwrap();
    let chrome = profile.to_chrome_trace();
    assert!(chrome.trim_start().starts_with('['), "{chrome}");
    assert!(chrome.trim_end().ends_with(']'), "{chrome}");
    assert!(chrome.contains("\"thread_name\""), "{chrome}");
    assert!(chrome.contains("\"ph\":\"B\""), "{chrome}");
    assert!(chrome.contains("\"ph\":\"E\""), "{chrome}");
    // Every non-metadata event renders exactly one line.
    let event_lines = chrome
        .lines()
        .filter(|l| l.contains("\"ph\":") && !l.contains("\"ph\":\"M\""))
        .count();
    assert_eq!(event_lines, profile.event_count(), "{chrome}");
    let folded = profile.to_folded_stacks();
    assert!(
        folded.lines().any(|l| l.contains(';')),
        "folded stacks have no nested frames:\n{folded}"
    );
}

/// A table whose two columns are perfectly correlated (`v = k`), built
/// to defeat the planner's attribute-independence assumption: a
/// conjunction `k < N and v < N` gets its selectivity squared while the
/// true selectivity is that of one conjunct.
fn correlated_db() -> Database {
    let mut cat = Catalog::new();
    let t = cat
        .create_table(
            "t",
            vec![
                ColumnDef::new("k", DataType::Int),
                ColumnDef::new("v", DataType::Int),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
    let mut db = Database::new(cat);
    db.load_table(
        t,
        (0..100)
            .map(|i| vec![Value::Int(i), Value::Int(i)].into_boxed_slice())
            .collect(),
    )
    .unwrap();
    db
}

#[test]
fn q_error_column_reports_a_known_misestimate() {
    let db = correlated_db();
    let sql = "select k from t where k < 25 and v < 25 order by k";
    let prepared = Session::new(&db).plan(sql).unwrap();
    let (out, metrics) = prepared.execute_instrumented().unwrap();
    assert_eq!(out.num_rows(), 25);
    let (worst_id, worst_q) = metrics.worst_q_error().expect("non-empty plan");
    assert!(
        worst_q > 2.0,
        "correlated conjunction should misestimate by >2x, got {worst_q:.2}"
    );
    let worst = &metrics.ops[worst_id];
    assert!(
        worst.est_rows < 15.0 && worst.rows == 25,
        "expected squared-selectivity underestimate, got est={:.1} act={}",
        worst.est_rows,
        worst.rows
    );
    let text = prepared.explain_analyze().unwrap();
    assert!(text.contains("q-err="), "{text}");
    assert!(
        text.contains(&format!("q-err={worst_q:.2}")),
        "worst operator's q-error must render in EXPLAIN ANALYZE\n{text}"
    );
}

#[test]
fn exact_estimates_report_q_error_one() {
    let db = emp_db();
    // A full scan's cardinality comes straight from table stats — exact.
    let prepared = Session::new(&db).plan("select emp_id from emp").unwrap();
    let (_, metrics) = prepared.execute_instrumented().unwrap();
    let scan = metrics
        .ops
        .iter()
        .find(|op| op.name.contains("scan"))
        .expect("plan has a scan");
    assert_eq!(scan.rows_q_error(), 1.0, "scan of {} rows", scan.rows);
    let text = prepared.explain_analyze().unwrap();
    assert!(text.contains("q-err=1.00"), "{text}");
}
