//! Differential testing of bounded-memory execution: every query in the
//! workload corpus must produce bit-identical rows under any memory
//! budget — external sort runs, spilled hash partitions, and the bounded
//! buffer pool may change *how* the work happens, never *what* comes
//! out. Budgets sweep from "everything spills" to "nothing spills",
//! crossed with thread counts, and the per-query I/O accounting must
//! stay exact (per-operator deltas summing to the session totals) on the
//! spilling paths too.

use fto_bench::corpus::{emp_db, EMP_QUERIES};
use fto_bench::Session;
use fto_common::Row;
use fto_planner::OptimizerConfig;
use fto_storage::Database;
use fto_tpcd::{build_database, queries, TpcdConfig};

/// Budgets the matrix sweeps: 4 KiB forces nearly every sort/group-by
/// over the corpus to spill, 64 KiB spills only the bigger plans.
const BUDGETS: &[usize] = &[4 << 10, 64 << 10];

fn unbounded_rows(db: &Database, sql: &str) -> Vec<Row> {
    Session::new(db)
        .config(OptimizerConfig::default())
        .execute(sql)
        .unwrap_or_else(|e| panic!("{sql}\nunbounded: {e}"))
        .rows()
        .to_vec()
}

/// Joins whose build sides spill at 1 KiB: the hash join under grouped
/// aggregation and the left-outer join with and without ON residuals.
const SPILLING_JOINS: [&str; 3] = [
    "select dept_name, count(*) as n, sum(salary) as total \
     from dept, emp where dept_id = emp_dept group by dept_name order by dept_name",
    "select dept_id, emp_id from dept left join emp on dept_id = emp_dept \
     order by dept_id, emp_id",
    "select dept_id, emp_id, salary from dept left join emp \
     on dept_id = emp_dept and grade = 9 order by dept_id, emp_id",
];

#[test]
fn corpus_is_bit_identical_under_memory_budgets() {
    let db = emp_db();
    for sql in EMP_QUERIES {
        let baseline = unbounded_rows(&db, sql);
        for &budget in BUDGETS {
            for threads in [1usize, 2, 4] {
                let config = OptimizerConfig::default()
                    .with_memory_budget(budget)
                    .with_threads(threads);
                let out = Session::new(&db)
                    .config(config)
                    .execute(sql)
                    .unwrap_or_else(|e| panic!("{sql}\nbudget={budget} threads={threads}: {e}"));
                assert_eq!(
                    out.rows(),
                    baseline,
                    "bounded execution diverged\nsql: {sql}\n\
                     budget={budget} threads={threads}"
                );
            }
        }
    }
}

#[test]
fn unbounded_execution_never_touches_spill_or_pool() {
    // Without a budget the new machinery must be completely inert: the
    // exact I/O totals existing tests pin down can't drift.
    let db = emp_db();
    for sql in EMP_QUERIES {
        let out = Session::new(&db)
            .config(OptimizerConfig::default())
            .execute(sql)
            .unwrap();
        assert_eq!(out.io.spill_pages_written, 0, "{sql}");
        assert_eq!(out.io.spill_pages_read, 0, "{sql}");
        assert_eq!(out.io.pool_hits, 0, "{sql}");
        assert_eq!(out.io.pool_misses, 0, "{sql}");
    }
}

#[test]
fn tiny_budget_spills_and_counts_it() {
    // A sort over all 400 emp rows cannot fit a 1 KiB budget: runs must
    // spill, the merge must read them back, and both sides of the spill
    // traffic must land in the per-query I/O counters.
    let db = emp_db();
    let sql = "select emp_id, salary from emp order by salary desc, emp_id";
    let baseline = unbounded_rows(&db, sql);
    let out = Session::new(&db)
        .config(OptimizerConfig::default().with_memory_budget(1 << 10))
        .execute(sql)
        .unwrap();
    assert_eq!(out.rows(), baseline);
    assert!(
        out.io.spill_pages_written > 0,
        "sort under 1 KiB must write spill pages"
    );
    assert!(
        out.io.spill_pages_read > 0,
        "merge must read the spilled runs back"
    );
    assert!(out.spill.runs_formed > 0);
    assert!(out.spill.merge_passes > 0);
    // Heap scans go through the bounded buffer pool when a budget is
    // set; every page charge is a recorded hit or miss.
    assert!(
        out.io.pool_hits + out.io.pool_misses > 0,
        "scans must route through the pool"
    );
}

#[test]
fn group_by_spills_partitions_under_tiny_budget() {
    // Group on emp_id: 400 distinct groups can't all be resident under
    // 1 KiB, so overflow keys must take the partition-spill path — and
    // still come back in first-seen order with exact aggregates.
    let db = emp_db();
    let sql = "select emp_id, sum(salary) as s, count(*) as n from emp group by emp_id";
    let baseline = unbounded_rows(&db, sql);
    let out = Session::new(&db)
        .config(OptimizerConfig::default().with_memory_budget(1 << 10))
        .execute(sql)
        .unwrap();
    assert_eq!(out.rows(), baseline);
    assert!(
        out.io.spill_pages_written > 0,
        "400 groups under 1 KiB must spill partitions"
    );
    assert!(out.io.spill_pages_read > 0);
}

#[test]
fn left_join_build_side_spills_under_budget() {
    // The left-outer join admits build rows until the budget is hit,
    // then spills the remainder to a run file; probe output must stay
    // bit-identical, with matches in build arrival order even when
    // resident and spilled rows interleave within one key.
    let db = emp_db();
    let queries = &SPILLING_JOINS[1..];
    for &sql in queries {
        let baseline = unbounded_rows(&db, sql);
        for &budget in BUDGETS {
            let out = Session::new(&db)
                .config(OptimizerConfig::default().with_memory_budget(budget))
                .execute(sql)
                .unwrap_or_else(|e| panic!("{sql}\nbudget={budget}: {e}"));
            assert_eq!(
                out.rows(),
                baseline,
                "left join diverged under budget\nsql: {sql}\nbudget={budget}"
            );
        }
    }
    // At 1 KiB the 400-row build side cannot stay resident: the join (or
    // the sort above it) must write spill pages and read them back.
    let sql = queries[0];
    let out = Session::new(&db)
        .config(OptimizerConfig::default().with_memory_budget(1 << 10))
        .execute(sql)
        .unwrap();
    assert_eq!(out.rows(), unbounded_rows(&db, sql));
    assert!(
        out.io.spill_pages_written > 0,
        "400 build rows under 1 KiB must spill"
    );
    assert!(out.io.spill_pages_read > 0);
}

#[test]
fn row_shim_charges_identical_io_under_budgets() {
    // The spilling joins (one `JoinBuild` shared by the hash and
    // left-outer probes: same admission order, same batch-serialized
    // spill groups, same single-entry decode cache) must charge the
    // same I/O, spill pages included, every time one plan runs: plain,
    // again, and instrumented, with the per-operator deltas summing to
    // that total. The row-at-a-time operator copies this test once
    // compared against are gone; the plan's own reruns are the baseline.
    let db = emp_db();
    for sql in SPILLING_JOINS {
        let baseline = unbounded_rows(&db, sql);
        for budget in [1 << 10, 4 << 10] {
            for threads in [1usize, 2, 4] {
                let config = OptimizerConfig::default()
                    .with_memory_budget(budget)
                    .with_threads(threads);
                let q = Session::new(&db)
                    .config(config.clone())
                    .plan(sql)
                    .unwrap_or_else(|e| panic!("{sql}\n{config:?}: {e}"));
                let first = q
                    .execute()
                    .unwrap_or_else(|e| panic!("{sql}\n{config:?}: {e}"));
                let again = q
                    .execute()
                    .unwrap_or_else(|e| panic!("{sql}\n{config:?}: {e}"));
                let (instrumented, metrics) = q
                    .execute_instrumented()
                    .unwrap_or_else(|e| panic!("{sql}\n{config:?}: {e}"));
                assert_eq!(
                    first.rows(),
                    baseline,
                    "rows diverged\nsql: {sql}\n{config:?}"
                );
                assert_eq!(
                    instrumented.rows(),
                    baseline,
                    "instrumented rows diverged\nsql: {sql}\n{config:?}"
                );
                assert_eq!(
                    first.io, again.io,
                    "I/O diverged on rerun\nsql: {sql}\n{config:?}"
                );
                assert_eq!(
                    first.io, instrumented.io,
                    "I/O diverged when instrumented\nsql: {sql}\n{config:?}"
                );
                assert!(
                    metrics.validate().is_ok(),
                    "{sql}\n{config:?}: {:?}",
                    metrics.validate()
                );
                assert_eq!(metrics.total_io(), first.io, "{sql}\n{config:?}");
            }
        }
    }
    // At 1 KiB the 400-row build side cannot stay resident: the probe
    // must actually be reading spilled groups.
    let out = Session::new(&db)
        .config(OptimizerConfig::default().with_memory_budget(1 << 10))
        .execute(SPILLING_JOINS[1])
        .unwrap();
    assert!(out.io.spill_pages_written > 0);
    assert!(out.io.spill_pages_read > 0);
}

#[test]
fn budget_and_threads_compose_bit_identically() {
    // A memory budget no longer pins execution serial: parallel workers
    // get budget/P sub-budgets and must produce the same bytes as the
    // unbounded serial baseline. The second query keeps a spilling hash
    // join inside the partition pipelines, so the sub-budgets must still
    // actually bound (and spill) the per-worker build sides.
    let db = emp_db();
    let queries = [
        "select emp_id, salary from emp order by salary desc, emp_id",
        "select dept_name, count(*) as n, sum(salary) as total \
         from dept, emp where dept_id = emp_dept group by dept_name order by dept_name",
    ];
    for (i, sql) in queries.iter().enumerate() {
        let baseline = unbounded_rows(&db, sql);
        for threads in [1usize, 2, 4] {
            let out = Session::new(&db)
                .config(
                    OptimizerConfig::default()
                        .with_memory_budget(1 << 10)
                        .with_threads(threads),
                )
                .execute(sql)
                .unwrap_or_else(|e| panic!("{sql}\nthreads={threads}: {e}"));
            assert_eq!(out.rows(), baseline, "{sql}\nthreads={threads}");
            // Scans route through the per-worker bounded pools.
            assert!(
                out.io.pool_hits + out.io.pool_misses > 0,
                "{sql}\nthreads={threads}: budgeted scans must use the pool"
            );
            if i == 1 {
                assert!(
                    out.io.spill_pages_written > 0,
                    "{sql}\nthreads={threads}: worker pipelines must spill \
                     under their sub-budgets"
                );
            }
        }
    }
}

#[test]
fn instrumented_accounting_stays_exact_while_spilling() {
    // The metrics invariant the instrumented engine guarantees — per-
    // operator I/O deltas sum exactly to the session totals — must
    // survive the spilling operators charging brand-new counters.
    let db = emp_db();
    for sql in [
        "select emp_id, salary from emp order by salary desc, emp_id",
        "select dept_name, count(*) as n, sum(salary) as total \
         from dept, emp where dept_id = emp_dept group by dept_name order by dept_name",
        "select emp_id, salary from emp order by salary desc, emp_id limit 7",
        "select distinct emp_dept, grade from emp order by emp_dept, grade",
    ] {
        let q = Session::new(&db)
            .config(OptimizerConfig::default().with_memory_budget(2 << 10))
            .plan(sql)
            .unwrap();
        let (out, metrics) = q.execute_instrumented().unwrap();
        assert!(
            metrics.validate().is_ok(),
            "{sql}: {:?}",
            metrics.validate()
        );
        assert_eq!(metrics.total_io(), out.io, "{sql}");
    }
}

#[test]
fn explain_analyze_reports_spill_traffic() {
    let db = emp_db();
    let q = Session::new(&db)
        .config(OptimizerConfig::default().with_memory_budget(1 << 10))
        .plan("select emp_id, salary from emp order by salary desc, emp_id")
        .unwrap();
    let text = q.explain_analyze().unwrap();
    assert!(text.contains("spill: w="), "{text}");
    assert!(text.contains("pool: hits="), "{text}");
    assert!(text.contains("spill: runs="), "{text}");
}

#[test]
fn tpcd_workload_is_bit_identical_under_memory_budgets() {
    let db = build_database(TpcdConfig {
        scale: 0.002,
        seed: 19,
    })
    .unwrap();
    let workload = [
        queries::q3_default(),
        queries::q1("1998-09-02"),
        queries::order_report(),
        queries::section6_example(),
    ];
    for sql in &workload {
        let baseline = unbounded_rows(&db, sql);
        for &budget in BUDGETS {
            for threads in [1usize, 2, 4] {
                let config = OptimizerConfig::default()
                    .with_memory_budget(budget)
                    .with_threads(threads);
                let out = Session::new(&db)
                    .config(config)
                    .execute(sql)
                    .unwrap_or_else(|e| panic!("{sql}\nbudget={budget} threads={threads}: {e}"));
                assert_eq!(
                    out.rows(),
                    baseline,
                    "bounded TPC-D execution diverged\nsql: {sql}\n\
                     budget={budget} threads={threads}"
                );
            }
        }
    }
}
