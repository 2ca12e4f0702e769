//! Differential testing of the segmented (partial) sort enforcer: when
//! the stream below already delivers a prefix of the requested order
//! (clustered index, ordered join output), the planner sorts only within
//! prefix groups — and the output must stay bit-identical to the full
//! sort, to the materializing interpreter, and to itself across threads
//! and budgets.

use fto_bench::corpus::emp_db;
use fto_bench::Session;
use fto_planner::OptimizerConfig;
use fto_storage::Database;
use fto_tpcd::{build_database, TpcdConfig};

/// Corpus queries whose cheapest plan orders the stream by a prefix of
/// the requirement, leaving a residual suffix to sort within groups.
/// The ordered prefix comes from a hash join probing the sorted dept
/// side (order property (dept_id) flows through the join).
const EMP_SEGMENTED: &[&str] = &[
    "select emp_dept, dept_id, salary from dept, emp \
     where dept_id = emp_dept order by emp_dept, salary",
    "select emp_dept, dept_id, salary, grade from dept, emp \
     where dept_id = emp_dept order by emp_dept, salary desc, grade",
    "select dept_id, emp_id from dept left join emp on dept_id = emp_dept \
     order by dept_id, emp_id desc",
];

/// TPC-D: the clustered lineitem index (l_orderkey, l_linenumber)
/// supplies the prefix; only the residual columns are sorted per order.
const TPCD_SEGMENTED: &[&str] = &[
    "select l_orderkey, l_shipdate, l_extendedprice from lineitem \
     order by l_orderkey, l_shipdate",
    "select l_orderkey, l_quantity, l_linenumber from lineitem \
     order by l_orderkey, l_quantity desc, l_linenumber",
];

fn tpcd_db() -> Database {
    build_database(TpcdConfig {
        scale: 0.002,
        seed: 19,
    })
    .unwrap()
}

/// The default plan for each query must actually contain the segmented
/// sort enforcer — otherwise the matrix below silently tests nothing.
fn assert_plan_is_segmented(db: &Database, sql: &str) {
    let prepared = Session::new(db)
        .config(OptimizerConfig::default())
        .plan(sql)
        .unwrap_or_else(|e| panic!("{sql}: {e}"));
    let text = prepared.explain();
    assert!(
        text.contains("segmented-sort"),
        "expected a segmented sort in the default plan\nsql: {sql}\nplan:\n{text}"
    );
}

fn run_matrix(db: &Database, sql: &str) {
    // Baseline: segmented sort disabled, full sort enforcer, serial,
    // unbounded. Everything else must match it byte for byte.
    let baseline = Session::new(db)
        .config(OptimizerConfig::default().with_segmented_sort(false))
        .execute(sql)
        .unwrap_or_else(|e| panic!("{sql}\nfull-sort baseline: {e}"))
        .rows()
        .to_vec();
    for threads in [1usize, 2, 4] {
        for budget in [None, Some(4usize << 10)] {
            let mut config = OptimizerConfig::default().with_threads(threads);
            if let Some(b) = budget {
                config = config.with_memory_budget(b);
            }
            let prepared = Session::new(db)
                .config(config)
                .plan(sql)
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
            let streamed = prepared
                .execute()
                .unwrap_or_else(|e| panic!("{sql}\nthreads={threads} budget={budget:?}: {e}"));
            assert_eq!(
                streamed.rows(),
                baseline,
                "segmented sort diverged from full sort\nsql: {sql}\n\
                 threads={threads} budget={budget:?}\nplan:\n{}",
                prepared.explain()
            );
            let materialized = prepared
                .execute_materialized()
                .unwrap_or_else(|e| panic!("{sql}\nthreads={threads} budget={budget:?}: {e}"));
            assert_eq!(
                streamed.rows(),
                materialized.rows(),
                "segmented sort diverged from the interpreter\nsql: {sql}\n\
                 threads={threads} budget={budget:?}"
            );
        }
    }
}

#[test]
fn emp_segmented_queries_are_bit_identical_everywhere() {
    let db = emp_db();
    for sql in EMP_SEGMENTED {
        assert_plan_is_segmented(&db, sql);
        run_matrix(&db, sql);
    }
}

#[test]
fn tpcd_clustered_prefix_queries_are_bit_identical_everywhere() {
    let db = tpcd_db();
    for sql in TPCD_SEGMENTED {
        assert_plan_is_segmented(&db, sql);
        run_matrix(&db, sql);
    }
}

#[test]
fn segmented_sort_reports_groups_formed() {
    // Serial segmented execution counts every sealed prefix group; the
    // count reaches EXPLAIN ANALYZE so a user can see the partial sort
    // actually segmented.
    let db = emp_db();
    let q = Session::new(&db)
        .config(OptimizerConfig::default())
        .plan(EMP_SEGMENTED[0])
        .unwrap();
    let out = q.execute().unwrap();
    assert!(
        out.segment.groups_formed > 0,
        "segmented sort must form at least one group"
    );
    let text = q.explain_analyze().unwrap();
    assert!(text.contains("segmented: groups="), "{text}");
}

#[test]
fn segmented_sort_under_limit_stops_early() {
    // The streaming property the segmented enforcer buys: one group is
    // buffered at a time, so a LIMIT above it stops pulling the clustered
    // index scan after the first group(s) — strictly fewer rows read than
    // the unlimited query.
    let db = tpcd_db();
    let base = TPCD_SEGMENTED[0];
    let limited_sql = format!("{base} limit 5");
    let full = Session::new(&db)
        .config(OptimizerConfig::default())
        .execute(base)
        .unwrap();
    let prepared = Session::new(&db)
        .config(OptimizerConfig::default())
        .plan(&limited_sql)
        .unwrap();
    assert!(
        prepared.explain().contains("segmented-sort"),
        "plan:\n{}",
        prepared.explain()
    );
    let limited = prepared.execute().unwrap();
    assert_eq!(limited.rows(), &full.rows()[..5]);
    assert!(
        limited.io.rows_read < full.io.rows_read / 10,
        "limit over a segmented sort must stop pulling the scan: \
         read {} rows vs {} unlimited",
        limited.io.rows_read,
        full.io.rows_read
    );
}

#[test]
fn oversized_group_falls_back_to_external_sort() {
    // ~33 emp rows per dept group cannot fit a 1 KiB budget, so groups
    // route through the external run former, spill, and still come back
    // bit-identical.
    let db = emp_db();
    let sql = EMP_SEGMENTED[0];
    let baseline = Session::new(&db)
        .config(OptimizerConfig::default())
        .execute(sql)
        .unwrap()
        .rows()
        .to_vec();
    let prepared = Session::new(&db)
        .config(OptimizerConfig::default().with_memory_budget(1 << 10))
        .plan(sql)
        .unwrap();
    assert!(
        prepared.explain().contains("segmented-sort"),
        "plan:\n{}",
        prepared.explain()
    );
    let out = prepared.execute().unwrap();
    assert_eq!(out.rows(), baseline);
    assert!(
        out.io.spill_pages_written > 0,
        "groups exceeding the budget must spill through the run former"
    );
    assert!(out.spill.runs_formed > 0);
    assert!(out.segment.groups_formed > 0);
}
