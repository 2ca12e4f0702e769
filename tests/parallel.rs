//! Differential testing of morsel-parallel execution: every query in the
//! workload corpus must produce the same answer at parallel degrees 1, 2
//! and 4 as it does serially — bit-identical rows when the query is
//! ordered (the exchange layer is order-preserving and the partition
//! merge is deterministic), multiset-identical otherwise — and the
//! instrumented per-operator I/O rollup must stay exact at every degree.

use fto_bench::Session;
use fto_catalog::{Catalog, ColumnDef, KeyDef};
use fto_common::{DataType, Direction, Value};
use fto_planner::OptimizerConfig;
use fto_storage::Database;
use fto_tpcd::{build_database, queries, TpcdConfig};

/// The emp/dept schema the end-to-end suite exercises (mirrors
/// tests/differential.rs).
fn emp_db() -> Database {
    let mut cat = Catalog::new();
    let dept = cat
        .create_table(
            "dept",
            vec![
                ColumnDef::new("dept_id", DataType::Int),
                ColumnDef::new("dept_name", DataType::Str),
                ColumnDef::new("budget", DataType::Int),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
    let emp = cat
        .create_table(
            "emp",
            vec![
                ColumnDef::new("emp_id", DataType::Int),
                ColumnDef::new("emp_dept", DataType::Int),
                ColumnDef::new("salary", DataType::Int),
                ColumnDef::new("grade", DataType::Int),
            ],
            vec![KeyDef::primary([0])],
        )
        .unwrap();
    cat.create_index("emp_dept_ix", emp, vec![(1, Direction::Asc)], false, false)
        .unwrap();
    cat.create_index(
        "emp_grade_ix",
        emp,
        vec![(3, Direction::Asc), (0, Direction::Asc)],
        false,
        false,
    )
    .unwrap();
    let mut db = Database::new(cat);
    db.load_table(
        dept,
        (0..12)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(format!("dept{i}")),
                    Value::Int(1000 * (i % 5)),
                ]
                .into_boxed_slice()
            })
            .collect(),
    )
    .unwrap();
    db.load_table(
        emp,
        (0..400)
            .map(|i| {
                vec![
                    Value::Int(i),
                    Value::Int(i % 12),
                    Value::Int(30_000 + (i * 97) % 50_000),
                    Value::Int(i % 5),
                ]
                .into_boxed_slice()
            })
            .collect(),
    )
    .unwrap();
    db
}

/// The query corpus from tests/differential.rs, verbatim.
const EMP_QUERIES: &[&str] = &[
    "select emp_id, salary from emp where grade = 3 order by emp_id",
    "select emp_id, grade from emp where emp_dept = 2 order by grade desc, emp_id",
    "select dept_name, count(*) as n, sum(salary) as total \
     from dept, emp where dept_id = emp_dept group by dept_name order by dept_name",
    "select dept_id, dept_name, budget, count(*) as n from dept, emp \
     where dept_id = emp_dept group by dept_id, dept_name, budget order by dept_id",
    "select distinct grade from emp order by grade",
    "select distinct emp_dept, grade from emp order by emp_dept, grade",
    "select v.emp_id, v.salary from \
     (select emp_id, salary from emp where grade = 1) as v order by v.emp_id",
    "select emp_dept, sum(salary * 2) as double_pay, avg(salary) as pay, \
     min(salary) as lo, max(salary) as hi from emp group by emp_dept order by emp_dept",
    "select emp_dept, count(distinct grade) as g from emp group by emp_dept order by emp_dept",
    "select emp_id from emp where salary >= 40000 and salary < 60000 and grade <> 0 \
     order by emp_id",
    "select e.emp_id, d.dept_name, b.emp_id from emp e, dept d, emp b \
     where e.emp_dept = d.dept_id and b.emp_id = e.emp_id order by e.emp_id",
    "select emp_id, salary from emp order by salary desc, emp_id limit 7",
    "select emp_id from emp limit 5",
    "select grade from emp where grade < 2 union all select grade from emp where grade < 2 \
     order by 1",
    "select grade from emp where grade < 2 union select grade from emp where grade < 2 \
     order by 1",
    "select emp_id from emp where grade = 0 union all select emp_id from emp where grade = 1 \
     order by emp_id desc limit 4",
    "select emp_dept, count(*) as n from emp group by emp_dept having count(*) > 33 \
     order by emp_dept",
    "select emp_dept, count(*) as n from emp group by emp_dept having min(salary) < 31000 \
     order by emp_dept",
    "select emp_dept, count(*) as n from emp group by emp_dept having emp_dept * 2 >= 20 \
     order by emp_dept",
    "select dept_name, emp_id from dept join emp on dept_id = emp_dept order by emp_id",
    "select dept_id, emp_id from dept left join emp on dept_id = emp_dept and grade = 9 \
     order by dept_id",
    "select dept_id, emp_id from dept left join emp on dept_id = emp_dept and emp_id < 3 \
     order by dept_id, emp_id",
    "select dept_id, count(emp_id) as n from dept \
     left join emp on dept_id = emp_dept and grade = 0 group by dept_id order by dept_id",
    "select count(*) as n, sum(salary) as s from emp where grade = 99",
    "select dept_id, emp_id from dept \
     left join emp on dept_id = emp_dept and grade = 0 and emp_id < 50 \
     where emp_id is null order by dept_id",
    "select dept_id, emp_id from dept left join emp on dept_id = emp_dept and grade = 9 \
     where emp_id is not null order by dept_id",
    "select emp_id, emp_dept from emp \
     where emp_dept in (select dept_id from dept where budget = 0) order by emp_id",
    "select dept_id from dept where dept_id in (select emp_dept from emp where grade = 1) \
     order by dept_id",
    "select emp_id from emp where grade = 99 order by emp_id",
    "select grade, emp_id from emp where grade = 2 order by grade, emp_id",
];

/// Parallel degrees every assertion runs at. 1 doubles as a sanity check
/// that the serial path through the new lowering is unchanged.
const DEGREES: &[usize] = &[1, 2, 4];

fn rows_as_sorted_text(rows: &[Box<[Value]>]) -> Vec<String> {
    let mut text: Vec<String> = rows.iter().map(|r| format!("{r:?}")).collect();
    text.sort();
    text
}

/// Runs `sql` serially and at each parallel degree under `config`,
/// asserting the parallel streaming output matches both the serial
/// streaming output and the materializing reference interpreter.
/// Ordered queries must match bit-for-bit; unordered ones as multisets.
fn assert_parallel_agrees(db: &Database, sql: &str, config: OptimizerConfig) {
    let ordered = sql.contains("order by");
    let serial = Session::new(db)
        .config(config.clone().with_threads(1))
        .plan(sql)
        .unwrap_or_else(|e| panic!("{sql}\nunder {config:?}: {e}"))
        .execute()
        .unwrap_or_else(|e| panic!("{sql}\nunder {config:?}: {e}"));
    for &p in DEGREES {
        let prepared = Session::new(db)
            .config(config.clone().with_threads(p))
            .plan(sql)
            .unwrap_or_else(|e| panic!("{sql}\nthreads {p} under {config:?}: {e}"));
        let parallel = prepared
            .execute()
            .unwrap_or_else(|e| panic!("{sql}\nthreads {p} under {config:?}: {e}"));
        let materialized = prepared
            .execute_materialized()
            .unwrap_or_else(|e| panic!("{sql}\nthreads {p} under {config:?}: {e}"));
        if ordered {
            assert_eq!(
                parallel.rows(),
                serial.rows(),
                "parallel degree {p} diverged from serial\nsql: {sql}\nconfig: {config:?}\nplan:\n{}",
                prepared.explain()
            );
            assert_eq!(
                parallel.rows(),
                materialized.rows(),
                "parallel degree {p} diverged from interpreter\nsql: {sql}\nconfig: {config:?}\nplan:\n{}",
                prepared.explain()
            );
        } else {
            assert_eq!(
                rows_as_sorted_text(parallel.rows()),
                rows_as_sorted_text(serial.rows()),
                "parallel degree {p} changed the multiset\nsql: {sql}\nconfig: {config:?}\nplan:\n{}",
                prepared.explain()
            );
        }
    }
}

#[test]
fn corpus_agrees_at_every_parallel_degree() {
    let db = emp_db();
    for sql in EMP_QUERIES {
        for config in [
            OptimizerConfig::default(),
            OptimizerConfig::disabled(),
            OptimizerConfig::db2_1996(),
        ] {
            assert_parallel_agrees(&db, sql, config);
        }
    }
}

#[test]
fn corpus_agrees_at_parallel_degrees_and_odd_batch_sizes() {
    // Batch boundaries are where streaming operators break; partition
    // boundaries are where exchanges break. Cross both: batch size 1
    // maximizes batch boundaries, 17 misaligns with partition sizes.
    let db = emp_db();
    for sql in EMP_QUERIES {
        for batch in [1usize, 17] {
            assert_parallel_agrees(&db, sql, OptimizerConfig::default().with_batch_size(batch));
        }
    }
}

#[test]
fn tpcd_workload_agrees_at_every_parallel_degree() {
    let db = build_database(TpcdConfig {
        scale: 0.003,
        seed: 77,
    })
    .unwrap();
    let workload = [
        queries::q3_default(),
        queries::q1("1998-09-02"),
        queries::order_report(),
        queries::section6_example(),
        queries::q3("1994-06-30", "automobile"),
        queries::q3("1996-01-01", "machinery"),
        queries::q3("1993-12-31", "household"),
    ];
    for sql in &workload {
        for config in [
            OptimizerConfig::default(),
            OptimizerConfig::db2_1996(),
            OptimizerConfig::default().with_batch_size(13),
        ] {
            assert_parallel_agrees(&db, sql, config);
        }
    }
}

#[test]
fn instrumented_rollup_stays_exact_at_every_degree() {
    // The per-operator metrics invariant — every node's self delta is
    // well-defined and the deltas telescope back to the session totals —
    // must survive workers charging I/O into reserved subtree slots.
    let db = emp_db();
    for sql in EMP_QUERIES {
        for &p in DEGREES {
            let prepared = Session::new(&db)
                .config(OptimizerConfig::default().with_threads(p))
                .plan(sql)
                .unwrap();
            let (out, metrics) = prepared
                .execute_instrumented()
                .unwrap_or_else(|e| panic!("{sql}\nthreads {p}: {e}"));
            metrics
                .validate()
                .unwrap_or_else(|e| panic!("rollup broken\nsql: {sql}\nthreads {p}: {e}"));
            assert_eq!(
                metrics.total_io(),
                out.io,
                "root inclusive I/O != session totals\nsql: {sql}\nthreads {p}\nplan:\n{}",
                prepared.explain()
            );
        }
    }
}

#[test]
fn parallel_heap_sort_charges_identical_io() {
    // On a pure heap-scan + sort pipeline the partitioning is
    // page-aligned and the merge-exchange charges per-run sort_rows that
    // sum to the serial total, so the headline counters must be *equal*,
    // not merely close. (Index paths are exempt: random-page adjacency
    // discounts can differ at partition cuts.)
    let db = emp_db();
    let sql = "select emp_dept, salary, emp_id from emp order by salary desc, emp_id";
    let serial = Session::new(&db)
        .config(OptimizerConfig::disabled().with_threads(1))
        .plan(sql)
        .unwrap()
        .execute()
        .unwrap();
    for &p in DEGREES {
        let parallel = Session::new(&db)
            .config(OptimizerConfig::disabled().with_threads(p))
            .plan(sql)
            .unwrap()
            .execute()
            .unwrap();
        assert_eq!(parallel.rows(), serial.rows(), "threads {p}");
        assert_eq!(
            parallel.io.sequential_pages, serial.io.sequential_pages,
            "sequential_pages at threads {p}"
        );
        assert_eq!(
            parallel.io.rows_read, serial.io.rows_read,
            "rows_read at threads {p}"
        );
        assert_eq!(
            parallel.io.sort_rows, serial.io.sort_rows,
            "sort_rows at threads {p}"
        );
    }
}

#[test]
fn codec_encodes_keys_at_every_degree() {
    // A sorting query must actually go through the normalized-key path
    // (key bytes get encoded) at every parallel degree, and
    // `QueryOutput::sort` must surface it. The counters are
    // process-wide deltas, so only monotone assertions are safe here.
    let db = emp_db();
    let sql = "select emp_id, salary from emp order by salary desc, emp_id";
    for &p in DEGREES {
        let out = Session::new(&db)
            .config(OptimizerConfig::default().with_threads(p))
            .plan(sql)
            .unwrap()
            .execute()
            .unwrap();
        assert!(
            out.sort.key_bytes > 0,
            "threads {p}: sort encoded no key bytes"
        );
        assert!(
            out.sort.comparisons > 0,
            "threads {p}: sort performed no comparisons"
        );
    }
}

#[test]
fn explain_analyze_reports_workers_per_exchange() {
    let db = emp_db();
    let prepared = Session::new(&db)
        .config(OptimizerConfig::disabled().with_threads(4))
        .plan("select emp_id, salary from emp order by salary, emp_id")
        .unwrap();
    let report = prepared.explain_analyze().unwrap();
    assert!(
        report.contains("workers:") && report.contains("p0") && report.contains("p3"),
        "expected per-worker annotations in:\n{report}"
    );
}
