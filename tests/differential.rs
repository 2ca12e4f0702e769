//! Differential testing of the two execution engines: every query in the
//! workload corpus must produce identical rows, in identical order,
//! through the streaming batched executor and the materializing
//! reference interpreter — under every optimizer configuration, across
//! batch sizes and parallel degrees. Plus the I/O property the streaming engine
//! exists for: LIMIT stops paying for pages it never reads.

use fto_bench::corpus::{emp_db, EMP_QUERIES};
use fto_bench::{envknob, Session};
use fto_planner::OptimizerConfig;
use fto_storage::Database;
use fto_tpcd::{build_database, queries, TpcdConfig};

/// Parallel degree to additionally run the whole suite at, from the
/// `FTO_TEST_THREADS` environment variable (CI sets 4). Unset or 1
/// means serial-only; an unparseable value fails the suite rather than
/// silently running serial.
fn env_threads() -> Option<usize> {
    envknob::env_parse::<usize>("FTO_TEST_THREADS")
        .unwrap_or_else(|e| panic!("{e}"))
        .filter(|&p| p > 1)
}

fn all_configs() -> Vec<OptimizerConfig> {
    let mut configs = vec![
        OptimizerConfig::default(),
        OptimizerConfig::disabled(),
        OptimizerConfig::db2_1996(),
        OptimizerConfig::db2_1996_disabled(),
        OptimizerConfig::default().with_sort_ahead(false),
        OptimizerConfig::default()
            .with_hash_join(false)
            .with_nested_loop(false),
    ];
    if let Some(p) = env_threads() {
        for base in configs.clone() {
            configs.push(base.with_threads(p));
        }
    }
    configs
}

fn assert_engines_agree(db: &Database, sql: &str, config: OptimizerConfig) {
    let prepared = Session::new(db)
        .config(config.clone())
        .plan(sql)
        .unwrap_or_else(|e| panic!("{sql}\nunder {config:?}: {e}"));
    let streamed = prepared
        .execute()
        .unwrap_or_else(|e| panic!("{sql}\nunder {config:?}: {e}"));
    let materialized = prepared
        .execute_materialized()
        .unwrap_or_else(|e| panic!("{sql}\nunder {config:?}: {e}"));
    assert_eq!(
        streamed.rows(),
        materialized.rows(),
        "engine mismatch\nsql: {sql}\nconfig: {config:?}\nplan:\n{}",
        prepared.explain()
    );
}

#[test]
fn end_to_end_corpus_agrees_across_engines() {
    let db = emp_db();
    for sql in EMP_QUERIES {
        for config in all_configs() {
            assert_engines_agree(&db, sql, config);
        }
    }
}

#[test]
fn end_to_end_corpus_agrees_at_odd_batch_sizes() {
    // Batch boundaries are where streaming operators break: batch size 1
    // maximizes boundaries, 17 exercises misalignment with row counts.
    let db = emp_db();
    for sql in EMP_QUERIES {
        for batch in [1usize, 17] {
            assert_engines_agree(&db, sql, OptimizerConfig::default().with_batch_size(batch));
        }
    }
}

#[test]
fn tpcd_workload_agrees_across_engines() {
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
        DUPLICATE_SELECT_ITEM.to_string(),
    ];
    let mut configs = vec![
        OptimizerConfig::default(),
        OptimizerConfig::disabled(),
        OptimizerConfig::db2_1996(),
        OptimizerConfig::db2_1996_disabled(),
        OptimizerConfig::default().with_batch_size(13),
    ];
    if let Some(p) = env_threads() {
        configs.push(OptimizerConfig::default().with_threads(p));
        configs.push(OptimizerConfig::db2_1996().with_threads(p));
    }
    for sql in &workload {
        for config in configs.clone() {
            assert_engines_agree(&db, sql, config);
        }
    }
}

#[test]
fn distinct_on_encoded_keys_matches_value_comparison() {
    // The distinct operators dedup on arena-encoded key bytes (byte
    // equality standing in for Value equality, with the codec's
    // canonicalization of Int/Double, NaN, and signed zero). Both
    // distinct shapes — stream (ordered input) and hash (first-seen) —
    // must agree with the interpreter, which compares `Value`s, serial
    // and parallel.
    let db = emp_db();
    let queries = [
        "select distinct grade from emp order by grade",
        "select distinct emp_dept, grade from emp order by emp_dept, grade",
        "select distinct salary, grade from emp",
        "select distinct emp_dept from emp",
    ];
    for sql in queries {
        for threads in [1usize, 2, 4] {
            assert_engines_agree(&db, sql, OptimizerConfig::default().with_threads(threads));
        }
    }
}

#[test]
fn limit_reads_strictly_fewer_pages_than_materialized() {
    // The point of streaming scans: a LIMIT over a big table stops
    // pulling batches — and stops paying simulated page I/O — once
    // satisfied. The materializing engine always pays for the full scan.
    let db = emp_db();
    let sql = "select emp_id from emp limit 3";
    let prepared = Session::new(&db)
        // Force a plain table scan path and small batches so the limit
        // bites before the scan finishes.
        .config(OptimizerConfig::default().with_batch_size(16))
        .plan(sql)
        .unwrap();
    let streamed = prepared.execute().unwrap();
    let materialized = prepared.execute_materialized().unwrap();
    assert_eq!(streamed.rows(), materialized.rows());
    let streamed_pages = streamed.io.sequential_pages + streamed.io.random_pages;
    let materialized_pages = materialized.io.sequential_pages + materialized.io.random_pages;
    assert!(
        streamed_pages < materialized_pages,
        "streaming read {streamed_pages} pages, materialized {materialized_pages}\nplan:\n{}",
        prepared.explain()
    );
    // And it never reads more rows than the limit needs (plus at most
    // one batch of slack per scan).
    assert!(streamed.io.rows_read <= 16, "{}", streamed.io.rows_read);
}

/// Queries that push every join flavour, both distinct shapes, and the
/// stream group-by's accumulators through the columnar operators.
const OPERATOR_QUERIES: [&str; 8] = [
    // Joins feeding grouped aggregation.
    "select dept_name, count(*) as n, sum(salary) as total \
     from dept, emp where dept_id = emp_dept group by dept_name order by dept_name",
    // Three-way join.
    "select e.emp_id, d.dept_name, b.emp_id from emp e, dept d, emp b \
     where e.emp_dept = d.dept_id and b.emp_id = e.emp_id order by e.emp_id",
    // Left outer join with ON residuals (matched and unmatched rows).
    "select dept_id, emp_id from dept left join emp on dept_id = emp_dept and emp_id < 3 \
     order by dept_id, emp_id",
    "select dept_id, count(emp_id) as n from dept \
     left join emp on dept_id = emp_dept and grade = 0 group by dept_id order by dept_id",
    // Stream and hash distinct.
    "select distinct emp_dept, grade from emp order by emp_dept, grade",
    "select distinct salary, grade from emp",
    // Stream group-by with the full accumulator inventory.
    "select emp_dept, sum(salary * 2) as double_pay, avg(salary) as pay, \
     min(salary) as lo, max(salary) as hi from emp group by emp_dept order by emp_dept",
    "select emp_dept, count(distinct grade) as g from emp group by emp_dept order by emp_dept",
];

/// Plan shapes that force each join flavour: the default menu,
/// order-based operators only (merge joins, stream group-by), and hash
/// join as the only join left.
fn join_shapes() -> [OptimizerConfig; 3] {
    [
        OptimizerConfig::default(),
        OptimizerConfig::db2_1996(),
        OptimizerConfig::default()
            .with_merge_join(false)
            .with_nested_loop(false),
    ]
}

/// A repeated select item: both output columns carry the same value.
const DUPLICATE_SELECT_ITEM: &str = "select o_orderkey, o_orderkey from orders order by o_orderkey";

/// One cell of the columnar matrix: `sql` under `shape` at one batch
/// size, across parallel degrees {1, 2, 4}. Rows must equal the
/// interpreter's at every degree, and every degree must charge exactly
/// the same I/O.
fn assert_matrix_cell(db: &Database, sql: &str, shape: &OptimizerConfig, batch: usize) {
    let mut baseline: Option<fto_storage::IoStats> = None;
    for threads in [1usize, 2, 4] {
        let config = shape.clone().with_batch_size(batch).with_threads(threads);
        let prepared = Session::new(db)
            .config(config.clone())
            .plan(sql)
            .unwrap_or_else(|e| panic!("{sql}\nunder {config:?}: {e}"));
        let streamed = prepared
            .execute()
            .unwrap_or_else(|e| panic!("{sql}\nunder {config:?}: {e}"));
        let materialized = prepared
            .execute_materialized()
            .unwrap_or_else(|e| panic!("{sql}\nunder {config:?}: {e}"));
        assert_eq!(
            streamed.rows(),
            materialized.rows(),
            "columnar engine diverged from interpreter\nsql: {sql}\n\
             config: {config:?}\nplan:\n{}",
            prepared.explain()
        );
        match &baseline {
            None => baseline = Some(streamed.io),
            Some(expected) => assert_eq!(
                &streamed.io, expected,
                "I/O diverged within batch={batch} cell\nsql: {sql}\n\
                 config: {config:?}"
            ),
        }
    }
}

#[test]
fn columnar_matrix_batch_threads_codec() {
    // The columnar executor, with its normalized-key sort codec, against
    // the row-at-a-time interpreter over the matrix the batch
    // representation can perturb: batch size (column boundaries) and
    // parallel degree (exchange merges of columnar partitions, compared
    // on encoded key bytes). Every corpus query, default config.
    let db = emp_db();
    for sql in EMP_QUERIES {
        for batch in [1usize, 7, 1024] {
            assert_matrix_cell(&db, sql, &OptimizerConfig::default(), batch);
        }
    }
}

#[test]
fn vectorized_operators_match_row_shim_baseline() {
    // The columnar distinct, stream group-by, merge-join, hash-join and
    // left-outer-join operators under plan shapes that force each join
    // flavour. The row-at-a-time operator copies this test once compared
    // against are gone; the baseline is now the interpreter, across the
    // same batch sizes and parallel degrees as the corpus matrix.
    let db = emp_db();
    for sql in OPERATOR_QUERIES {
        for shape in join_shapes() {
            for batch in [1usize, 7, 1024] {
                assert_matrix_cell(&db, sql, &shape, batch);
            }
        }
    }
}

#[test]
fn columnar_matrix_tpcd() {
    // The same matrix over the TPC-D workload (multi-way joins, grouped
    // aggregates, date filters), at a scale small enough to keep the
    // 2×3 sweep per query affordable.
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
        DUPLICATE_SELECT_ITEM.to_string(),
    ];
    for sql in &workload {
        for batch in [3usize, 256] {
            for threads in [1usize, 2, 4] {
                let config = OptimizerConfig::default()
                    .with_batch_size(batch)
                    .with_threads(threads);
                assert_engines_agree(&db, sql, config);
            }
        }
    }
}
