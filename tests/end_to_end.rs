//! Cross-crate end-to-end tests: SQL through parse → bind → rewrite →
//! order scan → plan → execute, validated against a naive reference
//! evaluator, across every optimizer configuration. Any plan the
//! optimizer can pick must produce the same rows — through both the
//! streaming executor (the default) and the materializing reference
//! engine.

use fto_bench::Session;
use fto_catalog::{Catalog, ColumnDef, KeyDef};
use fto_common::{DataType, Direction, Row, Value};
use fto_planner::OptimizerConfig;
use fto_storage::Database;

/// Every configuration combination worth exercising.
fn all_configs() -> Vec<OptimizerConfig> {
    vec![
        OptimizerConfig::default(),
        OptimizerConfig::disabled(),
        OptimizerConfig::db2_1996(),
        OptimizerConfig::db2_1996_disabled(),
        OptimizerConfig::default().with_sort_ahead(false),
        OptimizerConfig::default().with_merge_join(false),
        OptimizerConfig::default()
            .with_hash_join(false)
            .with_nested_loop(false),
        // Tiny batches stress operator boundaries in the streaming engine.
        OptimizerConfig::default().with_batch_size(3),
    ]
}

fn test_db() -> Database {
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

/// Executes `sql` under every configuration — through the streaming
/// engine *and* the materializing reference engine — and checks all runs
/// agree; returns the first run's rows.
fn run_all_configs(db: &Database, sql: &str) -> Vec<Row> {
    let mut reference: Option<Vec<Row>> = None;
    for config in all_configs() {
        let prepared = Session::new(db)
            .config(config.clone())
            .plan(sql)
            .unwrap_or_else(|e| panic!("{sql} under {config:?}: {e}"));
        let streamed = prepared
            .execute()
            .unwrap_or_else(|e| panic!("{sql} under {config:?}: {e}"));
        let materialized = prepared
            .execute_materialized()
            .unwrap_or_else(|e| panic!("{sql} under {config:?}: {e}"));
        assert_eq!(
            streamed.rows(),
            materialized.rows(),
            "engine mismatch for {sql} under {config:?}\nplan:\n{}",
            prepared.explain()
        );
        match &reference {
            None => reference = Some(streamed.rows().to_vec()),
            Some(expected) => assert_eq!(
                &streamed.rows(),
                expected,
                "row mismatch for {sql} under {config:?}\nplan:\n{}",
                prepared.explain()
            ),
        }
    }
    reference.unwrap()
}

#[test]
fn single_table_order_by_key() {
    let db = test_db();
    let rows = run_all_configs(
        &db,
        "select emp_id, salary from emp where grade = 3 order by emp_id",
    );
    assert_eq!(rows.len(), 80);
    let mut last = i64::MIN;
    for r in &rows {
        let id = r[0].as_int().unwrap();
        assert!(id > last);
        last = id;
    }
}

#[test]
fn repeated_select_items_each_get_a_column() {
    // A column, a grouping column, and an aggregate each selected twice:
    // every repeat is its own output column carrying the same value.
    let db = test_db();
    for sql in [
        "select emp_id, emp_id, salary from emp where grade = 3 order by emp_id",
        "select *, emp_id from emp where grade = 3 order by emp_id",
        "select emp_dept, emp_dept, count(*) as n, count(*) as m from emp \
         group by emp_dept order by emp_dept",
    ] {
        let rows = run_all_configs(&db, sql);
        assert!(!rows.is_empty(), "{sql}");
        for r in &rows {
            let last = r.len() - 1;
            let (a, b) = if sql.starts_with("select *") {
                (&r[0], &r[last])
            } else {
                (&r[0], &r[1])
            };
            assert_eq!(a, b, "{sql}");
            if sql.contains("count(*) as m") {
                assert_eq!(r[2], r[3], "{sql}");
            }
        }
    }
}

#[test]
fn order_by_desc() {
    let db = test_db();
    let rows = run_all_configs(
        &db,
        "select emp_id, grade from emp where emp_dept = 2 order by grade desc, emp_id",
    );
    assert!(!rows.is_empty());
    for w in rows.windows(2) {
        let (g1, g2) = (w[0][1].as_int().unwrap(), w[1][1].as_int().unwrap());
        assert!(g1 > g2 || (g1 == g2 && w[0][0] < w[1][0]));
    }
}

#[test]
fn join_with_group_by_and_order_by() {
    let db = test_db();
    let rows = run_all_configs(
        &db,
        "select dept_name, count(*) as n, sum(salary) as total \
         from dept, emp where dept_id = emp_dept \
         group by dept_name order by dept_name",
    );
    assert_eq!(rows.len(), 12);
    let total: i64 = rows.iter().map(|r| r[1].as_int().unwrap()).sum();
    assert_eq!(total, 400);
}

#[test]
fn group_by_key_plus_dependents() {
    // The redundancy pattern the paper highlights: grouping on a key and
    // functionally dependent columns.
    let db = test_db();
    let rows = run_all_configs(
        &db,
        "select dept_id, dept_name, budget, count(*) as n \
         from dept, emp where dept_id = emp_dept \
         group by dept_id, dept_name, budget \
         order by dept_id",
    );
    assert_eq!(rows.len(), 12);
}

#[test]
fn distinct_queries() {
    let db = test_db();
    let rows = run_all_configs(&db, "select distinct grade from emp order by grade");
    assert_eq!(rows.len(), 5);
    let rows = run_all_configs(
        &db,
        "select distinct emp_dept, grade from emp order by emp_dept, grade",
    );
    assert_eq!(rows.len(), 60);
}

#[test]
fn derived_table_with_sort_pushdown() {
    let db = test_db();
    let rows = run_all_configs(
        &db,
        "select v.emp_id, v.salary from \
         (select emp_id, salary from emp where grade = 1) as v \
         order by v.emp_id",
    );
    assert_eq!(rows.len(), 80);
}

#[test]
fn computed_expressions_and_aggregates() {
    let db = test_db();
    let rows = run_all_configs(
        &db,
        "select emp_dept, sum(salary * 2) as double_pay, avg(salary) as pay, \
         min(salary) as lo, max(salary) as hi \
         from emp group by emp_dept order by emp_dept",
    );
    assert_eq!(rows.len(), 12);
    for r in &rows {
        let lo = r[3].as_int().unwrap();
        let hi = r[4].as_int().unwrap();
        assert!(lo <= hi);
        let avg = r[2].as_double().unwrap();
        assert!((lo as f64) <= avg && avg <= hi as f64);
    }
}

#[test]
fn distinct_aggregate() {
    let db = test_db();
    let rows = run_all_configs(
        &db,
        "select emp_dept, count(distinct grade) as g from emp \
         group by emp_dept order by emp_dept",
    );
    assert_eq!(rows.len(), 12);
    for r in &rows {
        assert_eq!(r[1], Value::Int(5));
    }
}

#[test]
fn range_predicates() {
    let db = test_db();
    let rows = run_all_configs(
        &db,
        "select emp_id from emp \
         where salary >= 40000 and salary < 60000 and grade <> 0 \
         order by emp_id",
    );
    // Verify against a direct computation.
    let expected = (0..400i64)
        .filter(|i| {
            let salary = 30_000 + (i * 97) % 50_000;
            (40_000..60_000).contains(&salary) && i % 5 != 0
        })
        .count();
    assert_eq!(rows.len(), expected);
}

#[test]
fn three_way_join() {
    let db = test_db();
    // Self-join emp to dept twice through different aliases.
    let rows = run_all_configs(
        &db,
        "select e.emp_id, d.dept_name, b.emp_id \
         from emp e, dept d, emp b \
         where e.emp_dept = d.dept_id and b.emp_id = e.emp_id \
         order by e.emp_id",
    );
    assert_eq!(rows.len(), 400);
}

#[test]
fn top_n_query() {
    let db = test_db();
    // Total order (salary, emp_id) so every configuration agrees on ties.
    let rows = run_all_configs(
        &db,
        "select emp_id, salary from emp order by salary desc, emp_id limit 7",
    );
    assert_eq!(rows.len(), 7);
    for w in rows.windows(2) {
        let (s1, s2) = (w[0][1].as_int().unwrap(), w[1][1].as_int().unwrap());
        assert!(s1 > s2 || (s1 == s2 && w[0][0] < w[1][0]));
    }
    // The top row really is the maximum salary.
    let max_salary = (0..400i64)
        .map(|i| 30_000 + (i * 97) % 50_000)
        .max()
        .unwrap();
    assert_eq!(rows[0][1].as_int().unwrap(), max_salary);
}

#[test]
fn limit_without_order() {
    let db = test_db();
    for config in all_configs() {
        let out = Session::new(&db)
            .config(config)
            .execute("select emp_id from emp limit 5")
            .unwrap();
        assert_eq!(out.num_rows(), 5);
        // The batch view agrees with the row view without materializing.
        assert_eq!(
            out.batches().iter().map(|b| b.len()).sum::<usize>(),
            out.num_rows()
        );
    }
}

#[test]
fn union_all_and_union_distinct() {
    let db = test_db();
    // Every grade appears in both branches: UNION ALL keeps duplicates,
    // UNION removes them.
    let all = run_all_configs(
        &db,
        "select grade from emp where grade < 2          union all select grade from emp where grade < 2          order by 1",
    );
    assert_eq!(all.len(), 320);
    let set = run_all_configs(
        &db,
        "select grade from emp where grade < 2          union select grade from emp where grade < 2          order by 1",
    );
    assert_eq!(set.len(), 2);
    assert_eq!(set[0][0], Value::Int(0));
    assert_eq!(set[1][0], Value::Int(1));
}

#[test]
fn union_with_limit() {
    let db = test_db();
    let rows = run_all_configs(
        &db,
        "select emp_id from emp where grade = 0          union all select emp_id from emp where grade = 1          order by emp_id desc limit 4",
    );
    assert_eq!(rows.len(), 4);
    for w in rows.windows(2) {
        assert!(w[0][0] > w[1][0]);
    }
}

#[test]
fn union_arity_mismatch_is_an_error() {
    let db = test_db();
    let err = match Session::new(&db)
        .plan("select emp_id, grade from emp union select emp_id from emp")
    {
        Err(e) => e,
        Ok(_) => panic!("arity mismatch accepted"),
    };
    assert!(err.to_string().contains("arities"), "{err}");
}

#[test]
fn having_filters_groups() {
    let db = test_db();
    // 400 emps over 12 depts: dept 0..3 have 34 emps, 4..11 have 33.
    let rows = run_all_configs(
        &db,
        "select emp_dept, count(*) as n from emp          group by emp_dept having count(*) > 33 order by emp_dept",
    );
    assert_eq!(rows.len(), 4);
    for r in &rows {
        assert_eq!(r[1], Value::Int(34));
    }
}

#[test]
fn having_with_hidden_aggregate() {
    let db = test_db();
    // The HAVING aggregate (min) is not in the select list: it is
    // computed as a hidden group-by output.
    let rows = run_all_configs(
        &db,
        "select emp_dept, count(*) as n from emp          group by emp_dept having min(salary) < 31000 order by emp_dept",
    );
    let expected: Vec<i64> = (0..12i64)
        .filter(|d| {
            (0..400i64)
                .filter(|i| i % 12 == *d)
                .map(|i| 30_000 + (i * 97) % 50_000)
                .min()
                .unwrap()
                < 31_000
        })
        .collect();
    let got: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(got, expected);
}

#[test]
fn having_on_grouping_column_arithmetic() {
    let db = test_db();
    let rows = run_all_configs(
        &db,
        "select emp_dept, count(*) as n from emp          group by emp_dept having emp_dept * 2 >= 20 order by emp_dept",
    );
    assert_eq!(rows.len(), 2); // depts 10, 11
}

#[test]
fn inner_join_syntax_equals_comma_syntax() {
    let db = test_db();
    let explicit = run_all_configs(
        &db,
        "select dept_name, emp_id from dept join emp on dept_id = emp_dept          order by emp_id",
    );
    let comma = run_all_configs(
        &db,
        "select dept_name, emp_id from dept, emp where dept_id = emp_dept          order by emp_id",
    );
    assert_eq!(explicit, comma);
    assert_eq!(explicit.len(), 400);
}

#[test]
fn left_outer_join_pads_with_nulls() {
    let db = test_db();
    // grade = 9 matches nothing: every dept row survives with NULL emp.
    let rows = run_all_configs(
        &db,
        "select dept_id, emp_id from dept          left join emp on dept_id = emp_dept and grade = 9          order by dept_id",
    );
    assert_eq!(rows.len(), 12);
    for r in &rows {
        assert!(r[1].is_null());
    }
    // A selective but satisfiable ON: matched rows join, others pad.
    let rows = run_all_configs(
        &db,
        "select dept_id, emp_id from dept          left join emp on dept_id = emp_dept and emp_id < 3          order by dept_id, emp_id",
    );
    // Depts 0,1,2 match emp 0,1,2; the other nine pad.
    assert_eq!(rows.len(), 12);
    let padded = rows.iter().filter(|r| r[1].is_null()).count();
    assert_eq!(padded, 9);
}

#[test]
fn left_join_then_group_by() {
    let db = test_db();
    let rows = run_all_configs(
        &db,
        "select dept_id, count(emp_id) as n from dept          left join emp on dept_id = emp_dept and grade = 0          group by dept_id order by dept_id",
    );
    assert_eq!(rows.len(), 12);
    let total: i64 = rows.iter().map(|r| r[1].as_int().unwrap()).sum();
    assert_eq!(total, 80); // grade 0 ⇒ 80 employees
                           // count(emp_id) skips the NULL-padded rows but groups survive.
    assert!(rows.iter().all(|r| r[1].as_int().unwrap() >= 0));
}

#[test]
fn global_aggregate_over_empty_input_yields_one_row() {
    let db = test_db();
    for config in all_configs() {
        let out = Session::new(&db)
            .config(config)
            .execute("select count(*) as n, sum(salary) as s from emp where grade = 99")
            .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.rows()[0][0], Value::Int(0));
        assert!(out.rows()[0][1].is_null());
    }
}

#[test]
fn anti_join_via_left_join_is_null() {
    // The classic pattern the outer join + IS NULL combination exists
    // for: departments with no grade-0 employee below id 50.
    let db = test_db();
    let rows = run_all_configs(
        &db,
        "select dept_id, emp_id from dept          left join emp on dept_id = emp_dept and grade = 0 and emp_id < 50          where emp_id is null order by dept_id",
    );
    // grade = 0 ⇒ emp_id % 5 == 0; emp_id < 50 ⇒ ids 0,5,...,45, which
    // cover depts 0..10 minus... compute directly:
    let covered: std::collections::HashSet<i64> = (0..400i64)
        .filter(|i| i % 5 == 0 && *i < 50)
        .map(|i| i % 12)
        .collect();
    let expected: Vec<i64> = (0..12i64).filter(|d| !covered.contains(d)).collect();
    let got: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    assert_eq!(got, expected);
}

#[test]
fn is_not_null_filter() {
    let db = test_db();
    let rows = run_all_configs(
        &db,
        "select dept_id, emp_id from dept          left join emp on dept_id = emp_dept and grade = 9          where emp_id is not null order by dept_id",
    );
    assert!(rows.is_empty()); // grade 9 never matches
}

#[test]
fn in_subquery_is_a_semi_join() {
    let db = test_db();
    // Employees in departments with budget 0 (depts 0, 5, 10). Each dept
    // id appears once despite the subquery being over a joinable table.
    let rows = run_all_configs(
        &db,
        "select emp_id, emp_dept from emp          where emp_dept in (select dept_id from dept where budget = 0)          order by emp_id",
    );
    let expected = (0..400i64)
        .filter(|i| [0, 5, 10].contains(&(i % 12)))
        .count();
    assert_eq!(rows.len(), expected);
    // No duplicates: semi-join multiplicity is one per employee.
    let mut ids: Vec<i64> = rows.iter().map(|r| r[0].as_int().unwrap()).collect();
    ids.dedup();
    assert_eq!(ids.len(), rows.len());
}

#[test]
fn in_subquery_with_duplicates_in_subquery_side() {
    let db = test_db();
    // The subquery side (emp_dept) is full of duplicates; DISTINCT
    // desugaring must still yield one row per dept.
    let rows = run_all_configs(
        &db,
        "select dept_id from dept          where dept_id in (select emp_dept from emp where grade = 1)          order by dept_id",
    );
    assert_eq!(rows.len(), 12);
}

#[test]
fn empty_result_is_consistent() {
    let db = test_db();
    let rows = run_all_configs(
        &db,
        "select emp_id from emp where grade = 99 order by emp_id",
    );
    assert!(rows.is_empty());
}

#[test]
fn constant_bound_order_column() {
    // ORDER BY over a column fixed by a predicate: correct results in all
    // configurations, and the optimized plan may skip the sort entirely.
    let db = test_db();
    let rows = run_all_configs(
        &db,
        "select grade, emp_id from emp where grade = 2 order by grade, emp_id",
    );
    assert_eq!(rows.len(), 80);
}
