//! Plan-choice golden test: the chosen plan, the planner's work counters
//! and the simulated page cost of a fixed set of queries, pinned byte for
//! byte in `tests/golden/plan_choice.txt`.
//!
//! Every figure here is deterministic, so a planner change that claims to
//! change no plan (a refactor, a speed-up of the order reasoning) must
//! leave the file untouched. Each case records:
//!
//! * the plan as [`PreparedQuery::explain_properties`] renders it — the
//!   `explain()` tree with every stream's order, keys and applied
//!   predicate count underneath each operator;
//! * the [`PlannerStats`](fto_planner::PlannerStats) of its compilation;
//! * [`IoStats::weighted_page_cost`](fto_storage::IoStats::weighted_page_cost)
//!   of one serial execution.
//!
//! A change that is *meant* to change plans regenerates the file with
//! `cargo test -p fto-bench --test plan_golden -- --ignored` and commits
//! the diff for review.

use fto_bench::harness::tpcd_db;
use fto_bench::Session;
use fto_planner::OptimizerConfig;
use fto_storage::Database;
use fto_tpcd::queries;
use std::fmt::Write;
use std::path::PathBuf;

/// Scale of the TPC-D database the cases run on.
const SCALE: f64 = 0.005;

/// The three lineitem ORDER BY keys of the benchmark's mix: served by the
/// clustered index (sort avoided), by a segmented sort on its prefix, and
/// by a full sort.
const LINEITEM_ORDER_KEYS: [(&str, &str); 3] = [
    ("order_by_avoided", "l_orderkey, l_linenumber"),
    ("order_by_segmented", "l_orderkey, l_shipdate"),
    ("order_by_full", "l_extendedprice, l_orderkey, l_linenumber"),
];

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/plan_choice.txt")
}

/// `(case name, configuration, SQL)` for every pinned query.
fn cases() -> Vec<(String, OptimizerConfig, String)> {
    let q3 = queries::q3_default();
    let mut out = vec![
        ("q3 default".into(), OptimizerConfig::default(), q3.clone()),
        (
            "q3 db2_1996".into(),
            OptimizerConfig::db2_1996(),
            q3.clone(),
        ),
        (
            "q3 db2_1996_disabled".into(),
            OptimizerConfig::db2_1996_disabled(),
            q3,
        ),
        (
            "q1".into(),
            OptimizerConfig::default(),
            queries::q1("1998-09-02"),
        ),
        (
            "order_report".into(),
            OptimizerConfig::default(),
            queries::order_report(),
        ),
        (
            "section6_example".into(),
            OptimizerConfig::default(),
            queries::section6_example(),
        ),
    ];
    for (name, key) in LINEITEM_ORDER_KEYS {
        out.push((
            name.into(),
            OptimizerConfig::default(),
            format!(
                "select l_orderkey, l_linenumber, l_shipdate, l_extendedprice \
                 from lineitem \
                 where l_shipdate >= date('1993-01-01') and l_shipdate < date('1998-01-01') \
                 order by {key}"
            ),
        ));
    }
    out
}

/// Plans and runs every case, rendering the golden text.
fn render(db: &Database) -> String {
    let mut out = String::new();
    for (name, config, sql) in cases() {
        let prepared = Session::new(db)
            .config(config)
            .plan(&sql)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let run = prepared.execute().unwrap_or_else(|e| panic!("{name}: {e}"));
        let _ = writeln!(out, "=== {name}");
        let _ = writeln!(out, "sql: {sql}");
        let _ = writeln!(out, "planner: {:?}", prepared.planner_stats());
        let _ = writeln!(
            out,
            "weighted_page_cost: {:?} rows: {}",
            run.io.weighted_page_cost(),
            run.num_rows()
        );
        out.push_str(&prepared.explain_properties());
        out.push('\n');
    }
    out
}

#[test]
fn plan_choice_matches_golden() {
    let db = tpcd_db(SCALE).unwrap();
    let actual = render(&db);
    let expected = std::fs::read_to_string(golden_path()).expect("golden file present");
    if actual != expected {
        let first = actual
            .lines()
            .zip(expected.lines())
            .position(|(a, e)| a != e)
            .unwrap_or(actual.lines().count().min(expected.lines().count()));
        panic!(
            "plan choice differs from tests/golden/plan_choice.txt at line {}\n\
             expected: {:?}\n  actual: {:?}\n\
             full output:\n{actual}",
            first + 1,
            expected.lines().nth(first),
            actual.lines().nth(first),
        );
    }
}

/// Rewrites the golden file from the current planner. Run explicitly
/// (`-- --ignored`) when a change is meant to alter plans.
#[test]
#[ignore]
fn regenerate_plan_choice_golden() {
    let db = tpcd_db(SCALE).unwrap();
    std::fs::write(golden_path(), render(&db)).unwrap();
}
