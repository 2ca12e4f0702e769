//! Regenerates the §5.2 join-enumeration complexity observation: pushing
//! down sort-ahead orders grows enumeration work roughly quadratically in
//! the number of interesting orders n (the paper notes n < 3 in
//! practice, keeping the overhead acceptable). Each row reports the work
//! both in subplans generated and in compile time (`Session::plan`, parse
//! through lowering, best of several compilations).
//!
//! ```text
//! cargo run -p fto-bench --release --bin enumeration [-- <max_n>]
//! ```

use fto_bench::harness::enumeration_complexity;

/// Compilations per point; the table reports the fastest.
const RUNS: usize = 5;

fn main() {
    let max_n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(4);
    println!("Join-enumeration work vs number of sort-ahead orders (TPC-D Q3)");
    println!();
    println!("| n (sort-ahead orders) | subplans generated | vs n=0 | compile (best of {RUNS}) | vs n=0 |");
    println!(
        "|-----------------------|--------------------|--------|---------------------|--------|"
    );
    let points = enumeration_complexity(0.005, max_n, RUNS).unwrap();
    let base = &points[0];
    for p in &points {
        println!(
            "| {:>21} | {:>18} | {:>5.2}x | {:>16.2} ms | {:>5.2}x |",
            p.orders,
            p.plans_generated,
            p.plans_generated as f64 / base.plans_generated.max(1) as f64,
            p.compile.as_secs_f64() * 1e3,
            p.compile.as_secs_f64() / base.compile.as_secs_f64().max(1e-9)
        );
    }
    println!();
    println!(
        "The paper's claim: complexity grows by O(n^2) for n sort-ahead \
         orders, tolerable because n < 3 in practice."
    );
}
