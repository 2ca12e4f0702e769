//! The benchmark of record: SQL text in, rows out, on seeded TPC-D
//! workloads.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload tpcd_q3 --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One run generates the database, draws the workload's query parameters
//! from the seed, runs the workload as a closed loop with one client for
//! `--seconds`, checks every answer, and prints each metric by name and
//! unit; its last stdout line is the JSON result. `--trace 0` gives the end-to-end metrics, `--trace 1`
//! the per-layer ones. See README.md next to this file.

mod host;
mod layers;
mod report;
mod trace;
mod workload;

use fto_common::Result;
use fto_exec::{Batch, QueryOutput, Session};
use fto_planner::OptimizerConfig;
use fto_storage::Database;
use fto_tpcd::{build_database, queries, TpcdConfig};
use host::HostProbe;
use layers::LayerTotals;
use report::{median, peak_rss_mb, quantile, result_line, Metric};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Query, Workload, SCALE};

/// Timed database builds per untraced run, spread over its loop;
/// `setup_s` is the fastest. A traced run builds once.
const SETUP_REPEATS: usize = 9;

/// Fewest timed queries an untraced run ends with, so that at least ten
/// samples lie beyond p90. The loop runs past `--seconds` if needed,
/// and also until it has sent the whole rotation once.
const MIN_SAMPLES: usize = 100;

/// Query time between two runs of the host probe in an untraced run.
const PROBE_EVERY: Duration = Duration::from_millis(250);

/// Alternating Q3 executions per configuration for the Table 1 ratios.
const TABLE1_REPEATS: usize = 5;

const USAGE: &str =
    "usage: fto-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]\n\
     workloads: tpcd_q3 tpcd_mix tpcd_mix_p2 tpcd_mix_spill";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> std::result::Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10, false);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |_| format!("bad value for {flag}: {value:?}");
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse().map_err(bad)?),
                "--seconds" => seconds = value.parse().map_err(bad)?,
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("bad value for --trace: {value:?}")),
                    }
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds,
            trace,
        })
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Row count plus a hash of every row in order: two outputs with equal
/// fingerprints hold the same rows in the same order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Fingerprint {
    rows: usize,
    hash: u64,
}

fn fingerprint(batches: &[Batch]) -> Fingerprint {
    let mut hasher = DefaultHasher::new();
    let mut rows = Vec::new();
    let mut count = 0;
    for b in batches {
        rows.clear();
        b.append_rows_to(&mut rows);
        rows.iter().for_each(|r| r.hash(&mut hasher));
        count += rows.len();
    }
    Fingerprint {
        rows: count,
        hash: hasher.finish(),
    }
}

/// Runs `f`, turning an `Err` or a panic into a message.
fn guarded<T>(f: impl FnOnce() -> Result<T>) -> std::result::Result<T, String> {
    match catch_unwind(AssertUnwindSafe(f)) {
        Ok(Ok(v)) => Ok(v),
        Ok(Err(e)) => Err(format!("error: {e}")),
        Err(panic) => Err(format!(
            "panic: {}",
            panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("<non-string payload>")
        )),
    }
}

/// What one execution through the public API returned.
#[derive(Debug)]
struct Answer {
    rows: Fingerprint,
    /// `IoStats::weighted_page_cost`: the paper's simulated I/O.
    pages: f64,
    /// `QueryOutput::elapsed`: execution alone, compilation excluded.
    execute: Duration,
}

/// One query through the public API, SQL text in to last row out.
fn execute(
    db: &Database,
    config: &OptimizerConfig,
    sql: &str,
) -> (Duration, std::result::Result<QueryOutput, String>) {
    let start = Instant::now();
    let out = guarded(|| Session::new(db).config(config.clone()).plan(sql)?.execute());
    (start.elapsed(), out)
}

/// [`execute`], keeping only what the checks and Table 1 need.
fn run_session(
    db: &Database,
    config: &OptimizerConfig,
    sql: &str,
) -> (Duration, std::result::Result<Answer, String>) {
    let (elapsed, out) = execute(db, config, sql);
    let answer = out.map(|o| Answer {
        rows: fingerprint(o.batches()),
        pages: o.io.weighted_page_cost(),
        execute: o.elapsed,
    });
    (elapsed, answer)
}

/// What the timed loop saw of one query execution: the distinct query
/// it ran and its fingerprint, or why it failed.
type Outcome = (usize, std::result::Result<Fingerprint, String>);

/// One run's fixed inputs: the workload's configuration, its distinct
/// queries and the rotation over them.
struct Bench {
    config: OptimizerConfig,
    distinct: Vec<Query>,
    /// The rotation, as indexes into `distinct`.
    order: Vec<usize>,
}

impl Bench {
    fn new(config: OptimizerConfig, rotation: Vec<Query>) -> Bench {
        let mut distinct: Vec<Query> = Vec::new();
        let mut order = Vec::new();
        for q in rotation {
            order.push(
                distinct
                    .iter()
                    .position(|d| d.sql == q.sql)
                    .unwrap_or_else(|| {
                        distinct.push(q);
                        distinct.len() - 1
                    }),
            );
        }
        Bench {
            config,
            distinct,
            order,
        }
    }

    /// One untimed execution of one query of every class.
    fn warm_up(&self, db: &Database) {
        let mut seen = BTreeSet::new();
        for q in self.distinct.iter().filter(|q| seen.insert(&q.class)) {
            let _ = run_session(db, &self.config, &q.sql);
        }
    }
}

/// The database a run queries: TPC-D at [`SCALE`], generated from the
/// run's seed.
fn database(seed: u64) -> TpcdConfig {
    TpcdConfig { scale: SCALE, seed }
}

/// Generates and loads the database and its indexes, and says how long
/// that took in seconds.
fn build(config: TpcdConfig) -> std::result::Result<(Database, f64), String> {
    let start = Instant::now();
    let db = build_database(config).map_err(|e| e.to_string())?;
    Ok((db, start.elapsed().as_secs_f64()))
}

/// A run's correctness bookkeeping.
#[derive(Default)]
struct Verdict {
    attempted: u64,
    failed: u64,
}

impl Verdict {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("FAILED {}", what());
        }
    }
}

fn run(args: &Args) -> std::result::Result<bool, String> {
    let w = args.workload;
    let config = w.config();

    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "workload {} seed {} seconds {} trace {} | scale {SCALE} threads {} memory_budget {:?} | \
         cores {cores}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        config.threads,
        config.memory_budget
    );

    let bench = Bench::new(config, w.rotation(args.seed));
    let mut verdict = Verdict::default();
    let mut outcomes: Vec<Outcome> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let (db, metrics, setup) = if args.trace {
        let (db, setup) = build(database(args.seed))?;
        bench.warm_up(&db);
        let spans = out_dir().join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
        let m = traced_loop(&db, &bench, budget, &mut outcomes, &mut verdict, &spans)?;
        (db, m, vec![setup])
    } else {
        timed_loop(&bench, args.seed, budget, &mut outcomes)?
    };
    let loop_s = start.elapsed().as_secs_f64();

    // Correctness, outside the timed loop: every timed execution must
    // match the reference interpreter's rows for its query.
    let checks_start = Instant::now();
    let expected = oracle(&db, &bench, &mut verdict);
    check_outcomes(&bench, &outcomes, &expected, &mut verdict);
    check_phase_equivalence(&db, &bench, &mut verdict);
    check_q3_order_optimization(&db, &bench.distinct, &mut verdict);
    println!(
        "wall: set-up and loop {loop_s:.3} s ({:.3} s in {} timed database builds), checks {:.3} s",
        setup.iter().sum::<f64>(),
        setup.len(),
        checks_start.elapsed().as_secs_f64()
    );
    drop(db);

    let correct = verdict.failed == 0;
    let error_rate = verdict.failed as f64 / verdict.attempted.max(1) as f64;
    for m in &metrics {
        println!("{:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "error_rate {error_rate} ({} failed of {} attempted: timed queries plus oracle checks)",
        verdict.failed, verdict.attempted
    );
    let line = result_line(correct, verdict.attempted, verdict.failed, &metrics);
    let out = out_dir();
    let written = std::fs::create_dir_all(&out).and_then(|_| {
        std::fs::write(
            out.join(format!(
                "{}-seed{}-trace{}.json",
                w.name(),
                args.seed,
                args.trace as u8
            )),
            format!(
                "{{\"workload\": \"{}\", \"seed\": {}, \"cores\": {cores}, \
                 \"error_rate\": {error_rate}, \"result\": {line}}}\n",
                w.name(),
                args.seed
            ),
        )
    });
    if let Err(e) = written {
        eprintln!(
            "warning: could not write results under {}: {e}",
            out.display()
        );
    }
    println!("{line}");
    Ok(correct)
}

/// The untraced closed loop: one client sends the rotation's queries
/// back to back through `Session` until `budget` of query time has
/// passed, at least [`MIN_SAMPLES`] queries ran and the whole rotation
/// was sent.
///
/// The loop runs in [`SETUP_REPEATS`] stretches, each on a database
/// built afresh, so the set-up times sample the host over the whole run
/// as the latencies do. An untimed first build and a warm-up come
/// before it. Building the database, hashing answers for the oracle and
/// timing the host happen between queries and are not loop time.
/// Returns the last database, the metrics and the set-up times.
fn timed_loop(
    bench: &Bench,
    seed: u64,
    budget: Duration,
    outcomes: &mut Vec<Outcome>,
) -> std::result::Result<(Database, Vec<Metric>, Vec<f64>), String> {
    let Bench {
        config,
        distinct,
        order,
    } = bench;
    let (mut db, _) = build(database(seed))?;
    bench.warm_up(&db);
    let mut probe = HostProbe::new();
    let mut next_probe = Duration::ZERO;
    let mut setup = Vec::new();
    // Each completed execution: its distinct query and its latency.
    let mut samples: Vec<(usize, Duration)> = Vec::new();
    let mut pages = 0.0;
    let mut busy = Duration::ZERO;
    let mut between = Duration::ZERO;
    let loop_start = Instant::now();
    for stretch in 1..=SETUP_REPEATS {
        // Drop the previous build first, so peak memory holds one.
        drop(db);
        let seconds;
        (db, seconds) = build(database(seed))?;
        setup.push(seconds);
        between += Duration::from_secs_f64(seconds);
        let until = budget * stretch as u32 / SETUP_REPEATS as u32;
        let last = stretch == SETUP_REPEATS;
        let fewest = MIN_SAMPLES.max(order.len());
        while busy < until || (last && outcomes.len() < fewest) {
            if busy >= next_probe {
                between += probe.sample();
                next_probe = busy + PROBE_EVERY;
            }
            let id = order[outcomes.len() % order.len()];
            let (elapsed, out) = execute(&db, config, &distinct[id].sql);
            busy += elapsed;
            let fp = out.map(|o| {
                pages += o.io.weighted_page_cost();
                samples.push((id, elapsed));
                let start = Instant::now();
                let fp = fingerprint(o.batches());
                between += start.elapsed();
                fp
            });
            outcomes.push((id, fp));
        }
    }
    let wall = loop_start.elapsed() - between;
    let peak = peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?;
    let timing = Timing::of(distinct, &samples);
    let completed = samples.len();
    let fastest_build = setup.iter().copied().fold(f64::INFINITY, f64::min);
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    // Times on the reference machine: see `host`.
    let scale = probe.scale();
    let scaled_ms = |d: Duration| ms(d) * scale;
    println!(
        "samples {} timed queries ({completed} completed) over {:.3} s of closed-loop wall time \
         ({:.3} s in queries)",
        outcomes.len(),
        wall.as_secs_f64(),
        busy.as_secs_f64()
    );
    for (class, (best, mut v)) in timing.by_class {
        v.sort();
        println!(
            "  {class:<24} n {:>4}  best {:>9.3} ms  p50 {:>9.3} ms  p90 {:>9.3} ms",
            v.len(),
            ms(best),
            ms(quantile(&v, 0.5)),
            ms(quantile(&v, 0.9))
        );
    }
    let best_s = timing.best.iter().sum::<Duration>().as_secs_f64();
    println!(
        "raw closed loop (not gated): p50 {:.3} ms, p90 {:.3} ms, {:.3} queries/s of wall time",
        ms(quantile(&timing.raw, 0.5)),
        ms(quantile(&timing.raw, 0.9)),
        completed as f64 / wall.as_secs_f64()
    );
    println!(
        "class best, unscaled (not gated): p50 {:.3} ms, p90 {:.3} ms, {:.3} queries/s, \
         set-up {:.4} s",
        ms(quantile(&timing.best, 0.5)),
        ms(quantile(&timing.best, 0.9)),
        completed as f64 / best_s,
        fastest_build
    );
    println!(
        "host probe: best {:.3} ms of {} samples; times scaled by {scale:.4} to the reference \
         machine's {:.3} ms",
        ms(probe.best()),
        probe.samples(),
        ms(host::REFERENCE)
    );
    let metrics = vec![
        Metric::new(
            "latency_p50_ms",
            scaled_ms(quantile(&timing.best, 0.5)),
            "ms",
        ),
        Metric::new(
            "latency_p90_ms",
            scaled_ms(quantile(&timing.best, 0.9)),
            "ms",
        ),
        Metric::new("queries_per_s", completed as f64 / (best_s * scale), "1/s"),
        Metric::new("pages_per_query", pages / completed.max(1) as f64, "pages"),
        Metric::new("peak_rss_mb", peak, "MiB"),
        Metric::new("setup_s", fastest_build * scale, "s"),
    ];
    Ok((db, metrics, setup))
}

/// A run's latencies, raw and at their class's best.
///
/// The host the benchmark was written on runs in speed phases that last
/// seconds to a minute, in which cache-heavy code such as the planner
/// runs up to 1.7 times slower. A quantile of one run's raw latencies
/// then measures how much slow time the run happened to draw. A class's
/// fastest execution over the whole run does not, so the gated figures
/// count every execution at its class's best.
struct Timing<'a> {
    /// Per class: its best latency and all its latencies.
    by_class: BTreeMap<&'a str, (Duration, Vec<Duration>)>,
    /// Every completed execution's latency, sorted.
    raw: Vec<Duration>,
    /// Every completed execution's class best, sorted.
    best: Vec<Duration>,
}

impl<'a> Timing<'a> {
    fn of(distinct: &'a [Query], samples: &[(usize, Duration)]) -> Timing<'a> {
        let mut by_class: BTreeMap<&str, (Duration, Vec<Duration>)> = BTreeMap::new();
        for &(id, elapsed) in samples {
            let (best, all) = by_class
                .entry(&distinct[id].class)
                .or_insert((Duration::MAX, Vec::new()));
            *best = (*best).min(elapsed);
            all.push(elapsed);
        }
        let mut raw: Vec<Duration> = samples.iter().map(|&(_, d)| d).collect();
        let mut best: Vec<Duration> = samples
            .iter()
            .map(|&(id, _)| by_class[distinct[id].class.as_str()].0)
            .collect();
        raw.sort();
        best.sort();
        Timing {
            by_class,
            raw,
            best,
        }
    }
}

/// Where the run writes its result file and spans.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The traced run: each query of the rotation runs twice, untraced
/// through `Session` and traced through the hand-driven pipeline, in
/// alternating order. The traced executions give the per-layer means;
/// the pair gives the tracing overhead.
fn traced_loop(
    db: &Database,
    bench: &Bench,
    budget: Duration,
    outcomes: &mut Vec<Outcome>,
    verdict: &mut Verdict,
    spans: &Path,
) -> std::result::Result<Vec<Metric>, String> {
    let Bench {
        config,
        distinct,
        order,
    } = bench;
    let mut tracer = Tracer::new();
    let mut totals = LayerTotals::default();
    let (mut untraced, mut traced) = (Duration::ZERO, Duration::ZERO);
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < budget {
        let id = order[i % order.len()];
        let sql = &distinct[id].sql;
        for traced_first in [i % 2 == 0, i % 2 != 0] {
            if traced_first {
                let out = guarded(|| tracer.run(db, config, sql));
                outcomes.push((
                    id,
                    out.map(|q| {
                        traced += q.total;
                        totals.add(&q);
                        fingerprint(&q.batches)
                    }),
                ));
            } else {
                let (elapsed, out) = run_session(db, config, sql);
                untraced += elapsed;
                outcomes.push((id, out.map(|a| a.rows)));
            }
        }
        i += 1;
    }
    println!(
        "samples {i} traced + {i} untraced executions; {} spans",
        tracer.spans().len()
    );
    let mut metrics = totals.metrics();

    // Count determinism: two traced passes at P=1 over every distinct
    // query must give identical counts.
    let serial = config.clone().with_threads(1);
    let passes: Vec<String> = (0..2)
        .map(|_| {
            let mut pass = LayerTotals::default();
            let mut scratch = Tracer::new();
            for q in distinct {
                if let Ok(t) = guarded(|| scratch.run(db, &serial, &q.sql)) {
                    pass.add(&t);
                }
            }
            pass.counts_signature()
        })
        .collect();
    println!(
        "count determinism at P=1: {}",
        if passes[0] == passes[1] {
            "exact"
        } else {
            "DIFFERS"
        }
    );
    verdict.check(passes[0] == passes[1], || {
        format!(
            "count determinism at P=1:\n  first:  {}\n  second: {}",
            passes[0], passes[1]
        )
    });

    let (elapsed_ratio, pages_ratio) = table1(db)?;
    metrics.extend([
        Metric::new("table1.elapsed_ratio", elapsed_ratio, "ratio"),
        Metric::new("table1.pages_ratio", pages_ratio, "ratio"),
        Metric::new(
            "trace.overhead_pct",
            (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0,
            "%",
        ),
    ]);
    println!(
        "traced mean latency {:.3} ms; not measurable from outside the engine: lowering \
         (inside execute_plan), time between operators, worker wait time, buffer-pool evictions",
        totals.mean_total().as_secs_f64() * 1e3
    );

    if let Err(e) = std::fs::create_dir_all(out_dir())
        .and_then(|_| std::fs::write(spans, tracer.to_json_lines()))
    {
        eprintln!("warning: could not write {}: {e}", spans.display());
    }
    Ok(metrics)
}

/// Table 1: the paper's Q3 under the 1996 operator inventory with order
/// optimization off ÷ on, from alternating runs. Returns the end-to-end
/// elapsed ratio (medians) and the simulated pages ratio, and prints
/// the execution-only ratio the `table1` binary reports.
fn table1(db: &Database) -> std::result::Result<(f64, f64), String> {
    let sql = queries::q3_default();
    let configs = [
        OptimizerConfig::db2_1996(),
        OptimizerConfig::db2_1996_disabled(),
    ];
    let mut total = [Vec::new(), Vec::new()];
    let mut execute = [Vec::new(), Vec::new()];
    let mut pages = [0.0; 2];
    for _ in 0..TABLE1_REPEATS {
        for (k, cfg) in configs.iter().enumerate() {
            let (elapsed, out) = run_session(db, cfg, &sql);
            let answer = out.map_err(|e| format!("table 1 Q3: {e}"))?;
            pages[k] = answer.pages;
            total[k].push(elapsed.as_secs_f64());
            execute[k].push(answer.execute.as_secs_f64());
        }
    }
    let ratio = |v: &[Vec<f64>; 2]| median(&v[1]) / median(&v[0]);
    println!(
        "table 1 (Q3, db2_1996 off / on): end to end {:.3}x, execution only {:.3}x, pages \
         {:.3}x (paper: 2.04x elapsed)",
        ratio(&total),
        ratio(&execute),
        pages[1] / pages[0]
    );
    Ok((ratio(&total), pages[1] / pages[0]))
}

/// The oracle: every distinct query's rows from the reference
/// interpreter, as fingerprints the timed executions must match.
fn oracle(db: &Database, bench: &Bench, verdict: &mut Verdict) -> Vec<Option<Fingerprint>> {
    let config = &bench.config;
    bench
        .distinct
        .iter()
        .map(|q| {
            let run = guarded(|| {
                let prepared = Session::new(db).config(config.clone()).plan(&q.sql)?;
                Ok(fingerprint(prepared.execute_materialized()?.batches()))
            });
            verdict.check(run.is_ok(), || {
                format!(
                    "{}: reference interpreter: {run:?}\n  sql: {}",
                    q.kind, q.sql
                )
            });
            run.ok()
        })
        .collect()
}

/// Every timed execution must return its query's oracle rows. Each
/// failed execution counts; each failing query is reported once.
fn check_outcomes(
    bench: &Bench,
    outcomes: &[Outcome],
    expected: &[Option<Fingerprint>],
    verdict: &mut Verdict,
) {
    let mut reported = vec![false; bench.distinct.len()];
    for (id, outcome) in outcomes {
        let ok = matches!(outcome, Ok(fp) if expected[*id] == Some(*fp));
        verdict.attempted += 1;
        if ok {
            continue;
        }
        verdict.failed += 1;
        if std::mem::replace(&mut reported[*id], true) {
            continue;
        }
        let q = &bench.distinct[*id];
        match outcome {
            Ok(fp) => println!(
                "FAILED {}: streaming engine returned {fp:?}, reference interpreter {:?}\n  \
                 sql: {}",
                q.kind, expected[*id], q.sql
            ),
            Err(e) => println!("FAILED {}: {e}\n  sql: {}", q.kind, q.sql),
        }
    }
}

/// The hand-driven pipeline of the traced run must choose the plan
/// `Session::plan` chooses, or its per-layer numbers would describe a
/// different program.
fn check_phase_equivalence(db: &Database, bench: &Bench, verdict: &mut Verdict) {
    let config = &bench.config;
    let mut tracer = Tracer::new();
    for q in &bench.distinct {
        let session = guarded(|| {
            Ok(Session::new(db)
                .config(config.clone())
                .plan(&q.sql)?
                .explain())
        });
        let by_hand = guarded(|| Ok(tracer.compile(db, config, &q.sql)?.explain()));
        verdict.check(session.is_ok() && session == by_hand, || {
            format!(
                "{}: traced pipeline plans differently from Session::plan\n  session: \
                 {session:?}\n  by hand: {by_hand:?}",
                q.kind
            )
        });
    }
}

/// Order optimization must not change answers: Q3 (the paper's
/// parameters and every Q3 of the run) returns identical rows under
/// `db2_1996` and `db2_1996_disabled`.
fn check_q3_order_optimization(db: &Database, distinct: &[Query], verdict: &mut Verdict) {
    let default = queries::q3_default();
    let sqls = std::iter::once(default.as_str()).chain(
        distinct
            .iter()
            .filter(|q| q.kind == "q3")
            .map(|q| q.sql.as_str()),
    );
    for sql in sqls {
        let on = run_session(db, &OptimizerConfig::db2_1996(), sql).1;
        let off = run_session(db, &OptimizerConfig::db2_1996_disabled(), sql).1;
        let same = matches!((&on, &off), (Ok(a), Ok(b)) if a.rows == b.rows);
        verdict.check(same, || {
            format!("Q3 differs with order optimization on vs off: {on:?} vs {off:?}\n  sql: {sql}")
        });
    }
}
