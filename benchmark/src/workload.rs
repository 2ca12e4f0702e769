//! The four workloads: their engine configuration and the SQL they send,
//! drawn from the run's seed.
//!
//! Every workload runs against a TPC-D database at scale 0.02 (about
//! 120k lineitems, 30k orders, 3k customers) generated from the run's
//! seed. A workload owns a small pool of distinct queries whose
//! parameters come from the seed, and a fixed rotation over that pool:
//! the closed loop sends query `i` of the rotation, waits for its last
//! row, and sends query `i + 1`.
//! Keeping the pool to a few dozen queries lets the oracle check every one
//! against the reference interpreter; drawing many parameters per run
//! keeps one seed's figures close to another's.

use fto_common::Rng;
use fto_planner::OptimizerConfig;
use fto_sql::dates::{days_from_civil, format_date};
use fto_tpcd::gen::{DATE_HI, DATE_LO, SEGMENTS};
use fto_tpcd::queries;

/// TPC-D scale factor of every workload's database.
pub const SCALE: f64 = 0.02;

/// Memory budget of `tpcd_mix_spill`: far below the sort and join
/// working sets, so external sort, spilled join builds and the buffer
/// pool do the work.
pub const SPILL_BUDGET: usize = 256 << 10;

/// Parallel degree of `tpcd_mix_p2`.
pub const P2_THREADS: usize = 2;

/// Distinct Q3 parameter sets per `tpcd_q3` run.
const Q3_VARIANTS: usize = 6;

/// Distinct Q1 cutoffs per mix run.
const Q1_VARIANTS: usize = 3;

/// ORDER BY instances per sort-key choice in a mix run. A full sort's
/// peak memory depends on its data: about one ship-date range in eight
/// lifts it from about 20 to about 55 MiB. With 8 ranges a third of the
/// seeds drew none, and `peak_rss_mb` hinged on the seed; with 24 one
/// seed in thirty draws none.
const ORDER_BY_PER_KEY: usize = 24;

/// Order dates are uniform over `[DATE_LO, ORDER_HI)`, and each
/// lineitem ships 1 to 121 days after its order.
const ORDER_HI: i32 = DATE_HI - 150;

/// Last possible ship date.
const SHIP_HI: i32 = ORDER_HI + 121;

/// Ship dates in `[DATE_LO + 121, ORDER_HI]` are uniformly dense, so an
/// ORDER BY range inside it selects the same share of lineitems
/// wherever the seed places it.
const UNIFORM_SHIP: (i32, i32) = (DATE_LO + 121, ORDER_HI);

/// Share of lineitems an ORDER BY range selects: about 100k of 120k.
const ORDER_BY_SHARE: f64 = 0.83;

/// A named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// TPC-D Q3 alone, default configuration, P=1: planning dominates.
    Q3,
    /// The four-query mix, default configuration, P=1.
    Mix,
    /// The mix at two threads: the exchange layer does the extra work.
    MixP2,
    /// The mix under a 256 KiB memory budget: spill and buffer pool.
    MixSpill,
}

/// One distinct query of a workload's pool.
#[derive(Clone, Debug)]
pub struct Query {
    /// Which template the query came from (`q3`, `q1`, `order_by_full`, …).
    pub kind: &'static str,
    /// The queries that do the same work: one Q3 parameter set, or one
    /// mix template with its sort key, whose instances select the same
    /// share of rows. The latency figures take each class at its best.
    pub class: String,
    /// The SQL text sent to the engine.
    pub sql: String,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::Q3,
        Workload::Mix,
        Workload::MixP2,
        Workload::MixSpill,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Q3 => "tpcd_q3",
            Workload::Mix => "tpcd_mix",
            Workload::MixP2 => "tpcd_mix_p2",
            Workload::MixSpill => "tpcd_mix_spill",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The engine configuration every query of the workload runs under.
    pub fn config(self) -> OptimizerConfig {
        match self {
            Workload::Q3 | Workload::Mix => OptimizerConfig::default(),
            Workload::MixP2 => OptimizerConfig::default().with_threads(P2_THREADS),
            Workload::MixSpill => OptimizerConfig::default().with_memory_budget(SPILL_BUDGET),
        }
    }

    /// One run's rotation: the closed loop sends
    /// `rotation[i % rotation.len()]` as its `i`-th query. A query may
    /// appear more than once in it.
    pub fn rotation(self, seed: u64) -> Vec<Query> {
        let mut rng = Rng::new(seed ^ 0x9e37_79b9_7f4a_7c15);
        match self {
            Workload::Q3 => q3_rotation(&mut rng),
            Workload::Mix | Workload::MixP2 | Workload::MixSpill => mix_rotation(&mut rng),
        }
    }
}

/// Q3 with a ship date in March 1995 and any market segment, no two
/// alike.
fn q3_rotation(rng: &mut Rng) -> Vec<Query> {
    let march = days_from_civil(1995, 3, 1) as i32;
    let mut params: Vec<(i32, &str)> = Vec::new();
    while params.len() < Q3_VARIANTS {
        let p = (march + rng.range_i32(0, 31), *rng.pick(&SEGMENTS));
        if !params.contains(&p) {
            params.push(p);
        }
    }
    params
        .into_iter()
        .map(|(date, segment)| Query {
            kind: "q3",
            class: format!("q3 {} {segment}", format_date(date)),
            sql: queries::q3(&format_date(date), segment),
        })
        .collect()
}

/// The mix: Q1, a lineitem ORDER BY, the §6 orders⋈lineitem group-by
/// and `order_report`, in that rotation, each slot cycling through its
/// own instances. The ORDER BY instances cycle through the three sort
/// keys, so every run holds the same share of sort-avoided,
/// segmented-sort and full-sort queries.
fn mix_rotation(rng: &mut Rng) -> Vec<Query> {
    let q1: Vec<Query> = (0..Q1_VARIANTS)
        .map(|_| Query {
            kind: "q1",
            class: "q1".into(),
            sql: queries::q1(&format_date(SHIP_HI - rng.range_i32(60, 241))),
        })
        .collect();
    let width = ((ORDER_HI - DATE_LO) as f64 * ORDER_BY_SHARE) as i32;
    let (uniform_lo, uniform_hi) = UNIFORM_SHIP;
    let mut order_by = Vec::new();
    for _ in 0..ORDER_BY_PER_KEY {
        for (kind, key) in ORDER_BY_KEYS {
            let lo = uniform_lo + rng.range_i32(0, uniform_hi - uniform_lo - width);
            order_by.push(Query {
                kind,
                class: kind.into(),
                sql: format!(
                    "select l_orderkey, l_linenumber, l_shipdate, l_extendedprice \
                     from lineitem \
                     where l_shipdate >= date('{}') and l_shipdate < date('{}') \
                     order by {key}",
                    format_date(lo),
                    format_date(lo + width)
                ),
            });
        }
    }
    let slots = [
        q1,
        order_by,
        vec![Query {
            kind: "section6",
            class: "section6".into(),
            sql: queries::section6_example(),
        }],
        vec![Query {
            kind: "order_report",
            class: "order_report".into(),
            sql: queries::order_report(),
        }],
    ];
    // Interleave the slots: round r takes instance r % len of each.
    let rounds = slots.iter().map(Vec::len).fold(1, lcm);
    (0..rounds)
        .flat_map(|r| slots.iter().map(move |s| s[r % s.len()].clone()))
        .collect()
}

/// The ORDER BY's three sort keys against the clustered index
/// `l_orderkey_ix (l_orderkey, l_linenumber)`: fully satisfied (the
/// sort is avoided), prefix-satisfied (segmented sort), unsatisfied
/// (full sort).
const ORDER_BY_KEYS: [(&str, &str); 3] = [
    ("order_by_avoided", "l_orderkey, l_linenumber"),
    ("order_by_segmented", "l_orderkey, l_shipdate"),
    ("order_by_full", "l_extendedprice, l_orderkey, l_linenumber"),
];

fn lcm(a: usize, b: usize) -> usize {
    fn gcd(a: usize, b: usize) -> usize {
        if b == 0 {
            a
        } else {
            gcd(b, a % b)
        }
    }
    a / gcd(a, b) * b
}
