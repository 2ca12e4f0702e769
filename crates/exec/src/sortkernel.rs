//! The executor's sort kernel: full sort, top-N selection, and
//! order-preserving run merging, used by the streaming operators, the
//! external sort, and the parallel exchange operators.
//!
//! # Stability and tie-order contract
//!
//! Every entry point in this module implements the same total ordering:
//! rows compare by the resolved sort keys (each column through
//! [`Direction::apply`], NULLs per [`Value::total_cmp`]), and rows whose
//! keys compare equal stay in **input order**. Equivalently: the output is
//! what a stable sort of the input produces.
//!
//! This is not a cosmetic choice — it is the determinism anchor for the
//! whole engine:
//!
//! * the differential suite requires the streaming executor and the
//!   reference interpreter (which sorts with its own stable `Value`
//!   comparator, not this kernel) to emit bit-identical rows, which
//!   forces one tie order;
//! * parallel execution splits the input into runs, sorts each run
//!   independently, and merges; the merge reproduces the serial output
//!   *only because* each run is tagged with its rows' serial positions
//!   and [`merge_runs`] breaks key ties by those tags.
//!
//! # Normalized keys
//!
//! The kernel decorates each row once with its [`fto_common::sortkey`]
//! encoding — an order-preserving byte string whose plain `&[u8]`
//! comparison is bit-identical in outcome to the `Value` comparator
//! (property-tested in `fto_common::sortkey`) — plus the row's
//! big-endian sequence tag as a suffix. Appending the tag makes every
//! decorated key unique, so `sort_unstable` on plain byte strings *is*
//! the stable sort the contract above demands (ties in the logical key
//! resolve by tag = input order), and runs merge by memcmp on the stored
//! keys with no per-heap-op `Value` dispatch. The suffix is safe to
//! compare as part of the same memcmp because each column's encoding is
//! prefix-free: two rows with different logical keys already differ at a
//! byte position present in both encodings. When every decorated key in
//! a sort has the same width (fixed-width key shapes: numerics, dates,
//! bools, no NULLs), a byte-wise MSB radix sort replaces the comparison
//! sort entirely. Empty sort keys leave the input order as is.
//!
//! The kernel keeps process-wide `sort.key_bytes` / `sort.comparisons`
//! tallies (see [`stats_snapshot`]); sessions snapshot them around each
//! execution and feed the deltas to the metrics registry.

use fto_common::{sortkey, Direction, FtoError, Result, Row, Value};
use fto_expr::RowLayout;
use fto_order::OrderSpec;
use std::cell::Cell;
use std::cmp::Ordering;
use std::sync::atomic::{AtomicU64, Ordering as AtomicOrd};

/// Cumulative count of normalized-key bytes encoded by sort operations
/// in this process.
static KEY_BYTES: AtomicU64 = AtomicU64::new(0);
/// Cumulative count of key comparisons made by sort/merge operations in
/// this process (byte-string comparisons, plus the `Value` comparisons
/// of the bounded Top-N's pruning; radix-distributed rows add none).
static COMPARISONS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of (or delta between) the kernel's process-wide counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SortStats {
    /// Normalized-key bytes encoded (decorations, including seq tags).
    pub key_bytes: u64,
    /// Key comparisons performed by sorts, selections, and run merges.
    pub comparisons: u64,
}

impl SortStats {
    /// The counters accumulated since `earlier` (saturating).
    pub fn delta_since(&self, earlier: SortStats) -> SortStats {
        SortStats {
            key_bytes: self.key_bytes.saturating_sub(earlier.key_bytes),
            comparisons: self.comparisons.saturating_sub(earlier.comparisons),
        }
    }
}

/// Reads the kernel's cumulative process-wide counters. Concurrent
/// sessions share them; callers wanting per-query numbers snapshot
/// before and after and take [`SortStats::delta_since`].
pub fn stats_snapshot() -> SortStats {
    SortStats {
        key_bytes: KEY_BYTES.load(AtomicOrd::Relaxed),
        comparisons: COMPARISONS.load(AtomicOrd::Relaxed),
    }
}

/// Adds to the process-wide tallies — called once per sort/merge, not
/// once per comparison (comparators count locally in a [`Cell`]).
pub(crate) fn charge(key_bytes: u64, comparisons: u64) {
    if key_bytes != 0 {
        KEY_BYTES.fetch_add(key_bytes, AtomicOrd::Relaxed);
    }
    if comparisons != 0 {
        COMPARISONS.fetch_add(comparisons, AtomicOrd::Relaxed);
    }
}

/// Cumulative count of spilled sort/group-by runs formed in this process.
static SPILL_RUNS: AtomicU64 = AtomicU64::new(0);
/// Cumulative count of external-merge passes (one per level of the
/// multi-pass K-way merge, counted once per level, not per run).
static MERGE_PASSES: AtomicU64 = AtomicU64::new(0);

/// A snapshot of (or delta between) the process-wide external-operator
/// counters — the "actual" side of the cost model's spill estimate.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpillStats {
    /// Sorted runs (or hash partitions) spilled to a spill file.
    pub runs_formed: u64,
    /// External merge passes performed (`0` for an in-memory sort, `1`
    /// when the spilled runs fit one merge fan-in, more as the input
    /// grows — the executor's counterpart of `cost::sort_spill_passes`).
    pub merge_passes: u64,
}

impl SpillStats {
    /// The counters accumulated since `earlier` (saturating).
    pub fn delta_since(&self, earlier: SpillStats) -> SpillStats {
        SpillStats {
            runs_formed: self.runs_formed.saturating_sub(earlier.runs_formed),
            merge_passes: self.merge_passes.saturating_sub(earlier.merge_passes),
        }
    }
}

/// Reads the cumulative process-wide spill counters; snapshot-and-delta
/// per query like [`stats_snapshot`].
pub fn spill_stats_snapshot() -> SpillStats {
    SpillStats {
        runs_formed: SPILL_RUNS.load(AtomicOrd::Relaxed),
        merge_passes: MERGE_PASSES.load(AtomicOrd::Relaxed),
    }
}

/// Records `n` spilled runs (or partitions) formed. Doubles as a
/// timeline hook: when the calling thread has a profiler lane installed
/// the event lands in the execution timeline too.
pub(crate) fn note_spill_runs(n: u64) {
    if n != 0 {
        SPILL_RUNS.fetch_add(n, AtomicOrd::Relaxed);
        fto_obs::profile::instant("spill", || format!("spill.runs_formed x{n}"));
    }
}

/// Records one external merge pass (also a timeline instant, like
/// [`note_spill_runs`]).
pub(crate) fn note_merge_pass() {
    MERGE_PASSES.fetch_add(1, AtomicOrd::Relaxed);
    fto_obs::profile::instant("spill", || "spill.merge_pass".to_string());
}

/// Cumulative count of prefix groups formed by segmented (partial) sort
/// operators in this process.
static SEGMENT_GROUPS: AtomicU64 = AtomicU64::new(0);

/// A snapshot of (or delta between) the process-wide segmented-sort
/// counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Prefix groups formed (each one is sorted independently on the
    /// residual suffix keys).
    pub groups_formed: u64,
}

impl SegmentStats {
    /// The counters accumulated since `earlier` (saturating).
    pub fn delta_since(&self, earlier: SegmentStats) -> SegmentStats {
        SegmentStats {
            groups_formed: self.groups_formed.saturating_sub(earlier.groups_formed),
        }
    }
}

/// Reads the cumulative process-wide segmented-sort counters;
/// snapshot-and-delta per query like [`stats_snapshot`].
pub fn segment_stats_snapshot() -> SegmentStats {
    SegmentStats {
        groups_formed: SEGMENT_GROUPS.load(AtomicOrd::Relaxed),
    }
}

/// Records `n` prefix groups formed by a segmented sort (also a
/// timeline instant, like [`note_spill_runs`]).
pub(crate) fn note_segment_groups(n: u64) {
    if n != 0 {
        SEGMENT_GROUPS.fetch_add(n, AtomicOrd::Relaxed);
        fto_obs::profile::instant("segment", || "segment.group_sealed".to_string());
    }
}

/// Resolved sort keys: (position in the row, direction) per key column.
pub type SortKeys = Vec<(usize, Direction)>;

/// Resolves an [`OrderSpec`]'s columns to row positions under `layout`.
pub fn resolve_keys(spec: &OrderSpec, layout: &RowLayout) -> Result<SortKeys> {
    spec.keys()
        .iter()
        .map(|k| {
            layout.position(k.col).map(|p| (p, k.dir)).ok_or_else(|| {
                FtoError::internal(format!("sort column {} missing from layout", k.col))
            })
        })
        .collect()
}

/// Extracted key columns for one row, compared positionally with the
/// keys' directions.
fn extract(row: &Row, keys: &SortKeys) -> Box<[Value]> {
    keys.iter().map(|&(pos, _)| row[pos].clone()).collect()
}

fn cmp_extracted(a: &[Value], b: &[Value], keys: &SortKeys) -> Ordering {
    for (i, &(_, dir)) in keys.iter().enumerate() {
        let ord = dir.apply(a[i].total_cmp(&b[i]));
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// Encodes `row`'s normalized key under `keys` with `seq` appended
/// big-endian — the decorated byte string the sort paths order by.
fn encode_with_seq(row: &Row, keys: &SortKeys, seq: u64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(keys.len() * sortkey::NUMERIC_WIDTH + 8);
    sortkey::encode_key_into(row, keys, &mut buf);
    buf.extend_from_slice(&seq.to_be_bytes());
    buf
}

/// Stably sorts rows whose normalized keys were encoded into one
/// contiguous arena ([`fto_common::column::encode_batch_keys_arena`]):
/// row `i`'s key is `bytes[offsets[i]..offsets[i + 1]]`. Builds each
/// decorated key (key ‖ 8-byte seq) in a single exactly-sized
/// allocation, charges `KEY_BYTES` for it, and sorts the decorated byte
/// strings. A no-op for empty `keys`.
pub fn sort_rows_arena(rows: &mut Vec<Row>, bytes: &[u8], offsets: &[usize], keys: &SortKeys) {
    if rows.len() <= 1 || keys.is_empty() {
        return;
    }
    debug_assert_eq!(rows.len() + 1, offsets.len());
    let mut total = 0u64;
    let decorated: Vec<(Vec<u8>, Row)> = std::mem::take(rows)
        .into_iter()
        .enumerate()
        .map(|(i, row)| {
            let enc = &bytes[offsets[i]..offsets[i + 1]];
            let mut key = Vec::with_capacity(enc.len() + 8);
            key.extend_from_slice(enc);
            key.extend_from_slice(&(i as u64).to_be_bytes());
            total += key.len() as u64;
            (key, row)
        })
        .collect();
    charge(total, 0);
    let decorated = sort_decorated(decorated, |d| &d.0);
    *rows = decorated.into_iter().map(|(_, row)| row).collect();
}

/// Below this many elements a comparison sort beats radix distribution.
const RADIX_CUTOFF: usize = 64;

/// Sorts decorated items by their byte key. All keys are unique (the seq
/// suffix guarantees it), so an unstable sort is deterministic. When
/// every key has the same width — fixed-width key shapes — a byte-wise
/// MSB radix sort distributes instead of comparing.
fn sort_decorated<T>(mut items: Vec<T>, key: impl Fn(&T) -> &[u8] + Copy) -> Vec<T> {
    if items.len() >= RADIX_CUTOFF {
        let w = key(&items[0]).len();
        if items.iter().all(|t| key(t).len() == w) {
            return radix_sort(items, 0, w, key);
        }
    }
    let cmps = Cell::new(0u64);
    items.sort_unstable_by(|a, b| {
        cmps.set(cmps.get() + 1);
        key(a).cmp(key(b))
    });
    charge(0, cmps.get());
    items
}

/// Recursive MSB radix sort on fixed-width byte keys: distribute on byte
/// `d`, recurse per bucket. Small buckets fall back to a comparison sort
/// of the remaining suffix; buckets whose byte `d` is constant (common —
/// the leading type tag rarely varies) skip the distribution and descend
/// directly.
fn radix_sort<T>(items: Vec<T>, d: usize, w: usize, key: impl Fn(&T) -> &[u8] + Copy) -> Vec<T> {
    if d >= w || items.len() <= 1 {
        return items;
    }
    if items.len() < RADIX_CUTOFF {
        let mut items = items;
        let cmps = Cell::new(0u64);
        items.sort_unstable_by(|a, b| {
            cmps.set(cmps.get() + 1);
            key(a)[d..].cmp(&key(b)[d..])
        });
        charge(0, cmps.get());
        return items;
    }
    let mut counts = [0usize; 256];
    for t in &items {
        counts[key(t)[d] as usize] += 1;
    }
    if counts.contains(&items.len()) {
        return radix_sort(items, d + 1, w, key);
    }
    let mut buckets: Vec<Vec<T>> = counts.iter().map(|&c| Vec::with_capacity(c)).collect();
    for t in items {
        buckets[key(&t)[d] as usize].push(t);
    }
    let mut out = Vec::with_capacity(counts.iter().sum());
    for bucket in buckets {
        if !bucket.is_empty() {
            out.append(&mut radix_sort(bucket, d + 1, w, key));
        }
    }
    out
}

/// Splits sorted decorated triples into a [`SortedRun`].
fn into_run(decorated: Vec<(Vec<u8>, u64, Row)>) -> SortedRun {
    let mut run = SortedRun {
        seqs: Vec::with_capacity(decorated.len()),
        rows: Vec::with_capacity(decorated.len()),
        enc: Vec::with_capacity(decorated.len()),
    };
    for (key, seq, row) in decorated {
        run.enc.push(key);
        run.seqs.push(seq);
        run.rows.push(row);
    }
    run
}

/// Sorts tagged rows by `(keys, seq)` into a [`SortedRun`] — the
/// per-bucket sort of a round-robin repartition, where each tag is the
/// row's global position in the serial stream. The decorated byte
/// strings embed each tag as their suffix, so one byte sort orders by
/// `(keys, seq)`, and merging the buckets' runs reproduces the serial
/// stable sort exactly.
pub fn sort_tagged_run(pairs: Vec<(u64, Row)>, keys: &SortKeys) -> SortedRun {
    let mut bytes = 0u64;
    let decorated: Vec<(Vec<u8>, u64, Row)> = pairs
        .into_iter()
        .map(|(seq, row)| {
            let key = encode_with_seq(&row, keys, seq);
            bytes += key.len() as u64;
            (key, seq, row)
        })
        .collect();
    charge(bytes, 0);
    into_run(sort_decorated(decorated, |d| &d.0))
}

/// Sorts a contiguous slice of the serial input (rows in input order,
/// occupying serial positions `[0, len)` locally) into a [`SortedRun`].
/// Tags are local input positions; the coordinator rebases them with
/// [`SortedRun::shift`] once the run's global interval is known.
pub fn sort_run(rows: Vec<Row>, keys: &SortKeys) -> SortedRun {
    sort_tagged_run(
        rows.into_iter()
            .enumerate()
            .map(|(i, r)| (i as u64, r))
            .collect(),
        keys,
    )
}

/// [`sort_run`] for rows whose normalized keys were already encoded into
/// one contiguous arena
/// ([`fto_common::column::encode_batch_keys_arena`]): row `i`'s key is
/// `bytes[offsets[i]..offsets[i + 1]]`. Tags are local positions `[0,
/// len)`; rebase with [`SortedRun::shift`]. This is the external sort's
/// run-formation entry point — the arena comes straight from the
/// columnar encoder, so forming a spill run costs no per-row encoding
/// allocation beyond the decorated key itself.
pub fn sort_run_arena(rows: Vec<Row>, bytes: &[u8], offsets: &[usize]) -> SortedRun {
    debug_assert_eq!(rows.len() + 1, offsets.len());
    let mut total = 0u64;
    let decorated: Vec<(Vec<u8>, u64, Row)> = rows
        .into_iter()
        .enumerate()
        .map(|(i, row)| {
            let enc = &bytes[offsets[i]..offsets[i + 1]];
            let mut key = Vec::with_capacity(enc.len() + 8);
            key.extend_from_slice(enc);
            key.extend_from_slice(&(i as u64).to_be_bytes());
            total += key.len() as u64;
            (key, i as u64, row)
        })
        .collect();
    charge(total, 0);
    into_run(sort_decorated(decorated, |d| &d.0))
}

/// The first `n` rows of the stable sort of `rows` by `keys`, each tagged
/// with its original input position, compared by extracted `Value`s —
/// the bounded Top-N's repeated pruning step, which keeps its working
/// set to the few surviving candidates instead of decorating every input
/// row. Selection runs before the sort, so only the winning prefix pays
/// `O(n log n)`; the input-position tag makes the comparator a total
/// order, which is what pins the *choice* of boundary ties (the earliest
/// tied input rows win) as well as their output order.
pub fn top_n_tagged(rows: Vec<(u64, Row)>, keys: &SortKeys, n: usize) -> Vec<(u64, Row)> {
    if n == 0 {
        return Vec::new();
    }
    let mut decorated: Vec<(Box<[Value]>, u64, Row)> = rows
        .into_iter()
        .map(|(seq, row)| (extract(&row, keys), seq, row))
        .collect();
    let cmps = Cell::new(0u64);
    let cmp = |a: &(Box<[Value]>, u64, Row), b: &(Box<[Value]>, u64, Row)| {
        cmps.set(cmps.get() + 1);
        cmp_extracted(&a.0, &b.0, keys).then(a.1.cmp(&b.1))
    };
    if decorated.len() > n {
        decorated.select_nth_unstable_by(n - 1, cmp);
        decorated.truncate(n);
    }
    // The tag makes the order total, so an unstable sort is deterministic.
    decorated.sort_unstable_by(cmp);
    charge(0, cmps.get());
    decorated
        .into_iter()
        .map(|(_, seq, row)| (seq, row))
        .collect()
}

/// The first `n` rows of the stable sort of tagged `rows` by `keys`, as a
/// [`SortedRun`] with stored keys: selection and the winning prefix's
/// sort both compare decorated byte strings only. The unbounded Top-N
/// and the Top-N exchange's workers (which tag locally; the coordinator
/// rebases with [`SortedRun::shift`]) both select through here.
pub fn top_n_run(rows: Vec<(u64, Row)>, keys: &SortKeys, n: usize) -> SortedRun {
    if n == 0 {
        return SortedRun::default();
    }
    let mut bytes = 0u64;
    let mut decorated: Vec<(Vec<u8>, u64, Row)> = rows
        .into_iter()
        .map(|(seq, row)| {
            let key = encode_with_seq(&row, keys, seq);
            bytes += key.len() as u64;
            (key, seq, row)
        })
        .collect();
    charge(bytes, 0);
    if decorated.len() > n {
        let cmps = Cell::new(0u64);
        decorated.select_nth_unstable_by(n - 1, |a, b| {
            cmps.set(cmps.get() + 1);
            a.0.cmp(&b.0)
        });
        charge(0, cmps.get());
        decorated.truncate(n);
    }
    into_run(sort_decorated(decorated, |d| &d.0))
}

/// One sorted run entering a merge: rows sorted by `(keys, seq)`, with
/// `seqs[i]` the global sequence tag of `rows[i]` and `enc[i]` its stored
/// normalized key (`key ‖ big-endian seq`). Tags must be unique across
/// all runs of one merge and consistent with the serial emission order
/// the merge is meant to reproduce. Because the seq suffix doubles as the
/// tiebreak, one byte comparison of two stored keys decides `(keys,
/// seq)` in full.
#[derive(Debug, Default)]
pub struct SortedRun {
    /// The run's rows, sorted by `(keys, seq)`.
    pub rows: Vec<Row>,
    /// Global sequence tags, parallel to `rows` (strictly increasing
    /// within a tie group by construction).
    pub seqs: Vec<u64>,
    /// Stored normalized keys (`key ‖ big-endian seq`), parallel to
    /// `rows`.
    pub enc: Vec<Vec<u8>>,
}

impl SortedRun {
    /// Rebases a run tagged with local positions `[0, len)` onto the
    /// global interval starting at `base`: shifts each seq and patches
    /// the big-endian seq suffix of its stored keys in place. Workers
    /// tag locally (they cannot know their interval's base); the
    /// coordinator shifts in partition order.
    pub fn shift(&mut self, base: u64) {
        if base == 0 {
            return;
        }
        for (seq, key) in self.seqs.iter_mut().zip(&mut self.enc) {
            *seq += base;
            let at = key.len() - 8;
            key[at..].copy_from_slice(&seq.to_be_bytes());
        }
    }
}

/// K-way merges sorted runs into one stream ordered by `(keys, seq)` —
/// the order-preserving half of a merge exchange. Given runs produced by
/// stably sorting disjoint pieces of one serial input and tagged
/// consistently with that input's order, the output is bit-identical to
/// stably sorting the serial input whole. Every heap compare is one
/// byte-slice comparison of stored keys — no `Value` dispatch, no
/// separate seq tiebreak.
pub fn merge_runs(runs: Vec<SortedRun>) -> Vec<Row> {
    let total: usize = runs.iter().map(|r| r.rows.len()).sum();
    let mut runs: Vec<(std::vec::IntoIter<Row>, std::vec::IntoIter<Vec<u8>>)> = runs
        .into_iter()
        .map(|r| (r.rows.into_iter(), r.enc.into_iter()))
        .collect();
    let mut heads: Vec<Option<(Row, Vec<u8>)>> = runs
        .iter_mut()
        .map(|(rows, enc)| rows.next().map(|r| (r, enc.next().unwrap_or_default())))
        .collect();
    let mut out = Vec::with_capacity(total);
    let mut cmps = 0u64;
    loop {
        // Linear scan over the (few) run heads for the minimum stored
        // key; ties cannot occur because the seq suffixes are unique.
        let mut best: Option<usize> = None;
        for (k, head) in heads.iter().enumerate() {
            let Some((_, key)) = head else { continue };
            best = match best {
                None => Some(k),
                Some(b) => {
                    let (_, bkey) = heads[b].as_ref().unwrap();
                    cmps += 1;
                    if key < bkey {
                        Some(k)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        let Some(k) = best else { break };
        let (rows, enc) = &mut runs[k];
        let next = rows.next().map(|r| (r, enc.next().unwrap_or_default()));
        let (row, _) = std::mem::replace(&mut heads[k], next).unwrap();
        out.push(row);
    }
    charge(0, cmps);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fto_common::ColId;
    use fto_order::SortKey;

    fn row(vals: &[i64]) -> Row {
        vals.iter().map(|&v| Value::Int(v)).collect()
    }

    fn keys_from(cols: &[(usize, Direction)]) -> SortKeys {
        cols.to_vec()
    }

    /// The `Value`-comparator reference: a plain stable sort by the keys,
    /// column by column through `Direction::apply` and `total_cmp`.
    fn reference_sort(rows: &mut [Row], keys: &SortKeys) {
        rows.sort_by(|a, b| {
            keys.iter()
                .map(|&(p, dir)| dir.apply(a[p].total_cmp(&b[p])))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        });
    }

    /// The kernel's full sort, driven the way `SortOp` drives it: keys
    /// encoded into one arena, then [`sort_rows_arena`].
    fn kernel_sort(rows: &mut Vec<Row>, keys: &SortKeys) {
        let (mut bytes, mut offsets) = (Vec::new(), vec![0]);
        for r in rows.iter() {
            sortkey::encode_key_into(r, keys, &mut bytes);
            offsets.push(bytes.len());
        }
        sort_rows_arena(rows, &bytes, &offsets, keys);
    }

    fn tagged(rows: &[Row]) -> Vec<(u64, Row)> {
        rows.iter()
            .cloned()
            .enumerate()
            .map(|(i, r)| (i as u64, r))
            .collect()
    }

    /// Sorts `input` in `parts` contiguous pieces with [`sort_run`],
    /// rebases each onto its serial interval, and merges.
    fn sort_in_pieces(input: &[Row], parts: usize, keys: &SortKeys) -> Vec<Row> {
        let chunk = input.len().div_ceil(parts).max(1);
        let mut runs = Vec::new();
        let mut base = 0u64;
        for piece in input.chunks(chunk) {
            let mut run = sort_run(piece.to_vec(), keys);
            run.shift(base);
            runs.push(run);
            base += piece.len() as u64;
        }
        merge_runs(runs)
    }

    fn spec_desc_asc() -> (OrderSpec, RowLayout) {
        let spec: OrderSpec = [
            SortKey {
                col: ColId(1),
                dir: Direction::Desc,
            },
            SortKey {
                col: ColId(0),
                dir: Direction::Asc,
            },
        ]
        .into_iter()
        .collect();
        (spec, RowLayout::new(vec![ColId(0), ColId(1)]))
    }

    #[test]
    fn resolve_and_sort_matches_naive_stable_sort() {
        let (spec, layout) = spec_desc_asc();
        let keys = resolve_keys(&spec, &layout).unwrap();
        let mut rows: Vec<Row> = (0..200).map(|i| row(&[i % 7, i % 3])).collect();
        let mut expected = rows.clone();
        expected.sort_by(|a, b| b[1].total_cmp(&a[1]).then_with(|| a[0].total_cmp(&b[0])));
        kernel_sort(&mut rows, &keys);
        assert_eq!(rows, expected);
    }

    #[test]
    fn sort_is_stable_on_full_ties() {
        // Key column is constant; payload column must keep input order.
        let keys = keys_from(&[(0, Direction::Asc)]);
        let mut rows: Vec<Row> = (0..50).map(|i| row(&[7, i])).collect();
        let expected = rows.clone();
        kernel_sort(&mut rows, &keys);
        assert_eq!(rows, expected, "stable sort must preserve tie order");
    }

    #[test]
    fn empty_keys_leave_input_untouched() {
        let rows: Vec<Row> = vec![row(&[3]), row(&[1]), row(&[2])];
        let mut sorted = rows.clone();
        kernel_sort(&mut sorted, &Vec::new());
        assert_eq!(sorted, rows);
        assert_eq!(top_n_run(tagged(&rows), &Vec::new(), 2).rows, rows[..2]);
        assert_eq!(sort_in_pieces(&rows, 2, &Vec::new()), rows);
    }

    #[test]
    fn top_n_equals_stable_sort_prefix_including_boundary_ties() {
        let keys = keys_from(&[(0, Direction::Asc)]);
        // Many ties across the n boundary; payload distinguishes rows.
        let rows: Vec<Row> = (0..40).map(|i| row(&[i % 4, i])).collect();
        let mut sorted = rows.clone();
        reference_sort(&mut sorted, &keys);
        for n in [0usize, 1, 5, 10, 11, 39, 40, 100] {
            let want: Vec<Row> = sorted.iter().take(n).cloned().collect();
            let got: Vec<Row> = top_n_tagged(tagged(&rows), &keys, n)
                .into_iter()
                .map(|(_, r)| r)
                .collect();
            assert_eq!(got, want, "n={n}");
        }
    }

    #[test]
    fn merge_of_contiguous_runs_reproduces_serial_stable_sort() {
        let keys = keys_from(&[(0, Direction::Desc)]);
        let input: Vec<Row> = (0..120).map(|i| row(&[(i * 13) % 5, i])).collect();
        let mut serial = input.clone();
        reference_sort(&mut serial, &keys);
        for parts in [1usize, 2, 3, 4, 5] {
            assert_eq!(
                sort_in_pieces(&input, parts, &keys),
                serial,
                "parts={parts}"
            );
        }
    }

    #[test]
    fn merge_with_explicit_tags_restores_round_robin_deal() {
        let keys = keys_from(&[(0, Direction::Asc)]);
        let input: Vec<Row> = (0..90).map(|i| row(&[(i * 7) % 6, i])).collect();
        let mut serial = input.clone();
        reference_sort(&mut serial, &keys);
        let parts = 4;
        // Round-robin deal, remembering global positions.
        let mut buckets: Vec<Vec<(u64, Row)>> = vec![Vec::new(); parts];
        for (g, r) in input.into_iter().enumerate() {
            buckets[g % parts].push((g as u64, r));
        }
        let runs: Vec<SortedRun> = buckets
            .into_iter()
            .map(|bucket| sort_tagged_run(bucket, &keys))
            .collect();
        assert_eq!(merge_runs(runs), serial);
    }

    /// Mixed-shape rows exercising every codec branch: numerics (int and
    /// double interleaved), strings of varying length, NULLs, dates,
    /// bools.
    fn mixed_rows(n: usize) -> Vec<Row> {
        let mut rng = fto_common::Rng::new(0xfeed);
        (0..n)
            .map(|i| {
                let key: Value = match rng.range_usize(0, 6) {
                    0 => Value::Null,
                    1 => Value::Int(rng.range_i64(-50, 50)),
                    2 => Value::Double(rng.range_f64(-50.0, 50.0)),
                    3 => Value::str(format!("s{}", rng.range_usize(0, 40))),
                    4 => Value::Date(rng.range_i32(0, 100)),
                    _ => Value::Bool(rng.bool()),
                };
                [key, Value::Int(i as i64)].into_iter().collect()
            })
            .collect()
    }

    /// "Legacy" here is the `Value`-comparator reference sort.
    #[test]
    fn codec_sort_matches_legacy_sort_on_mixed_shapes() {
        for dir in [Direction::Asc, Direction::Desc] {
            let keys = keys_from(&[(0, dir)]);
            let mut legacy = mixed_rows(500);
            let mut codec = legacy.clone();
            reference_sort(&mut legacy, &keys);
            kernel_sort(&mut codec, &keys);
            assert_eq!(codec, legacy, "dir={dir:?}");
        }
    }

    #[test]
    fn codec_sort_takes_radix_path_on_fixed_width_keys() {
        // All-Int composite keys are fixed width (11 bytes per column +
        // 8-byte seq), so this drives the MSB radix path; the result
        // must still equal the reference stable sort.
        let keys = keys_from(&[(0, Direction::Desc), (1, Direction::Asc)]);
        let mut rng = fto_common::Rng::new(3);
        let mut legacy: Vec<Row> = (0..4096)
            .map(|_| row(&[rng.range_i64(-8, 8), rng.range_i64(0, 4)]))
            .collect();
        let mut codec = legacy.clone();
        let before = stats_snapshot();
        kernel_sort(&mut codec, &keys);
        let delta = stats_snapshot().delta_since(before);
        assert!(delta.key_bytes >= 4096 * 30, "encoded {delta:?}");
        reference_sort(&mut legacy, &keys);
        assert_eq!(codec, legacy);
    }

    /// Both Top-N selections (byte-key and bounded `Value`-key) against
    /// the reference stable-sort prefix.
    #[test]
    fn codec_top_n_matches_legacy_top_n() {
        let keys = keys_from(&[(0, Direction::Asc)]);
        let rows = mixed_rows(300);
        let mut sorted = rows.clone();
        reference_sort(&mut sorted, &keys);
        for n in [0usize, 1, 7, 299, 300, 400] {
            let want: Vec<Row> = sorted.iter().take(n).cloned().collect();
            assert_eq!(top_n_run(tagged(&rows), &keys, n).rows, want, "n={n}");
            let bounded: Vec<Row> = top_n_tagged(tagged(&rows), &keys, n)
                .into_iter()
                .map(|(_, r)| r)
                .collect();
            assert_eq!(bounded, want, "n={n}");
        }
    }

    #[test]
    fn codec_runs_merge_bit_identically_to_legacy() {
        let keys = keys_from(&[(0, Direction::Asc)]);
        let input = mixed_rows(240);
        let mut serial = input.clone();
        reference_sort(&mut serial, &keys);
        for parts in [1usize, 2, 3, 5] {
            assert_eq!(
                sort_in_pieces(&input, parts, &keys),
                serial,
                "parts={parts}"
            );
        }
    }

    #[test]
    fn codec_tagged_runs_restore_round_robin_deal() {
        let keys = keys_from(&[(0, Direction::Desc)]);
        let input = mixed_rows(150);
        let mut serial = input.clone();
        reference_sort(&mut serial, &keys);
        let parts = 3;
        let mut buckets: Vec<Vec<(u64, Row)>> = vec![Vec::new(); parts];
        for (g, r) in input.into_iter().enumerate() {
            buckets[g % parts].push((g as u64, r));
        }
        let runs: Vec<SortedRun> = buckets
            .into_iter()
            .map(|bucket| sort_tagged_run(bucket, &keys))
            .collect();
        assert_eq!(merge_runs(runs), serial);
    }

    #[test]
    fn top_n_run_shift_rebases_stored_keys() {
        let keys = keys_from(&[(0, Direction::Asc)]);
        // Two "workers" with heavy ties: containment + tag order across
        // runs must pick the earliest-input rows, exactly like serial.
        let all: Vec<Row> = (0..60).map(|i| row(&[i % 3, i])).collect();
        let serial = top_n_run(tagged(&all), &keys, 10).rows;
        let mut runs = Vec::new();
        let mut base = 0u64;
        for piece in all.chunks(30) {
            let mut run = top_n_run(tagged(piece), &keys, 10);
            run.shift(base);
            runs.push(run);
            base += 30;
        }
        let mut merged = merge_runs(runs);
        merged.truncate(10);
        assert_eq!(merged, serial);
    }

    #[test]
    fn stats_counters_accumulate() {
        let keys = keys_from(&[(0, Direction::Asc)]);
        let before = stats_snapshot();
        let mut rows: Vec<Row> = (0..100).map(|i| row(&[(i * 37) % 11, i])).collect();
        kernel_sort(&mut rows, &keys);
        let after = stats_snapshot();
        let delta = after.delta_since(before);
        assert!(delta.key_bytes > 0, "sort must record key bytes");
        let rows2: Vec<Row> = (0..100).map(|i| row(&[(i * 37) % 11, i])).collect();
        top_n_tagged(tagged(&rows2), &keys, 10);
        let bounded_delta = stats_snapshot().delta_since(after);
        assert!(
            bounded_delta.comparisons > 0,
            "bounded top-n counts compares"
        );
    }

    #[test]
    fn merge_handles_empty_and_unbalanced_runs() {
        let keys = keys_from(&[(0, Direction::Asc)]);
        let mut runs = vec![
            sort_run(vec![], &keys),
            sort_run(vec![row(&[1, 0]), row(&[3, 1])], &keys),
            sort_run(vec![row(&[2, 2])], &keys),
        ];
        runs[2].shift(2);
        let merged = merge_runs(runs);
        let got: Vec<i64> = merged.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }
}
