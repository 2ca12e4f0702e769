//! External-sort machinery: row-granular run formation under a memory
//! budget, byte-serialized spill runs, and streaming multi-pass K-way
//! merges over them.
//!
//! The bounded [`SortOp`](crate::stream) drives a [`RunFormer`]: input
//! rows accumulate in memory until the next row would push the working
//! set past the budget, at which point the buffered rows are sorted with
//! the shared kernel and spilled as one [`SortedRun`] — tagged with the
//! rows' global input positions, so merging the runs by `(keys, seq)`
//! reproduces the unbounded stable sort bit for bit. When the input ends,
//! runs beyond the merge fan-in ([`fto_planner::cost::MERGE_FAN_IN`]) are
//! reduced level by level (each level is one *merge pass*, the unit the
//! cost model prices in [`fto_planner::cost::sort_spill_passes`]); the
//! final ≤F runs stream through a [`RunMerge`] that the operator pulls
//! batch by batch, so the sorted output is never materialized whole.
//!
//! On-spill record format (one length-prefixed record per
//! [`RUN_GROUP_ROWS`]-row group, via [`SpillFile::append_record`]):
//!
//! ```text
//! [u32 nrows LE][nrows × u64 seq LE][u32 key_total LE]
//! [nrows × u32 key end-offset LE][key bytes][column pages (spill::write_batch)]
//! ```
//!
//! Each key is the decorated normalized key (`key ‖ big-endian seq`), so
//! a merge compares one byte slice per heap step exactly like the
//! in-memory [`crate::sortkernel::merge_runs`]. Rows
//! serialize as batch column pages rather than per-row `Value` serde,
//! amortizing one encode/decode over the whole group.

use crate::sortkernel::{self, SortKeys, SortedRun};
use fto_common::{row_bytes, Batch, Row};
use fto_planner::cost::MERGE_FAN_IN;
use fto_storage::{spill, IoStats, SpillCursor, SpillFile};
use std::collections::VecDeque;

/// How many rows each spilled run record groups together.
const RUN_GROUP_ROWS: usize = 256;

/// Extent (byte range) of one sorted run inside a spill file.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RunExtent {
    start: u64,
    end: u64,
}

/// Appends one run group record to `file` (see the module docs for the
/// format), reusing `payload` as scratch. `rows`, `seqs`, and `keys`
/// run parallel.
fn append_run_group(
    file: &mut SpillFile,
    payload: &mut Vec<u8>,
    rows: &[Row],
    seqs: &[u64],
    keys: &[&[u8]],
    io: &mut IoStats,
) {
    payload.clear();
    payload.extend_from_slice(&(rows.len() as u32).to_le_bytes());
    for &seq in seqs {
        payload.extend_from_slice(&seq.to_le_bytes());
    }
    let total: usize = keys.iter().map(|k| k.len()).sum();
    payload.extend_from_slice(&(total as u32).to_le_bytes());
    let mut end = 0u32;
    for k in keys {
        end += k.len() as u32;
        payload.extend_from_slice(&end.to_le_bytes());
    }
    for k in keys {
        payload.extend_from_slice(k);
    }
    spill::write_batch(&Batch::from_rows(rows), payload);
    file.append_record(payload, io);
}

/// Serializes a sorted run to the spill file as group records, charging
/// `spill_pages_written` as pages fill.
fn spill_sorted_run(file: &mut SpillFile, run: &SortedRun, io: &mut IoStats) -> RunExtent {
    let start = file.len();
    let mut payload = Vec::new();
    let n = run.rows.len();
    let mut at = 0;
    while at < n {
        let end = (at + RUN_GROUP_ROWS).min(n);
        let keys: Vec<&[u8]> = run.enc[at..end].iter().map(Vec::as_slice).collect();
        append_run_group(
            file,
            &mut payload,
            &run.rows[at..end],
            &run.seqs[at..end],
            &keys,
            io,
        );
        at = end;
    }
    RunExtent {
        start,
        end: file.len(),
    }
}

/// One decoded run head waiting in a merge.
struct Head {
    row: Row,
    seq: u64,
    /// Decorated normalized key (`key ‖ big-endian seq`).
    key: Vec<u8>,
}

/// Streams one spilled run's heads: each group record decodes whole
/// (one [`spill::read_batch`] per [`RUN_GROUP_ROWS`] rows) and queues
/// as per-row [`Head`]s.
struct RunReader {
    cursor: SpillCursor,
    pending: VecDeque<Head>,
}

impl RunReader {
    fn next(&mut self, file: &SpillFile, io: &mut IoStats) -> Option<Head> {
        if self.pending.is_empty() {
            let rec = self.cursor.read_record(file, io)?;
            let truncated = "run group truncated";
            let n = u32::from_le_bytes(rec[0..4].try_into().expect(truncated)) as usize;
            let mut pos = 4;
            let mut seqs = Vec::with_capacity(n);
            for _ in 0..n {
                seqs.push(u64::from_le_bytes(
                    rec[pos..pos + 8].try_into().expect(truncated),
                ));
                pos += 8;
            }
            let total = u32::from_le_bytes(rec[pos..pos + 4].try_into().expect(truncated)) as usize;
            pos += 4;
            let mut ends = Vec::with_capacity(n);
            for _ in 0..n {
                ends.push(
                    u32::from_le_bytes(rec[pos..pos + 4].try_into().expect(truncated)) as usize,
                );
                pos += 4;
            }
            let kbase = pos;
            pos += total;
            let batch = spill::read_batch(&rec, &mut pos);
            let mut kstart = 0;
            for (i, &kend) in ends.iter().enumerate() {
                self.pending.push_back(Head {
                    row: batch.row(i),
                    seq: seqs[i],
                    key: rec[kbase + kstart..kbase + kend].to_vec(),
                });
                kstart = kend;
            }
        }
        self.pending.pop_front()
    }
}

/// A streaming K-way merge over spilled run extents: holds one decoded
/// group per run plus a cursor, so memory stays O(fan-in · group)
/// regardless of run sizes. Reads charge `spill_pages_read` through the
/// cursors.
pub(crate) struct RunMerge {
    readers: Vec<RunReader>,
    heads: Vec<Option<Head>>,
}

impl RunMerge {
    fn new(file: &SpillFile, extents: &[RunExtent], io: &mut IoStats) -> RunMerge {
        let mut readers: Vec<RunReader> = extents
            .iter()
            .map(|e| RunReader {
                cursor: SpillCursor::new(e.start, e.end),
                pending: VecDeque::new(),
            })
            .collect();
        let heads = readers.iter_mut().map(|r| r.next(file, io)).collect();
        RunMerge { readers, heads }
    }

    /// Pops the minimum head by `(keys, seq)` and refills it from its
    /// cursor. Heads compare by memcmp on their stored keys (the seq
    /// suffix embedded in the key decides ties) — the same contract as
    /// the in-memory merge.
    fn next_head(&mut self, file: &SpillFile, io: &mut IoStats) -> Option<Head> {
        let mut best: Option<usize> = None;
        let mut cmps = 0u64;
        for (k, head) in self.heads.iter().enumerate() {
            let Some(h) = head else { continue };
            best = match best {
                None => Some(k),
                Some(b) => {
                    let bh = self.heads[b].as_ref().expect("best head vacated");
                    cmps += 1;
                    if h.key < bh.key {
                        Some(k)
                    } else {
                        Some(b)
                    }
                }
            };
        }
        sortkernel::charge(0, cmps);
        let k = best?;
        let next = self.readers[k].next(file, io);
        std::mem::replace(&mut self.heads[k], next)
    }
}

/// Reduces spilled runs to at most `MERGE_FAN_IN` by merging groups of up
/// to F runs into new runs appended to the same file, level by level.
/// Each level is one merge pass ([`sortkernel::SpillStats`]); reads and
/// writes charge the spill page counters as the data actually moves.
fn reduce_to_fan_in(
    file: &mut SpillFile,
    mut extents: Vec<RunExtent>,
    io: &mut IoStats,
) -> Vec<RunExtent> {
    while extents.len() > MERGE_FAN_IN {
        sortkernel::note_merge_pass();
        let mut next = Vec::with_capacity(extents.len().div_ceil(MERGE_FAN_IN));
        for chunk in extents.chunks(MERGE_FAN_IN) {
            if chunk.len() == 1 {
                next.push(chunk[0]);
                continue;
            }
            let start = file.len();
            let mut merge = RunMerge::new(file, chunk, io);
            let mut payload = Vec::new();
            let mut grows: Vec<Row> = Vec::new();
            let mut gseqs: Vec<u64> = Vec::new();
            let mut gkeys: Vec<Vec<u8>> = Vec::new();
            let mut flush = |grows: &mut Vec<Row>,
                             gseqs: &mut Vec<u64>,
                             gkeys: &mut Vec<Vec<u8>>,
                             file: &mut SpillFile,
                             io: &mut IoStats| {
                let ks: Vec<&[u8]> = gkeys.iter().map(Vec::as_slice).collect();
                append_run_group(file, &mut payload, grows, gseqs, &ks, io);
                grows.clear();
                gseqs.clear();
                gkeys.clear();
            };
            while let Some(h) = merge.next_head(file, io) {
                grows.push(h.row);
                gseqs.push(h.seq);
                gkeys.push(h.key);
                if grows.len() == RUN_GROUP_ROWS {
                    flush(&mut grows, &mut gseqs, &mut gkeys, file, io);
                }
            }
            if !grows.is_empty() {
                flush(&mut grows, &mut gseqs, &mut gkeys, file, io);
            }
            next.push(RunExtent {
                start,
                end: file.len(),
            });
        }
        extents = next;
    }
    extents
}

/// The spilled half of a finished external sort: the final ≤F runs and
/// the streaming merge over them, pulled row by row from `next_batch`.
pub(crate) struct SpilledSort {
    file: SpillFile,
    merge: RunMerge,
}

impl SpilledSort {
    /// The next row of the merged (fully sorted) output, or `None` when
    /// every run is drained.
    pub(crate) fn next_row(&mut self, io: &mut IoStats) -> Option<Row> {
        self.merge.next_head(&self.file, io).map(|h| h.row)
    }
}

/// What a [`RunFormer`] produced once the input ended.
pub(crate) enum FinishedSort {
    /// Nothing spilled: the whole input, sorted in memory (the unbounded
    /// fast path, with identical I/O and kernel accounting).
    InMemory(Vec<Row>),
    /// At least one run spilled: stream the final merge.
    Spilled(SpilledSort),
}

/// Row-granular run formation for the bounded sort. The working set —
/// buffered rows ([`fto_common::row_bytes`]) plus their decorated keys —
/// never exceeds `max(budget, one row)`; crossing the budget seals the
/// buffer into a sorted, spilled run.
pub(crate) struct RunFormer {
    budget: usize,
    keys: SortKeys,
    file: SpillFile,
    extents: Vec<RunExtent>,
    rows: Vec<Row>,
    /// Key arena for the buffered rows: row `i`'s normalized
    /// key is `key_bytes[key_offsets[i]..key_offsets[i + 1]]`.
    key_bytes: Vec<u8>,
    key_offsets: Vec<usize>,
    bytes: usize,
    /// Global input position of `rows[0]`.
    base_seq: u64,
    next_seq: u64,
}

impl RunFormer {
    pub(crate) fn new(budget: usize, keys: SortKeys) -> RunFormer {
        RunFormer {
            budget,
            keys,
            file: SpillFile::new(),
            extents: Vec::new(),
            rows: Vec::new(),
            key_bytes: Vec::new(),
            key_offsets: vec![0],
            bytes: 0,
            base_seq: 0,
            next_seq: 0,
        }
    }

    /// Buffers one input row with its arena-encoded normalized key,
    /// sealing the current run first when the row would push the working
    /// set past the budget.
    pub(crate) fn push(&mut self, row: Row, key: &[u8], io: &mut IoStats) {
        // The decorated key a sealed run stores is `key ‖ 8-byte seq`.
        let cost = row_bytes(&row) + key.len() + 8;
        if !self.rows.is_empty() && self.bytes + cost > self.budget {
            self.seal(io);
        }
        self.bytes += cost;
        self.key_bytes.extend_from_slice(key);
        self.key_offsets.push(self.key_bytes.len());
        self.rows.push(row);
        self.next_seq += 1;
    }

    /// Sorts the buffered rows into a run tagged with their global input
    /// positions and spills it. Charges `sort_rows` per run, so the
    /// external sort's total equals the unbounded operator's.
    fn seal(&mut self, io: &mut IoStats) {
        if self.rows.is_empty() {
            return;
        }
        let rows = std::mem::take(&mut self.rows);
        io.sort_rows += rows.len() as u64;
        let mut run = sortkernel::sort_run_arena(rows, &self.key_bytes, &self.key_offsets);
        run.shift(self.base_seq);
        let extent = spill_sorted_run(&mut self.file, &run, io);
        self.extents.push(extent);
        sortkernel::note_spill_runs(1);
        self.key_bytes.clear();
        self.key_offsets.clear();
        self.key_offsets.push(0);
        self.bytes = 0;
        self.base_seq = self.next_seq;
    }

    /// Ends the input. When nothing spilled, the buffer is sorted in
    /// memory exactly as the unbounded operator would (the arena
    /// kernel). Otherwise the tail seals as
    /// the last run, runs reduce to the merge fan-in, and the final
    /// streaming merge — itself one pass — takes over.
    pub(crate) fn finish(mut self, io: &mut IoStats) -> FinishedSort {
        if self.extents.is_empty() {
            let mut rows = std::mem::take(&mut self.rows);
            io.sort_rows += rows.len() as u64;
            sortkernel::sort_rows_arena(&mut rows, &self.key_bytes, &self.key_offsets, &self.keys);
            return FinishedSort::InMemory(rows);
        }
        self.seal(io);
        let extents = reduce_to_fan_in(&mut self.file, self.extents, io);
        sortkernel::note_merge_pass();
        let merge = RunMerge::new(&self.file, &extents, io);
        FinishedSort::Spilled(SpilledSort {
            file: self.file,
            merge,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fto_common::{Direction, Value};

    fn row(k: i64, v: &str) -> Row {
        vec![Value::Int(k), Value::Str(v.into())].into_boxed_slice()
    }

    fn drive(budget: usize, n: i64) -> (Vec<Row>, IoStats) {
        let keys: SortKeys = vec![(0, Direction::Desc), (1, Direction::Asc)];
        let mut io = IoStats::new();
        let mut former = RunFormer::new(budget, keys.clone());
        for i in 0..n {
            let r = row(i % 7, &format!("row-{i}"));
            let mut key = Vec::new();
            fto_common::sortkey::encode_key_into(&r, &keys, &mut key);
            former.push(r, &key, &mut io);
        }
        let mut out = Vec::new();
        match former.finish(&mut io) {
            FinishedSort::InMemory(rows) => out = rows,
            FinishedSort::Spilled(mut s) => {
                while let Some(r) = s.next_row(&mut io) {
                    out.push(r);
                }
            }
        }
        (out, io)
    }

    /// Both paths: the spilled external merge and the in-memory sort it
    /// falls back to when nothing spills.
    #[test]
    fn spilled_sort_matches_in_memory_both_paths() {
        let (unbounded, io0) = drive(usize::MAX, 500);
        assert_eq!(io0.spill_pages_written, 0);
        let mut expected = unbounded.clone();
        expected.sort_by(|a, b| b[0].total_cmp(&a[0]).then_with(|| a[1].total_cmp(&b[1])));
        assert_eq!(
            unbounded, expected,
            "in-memory path must be the stable sort"
        );
        for budget in [1usize, 512, 4096, 1 << 20] {
            let (got, io) = drive(budget, 500);
            assert_eq!(got, unbounded, "budget={budget}");
            assert_eq!(io.sort_rows, 500, "sort_rows must match unbounded");
            if budget < 4096 {
                assert!(io.spill_pages_written > 0, "budget={budget} must spill");
                assert!(io.spill_pages_read > 0, "budget={budget} must read back");
            }
        }
    }

    #[test]
    fn tiny_budget_forms_many_runs_and_multi_passes() {
        let before = sortkernel::spill_stats_snapshot();
        let (out, io) = drive(1, 200);
        let delta = sortkernel::spill_stats_snapshot().delta_since(before);
        assert_eq!(out.len(), 200);
        // One row per run: 200 runs need ceil(log_8 200) = 3 passes. Other
        // tests share the process-wide counters, so assert lower bounds.
        assert!(delta.runs_formed >= 200, "runs {}", delta.runs_formed);
        assert!(delta.merge_passes >= 3, "passes {}", delta.merge_passes);
        assert!(io.spill_pages_written > 0 && io.spill_pages_read > 0);
    }
}
