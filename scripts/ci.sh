#!/usr/bin/env bash
# Local CI: the full gate a change must pass before merging.
#
#   scripts/ci.sh          # fmt + clippy + release build + tests
#   scripts/ci.sh quick    # skip the release build
#
# Everything runs offline against the vendored toolchain; no network.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> grep guard: no cloned-capacity vec![Vec::with_capacity(..); n]"
# vec![v; n] clones v — every clone of Vec::with_capacity(..) silently
# drops the capacity, so the pattern never does what it looks like.
if grep -rn 'vec!\[Vec::with_capacity' crates/ --include='*.rs'; then
    echo "guard failed: vec![Vec::with_capacity(..); n] clones drop capacity;"
    echo "use (0..n).map(|_| Vec::with_capacity(..)).collect() instead"
    exit 1
fi

echo "==> grep guard: no new row-at-a-time batch.row() in the vectorized operators"
# The join, group-by and distinct operators consume batches natively —
# encoded-key arenas, selection vectors and gathers. batch.row() inside
# crates/exec/src/stream.rs is allowed only in the operators still
# row-based by design (segmented-sort absorb, top-n, the nested-loop
# joins); there is no row-at-a-time copy of the other operators.
row_sites=$(grep -c 'batch\.row(' crates/exec/src/stream.rs || true)
if [[ "${row_sites}" -gt 4 ]]; then
    echo "guard failed: ${row_sites} batch.row() call sites in crates/exec/src/stream.rs (allowed: 4);"
    echo "new operator code must stay columnar: selection vectors + gather, not batch.row()"
    grep -n 'batch\.row(' crates/exec/src/stream.rs
    exit 1
fi

echo "==> cargo fmt --all --check"
cargo fmt --all --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${1:-}" != "quick" ]]; then
    echo "==> cargo build --release"
    cargo build --release
fi

echo "==> sort-key codec property tests (encoded order == Value order)"
cargo test -q -p fto-common --lib sortkey

echo "==> columnar batch property tests (row round-trip, key encoders)"
cargo test -q -p fto-common --test prop_column

echo "==> cargo test -q (includes the engine differential suite)"
cargo test -q

echo "==> FTO_TEST_THREADS=4 cargo test -q --test differential --test parallel"
FTO_TEST_THREADS=4 cargo test -q -p fto-bench --test differential --test parallel

echo "==> bounded-memory differential matrix (budgets x threads)"
cargo test -q -p fto-bench --test spill

echo "==> segmented-sort differential matrix (threads x budgets)"
cargo test -q -p fto-bench --test segmented

if [[ "${1:-}" != "quick" ]]; then
    echo "==> cost-model calibration report (scale 0.005)"
    cargo run -q -p fto-bench --release --bin calibrate -- 0.005

    echo "==> smoke: EXPLAIN ANALYZE + EXPLAIN OPTIMIZER + \\metrics through the REPL"
    q3="select l_orderkey, sum(l_extendedprice * (1 - l_discount)) as rev, o_orderdate, o_shippriority from customer, orders, lineitem where o_orderkey = l_orderkey and c_custkey = o_custkey and c_mktsegment = 'building' and o_orderdate < date('1995-03-15') and l_shipdate > date('1995-03-15') group by l_orderkey, o_orderdate, o_shippriority order by rev desc, o_orderdate"
    smoke_out=$(printf '%s\n' \
        "explain analyze ${q3};" \
        "explain optimizer ${q3};" \
        '\metrics' \
        ".quit" \
        | cargo run -q -p fto-bench --release --bin repl -- 0.005)
    echo "$smoke_out"
    if ! grep -q "actual: rows=" <<<"$smoke_out"; then
        echo "smoke failed: no actuals in EXPLAIN ANALYZE output"
        exit 1
    fi
    if ! grep -Eq "q-err=[0-9]+\.[0-9]+" <<<"$smoke_out"; then
        echo "smoke failed: no q-err column in EXPLAIN ANALYZE output"
        exit 1
    fi
    if ! grep -Eq "histogram query.qerror .*count=[1-9]" <<<"$smoke_out"; then
        echo "smoke failed: \\metrics query.qerror histogram not populated"
        exit 1
    fi
    if ! grep -q "sort-ahead" <<<"$smoke_out"; then
        echo "smoke failed: no sort-ahead variants in EXPLAIN OPTIMIZER output"
        exit 1
    fi
    if ! grep -q "counter session.queries" <<<"$smoke_out"; then
        echo "smoke failed: \\metrics did not expose the session counters"
        exit 1
    fi
    if ! grep -Eq "counter sort.key_bytes [1-9]" <<<"$smoke_out"; then
        echo "smoke failed: \\metrics sort.key_bytes not populated (sort kernel not running?)"
        exit 1
    fi
    if ! grep -Eq "counter sort.comparisons [1-9]" <<<"$smoke_out"; then
        echo "smoke failed: \\metrics sort.comparisons not populated"
        exit 1
    fi

    echo "==> smoke: FTO_MEMORY_BUDGET forces spilling, surfaced in \\metrics"
    budget_out=$(printf '%s\n' \
        "${q3};" \
        '\metrics' \
        ".quit" \
        | FTO_MEMORY_BUDGET=4096 cargo run -q -p fto-bench --release --bin repl -- 0.005)
    if ! grep -Eq "counter spill.pages_written [1-9]" <<<"$budget_out"; then
        echo "smoke failed: 4 KiB budget produced no spill.pages_written in \\metrics"
        exit 1
    fi
    if ! grep -Eq "counter spill.runs_formed [1-9]" <<<"$budget_out"; then
        echo "smoke failed: 4 KiB budget produced no spill.runs_formed in \\metrics"
        exit 1
    fi
    if ! grep -Eq "counter pool.misses [1-9]" <<<"$budget_out"; then
        echo "smoke failed: budgeted scans did not route through the buffer pool"
        exit 1
    fi
    grep -E "counter (spill|pool)\." <<<"$budget_out"

    echo "==> smoke: segmented sort chosen, visible in EXPLAIN OPTIMIZER + ANALYZE"
    # Clustered lineitem index (l_orderkey, l_linenumber) delivers the
    # prefix; the planner must pick the partial sort and the executor
    # must report the groups it formed. Serial: the parallel lowering
    # degenerates to full-sort exchanges, which would hide the counter.
    segq="select l_orderkey, l_shipdate, l_extendedprice from lineitem order by l_orderkey, l_shipdate"
    seg_out=$(printf '%s\n' \
        "explain optimizer ${segq};" \
        "explain analyze ${segq};" \
        ".quit" \
        | cargo run -q -p fto-bench --release --bin repl -- 0.005)
    if ! grep -q "PartialSortChosen" <<<"$seg_out"; then
        echo "smoke failed: EXPLAIN OPTIMIZER did not record PartialSortChosen"
        exit 1
    fi
    if ! grep -Eq "segmented: groups=[1-9]" <<<"$seg_out"; then
        echo "smoke failed: EXPLAIN ANALYZE shows no segmented groups formed"
        exit 1
    fi
    grep -E "PartialSortChosen|segmented: groups=" <<<"$seg_out" | head -4

    echo "==> smoke: \\profile emits a valid Chrome trace, tracecheck-verified"
    trace_out="$(mktemp -t fto_profile_XXXXXX.json)"
    profile_out=$(printf '%s\n' \
        "\\profile ${trace_out}" \
        "${q3};" \
        ".quit" \
        | FTO_THREADS=4 cargo run -q -p fto-bench --release --bin repl -- 0.005)
    if ! grep -Eq "profile: [1-9][0-9]* events in [1-9][0-9]* lanes" <<<"$profile_out"; then
        echo "smoke failed: \\profile reported no captured events"
        exit 1
    fi
    cargo run -q -p fto-bench --release --bin tracecheck -- "$trace_out"
    if ! grep -q '"ph":"M"' "$trace_out"; then
        echo "smoke failed: trace has no thread_name metadata (per-worker lanes missing)"
        exit 1
    fi
    if [[ ! -s "${trace_out}.folded" ]]; then
        echo "smoke failed: no folded stacks written next to the Chrome trace"
        exit 1
    fi
    rm -f "$trace_out" "${trace_out}.folded"

    echo "==> smoke: columnar engine output identical across operator inventories"
    colq="select o_shippriority, count(*) as cnt from orders group by o_shippriority order by o_shippriority"
    rows_modern=$(printf '%s\n' "${colq};" ".quit" \
        | cargo run -q -p fto-bench --release --bin repl -- 0.005 2>/dev/null \
        | grep -E '^[0-9]+ \|')
    rows_1996=$(printf '%s\n' ".mode 1996" "${colq};" ".quit" \
        | cargo run -q -p fto-bench --release --bin repl -- 0.005 2>/dev/null \
        | grep -E '^[0-9]+ \|')
    if [[ -z "$rows_modern" ]]; then
        echo "smoke failed: columnar group-by query produced no rows"
        exit 1
    fi
    if [[ "$rows_modern" != "$rows_1996" ]]; then
        echo "smoke failed: hash (columnar byte-keyed) and order-based group-by disagree:"
        printf 'modern:\n%s\n1996:\n%s\n' "$rows_modern" "$rows_1996"
        exit 1
    fi
    echo "$rows_modern"
fi

echo "CI green."
