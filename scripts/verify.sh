#!/usr/bin/env bash
# Hermetic verification gate for the Daredevil reproduction.
#
# Runs tier-1 (release build + full test suite), the micro-bench smoke run
# and the figure gates, all with network access forbidden: the workspace
# has zero external dependencies (see dd-check, DESIGN.md §6), so an empty
# cargo registry cache must suffice. Any attempt to hit the network is a
# regression and fails the run.
#
# Usage: scripts/verify.sh [--full]
#   --full   run the micro benches at full sample counts (slower; default
#            is the smoke sample count).
set -euo pipefail

cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

FULL=0
for a in "$@"; do
    case "$a" in
        --full) FULL=1 ;;
        *) echo "usage: scripts/verify.sh [--full]" >&2; exit 2 ;;
    esac
done

echo "== verify: tier-1 (offline release build + tests) =="
cargo build --release
cargo test -q

echo "== verify: workspace test suite (all crates, incl. dd-check self-tests) =="
cargo test -q --workspace

echo "== verify: rustdoc builds warning-free (docs are a gated layer) =="
# The policy layer ships as documentation (trait docs, the "Writing a
# policy" walkthrough, paper-mapping tables): broken intra-doc links or
# malformed doc markup are build failures, not noise.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --quiet
echo "  cargo doc --no-deps: clean under -D warnings"

if [ "$FULL" = "1" ]; then
    echo "== verify: micro benches (full sample counts) =="
    cargo bench -p bench
else
    echo "== verify: micro benches (smoke sample counts) =="
    cargo bench -p bench -- --smoke
fi

echo "== verify: parallel sweep determinism (jobs=1 vs jobs=N) =="
# The sweep executor must make --jobs N byte-identical to --jobs 1 on
# stdout, for every figure in the registry (bench::figures::ALL). Serial
# first (its wall-clock becomes the speedup baseline in the parallel run's
# artifact), then parallel, then diff. Both artifacts go to temp files:
# the tracked BENCH_sweep.json is the committed throughput reference and
# is only read here.
JOBS_N="${DD_JOBS:-$(nproc 2>/dev/null || echo 4)}"
[ "$JOBS_N" -lt 2 ] && JOBS_N=4
# Committed tracing-off throughput baseline and the figures it was
# measured over (used by the throughput floor below).
BASE_EPS="$(sed -n 's/^  "events_per_s": \([0-9.]*\),$/\1/p' BENCH_sweep.json | head -1)"
BASE_FIGS="$(sed -n 's/^    {"name": "\([a-z0-9_]*\)".*/\1/p' BENCH_sweep.json | tr '\n' ' ')"
SERIAL_OUT="$(mktemp)"
PAR_OUT="$(mktemp)"
SERIAL_JSON="$(mktemp)"
PAR_JSON="$(mktemp)"
TRACE_1="$(mktemp)"
TRACE_N="$(mktemp)"
EXT_1="$(mktemp)"
EXT_N="$(mktemp)"
trap 'rm -f "$SERIAL_OUT" "$PAR_OUT" "$SERIAL_JSON" "$PAR_JSON" "$TRACE_1" "$TRACE_N" "$EXT_1" "$EXT_N"' EXIT
DD_BENCH_SWEEP="$SERIAL_JSON" \
    ./target/release/all_figures --quick --csv --jobs 1 >"$SERIAL_OUT" 2>/dev/null
BASE_WALL="$(sed -n 's/.*"total_wall_s": \([0-9.]*\),.*/\1/p' "$SERIAL_JSON")"
DD_BENCH_SWEEP="$PAR_JSON" DD_BASELINE_WALL_S="$BASE_WALL" \
    DD_BASELINE_ARTIFACT="$SERIAL_JSON" DD_BENCH_CURVE="1,2,4" \
    DD_FLEET_PROBE=1 \
    ./target/release/all_figures --quick --csv --jobs "$JOBS_N" >"$PAR_OUT" 2>/dev/null
if ! diff -q "$SERIAL_OUT" "$PAR_OUT" >/dev/null; then
    echo "verify: FAILED — --jobs $JOBS_N output diverges from --jobs 1:" >&2
    diff "$SERIAL_OUT" "$PAR_OUT" | head -40 >&2
    exit 1
fi
echo "  jobs=1 vs jobs=$JOBS_N: byte-identical stdout"
sed -n 's/^  "\(total_wall_s\|speedup_vs_serial\|events_per_s\|jobs\)": \(.*\),$/  \1 = \2/p' \
    "$PAR_JSON"
# Speedup is recorded, not gated: single-core CI hosts cannot speed up
# (the sweep executor clamps to the inline serial loop there).
echo "  per-jobs speedup curve (probe sweep; recorded, not gated):"
sed -n 's/^    {"jobs": \([0-9]*\), "wall_s": \([0-9.]*\), "events_per_s": \([0-9.]*\), "speedup_vs_serial": \([0-9.]*\)}.*/    jobs=\1  wall=\2s  events\/s=\3  speedup=\4/p' \
    "$PAR_JSON"
echo "  per-figure speedup_vs_serial at jobs=$JOBS_N:"
sed -n 's/^    {"name": "\([a-z0-9_]*\)".*"speedup_vs_serial": \([0-9.]*\)}.*/    \1 = \2/p' \
    "$PAR_JSON"
echo "  fleet probe (serial 4-host daredevil fleet, events/s by tenancy scale):"
sed -n 's/^    {"tenants": \([0-9]*\), "wall_s": \([0-9.]*\), "events": \([0-9]*\), "events_per_s": \([0-9.]*\)}.*/    tenants=\1  wall=\2s  events\/s=\4/p' \
    "$PAR_JSON"

echo "== verify: figure outputs match the golden capture =="
# Mechanism changes must keep every registered figure byte-identical to
# the committed capture of the whole registry.
if ! diff -q tests/golden/all_figures_quick.csv "$SERIAL_OUT" >/dev/null; then
    echo "verify: FAILED — figure outputs diverge from tests/golden/all_figures_quick.csv:" >&2
    diff tests/golden/all_figures_quick.csv "$SERIAL_OUT" | head -40 >&2
    echo "(if the divergence is an intended semantic change, regenerate the" >&2
    echo " golden file with: DD_BENCH_SWEEP= ./target/release/all_figures --quick --csv --jobs 1 > tests/golden/all_figures_quick.csv)" >&2
    exit 1
fi
NR_FIGS="$(grep -c '^    {"name": ' "$SERIAL_JSON")"
echo "  all $NR_FIGS figures byte-identical to the golden capture"

echo "== verify: traced ext_breakdown (span CSV determinism + golden) =="
# The structured trace API's end-to-end gate: a traced figure run must (a)
# produce the committed SpanTable-derived table, and (b) dump per-request
# span CSVs that are byte-identical for any worker count (events are
# written post-collection in original cell order, never completion order).
BREAKDOWN_PHASES="submit,device_fetch,flash_done,complete"
./target/release/fig ext_breakdown --quick \
    --trace "$BREAKDOWN_PHASES" --trace-out "$TRACE_1" --jobs 1 >"$EXT_1"
./target/release/fig ext_breakdown --quick \
    --trace "$BREAKDOWN_PHASES" --trace-out "$TRACE_N" --jobs "$JOBS_N" >"$EXT_N"
if ! diff -q "$EXT_1" "$EXT_N" >/dev/null; then
    echo "verify: FAILED — traced ext_breakdown stdout diverges across --jobs:" >&2
    diff "$EXT_1" "$EXT_N" | head -40 >&2
    exit 1
fi
if ! diff -q "$TRACE_1" "$TRACE_N" >/dev/null; then
    echo "verify: FAILED — span trace CSV diverges between --jobs 1 and --jobs $JOBS_N:" >&2
    diff "$TRACE_1" "$TRACE_N" | head -40 >&2
    exit 1
fi
if ! diff -q tests/golden/ext_breakdown_quick.txt "$EXT_1" >/dev/null; then
    echo "verify: FAILED — SpanTable breakdown diverges from tests/golden/ext_breakdown_quick.txt:" >&2
    diff tests/golden/ext_breakdown_quick.txt "$EXT_1" | head -40 >&2
    echo "(if the divergence is an intended semantic change, regenerate with:" >&2
    echo " ./target/release/fig ext_breakdown --quick --trace $BREAKDOWN_PHASES \\" >&2
    echo "     --trace-out /dev/null --jobs 1 > tests/golden/ext_breakdown_quick.txt)" >&2
    exit 1
fi
TRACE_ROWS="$(( $(wc -l < "$TRACE_1") - 1 ))"
echo "  SpanTable golden matched; $TRACE_ROWS span events byte-identical across jobs=1/$JOBS_N"

echo "== verify: fleet determinism and 10k-tenant capacity stability =="
# Fleet digest properties (crates/testbed/tests/fleet_props.rs): Zipfian
# rank frequencies track θ, digests survive re-runs / host reorders / warm
# arenas, and no per-I/O slab or event-queue backbone grows mid-run at
# 10k tenants. Reduced case count for the gate; full corpus in cargo test.
DD_CHECK_CASES=8 cargo test -q --release -p testbed --test fleet_props
echo "  fleet determinism + capacity-stability properties: ok"

echo "== verify: no request lost under an aggressive fault schedule =="
# Request-conservation property (crates/testbed/tests/fault_props.rs):
# random stacks x random fault classes, zero warmup, aggressive schedule —
# every issued I/O is completed or within the tenant's queue depth, no
# double completions, progress to the end of the window. A reduced case
# count keeps the gate fast; the full corpus runs in `cargo test`.
DD_CHECK_CASES=8 cargo test -q --release -p testbed --test fault_props
echo "  fault conservation properties: ok"

echo "== verify: event queue order-equivalent to the heap oracle (raised case count) =="
# The calendar queue's resync, far->near migration and occupancy bitmask
# must keep the single-heap (time, seq) pop order exactly
# (crates/simkit/tests/proptests.rs: idle gaps, window-edge pushes that
# wrap the bitmask, push_batch steps). Cheap per case, so the gate runs
# far more cases than the default 64.
DD_CHECK_CASES=4096 cargo test -q --release -p simkit --test proptests event_queue_matches_heap_reference
echo "  EventQueue vs HeapQueue (4096 cases): ok"

echo "== verify: latency histogram answers as the two-level reference (raised case count) =="
# The flat, range-trimmed histogram must return exactly what the old
# [u64; 128]-per-order layout returned — count, mean, min, max, every
# percentile on a grid, merges in both directions (empty, disjoint,
# overlapping) — over samples weighted to the layout's edges
# (crates/metrics/tests/proptests.rs). Cheap per case, so the gate runs
# far more cases than the default 64.
DD_CHECK_CASES=4096 cargo test -q --release -p dd-metrics --test proptests histogram_matches_two_level_reference
echo "  LatencyHistogram vs two-level reference (4096 cases): ok"

echo "== verify: tracing-off sweep throughput within noise of BENCH_sweep.json =="
# The disabled sink must cost one predictable branch (see
# trace/off_guarded_record in benches/micro.rs). Gate the end-to-end
# claim loosely: the fresh tracing-off sweep must clear a conservative
# fraction of the committed baseline's events/s — enough headroom for
# host variance, but a hot path that grew real tracing work fails. The
# fresh number is summed over the figures the committed baseline lists,
# so figures added to the registry later do not shift what is compared.
FRESH_EPS="$(sed -n 's/^    {"name": "\([a-z0-9_]*\)", "wall_s": \([0-9.]*\), "runs": [0-9]*, "events": \([0-9]*\),.*/\1 \2 \3/p' \
    "$SERIAL_JSON" | awk -v names="$BASE_FIGS" '
        BEGIN { n = split(names, a, " "); for (i = 1; i <= n; i++) keep[a[i]] = 1 }
        $1 in keep { wall += $2; events += $3 }
        END { if (wall > 0) printf "%.1f\n", events / wall }')"
# Floor raised with the arena/SoA/batch port (PR 8): the committed serial
# baseline itself moved up, and the recycled-machine path removed the
# biggest variance source (allocator traffic), so 0.6x is safe headroom.
PERF_FLOOR="${DD_PERF_FLOOR:-0.6}"
if [ -n "$BASE_EPS" ] && [ -n "$FRESH_EPS" ]; then
    if ! awk -v f="$FRESH_EPS" -v b="$BASE_EPS" -v floor="$PERF_FLOOR" \
        'BEGIN { exit !(f >= b * floor) }'; then
        echo "verify: FAILED — tracing-off sweep at $FRESH_EPS events/s," >&2
        echo "below ${PERF_FLOOR}x the committed baseline ($BASE_EPS events/s)." >&2
        echo "(override the floor with DD_PERF_FLOOR, or investigate the hot path)" >&2
        exit 1
    fi
    echo "  $FRESH_EPS events/s vs committed $BASE_EPS (floor ${PERF_FLOOR}x): ok"
else
    echo "  baseline or fresh events/s missing; skipping throughput floor" >&2
fi

echo "== verify: hot-path maps stay slab/dense (no std hash maps) =="
# The request-lifecycle hot path must not regress to allocating hash maps.
# An import may opt out with an explicit `dd-alloc-allowlist:` comment on
# its line (or the line above) justifying the exception; a marker elsewhere
# in the file does not count, since the shared NQ path marks its
# construction-time allocations for the guard below.
HOT_FILES="crates/blkstack/src/stack.rs crates/blkstack/src/reqmap.rs crates/blkstack/src/blkmq.rs crates/core/src/troute.rs crates/core/src/policy.rs"
for f in $HOT_FILES; do
    if awk '
        /use std::collections::.*(HashMap|BTreeMap)/ && $0 !~ /dd-alloc-allowlist:/ && prev !~ /dd-alloc-allowlist:/ { found = 1 }
        { prev = $0 }
        END { exit !found }
    ' "$f"; then
        echo "verify: FAILED — $f imports HashMap/BTreeMap on the hot path" >&2
        echo "(use simkit::{Slab, DenseMap}, or add a 'dd-alloc-allowlist: <reason>' comment)" >&2
        exit 1
    fi
done
echo "  ${HOT_FILES// /, }: clean"

echo "== verify: dispatch/push paths stay allocation-free =="
# The shared NQ submit/reap path (every stack's per-I/O code), the
# machine's event loop and the event queue's push paths must not
# regrow per-event allocations (that is what the RunArena + batch port
# removed). Construction-time allocations are fine — mark the line (or
# the line above it) with `dd-alloc-allowlist: <reason>`. Test modules
# (`#[cfg(test)]` onward) are exempt.
ALLOC_FILES="crates/blkstack/src/stack.rs crates/testbed/src/machine.rs crates/simkit/src/event.rs crates/nvme/src/controller.rs crates/nvme/src/arbiter.rs"
ALLOC_FAIL=0
for f in $ALLOC_FILES; do
    HITS="$(awk '
        /#\[cfg\(test\)\]/ { exit }
        /Vec::new\(\)|Box::new\(/ && $0 !~ /dd-alloc-allowlist:/ && prev !~ /dd-alloc-allowlist:/ {
            print FILENAME ":" FNR ": " $0
        }
        { prev = $0 }
    ' "$f")"
    if [ -n "$HITS" ]; then
        echo "verify: FAILED — unallowlisted Vec::new()/Box::new( in $f:" >&2
        echo "$HITS" >&2
        ALLOC_FAIL=1
    fi
done
if [ "$ALLOC_FAIL" = "1" ]; then
    echo "(recycle through the RunArena or scratch buffers, or add a" >&2
    echo " 'dd-alloc-allowlist: <reason>' comment on or above the line)" >&2
    exit 1
fi
echo "  ${ALLOC_FILES// /, }: no unallowlisted allocation constructors"

echo "== verify: event-queue panic sites carry a why-it-cannot-fail note =="
# ROADMAP robustness rule, scoped to the event queue: every non-test
# `unwrap(`/`expect(` in event.rs needs a `cannot fail: <why>` comment on
# its line or the line above, or must become a handled path. Comment
# lines (docs and their examples) and the test module are exempt.
PANIC_FILES="crates/simkit/src/event.rs"
PANIC_FAIL=0
for f in $PANIC_FILES; do
    HITS="$(awk '
        /#\[cfg\(test\)\]/ { exit }
        $0 !~ /^[ \t]*\/\// && /unwrap\(|expect\(/ && $0 !~ /cannot fail:/ && prev !~ /cannot fail:/ {
            print FILENAME ":" FNR ": " $0
        }
        { prev = $0 }
    ' "$f")"
    if [ -n "$HITS" ]; then
        echo "verify: FAILED — unexplained unwrap/expect in $f:" >&2
        echo "$HITS" >&2
        PANIC_FAIL=1
    fi
done
if [ "$PANIC_FAIL" = "1" ]; then
    echo "(handle the None/Err path, or add a 'cannot fail: <why>' comment" >&2
    echo " on or above the line)" >&2
    exit 1
fi
echo "  ${PANIC_FILES// /, }: no unexplained unwrap/expect"

echo "== verify: no external crates in any manifest =="
if grep -rn --include=Cargo.toml -E '^(proptest|criterion|rand|serde|tokio)' . | grep -v target; then
    echo "verify: FAILED — external dependency found above" >&2
    exit 1
fi

echo "verify: OK"
