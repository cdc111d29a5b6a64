#!/usr/bin/env bash
# CI entry point: configure from scratch, build, and run the full test
# suite. A FRESH build directory matters — gtest_discover_tests leaves a
# fastgl_tests_NOT_BUILT placeholder in stale CTest state, which then
# "fails" forever even though the tree is fine.
#
# Usage:
#   tools/ci.sh   # warnings-as-errors build + full ctest, then the full
#                 # ctest again under AddressSanitizer + UBSan and under
#                 # ThreadSanitizer
#
# Environment:
#   FASTGL_CI_JOBS   parallel build/test jobs (default: nproc)
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${FASTGL_CI_JOBS:-$(nproc)}"

run_config() {
    local dir="$1"
    shift
    rm -rf "$dir"
    cmake -B "$dir" -S . "$@"
    cmake --build "$dir" -j "$JOBS"
}

echo "==> primary configuration (tests built with -Werror)"
run_config build-ci -DFASTGL_TEST_WERROR=ON
ctest --test-dir build-ci --output-on-failure -j "$JOBS"

# Memory and undefined-behaviour check of the whole suite: one
# -fsanitize=address,undefined configuration, every ctest entry.
# halt_on_error makes a UBSan report fail its test instead of only
# printing.
echo "==> AddressSanitizer + UBSan configuration (full suite)"
run_config build-asan -DFASTGL_SANITIZE=address,undefined \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
UBSAN_OPTIONS=halt_on_error=1:print_stacktrace=1 \
    ctest --test-dir build-asan --output-on-failure -j "$JOBS"

# Docs-consistency check: Doxygen in warnings-as-errors mode over the
# serve + compute + prof headers (docs/Doxyfile-ci), so @param lists
# that drift from the code fail CI. Skipped, loudly, where doxygen is
# not installed — the check is a bonus on developer machines, not a
# new container dependency.
if command -v doxygen > /dev/null 2>&1; then
    echo "==> doxygen docs check (serve + compute + prof headers, strict)"
    doxygen docs/Doxyfile-ci
    rm -rf build-docs-ci
else
    echo "==> doxygen not installed; skipping strict docs check"
fi

# Data-race check of the whole suite: one -fsanitize=thread
# configuration, every ctest entry — no hand-kept subset to drift out
# of date as concurrent code spreads.
echo "==> ThreadSanitizer configuration (full suite)"
run_config build-tsan -DFASTGL_SANITIZE=thread \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo
ctest --test-dir build-tsan --output-on-failure -j "$JOBS"

# Gate one archived bench JSON. Every bench archive must parse as JSON
# — a truncated or crash-interleaved archive used to sail through the
# old pattern greps (grepping only for a failure marker passes
# vacuously on garbage) — and must contain the success marker; a
# present failure marker fails even if the bench's exit code ever
# regresses.
bench_gate() {
    local file="$1" required="$2" forbidden="${3:-}"
    if ! python3 -m json.tool "$file" > /dev/null; then
        echo "$file: malformed JSON archive" >&2
        return 1
    fi
    if ! grep -q "$required" "$file"; then
        echo "$file: success marker missing: $required" >&2
        return 1
    fi
    if [[ -n "$forbidden" ]] && grep -q "$forbidden" "$file"; then
        echo "$file: failure marker present: $forbidden" >&2
        return 1
    fi
}

# Bench gates: one row per gated bench, as
#   bench | build dir | required marker | forbidden marker (optional).
# Every bench is divergence-fatal (non-zero exit when a replica or a
# replay diverges) and the serving-side ones also gate their own
# deterministic virtual-clock claims; host-time speedups are archived,
# never gated, since CI machines are too noisy for thresholds. The
# compute and gather benches run in the primary configuration (the
# repo-default build type the pre-engine loops shipped in — -O3 would
# auto-vectorize the naive replicas and narrow a gap no shipped code
# had); the rest run in a Release build.
BENCH_GATES=(
    'hotpath|build-perf-ci|identical": true|identical": false'
    'serving|build-perf-ci|"all_p99_finite": true|'
    'serving_multimodel|build-perf-ci|"ok": true|'
    'compute|build-ci|"identical": true|"identical": false'
    'gather|build-ci|"identical": true|"identical": false'
    'multigpu|build-perf-ci|"ok": true|'
    'oocstore|build-perf-ci|"ok": true|'
    'traffic|build-perf-ci|"ok": true|'
)
if [[ ! -d build-perf-ci ]]; then
    cmake -B build-perf-ci -S . -DCMAKE_BUILD_TYPE=Release
fi
for row in "${BENCH_GATES[@]}"; do
    IFS='|' read -r bench dir required forbidden <<< "$row"
    echo "==> $bench bench smoke ($dir)"
    cmake --build "$dir" --target "bench_ext_$bench" -j "$JOBS"
    "./$dir/bench/bench_ext_$bench" --smoke | tee "BENCH_$bench.json"
    bench_gate "BENCH_$bench.json" "$required" "$forbidden"
done

echo "==> CI OK"
