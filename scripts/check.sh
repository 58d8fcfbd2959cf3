#!/usr/bin/env bash
# One-command PR gate: configure, build, run the full ctest suite (native +
# _scalar registrations), the project linter and the ctest registration
# check, plus any opt-in lanes requested below; nonzero exit on any failure.
# It runs no bench binary: every gate a bench used to enforce is a ctest
# assertion (the serving storm in concurrency_stress_test, the filtered <
# raw archive size in container_v4_test). The benchmark is perfbench/
# (BENCHMARK.json).
#
# Usage:
#   scripts/check.sh [-j N] [extra ctest args...]
#
# Environment:
#   BUILD_DIR    build tree (default: build)
#   BUILD_TYPE   CMake build type (default: Release)
#   JOBS         parallelism for build + ctest (default: nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
BUILD_TYPE=${BUILD_TYPE:-Release}
JOBS=${JOBS:-$(nproc)}

if [[ "${1:-}" == "-j" ]]; then
  JOBS="$2"
  shift 2
fi

echo "== configure ($BUILD_TYPE) =="
cmake -B "$BUILD_DIR" -S . -DCMAKE_BUILD_TYPE="$BUILD_TYPE"

echo "== build (-j$JOBS) =="
cmake --build "$BUILD_DIR" -j"$JOBS"

echo "== test =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j"$JOBS" "$@"

# The project invariant linter always gates — it is a sub-second token scan
# and the invariants it enforces (no raw sync primitives outside
# util/mutex.h, dual native+_scalar test registration, no <iostream> in
# headers, no naked new/delete in src/) rot silently the moment they stop
# being checked. Sanctioned exceptions live in tools/lint_allowlist.txt.
echo "== glsc_lint =="
"$BUILD_DIR/glsc_lint" .

# The serve, workspace and batched-decode suites guard the random-access read
# path, the zero-allocation decode path and the one inference path's byte
# identity; the api and container suites guard DecompressAll, the
# whole-archive decode over that path. Make sure the glob actually registered
# them under BOTH dispatch registrations (a stale build tree or a renamed file
# would otherwise drop them silently).
echo "== serve + workspace tests registered (native + _scalar) =="
for t in serve_test serve_test_scalar workspace_test workspace_test_scalar \
         shard_manager_test shard_manager_test_scalar \
         concurrency_stress_test concurrency_stress_test_scalar \
         fuzz_regression_test fuzz_regression_test_scalar \
         glsc_lint_test glsc_lint_test_scalar \
         lock_checker_test lock_checker_test_scalar \
         arena_debug_test arena_debug_test_scalar \
         filters_test filters_test_scalar \
         container_v4_test container_v4_test_scalar \
         batched_decode_test batched_decode_test_scalar \
         api_test api_test_scalar \
         container_test container_test_scalar; do
  # grep reads to EOF (no -q): under `pipefail`, an early-exiting grep can
  # SIGPIPE ctest and turn a present registration into a spurious failure.
  if ! ctest --test-dir "$BUILD_DIR" -N -R "^${t}\$" | grep "${t}\$" > /dev/null; then
    echo "error: ctest registration missing: $t" >&2
    exit 1
  fi
done

# Opt-in lanes. A lane requested via env var must RUN or FAIL the gate —
# never skip: the CMake configure step behind each lane probes its toolchain
# requirement (check_cxx_compiler_flag) and raises FATAL_ERROR when the
# compiler cannot honor it, which aborts this script under `set -e`. CI can
# therefore trust that a green CHECK_SANITIZE/CHECK_ANALYZE/CHECK_DEBUG run
# actually executed the instrumented tree, rather than silently no-opping on
# a toolchain that lacks the support.
#
# Sanitizer lane: CHECK_SANITIZE=address,undefined (any -fsanitize= list)
# builds a separate instrumented tree and runs the concurrency-heavy serving
# suites plus the inference suites (arena-backed conv scratch, batched decode)
# and the api suite (DecompressAll through the scheduler, the reader's
# open-time record check) under it. Off by default — the instrumented build
# roughly doubles gate time — but cheap to request when touching serve/ or
# util/.
# CHECK_SANITIZE=thread is special-cased onto the GLSC_TSAN option (TSan is
# incompatible with ASan in one binary) and gets the stress suite plus the
# documented libstdc++ suppressions (tsan.supp). Both trees default the
# GLSC_DEBUG_LOCKS/GLSC_DEBUG_ARENA runtime checkers ON (see CMakeLists).
if [[ "${CHECK_SANITIZE:-}" == "thread" ]]; then
  TSAN_DIR="${BUILD_DIR}-tsan"
  echo "== TSan lane (GLSC_TSAN=ON) =="
  cmake -B "$TSAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DGLSC_TSAN=ON
  cmake --build "$TSAN_DIR" -j"$JOBS" \
      --target shard_manager_test serve_test concurrency_stress_test \
               workspace_test util_test
  TSAN_OPTIONS="halt_on_error=1 suppressions=$PWD/tsan.supp" \
      ctest --test-dir "$TSAN_DIR" --output-on-failure -j"$JOBS" \
      -R '^(shard_manager_test|serve_test|concurrency_stress_test|workspace_test|util_test)(_scalar)?$'
elif [[ -n "${CHECK_SANITIZE:-}" ]]; then
  SAN_DIR="${BUILD_DIR}-sanitize"
  echo "== sanitizer lane (-fsanitize=$CHECK_SANITIZE) =="
  cmake -B "$SAN_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DGLSC_SANITIZE="$CHECK_SANITIZE"
  cmake --build "$SAN_DIR" -j"$JOBS" \
      --target shard_manager_test serve_test concurrency_stress_test \
               batched_decode_test workspace_test api_test
  ctest --test-dir "$SAN_DIR" --output-on-failure -j"$JOBS" \
      -R '^(shard_manager_test|serve_test|concurrency_stress_test|batched_decode_test|workspace_test|api_test)(_scalar)?$'
fi

# Opt-in debug-checker lane: CHECK_DEBUG=1 builds a RelWithDebInfo tree with
# the runtime lock-order checker (GLSC_DEBUG_LOCKS) and arena borrow
# validation (GLSC_DEBUG_ARENA) force-enabled, then runs the FULL suite under
# them. This is the gcc-toolchain counterpart of the clang thread-safety leg:
# the lock discipline and borrow lifetimes are enforced at runtime instead of
# compile time.
if [[ -n "${CHECK_DEBUG:-}" ]]; then
  DEBUG_DIR="${BUILD_DIR}-debug"
  echo "== debug-checker lane (GLSC_DEBUG_LOCKS=ON GLSC_DEBUG_ARENA=ON) =="
  cmake -B "$DEBUG_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
      -DGLSC_DEBUG_LOCKS=ON -DGLSC_DEBUG_ARENA=ON
  cmake --build "$DEBUG_DIR" -j"$JOBS"
  ctest --test-dir "$DEBUG_DIR" --output-on-failure -j"$JOBS"
fi

# Opt-in static-analysis lane: the project linter, a -Werror rebuild and
# (when clang is available) thread-safety analysis and clang-tidy, with an
# end-of-run ran/skipped summary. See scripts/lint.sh.
if [[ -n "${CHECK_LINT:-}" ]]; then
  scripts/lint.sh
fi

# Opt-in gcc -fanalyzer lane: interprocedural static analysis of src/ against
# the triaged baseline in tools/fanalyzer_baseline.txt — new findings fail,
# stale baseline entries fail. See scripts/analyze.sh.
if [[ -n "${CHECK_ANALYZE:-}" ]]; then
  scripts/analyze.sh
fi

# Opt-in fuzz smoke: bounded ASan/UBSan run of the fuzz/ harnesses over the
# generated seed corpus. See scripts/fuzz_smoke.sh.
if [[ -n "${CHECK_FUZZ:-}" ]]; then
  scripts/fuzz_smoke.sh
fi

echo "== OK =="
