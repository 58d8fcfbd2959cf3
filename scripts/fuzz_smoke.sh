#!/usr/bin/env bash
# Bounded fuzz smoke run: builds the fuzz/ harnesses in a separate
# ASan+UBSan tree, generates the deterministic seed corpus, and gives each
# target a short budget. Under clang this is a real (coverage-guided)
# libFuzzer run; under gcc the standalone driver replays the corpus plus
# deterministic mutations. Either way a crash fails the script.
#
# Usage:
#   scripts/fuzz_smoke.sh
#
# Environment:
#   BUILD_DIR   base build tree name (default: build; fuzz uses ${BUILD_DIR}-fuzz)
#   FUZZ_TIME   per-target budget in seconds (default: 30)
#   JOBS        build parallelism (default: nproc)
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR=${BUILD_DIR:-build}
FUZZ_DIR="${BUILD_DIR}-fuzz"
FUZZ_TIME=${FUZZ_TIME:-30}
JOBS=${JOBS:-$(nproc)}

TARGETS=(fuzz_archive_reader fuzz_range_coder)

# A sanitizer report is a finding, not a log line: make ASan/UBSan abort so
# the harness exits nonzero and this script fails.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:abort_on_error=1:print_stacktrace=1}"

echo "== configure fuzz tree ($FUZZ_DIR) =="
cmake -B "$FUZZ_DIR" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DGLSC_FUZZ=ON -DGLSC_SANITIZE=address,undefined

echo "== build harnesses =="
cmake --build "$FUZZ_DIR" -j"$JOBS" --target glsc_make_corpus "${TARGETS[@]}"

echo "== seed corpus =="
CORPUS="$FUZZ_DIR/corpus"
rm -rf "$CORPUS"
"$FUZZ_DIR/glsc_make_corpus" "$CORPUS"

# The CMake cache records whether the compiler links libFuzzer; the two
# driver modes take different arguments for the same budget.
if grep -q 'GLSC_COMPILER_HAS_LIBFUZZER:INTERNAL=1' "$FUZZ_DIR/CMakeCache.txt"; then
  MODE=libfuzzer
else
  MODE=standalone
fi
echo "== fuzz smoke ($MODE, ${FUZZ_TIME}s/target) =="

run_target() {
  local target="$1" corpus="$2"
  echo "-- $target over $corpus"
  if [[ "$MODE" == libfuzzer ]]; then
    "$FUZZ_DIR/$target" -max_total_time="$FUZZ_TIME" -timeout=10 "$corpus"
  else
    GLSC_FUZZ_MAX_SECONDS="$FUZZ_TIME" GLSC_FUZZ_MUTATIONS=2000 \
        "$FUZZ_DIR/$target" "$corpus"
  fi
}

run_target fuzz_archive_reader "$CORPUS/archive"
run_target fuzz_range_coder "$CORPUS/range_coder"

echo "== fuzz smoke OK =="
