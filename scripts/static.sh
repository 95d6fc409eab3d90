#!/usr/bin/env bash
# Project-invariant static analysis gate (DESIGN.md §6h):
#
#   lint           tools/anufs_lint.py over src/ — D1 determinism,
#                  H1 hot-path allocation freedom, T1 trace-schema sync,
#                  G1 generation-stamp discipline — and over src/ and
#                  tools/, P1 number parsing only in
#                  common/line_reader.h. Needs only python3.
#   fixtures       tests/lint_fixture_test.py — proves every rule fires
#                  on the bad examples in tests/lint_fixtures/ and that
#                  safe() waivers suppress.
#   thread-safety  builds the `clang` preset, turning the capability
#                  annotations in src/common/thread_safety.h into
#                  compile-time lock-discipline errors
#                  (-Werror=thread-safety). Skips without clang++.
#
#   ./scripts/static.sh                  # all stages
#   ./scripts/static.sh lint fixtures    # a subset, in order
#   ./scripts/static.sh --build-dir build-foo lint   # another compile db
#
# A stage whose toolchain is missing SKIPS rather than fails: exit 0
# standalone, or --skip-exit-code N (ctest SKIP_RETURN_CODE protocol)
# when EVERY requested stage skipped. Findings are always hard failures.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

BUILD_DIR="$ROOT/build"
SKIP_CODE=0
JOBS="${ANUFS_JOBS:-$(nproc 2>/dev/null || echo 2)}"
STAGES=()
while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --skip-exit-code) SKIP_CODE="$2"; shift 2 ;;
    --jobs) JOBS="$2"; shift 2 ;;
    *) STAGES+=("$1"); shift ;;
  esac
done
if [ ${#STAGES[@]} -eq 0 ]; then
  STAGES=(lint fixtures thread-safety)
fi

RAN=0
for stage in "${STAGES[@]}"; do
  case "$stage" in
    lint)
      if ! command -v python3 >/dev/null 2>&1; then
        echo "static.sh: python3 not found; skipping anufs_lint" >&2
        continue
      fi
      echo "== static: anufs_lint (D1/H1/T1/G1/P1)"
      python3 tools/anufs_lint.py --root "$ROOT" \
        --compile-db "$BUILD_DIR/compile_commands.json"
      RAN=1
      ;;
    fixtures)
      if ! command -v python3 >/dev/null 2>&1; then
        echo "static.sh: python3 not found; skipping lint fixtures" >&2
        continue
      fi
      echo "== static: lint fixtures"
      python3 tests/lint_fixture_test.py
      RAN=1
      ;;
    thread-safety)
      CXX_BIN="${ANUFS_CLANGXX:-clang++}"
      if ! command -v "$CXX_BIN" >/dev/null 2>&1; then
        echo "static.sh: $CXX_BIN not found; skipping thread-safety build" >&2
        continue
      fi
      echo "== static: clang thread-safety build (-Werror=thread-safety)"
      cmake --preset clang
      cmake --build --preset clang -j "$JOBS"
      RAN=1
      ;;
    *)
      echo "static.sh: unknown stage '$stage'" >&2
      exit 2
      ;;
  esac
done

if [ "$RAN" -eq 0 ]; then
  echo "static.sh: every requested stage skipped" >&2
  exit "$SKIP_CODE"
fi
echo "static.sh: clean"
