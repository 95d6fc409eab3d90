#!/usr/bin/env bash
# Reachability census: fails when a src/ function is reached by no
# shipped binary and is not on the allowlist (scripts/reach.allow).
#
# Builds every tool, bench and example, plus benchmark/'s anufs_e2e, with
# tests off, at -O0 -ffunction-sections, linked with --gc-sections: a
# function survives in a binary only if something that binary runs can
# call it. Every global text symbol (nm type T) in namespace anufs:: that
# a src/ object defines must then appear in at least one binary.
#
# Header-only and inline code escapes the census: it compiles into each
# caller's object as a weak symbol, never into a src/ object's own text.
#
#   ./scripts/reach.sh             # build in a temp dir, removed after
#   ./scripts/reach.sh --dir DIR   # build in DIR and keep it
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"
JOBS="${ANUFS_JOBS:-$(nproc 2>/dev/null || echo 2)}"
ALLOW="scripts/reach.allow"

DIR=""
while [ $# -gt 0 ]; do
  case "$1" in
    --dir) DIR="$2"; shift 2 ;;
    *) echo "reach.sh: unknown argument: $1" >&2; exit 2 ;;
  esac
done
if [ -z "$DIR" ]; then
  DIR="$(mktemp -d)"
  trap 'rm -rf "$DIR"' EXIT
fi
mkdir -p "$DIR"

echo "reach: header-only and inline code escapes this census"

# benchmark/CMakeLists.txt adds the repository root as a subproject with
# tests off, so one build covers tools/, bench/, examples/ and anufs_e2e.
# It is read here, never edited.
if ! cmake -S benchmark -B "$DIR" -DCMAKE_BUILD_TYPE=None \
       -DBUILD_TESTING=OFF -DCMAKE_CXX_FLAGS="-O0 -ffunction-sections" \
       -DCMAKE_EXE_LINKER_FLAGS="-Wl,--gc-sections" >"$DIR/reach.log" 2>&1 ||
   ! cmake --build "$DIR" -j "$JOBS" >>"$DIR/reach.log" 2>&1; then
  tail -n 40 "$DIR/reach.log" >&2
  echo "reach.sh: build failed" >&2
  exit 1
fi

find "$DIR/anufs/src" -name '*.o' -print0 |
  xargs -0 nm --defined-only --extern-only |
  awk '$2 == "T" { print $3 }' | sort -u >"$DIR/defined.txt"
find "$DIR" -type f -perm -u+x ! -path '*/CMakeFiles/*' -print0 |
  xargs -0 nm --defined-only 2>/dev/null |
  awk 'NF >= 3 { print $3 }' | sort -u >"$DIR/linked.txt"
comm -23 "$DIR/defined.txt" "$DIR/linked.txt" | c++filt |
  grep '^anufs::' | sort >"$DIR/unreached.txt" || true
sed -e 's/[[:space:]]*#.*//' -e '/^[[:space:]]*$/d' "$ALLOW" |
  sort >"$DIR/allow.txt"

echo "reach: $(wc -l <"$DIR/defined.txt") src/ text symbols," \
  "$(wc -l <"$DIR/unreached.txt") reached only from tests," \
  "$(wc -l <"$DIR/allow.txt") allowlisted"
FAILED=0
while IFS= read -r sym; do
  echo "reach: no shipped binary reaches $sym" >&2
  FAILED=1
done < <(comm -23 "$DIR/unreached.txt" "$DIR/allow.txt")
while IFS= read -r sym; do
  echo "reach: $ALLOW lists $sym, which a binary reaches or src/ no longer" \
    "defines; drop it" >&2
  FAILED=1
done < <(comm -13 "$DIR/unreached.txt" "$DIR/allow.txt")
[ "$FAILED" -eq 0 ] && echo "reach: every other src/ text symbol is reached"
exit "$FAILED"
