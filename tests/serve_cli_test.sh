#!/usr/bin/env bash
# anufs_serve must reject sizes the lookup service cannot run with, and
# serving windows too long for a clock deadline, as bad flag values
# (exit 2, "<flag>: bad value '<text>'" on stderr), not let them through
# to a precondition abort.
#
# Usage: tests/serve_cli_test.sh path/to/anufs_serve
set -u

BIN="$1"
FAILED=0
while read -r flag value; do
  # A short window first, so an accepted value ends quickly instead of
  # serving for the default second.
  stderr="$("$BIN" --seconds 0.05 --quiet "$flag" "$value" 2>&1 >/dev/null)"
  status=$?
  expected="$flag: bad value '$value'"
  if [ "$status" -ne 2 ] || [[ "$stderr" != *"$expected"* ]]; then
    echo "FAIL: $flag $value: exit $status, stderr: $stderr" >&2
    FAILED=1
  else
    echo "ok: $flag $value rejected"
  fi
done <<'CASES'
--threads 0
--servers 0
--servers 1
--batch 0
--file-sets 0
--seconds 1e10
--seconds 1e300
CASES
exit "$FAILED"
