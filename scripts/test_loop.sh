#!/usr/bin/env bash
# Flake detector: run the workspace test suite N times in a row and report,
# per test binary, in how many runs it failed. Each run is
# `cargo test --workspace -q --no-fail-fast`, so one failing binary does not
# hide the others. Report-only: exits 0 whatever the counts.
#
# Usage: scripts/test_loop.sh N
set -u
n="${1:?usage: scripts/test_loop.sh N}"
cd "$(dirname "$0")/.."
log="$(mktemp)"
trap 'rm -f "$log"' EXIT
declare -A fails
failed_runs=0
for i in $(seq 1 "$n"); do
  if cargo test --workspace -q --no-fail-fast >"$log" 2>&1; then
    echo "run $i/$n: ok"
    continue
  fi
  failed_runs=$((failed_runs + 1))
  # cargo names each failing binary as `-p <package> --test <name>` (or
  # --lib / --bin / --doc), in its "to rerun pass" line or its summary.
  targets=$(grep -oE '^ +`[^`]+`$|to rerun pass `[^`]+`' "$log" \
    | grep -oE '`[^`]+`' | tr -d '`' | sort -u)
  [ -z "$targets" ] && targets="(no test binary named: build error?)"
  while IFS= read -r t; do
    fails["$t"]=$(( ${fails["$t"]:-0} + 1 ))
  done <<< "$targets"
  echo "run $i/$n: FAILED"
  grep -E '^test .* FAILED$|panicked at' "$log" | head -5 | sed 's/^/    /'
done
echo "== $failed_runs of $n runs failed"
for t in "${!fails[@]}"; do
  echo "${fails[$t]}/$n  $t"
done | sort -rn
exit 0
