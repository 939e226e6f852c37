#!/usr/bin/env bash
# Builds the program and runs the whole end-to-end benchmark: every
# workload timed (end-to-end metrics), then every workload traced
# (per-layer metrics), printing each metric with its unit. Results go to
# build/e2e/results-seed<N>.jsonl for compare.py.
#
# Usage: bench/e2e/run.sh [--seed N] [--seconds S]
set -euo pipefail
cd "$(dirname "$0")/../.."

SEED=1
RUN_SECONDS=25
while [[ $# -gt 0 ]]; do
  case "$1" in
    --seed) SEED="$2"; shift 2 ;;
    --seconds) RUN_SECONDS="$2"; shift 2 ;;
    *) echo "usage: $0 [--seed N] [--seconds S]" >&2; exit 2 ;;
  esac
done

RESULTS="build/e2e/results-seed${SEED}.jsonl"
mkdir -p build/e2e
rm -f "${RESULTS}"
for trace in 0 1; do
  for workload in consolidation overload tier-thrash chaos-net; do
    # run.py's last line is the machine-readable result; --results keeps it.
    python3 bench/e2e/run.py --workload "${workload}" --seed "${SEED}" \
      --seconds "${RUN_SECONDS}" --trace "${trace}" \
      --results "${RESULTS}" | sed '$d'
  done
done
echo "results: ${RESULTS}"
