#!/usr/bin/env bash
# Byte-identity check between two builds of this repository: runs the
# same fglb_sim / fglb_replay matrix with each build's tools and prints
# one line per output that differs.
#
# Usage: tools/compare_builds.sh [--seeds="1 7"] PARENT_BUILD CHANGE_BUILD
#                                [SCENARIO...] [-- FGLB_SIM_FLAG...]
#
#   PARENT_BUILD, CHANGE_BUILD  CMake build directories holding
#                               tools/fglb_sim and tools/fglb_replay
#   --seeds=LIST                --seed values to run (default "1 7")
#   SCENARIO...                 default: all twelve scenarios
#   FGLB_SIM_FLAG...            extra flags for every fglb_sim run, e.g.
#                               --replacement=arc or --duration=300
#
# Per scenario and seed it compares:
#   - --output=actions-csv and --output=samples-csv (cmp);
#   - --trace-out with the wall-clock mono_us/dur_us fields stripped;
#   - --capture-out (cmp);
#   - --metrics-out counters and gauges (histograms hold wall time);
#   - fglb_replay of the capture: exit status, stdout, stderr and the
#     stripped replay trace, plus --what-if and --summary stdout;
#   - on consolidation, tier-thrash, chaos-net and chaos-ctl, a
#     --span-sample=16 --spans-out file (cmp);
#   - on chaos-ctl, overload and tier-thrash, a controller crash that
#     restores a checkpoint: actions-csv and the stripped trace of a run
#     with that scenario's restore flags (restore_flags in this script).
# Exit status: 0 when every output matches, 1 on any difference, 2 on
# a usage error. Run one build against itself for a run-to-run
# determinism check.
set -uo pipefail

SEEDS="1 7"
if [[ $# -gt 0 && "$1" == --seeds=* ]]; then
  SEEDS="${1#--seeds=}"
  shift
fi
if [[ $# -lt 2 ]]; then
  sed -n '2,/^set -uo/p' "$0" | sed '$d; s/^# \{0,1\}//' >&2
  exit 2
fi
PARENT="$1"
CHANGE="$2"
shift 2
SCENARIOS=()
while [[ $# -gt 0 && "$1" != "--" ]]; do
  SCENARIOS+=("$1")
  shift
done
[[ $# -gt 0 ]] && shift
FLAGS=("$@")
if [[ ${#SCENARIOS[@]} -eq 0 ]]; then
  SCENARIOS=(steady burst consolidation io chaos-replica chaos-disk
             chaos-net chaos-ctl overload tier-thrash tier-fail cold-start)
fi
for build in "${PARENT}" "${CHANGE}"; do
  for tool in fglb_sim fglb_replay; do
    if [[ ! -x "${build}/tools/${tool}" ]]; then
      echo "error: ${build}/tools/${tool} is not an executable" >&2
      exit 2
    fi
  done
done

WORK="$(mktemp -d)"
trap 'rm -rf "${WORK}"' EXIT

# The restore legs. chaos-ctl restarts inside a lossy window from a
# checkpoint taken while reports were delivered but not yet collected;
# overload restores admission state; tier-thrash restores the stable
# curves the tiered planner reads.
restore_flags() {
  case "$1" in
    chaos-ctl)
      local net='net@200:drop=0.08,dup=0.03,reorder=0.05,delay=1,duration=200'
      RESTORE_FLAGS=(--ckpt-interval=5 "--fault-spec=${net};ctl@307:restart=30")
      ;;
    overload)
      RESTORE_FLAGS=(--duration=400 --ckpt-interval=10
                     "--fault-spec=ctl@205:restart=30") ;;
    tier-thrash)
      RESTORE_FLAGS=(--ckpt-interval=10 "--fault-spec=ctl@350:restart=30") ;;
    *) RESTORE_FLAGS=() ;;
  esac
}

strip_clock() { sed -E 's/,"(mono_us|dur_us)":[^,}]*//g' "$1"; }
counters_and_gauges() { sed -E 's/,"histograms":\{.*$//' "$1"; }

# Writes every compared output of one build for one scenario and seed
# into directory $1.
run_one() {
  local build="$1" out="$2" scenario="$3" seed="$4"
  local sim="${build}/tools/fglb_sim" replay="${build}/tools/fglb_replay"
  local args=(--scenario="${scenario}" --seed="${seed}" --log-level=quiet
              "${FLAGS[@]}")
  mkdir -p "${out}"
  "${sim}" "${args[@]}" --output=actions-csv \
    --trace-out="${out}/trace.raw" --capture-out="${out}/capture" \
    --metrics-out="${out}/metrics.raw" >"${out}/actions-csv" \
    2>"${out}/sim.stderr"
  echo "$?" >"${out}/sim.status"
  "${sim}" "${args[@]}" --output=samples-csv >"${out}/samples-csv" 2>&1
  strip_clock "${out}/trace.raw" >"${out}/trace" 2>/dev/null
  counters_and_gauges "${out}/metrics.raw" >"${out}/metrics" 2>/dev/null
  "${replay}" "${out}/capture" --trace-out="${out}/replay-trace.raw" \
    >"${out}/replay.stdout" 2>"${out}/replay.stderr"
  echo "$?" >"${out}/replay.status"
  strip_clock "${out}/replay-trace.raw" >"${out}/replay-trace" 2>/dev/null
  "${replay}" "${out}/capture" --what-if >"${out}/what-if" 2>/dev/null
  "${replay}" "${out}/capture" --summary >"${out}/summary" 2>/dev/null
  case "${scenario}" in
    consolidation|tier-thrash|chaos-net|chaos-ctl)
      "${sim}" "${args[@]}" --span-sample=16 --spans-out="${out}/spans" \
        >/dev/null 2>&1 ;;
  esac
  restore_flags "${scenario}"
  if [[ ${#RESTORE_FLAGS[@]} -gt 0 ]]; then
    "${sim}" "${args[@]}" "${RESTORE_FLAGS[@]}" --output=actions-csv \
      --trace-out="${out}/restore-trace.raw" >"${out}/restore-actions-csv" \
      2>&1
    strip_clock "${out}/restore-trace.raw" >"${out}/restore-trace" 2>/dev/null
  fi
  rm -f "${out}/trace.raw" "${out}/metrics.raw" "${out}/replay-trace.raw" \
    "${out}/restore-trace.raw"
}

compared=0
differences=0
for scenario in "${SCENARIOS[@]}"; do
  for seed in ${SEEDS}; do
    a="${WORK}/parent/${scenario}-${seed}"
    b="${WORK}/change/${scenario}-${seed}"
    run_one "${PARENT}" "${a}" "${scenario}" "${seed}"
    run_one "${CHANGE}" "${b}" "${scenario}" "${seed}"
    for item in sim.status sim.stderr actions-csv samples-csv trace capture \
                metrics replay.status replay.stdout replay.stderr \
                replay-trace what-if summary spans restore-actions-csv \
                restore-trace; do
      [[ -e "${a}/${item}" || -e "${b}/${item}" ]] || continue
      compared=$((compared + 1))
      if ! cmp -s "${a}/${item}" "${b}/${item}"; then
        differences=$((differences + 1))
        echo "DIFF ${scenario} seed=${seed} ${item}"
      fi
    done
    rm -rf "${a}" "${b}"
  done
done
echo "compare_builds: ${differences} of ${compared} outputs differ" \
  "(${#SCENARIOS[@]} scenarios, seeds ${SEEDS}${FLAGS[*]:+, flags ${FLAGS[*]}})"
[[ ${differences} -eq 0 ]]
