#!/usr/bin/env bash
# Tier-1 CI: build + full test suite, then rebuild with ThreadSanitizer
# and rerun the concurrency-sensitive tests (the parallel-diagnosis
# pipeline is the only multithreaded code path, so a TSan pass over the
# pipeline/analyzer tests covers it).
#
# Usage: tools/ci.sh [build-dir-prefix]   (default: build)
set -euo pipefail
cd "$(dirname "$0")/.."

PREFIX="${1:-build}"
JOBS="$(nproc)"

# Fails unless every '|'-alternative of the ctest -R regex $2 selects at
# least one test built in $1, so a renamed or deleted suite cannot drop
# out of a leg unnoticed.
require_every_alternative() {
  local dir="$1" alt
  local -a alts
  IFS='|' read -ra alts <<<"$2"
  for alt in "${alts[@]}"; do
    if ! ctest --test-dir "${dir}" -N -R "${alt}" \
        | grep -q '^Total Tests: [1-9]'; then
      echo "ctest -R alternative '${alt}' selects no test in ${dir}" >&2
      exit 1
    fi
  done
}

echo "=== plain build + full tier-1 suite ==="
cmake -B "${PREFIX}" -S . >/dev/null
cmake --build "${PREFIX}" -j "${JOBS}"
ctest --test-dir "${PREFIX}" --output-on-failure -j "${JOBS}"

echo "=== observability smoke: fglb_sim trace -> fglb_tracecat ==="
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "${SMOKE_DIR}"' EXIT
"./${PREFIX}/tools/fglb_sim" --scenario=consolidation --duration=600 \
  --log-level=quiet --trace-out="${SMOKE_DIR}/trace.jsonl" \
  --metrics-out="${SMOKE_DIR}/metrics.json" >/dev/null
# --check exits non-zero on any malformed line, schema violation or
# sequence gap; the other invocations must at least not crash.
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/trace.jsonl" --check
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/trace.jsonl" \
  --phase=action >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/trace.jsonl" --summary
test -s "${SMOKE_DIR}/metrics.json"
# --check enforces each violating interval's sla -> impact -> iqr ->
# mrc -> action order: an action ahead of its impact must be rejected.
printf '%s\n' \
  '{"v":1,"seq":0,"mono_us":1,"phase":"sla","t":10,"app":1}' \
  '{"v":1,"seq":1,"mono_us":2,"phase":"action","t":10,"app":1,"kind":"none","why":"no_action"}' \
  '{"v":1,"seq":2,"mono_us":3,"phase":"impact","t":10,"app":1,"replica":0}' \
  > "${SMOKE_DIR}/broken-chain.jsonl"
if "./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/broken-chain.jsonl" \
  --check 2>/dev/null; then
  echo "fglb_tracecat accepted an action before its impact" >&2
  exit 1
fi

echo "=== chaos smoke: deterministic fault injection under trace ==="
# A chaos scenario run end to end: the injected crash/stats/migration
# faults must leave a trace that still passes the schema check, and the
# run itself must survive the churn.
"./${PREFIX}/tools/fglb_sim" --scenario=chaos-replica --duration=600 \
  --fault-seed=7 --log-level=quiet \
  --trace-out="${SMOKE_DIR}/chaos.jsonl" \
  --metrics-out="${SMOKE_DIR}/chaos-metrics.json" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/chaos.jsonl" --check
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/chaos.jsonl" \
  --phase=action >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/chaos.jsonl" --summary
# The run releases replica-1 at t=80: its engine stops reporting a warm
# pool.
grep -q '"engine.engine-1.bufferpool.shared.resident_pages":0' \
  "${SMOKE_DIR}/chaos-metrics.json"
# A fault spec with a non-finite time must be rejected up front, not
# fired at arm time.
if "./${PREFIX}/tools/fglb_sim" --scenario=steady --duration=30 \
  --log-level=quiet --fault-spec='disk@nan:server=0,factor=8' \
  >/dev/null 2>&1; then
  echo "fglb_sim accepted a fault spec with a NaN time" >&2
  exit 1
fi
# So must a negative number of seconds, which ToString would drop.
if "./${PREFIX}/tools/fglb_sim" --scenario=steady --duration=30 \
  --log-level=quiet --fault-spec='crash@10:replica=0,restart=-5' \
  >/dev/null 2>&1; then
  echo "fglb_sim accepted a fault spec with a negative restart" >&2
  exit 1
fi
# So must a param outside its kind's row of the grammar table: a stats
# dropout takes no tier mode.
if "./${PREFIX}/tools/fglb_sim" --scenario=steady --duration=20 \
  --log-level=quiet --fault-spec='stats@10:replica=0,mode=fail,duration=5' \
  >/dev/null 2>&1; then
  echo "fglb_sim accepted a stats fault with a tier mode" >&2
  exit 1
fi

echo "=== replay smoke: capture -> deterministic replay -> diff ==="
# Capture a live consolidation run, replay it, and require the replayed
# controller's action trace to match the live one byte for byte (the
# --phase=action projection strips the wall-clock header fields).
"./${PREFIX}/tools/fglb_sim" --scenario=consolidation --duration=600 \
  --log-level=quiet --capture-out="${SMOKE_DIR}/live.fglbcap" \
  --trace-out="${SMOKE_DIR}/live.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/live.fglbcap" \
  --trace-out="${SMOKE_DIR}/replay.jsonl"
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/live.jsonl" \
         --phase=action) \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/replay.jsonl" \
         --phase=action)
# Same byte-for-byte contract under an injected fault schedule.
"./${PREFIX}/tools/fglb_sim" --scenario=chaos-replica --duration=420 \
  --fault-seed=7 --log-level=quiet \
  --capture-out="${SMOKE_DIR}/chaos.fglbcap" \
  --trace-out="${SMOKE_DIR}/chaos-live.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/chaos.fglbcap" \
  --trace-out="${SMOKE_DIR}/chaos-replay.jsonl"
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/chaos-live.jsonl" \
         --phase=action) \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/chaos-replay.jsonl" \
         --phase=action)
# A cold-start run whose controller provisions half-size replicas: the
# capture's run config carries the pool size, so the strict replay
# consumes every recorded execution and repeats every action.
"./${PREFIX}/tools/fglb_sim" --scenario=cold-start --tpcw-clients=1000 \
  --duration=150 --log-level=quiet \
  --capture-out="${SMOKE_DIR}/cold.fglbcap" \
  --trace-out="${SMOKE_DIR}/cold-live.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/cold-live.jsonl" \
  --phase=action | grep -q 'cpu_provision'
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/cold.fglbcap" \
  --trace-out="${SMOKE_DIR}/cold-replay.jsonl"
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/cold-live.jsonl" \
         --phase=action) \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/cold-replay.jsonl" \
         --phase=action)
# The other consumers rebuild the cluster from the capture's run
# config: --summary must list consolidation's topology and --what-if
# must rank the live controller's migration first.
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/live.fglbcap" --summary \
  >"${SMOKE_DIR}/summary.txt"
grep -q '4 servers, 2 apps, 1 replicas' "${SMOKE_DIR}/summary.txt"
grep -q "app 1 'TPC-W': 14 classes" "${SMOKE_DIR}/summary.txt"
grep -q "app 2 'RUBiS': 12 classes" "${SMOKE_DIR}/summary.txt"
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/live.fglbcap" --what-if \
  >"${SMOKE_DIR}/what-if.txt"
grep -q 'problem app=2/class=4' "${SMOKE_DIR}/what-if.txt"
grep -q 'live controller chose: migrate (ranked first here too)' \
  "${SMOKE_DIR}/what-if.txt"

echo "=== determinism: compare_builds.sh, one build against itself ==="
# Every output the byte-identity contract covers (actions, samples,
# stripped traces, captures, metrics, replays, what-if, summary, spans)
# must repeat run to run; this also keeps the script itself working.
tools/compare_builds.sh "${PREFIX}" "${PREFIX}" consolidation chaos-net

echo "=== overload smoke: admission control + capture/replay ==="
# The overload scenario turns admission on automatically; its trace must
# carry phase=admission events, pass the schema check, and replay byte
# for byte. An unknown --phase name and a non-numeric --app must be
# rejected, not ignored.
"./${PREFIX}/tools/fglb_sim" --scenario=overload --duration=420 \
  --log-level=quiet --capture-out="${SMOKE_DIR}/overload.fglbcap" \
  --trace-out="${SMOKE_DIR}/overload.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/overload.jsonl" --check
test -n "$("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/overload.jsonl" \
  --phase=admission)"
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/overload.jsonl" --summary \
  | grep -q '^admission'
if "./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/overload.jsonl" \
  --phase=bogus 2>/dev/null; then
  echo "fglb_tracecat accepted an unknown --phase name" >&2
  exit 1
fi
if "./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/overload.jsonl" \
  --app=abc 2>/dev/null; then
  echo "fglb_tracecat accepted a non-numeric --app" >&2
  exit 1
fi
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/overload.fglbcap" \
  --trace-out="${SMOKE_DIR}/overload-replay.jsonl"
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/overload.jsonl" \
         --phase=action) \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/overload-replay.jsonl" \
         --phase=action)
# A flag's value is parsed by its RunConfig row, so a count takes no
# decimal point; admission is on or off, with no tuning flags. Both
# are usage errors (exit 2).
for bad_flag in --servers=2.0 --admission-target=0.25; do
  status=0
  "./${PREFIX}/tools/fglb_sim" --scenario=overload --duration=10 \
    --log-level=quiet "${bad_flag}" >/dev/null 2>&1 || status=$?
  if [[ "${status}" -ne 2 ]]; then
    echo "fglb_sim ${bad_flag} exited ${status}, not 2" >&2
    exit 1
  fi
done

echo "=== MRC smoke: on-demand diagnosis + OPT regret ==="
# A run with the OPT oracle on must emit phase=mrc events whose class
# profiles carry regret_vs_opt, pass the schema check, and — because
# the mrc_opt_regret row rides in the FGLBCAP1 info block — replay to
# identical curves and diagnoses. dur_us is wall clock, so it is
# stripped before the mrc-phase diff; the action projection must match
# byte for byte as usual. (consolidation, not overload: overload sheds
# its way past the mrc phase.)
"./${PREFIX}/tools/fglb_sim" --scenario=consolidation --duration=600 \
  --log-level=quiet --mrc-opt-regret \
  --capture-out="${SMOKE_DIR}/mrc.fglbcap" \
  --trace-out="${SMOKE_DIR}/mrc.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/mrc.jsonl" --check
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/mrc.jsonl" --phase=mrc \
  | grep -q 'regret_vs_opt'
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/mrc.fglbcap" \
  --trace-out="${SMOKE_DIR}/mrc-replay.jsonl"
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/mrc.jsonl" \
         --phase=mrc | sed 's/"dur_us":[0-9.]*,//') \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/mrc-replay.jsonl" \
         --phase=mrc | sed 's/"dur_us":[0-9.]*,//')
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/mrc.jsonl" \
         --phase=action) \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/mrc-replay.jsonl" \
         --phase=action)

echo "=== spans smoke: sampled query timelines + replay byte-identity ==="
# A span-traced overload run (admission + shed paths exercise every
# segment family) must export valid Chrome trace_event JSON that the
# --spans summarizer accepts, and the span spec captured in FGLBCAP1
# must make the replayed run reproduce the span file byte for byte.
"./${PREFIX}/tools/fglb_sim" --scenario=overload --duration=420 \
  --log-level=quiet --span-sample=16 \
  --spans-out="${SMOKE_DIR}/spans.json" \
  --capture-out="${SMOKE_DIR}/spans.fglbcap" >/dev/null
test -s "${SMOKE_DIR}/spans.json"
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/spans.json" --spans \
  | grep -q '^end_to_end'
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/spans.json" --spans \
  | grep -q 'sampled query spans'
# Malformed span JSON must be rejected with a non-zero exit.
echo '[{"ph":"X"' > "${SMOKE_DIR}/broken-spans.json"
if "./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/broken-spans.json" \
  --spans 2>/dev/null; then
  echo "fglb_tracecat accepted malformed span JSON" >&2
  exit 1
fi
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/spans.fglbcap" \
  --spans-out="${SMOKE_DIR}/spans-replay.json"
cmp "${SMOKE_DIR}/spans.json" "${SMOKE_DIR}/spans-replay.json"

echo "=== tiered smoke: second tier, demote rung, replay byte-identity ==="
# A tier-thrash run must answer the squeeze with the demote rung
# instead of a migration, stamp tier fields on its phase=mrc events,
# count the demotes in the summary, and — because the tier2_* rows ride
# in the FGLBCAP1 info block — replay byte-identically (action projection
# exactly, mrc modulo the wall-clock dur_us field).
"./${PREFIX}/tools/fglb_sim" --scenario=tier-thrash --duration=450 \
  --log-level=quiet --capture-out="${SMOKE_DIR}/tier.fglbcap" \
  --trace-out="${SMOKE_DIR}/tier.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier.jsonl" --check
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier.jsonl" \
  --phase=action | grep -q '\[demote\]'
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier.jsonl" \
  --phase=mrc | grep -q '"tier2_pages"'
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier.jsonl" --summary \
  | grep -q 'demote'
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/tier.fglbcap" \
  --trace-out="${SMOKE_DIR}/tier-replay.jsonl"
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier.jsonl" \
         --phase=action) \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier-replay.jsonl" \
         --phase=action)
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier.jsonl" \
         --phase=mrc | sed 's/"dur_us":[0-9.]*,//') \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier-replay.jsonl" \
         --phase=mrc | sed 's/"dur_us":[0-9.]*,//')
# A class migrated off an engine gives up its tier-2 quota there: at
# 900 s, app=2/class=4 is demoted on replica-0 and then moved to
# replica-1, after which engine-0's tier dedicates no pages and the
# class's own DRAM and tier-2 gauges there read 0. (The 450 s run above
# demotes the class but never moves it.)
"./${PREFIX}/tools/fglb_sim" --scenario=tier-thrash --duration=900 \
  --log-level=quiet --output=actions-csv \
  --metrics-out="${SMOKE_DIR}/tier-moved.json" >"${SMOKE_DIR}/tier-moved.csv"
grep -q 'moved app=2/class=4' "${SMOKE_DIR}/tier-moved.csv"
grep -q '"engine.engine-0.tier.dedicated_pages":0' \
  "${SMOKE_DIR}/tier-moved.json"
grep -q '"engine.engine-0.bufferpool.class_2_4.capacity_pages":0' \
  "${SMOKE_DIR}/tier-moved.json"
grep -q '"engine.engine-0.tier.class_2_4.quota_pages":0' \
  "${SMOKE_DIR}/tier-moved.json"
# A tier read time that "%g" would round to 6 digits: the capture keeps
# every digit (its --summary prints the row as given), so the whole
# replayed trace matches, not only the action projection (wall-clock
# mono_us/dur_us stripped).
"./${PREFIX}/tools/fglb_sim" --scenario=tier-thrash --tier2-read-us=123.4567 \
  --duration=600 --log-level=quiet \
  --capture-out="${SMOKE_DIR}/tier-exact.fglbcap" \
  --trace-out="${SMOKE_DIR}/tier-exact.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/tier-exact.fglbcap" --summary \
  | grep -qx '    tier2_read_us=123.4567'
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/tier-exact.fglbcap" \
  --trace-out="${SMOKE_DIR}/tier-exact-replay.jsonl"
diff <(sed -E 's/,"(mono_us|dur_us)":[^,}]*//g' \
         "${SMOKE_DIR}/tier-exact.jsonl") \
     <(sed -E 's/,"(mono_us|dur_us)":[^,}]*//g' \
         "${SMOKE_DIR}/tier-exact-replay.jsonl")
# Same contract with the tier itself failing and degrading mid-run.
"./${PREFIX}/tools/fglb_sim" --scenario=tier-fail --duration=450 \
  --fault-seed=7 --log-level=quiet \
  --capture-out="${SMOKE_DIR}/tier-fail.fglbcap" \
  --trace-out="${SMOKE_DIR}/tier-fail.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier-fail.jsonl" --check
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/tier-fail.fglbcap" \
  --trace-out="${SMOKE_DIR}/tier-fail-replay.jsonl"
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/tier-fail.jsonl" \
         --phase=action) \
     <("./${PREFIX}/tools/fglb_tracecat" \
         "${SMOKE_DIR}/tier-fail-replay.jsonl" --phase=action)
# A partial/nonsensical tier-field set on a phase=mrc event must be
# rejected by --check with a non-zero exit.
printf '%s\n' \
  '{"v":1,"seq":0,"mono_us":1,"phase":"mrc","t":0,"tier2_pages":64,"tier2_resident":128,"tier2_read_us":100}' \
  > "${SMOKE_DIR}/broken-tier.jsonl"
if "./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/broken-tier.jsonl" \
  --check 2>/dev/null; then
  echo "fglb_tracecat accepted a malformed tier spec" >&2
  exit 1
fi

echo "=== survivability smoke: lossy stats channel + controller crash ==="
# chaos-net: reports cross a lossy transport. The trace must pass
# --check (which validates per-replica report_seq / stale_intervals
# continuity on the recovery events), surface report_lost counts in the
# summary, and — because the stats_guard row rides in the FGLBCAP1
# header — replay byte-identically: actions exactly, the full trace
# modulo the wall-clock mono_us/dur_us fields.
"./${PREFIX}/tools/fglb_sim" --scenario=chaos-net --duration=600 \
  --fault-seed=7 --log-level=quiet \
  --capture-out="${SMOKE_DIR}/net.fglbcap" \
  --trace-out="${SMOKE_DIR}/net.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/net.jsonl" --check
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/net.jsonl" --summary \
  | grep -q 'report_lost'
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/net.fglbcap" \
  --trace-out="${SMOKE_DIR}/net-replay.jsonl"
diff <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/net.jsonl" \
         --phase=action) \
     <("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/net-replay.jsonl" \
         --phase=action)
diff <(sed 's/"mono_us":[0-9]*,//; s/"dur_us":[0-9.]*,\?//' \
         "${SMOKE_DIR}/net.jsonl") \
     <(sed 's/"mono_us":[0-9]*,//; s/"dur_us":[0-9.]*,\?//' \
         "${SMOKE_DIR}/net-replay.jsonl")
# chaos-ctl: a controller crash + restart lands on top of the lossy
# window. The one restart must restore the latest controller checkpoint
# — exactly one why=restored recovery event — and --check must reject
# any other restart reason: the same trace with that event's why
# rewritten to bad_ckpt fails it. The whole run (crash, restore,
# everything after) must replay byte for byte.
"./${PREFIX}/tools/fglb_sim" --scenario=chaos-ctl --duration=600 \
  --fault-seed=7 --log-level=quiet \
  --capture-out="${SMOKE_DIR}/ctl.fglbcap" \
  --trace-out="${SMOKE_DIR}/ctl.jsonl" >/dev/null
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/ctl.jsonl" --check
restored="$("./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/ctl.jsonl" \
  --phase=recovery | grep -c '"why":"restored"' || true)"
if [[ "${restored}" -ne 1 ]]; then
  echo "chaos-ctl restored ${restored} times, not once" >&2
  exit 1
fi
sed 's/"why":"restored"/"why":"bad_ckpt"/' "${SMOKE_DIR}/ctl.jsonl" \
  >"${SMOKE_DIR}/ctl-bad-ckpt.jsonl"
status=0
"./${PREFIX}/tools/fglb_tracecat" "${SMOKE_DIR}/ctl-bad-ckpt.jsonl" \
  --check 2>"${SMOKE_DIR}/ctl-bad-ckpt.err" || status=$?
if [[ "${status}" -eq 0 ]] ||
  ! grep -q 'unknown recovery why: bad_ckpt' "${SMOKE_DIR}/ctl-bad-ckpt.err"; then
  echo "fglb_tracecat --check accepted a bad_ckpt restart" >&2
  exit 1
fi
"./${PREFIX}/tools/fglb_replay" "${SMOKE_DIR}/ctl.fglbcap" \
  --trace-out="${SMOKE_DIR}/ctl-replay.jsonl"
diff <(sed 's/"mono_us":[0-9]*,//; s/"dur_us":[0-9.]*,\?//' \
         "${SMOKE_DIR}/ctl.jsonl") \
     <(sed 's/"mono_us":[0-9]*,//; s/"dur_us":[0-9.]*,\?//' \
         "${SMOKE_DIR}/ctl-replay.jsonl")
# The recovery bench enforces its own shape: exits non-zero if guarded
# recovery drifts past 1.5x lossless or the unguarded arm stops
# flapping.
cmake --build "${PREFIX}" -j "${JOBS}" --target bench_recovery
"./${PREFIX}/bench/bench_recovery" "${SMOKE_DIR}/recovery.json" >/dev/null
grep -q '"flap_ratio_unguarded"' "${SMOKE_DIR}/recovery.json"

echo "=== DES kernel smoke: calendar queue ==="
# Small event budgets (no throughput gate at this size): the run must
# finish and the JSON must carry every row and headline field the full
# bench writes.
cmake --build "${PREFIX}" -j "${JOBS}" --target bench_des_kernel
"./${PREFIX}/bench/bench_des_kernel" "${SMOKE_DIR}/des.json" smoke
for field in '"hold_calendar"' '"overload_3x_calendar"' '"overload_100x"' \
    '"events_per_sec_calendar"' '"accesses_per_sec"' \
    '"completions_per_sec"' '"speedup_vs_overload_baseline"' \
    '"sim_wall_ratio_100x"'; do
  grep -q "${field}" "${SMOKE_DIR}/des.json"
done

echo "=== hot path smoke: Zipf table draws and LRU replay ==="
# Small inputs, no timing gate: the bench exits non-zero unless the
# Zipf table draws the exact generator's ranks and every LRU replay
# sees the same hits, and the JSON must carry every row and field the
# full bench writes.
cmake --build "${PREFIX}" -j "${JOBS}" --target bench_hot_path
"./${PREFIX}/bench/bench_hot_path" "${SMOKE_DIR}/hot_path.json" smoke
for field in '"build_type"' '"compiler"' '"zipf_draw_table"' \
    '"zipf_draw_exact"' '"lru_access_8192"' '"zipf_table_speedup"' \
    '"lru_hit_ratio"'; do
  grep -q "${field}" "${SMOKE_DIR}/hot_path.json"
done

echo "=== end-to-end benchmark: compile only ==="
# bench/e2e is a CMake project of its own that builds the tree's
# sources; compile its binaries so an API change the benchmark calls
# fails here rather than at benchmark time. Nothing under bench/e2e is
# run or written.
cmake -S bench/e2e -B "${PREFIX}-e2e" >/dev/null
cmake --build "${PREFIX}-e2e" -j "${JOBS}" \
  --target fglb_e2e fglb_sim_cli fglb_tracecat

echo "=== ASan+UBSan build + admission/overload and data-plane tests ==="
# The slot-threaded LRU and its probe table, the Zipf and scramble
# tables and the slice-by-8 CRC are index arithmetic: their
# differential tests run here too, as do the run-config, k=v and fault
# spec parsers that decode capture files, the seeded fuzz cases of
# those parsers and of the JSON trace reader and --check, the fault
# injector's firing and reverting of every kind, the controller
# checkpoint's restore rules and the control-state gate properties.
cmake -B "${PREFIX}-asan" -S . -DFGLB_SANITIZE=address-undefined >/dev/null
cmake --build "${PREFIX}-asan" -j "${JOBS}" \
  --target admission_test scheduler_consistency_test failure_injection_test \
  sim_determinism_test scale_replay_test span_tracer_test \
  mrc_replay_test opt_oracle_test arc_buffer_pool_test \
  tiered_buffer_pool_test tiered_replay_test fglb_sim_cli \
  fglb_tracecat stats_channel_test controller_checkpoint_test \
  recovery_test replay_codec_test storage_test workload_test \
  common_random_test run_config_test retuner_property_test \
  fault_injector_test trace_log_test
ASAN_TESTS='Admission|Scheduler|FailureInjection|SimDeterminism|ScaleReplay|SpanTracer|MrcReplay|OptOracle|OptForward|OptDominance|RegretVsOpt|ArcBufferPool|ReplacementPolicy|TieredBufferPool|TieredReplay|QuotaPlannerTiered|MissRatioCurveTier|StatsChannel|ControllerCheckpoint|RecoveryTest|ReplayCodec|TraceTest|TraceCheck|BufferPool|PartitionedPool|AccessGenerator|Zipf|Scramble|Crc|KvSpec|SpecGrammar|SpecRoundTrip|RunConfig|CliFlag|RetunerProperty|FaultSpec|FaultInjector'
require_every_alternative "${PREFIX}-asan" "${ASAN_TESTS}"
ctest --test-dir "${PREFIX}-asan" --output-on-failure -j "${JOBS}" \
  -R "${ASAN_TESTS}"
"./${PREFIX}-asan/tools/fglb_sim" --scenario=overload --duration=180 \
  --log-level=quiet --trace-out="${SMOKE_DIR}/overload-asan.jsonl" >/dev/null
"./${PREFIX}-asan/tools/fglb_tracecat" "${SMOKE_DIR}/overload-asan.jsonl" \
  --check

echo "=== TSan build + concurrency tests ==="
cmake -B "${PREFIX}-tsan" -S . -DFGLB_SANITIZE=thread >/dev/null
cmake --build "${PREFIX}-tsan" -j "${JOBS}" \
  --target mrc_pipeline_test log_analyzer_test selective_retuner_test \
  metrics_registry_test trace_log_test observability_integration_test \
  span_tracer_test fault_injector_test chaos_soak_test replay_codec_test \
  replay_test sim_determinism_test scale_replay_test \
  mrc_replay_test opt_oracle_test tiered_replay_test \
  stats_channel_test controller_checkpoint_test recovery_test
TSAN_TESTS='ThreadPool|ParallelDiagnosis|LogAnalyzer|SelectiveRetuner|MetricsRegistry|MaxGauge|LatencyHistogram|TraceLog|Observability|SpanTracer|FaultSpec|FaultInjector|Chaos|ReplayCodec|ReplayTest|SimDeterminism|ScaleReplay|MrcReplay|OptOracle|OptForward|OptDominance|RegretVsOpt|TieredReplay|StatsChannel|ControllerCheckpoint|RecoveryTest'
require_every_alternative "${PREFIX}-tsan" "${TSAN_TESTS}"
ctest --test-dir "${PREFIX}-tsan" --output-on-failure -j "${JOBS}" \
  -R "${TSAN_TESTS}"

echo "CI OK"
