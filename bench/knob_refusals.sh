#!/usr/bin/env bash
# Each env-driven bench must refuse a bad RTAD_BENCH_* setting up front:
# exit status 2 and a one-line error naming the variable, with nothing else
# printed (the refusal comes before any model trains or any table prints).
#
# Usage: bench/knob_refusals.sh <dir holding the bench binaries>
dir="${1:?usage: knob_refusals.sh <bench-dir>}"
failed=0
while read -r bench setting; do
  out="$(env "${setting}" "${dir}/${bench}" 2>&1)"
  status=$?
  if [ "${status}" -ne 2 ] || [[ "${out}" != *"${setting%%=*}"* ]] ||
     [ "$(wc -l <<< "${out}")" -ne 1 ]; then
    printf 'FAIL %s %s: status %s\n%s\n' "${bench}" "${setting}" "${status}" "${out}" >&2
    failed=1
  fi
done <<'CASES'
fig8_detection RTAD_BENCH_ATTACKS=x
fault_sweep RTAD_BENCH_RATES=0,0.5
serve_throughput RTAD_BENCH_LOADS=6x
serve_failover RTAD_BENCH_BENCHMARKS=astar,gcc
ensemble_drift RTAD_BENCH_ATACKS=2
telemetry_query RTAD_BENCH_SAMPLES=0
CASES
exit "${failed}"
