#!/usr/bin/env bash
# Perf smoke, two gates on the fig8 detection workload:
#
#   1. Scheduler: the event-driven kernel must produce byte-identical
#      stdout to the dense reference and actually be faster.
#   2. Backend: the fast (decode-once) execution backend must produce
#      byte-identical stdout and rtad.metrics.v2 JSON, and simulate the
#      cell's trained kernels >= PERF_SMOKE_MIN_BACKEND_SPEEDUP x faster
#      than the cycle-level oracle (the backend_probe measures kernel
#      simulation in isolation — inside the matrix, launch wall-clock also
#      covers the concurrently simulated CPU/fabric domains, which no GPU
#      backend can remove; the end-to-end matrix walls are recorded too).
#   3. Trace protocol: the E-Trace frontend must flag the identical
#      attack/detection/false-positive counts as the PFT reference on the
#      same cell (encodings differ; verdicts must not).
#
# Emits BENCH_fig8.json with wall-clock numbers for all four runs, the
# event kernel's skip counters, the backend probe, and the measured
# per-protocol encoder bandwidth (bytes per decoded branch).
#
# The speedups are computed on fig8's matrix_wall_ms (the detection matrix
# itself): with RTAD_BENCH_FAST_TRAIN the bench pre-warms the model cache
# before the matrix, so model training — identical host-side work under
# every kernel/backend — stays out of the timed region. Total process
# walls are still recorded in the JSON for context.
#
# Usage: tools/perf_smoke.sh <build-dir> [output-json]
# Knobs (defaults chosen for CI): RTAD_BENCH_BENCHMARKS, RTAD_BENCH_MODELS,
# RTAD_BENCH_ENGINES, RTAD_BENCH_ATTACKS, PERF_SMOKE_MIN_SPEEDUP (default
# 2.0), PERF_SMOKE_MIN_BACKEND_SPEEDUP (default 10.0),
# PERF_SMOKE_BACKEND_PROBE (default 300 probe inferences).
#
# The default cell selection (hmmer, LSTM/MIAOW) is the workload the event
# kernel is built for: long 1-CU inferences during which the CPU and fabric
# domains are provably idle. The other cells are excluded from the timing
# by default — their wall-clock is dominated by genuine GPU instruction
# simulation (5 CUs, or ELM's near-continuous short inferences) that no
# scheduler can skip, which only dilutes the kernel-vs-kernel comparison.
# Full-matrix dense-vs-event identity is covered by the determinism test
# suite; this script asserts identity on its own cell too.
set -euo pipefail

BUILD_DIR="${1:?usage: perf_smoke.sh <build-dir> [output-json]}"
OUT_JSON="${2:-BENCH_fig8.json}"
BENCH="${BUILD_DIR}/bench/fig8_detection"
MIN_SPEEDUP="${PERF_SMOKE_MIN_SPEEDUP:-2.0}"
MIN_BACKEND_SPEEDUP="${PERF_SMOKE_MIN_BACKEND_SPEEDUP:-10.0}"
BACKEND_PROBE="${PERF_SMOKE_BACKEND_PROBE:-300}"

export RTAD_BENCH_BENCHMARKS="${RTAD_BENCH_BENCHMARKS:-hmmer}"
export RTAD_BENCH_MODELS="${RTAD_BENCH_MODELS:-lstm}"
export RTAD_BENCH_ENGINES="${RTAD_BENCH_ENGINES:-miaow}"
export RTAD_BENCH_ATTACKS="${RTAD_BENCH_ATTACKS:-8}"
export RTAD_BENCH_FAST_TRAIN="${RTAD_BENCH_FAST_TRAIN:-1}"
export RTAD_JOBS=1

workdir="$(mktemp -d)"
trap 'rm -rf "${workdir}"' EXIT

# run_mode <sched> <backend> <tag> [probe]: one fig8 run; echoes wall ms.
run_mode() {
  local sched="$1" backend="$2" tag="$3" probe="${4:-0}"
  local start end
  start=$(date +%s%N)
  RTAD_SCHED="${sched}" RTAD_BACKEND="${backend}" \
    RTAD_BENCH_BACKEND_PROBE="${probe}" \
    RTAD_METRICS="${workdir}/metrics-${tag}.json" \
    "${BENCH}" > "${workdir}/${tag}.txt" 2> "${workdir}/${tag}.err"
  end=$(date +%s%N)
  echo $(( (end - start) / 1000000 ))
}

matrix_ms() {
  sed -n 's/^fig8: matrix_wall_ms=\([0-9]*\)$/\1/p' "${workdir}/$1.err"
}

echo "perf_smoke: benchmarks=${RTAD_BENCH_BENCHMARKS} models=${RTAD_BENCH_MODELS} engines=${RTAD_BENCH_ENGINES} attacks=${RTAD_BENCH_ATTACKS} fast_train=${RTAD_BENCH_FAST_TRAIN}" >&2
dense_ms=$(run_mode dense cycle dense)
event_ms=$(run_mode event cycle event)
fast_ms=$(run_mode event fast fast "${BACKEND_PROBE}")
export RTAD_TRACE_PROTO=etrace
etrace_ms=$(run_mode event fast etrace)
unset RTAD_TRACE_PROTO

# Byte-identity: neither the event kernel nor the fast backend may change
# a single byte of stdout or of the rtad.metrics.v2 export.
for tag in event fast; do
  if ! cmp -s "${workdir}/dense.txt" "${workdir}/${tag}.txt"; then
    echo "perf_smoke: FAIL — stdout differs between dense/cycle and ${tag}" >&2
    diff "${workdir}/dense.txt" "${workdir}/${tag}.txt" >&2 || true
    exit 1
  fi
  if ! cmp -s "${workdir}/metrics-dense.json" "${workdir}/metrics-${tag}.json"; then
    echo "perf_smoke: FAIL — metrics JSON differs between dense/cycle and ${tag}" >&2
    diff "${workdir}/metrics-dense.json" "${workdir}/metrics-${tag}.json" >&2 || true
    exit 1
  fi
done

# Cross-protocol verdict identity: the detection section of the metrics
# export (attacks, detections, false positives) must match line-for-line
# between the PFT and E-Trace runs — same formatting, so a plain textual
# compare of the extracted lines is exact.
for key in '"attacks"' '"detections"' '"false_positives"'; do
  pft_line=$(grep -m1 "${key}" "${workdir}/metrics-fast.json")
  etrace_line=$(grep -m1 "${key}" "${workdir}/metrics-etrace.json")
  if [ "${pft_line}" != "${etrace_line}" ]; then
    echo "perf_smoke: FAIL — ${key} differs between pft and etrace" >&2
    echo "  pft:    ${pft_line}" >&2
    echo "  etrace: ${etrace_line}" >&2
    exit 1
  fi
done

# Per-protocol encoder bandwidth, from the fig8 proto stderr lines.
pft_bpb=$(sed -n 's/^fig8: proto=pft .*bytes_per_branch=\([0-9.]*\).*/\1/p' "${workdir}/fast.err")
etrace_bpb=$(sed -n 's/^fig8: proto=etrace .*bytes_per_branch=\([0-9.]*\).*/\1/p' "${workdir}/etrace.err")
if [ -z "${pft_bpb}" ] || [ -z "${etrace_bpb}" ]; then
  echo "perf_smoke: FAIL — missing fig8 proto bandwidth lines" >&2
  cat "${workdir}/etrace.err" >&2
  exit 1
fi

dense_matrix_ms=$(matrix_ms dense)
event_matrix_ms=$(matrix_ms event)
fast_matrix_ms=$(matrix_ms fast)
etrace_matrix_ms=$(matrix_ms etrace)
if [ -z "${dense_matrix_ms}" ] || [ -z "${event_matrix_ms}" ] ||
   [ -z "${fast_matrix_ms}" ] || [ -z "${etrace_matrix_ms}" ]; then
  echo "perf_smoke: FAIL — bench did not report matrix_wall_ms" >&2
  cat "${workdir}/event.err" >&2
  exit 1
fi

sched_line=$(grep -E '^fig8: scheduler=event' "${workdir}/event.err" || true)
skipped_groups=$(echo "${sched_line}" | sed -n 's/.*skipped_edge_groups=\([0-9]*\).*/\1/p')
skipped_cycles=$(echo "${sched_line}" | sed -n 's/.*skipped_cycles=\([0-9]*\).*/\1/p')
if [ -z "${skipped_groups}" ] || [ "${skipped_groups}" -eq 0 ]; then
  echo "perf_smoke: FAIL — event kernel reported no skipped edge groups" >&2
  cat "${workdir}/event.err" >&2
  exit 1
fi

# Backend probe: kernel-simulation speedup, and proof the fast path ran
# (fast_launches=0 would mean every launch silently fell back to cycle).
probe_line=$(grep -E '^fig8: backend_probe' "${workdir}/fast.err" || true)
backend_speedup=$(echo "${probe_line}" | sed -n 's/.*kernel_speedup=\([0-9.]*\).*/\1/p')
probe_cycle_us=$(echo "${probe_line}" | sed -n 's/.*cycle_wall_us=\([0-9]*\).*/\1/p')
probe_fast_us=$(echo "${probe_line}" | sed -n 's/.*fast_wall_us=\([0-9]*\).*/\1/p')
fast_launches=$(sed -n 's/^fig8: backend=fast .*fast_launches=\([0-9]*\)$/\1/p' "${workdir}/fast.err")
if [ -z "${backend_speedup}" ] || [ -z "${fast_launches}" ]; then
  echo "perf_smoke: FAIL — fast run did not report backend_probe/backend lines" >&2
  cat "${workdir}/fast.err" >&2
  exit 1
fi
if [ "${fast_launches}" -eq 0 ]; then
  echo "perf_smoke: FAIL — fast backend fell back to cycle on every launch" >&2
  exit 1
fi

speedup=$(awk -v d="${dense_matrix_ms}" -v e="${event_matrix_ms}" \
  'BEGIN { printf "%.2f", (e > 0 ? d / e : 0) }')
fast_matrix_speedup=$(awk -v d="${dense_matrix_ms}" -v f="${fast_matrix_ms}" \
  'BEGIN { printf "%.2f", (f > 0 ? d / f : 0) }')

cat > "${OUT_JSON}" <<JSON
{
  "benchmark": "fig8_detection",
  "benchmarks": "${RTAD_BENCH_BENCHMARKS}",
  "models": "${RTAD_BENCH_MODELS}",
  "engines": "${RTAD_BENCH_ENGINES}",
  "attacks_per_cell": ${RTAD_BENCH_ATTACKS},
  "fast_train": ${RTAD_BENCH_FAST_TRAIN},
  "backend": "fast",
  "dense_wall_ms": ${dense_ms},
  "event_wall_ms": ${event_ms},
  "fast_wall_ms": ${fast_ms},
  "dense_matrix_wall_ms": ${dense_matrix_ms},
  "event_matrix_wall_ms": ${event_matrix_ms},
  "fast_matrix_wall_ms": ${fast_matrix_ms},
  "speedup": ${speedup},
  "fast_matrix_speedup": ${fast_matrix_speedup},
  "backend_kernel_speedup": ${backend_speedup},
  "backend_probe_inferences": ${BACKEND_PROBE},
  "backend_probe_cycle_wall_us": ${probe_cycle_us},
  "backend_probe_fast_wall_us": ${probe_fast_us},
  "fast_launches": ${fast_launches},
  "etrace_wall_ms": ${etrace_ms},
  "etrace_matrix_wall_ms": ${etrace_matrix_ms},
  "trace_pft_bytes_per_branch": ${pft_bpb},
  "trace_etrace_bytes_per_branch": ${etrace_bpb},
  "etrace_flags_identical": true,
  "stdout_identical": true,
  "metrics_identical": true,
  "event_skipped_edge_groups": ${skipped_groups},
  "event_skipped_cycles": ${skipped_cycles}
}
JSON

echo "perf_smoke: matrix dense=${dense_matrix_ms}ms event=${event_matrix_ms}ms fast=${fast_matrix_ms}ms sched_speedup=${speedup}x backend_kernel_speedup=${backend_speedup}x (min ${MIN_SPEEDUP}x/${MIN_BACKEND_SPEEDUP}x)" >&2
cat "${OUT_JSON}"

awk -v s="${speedup}" -v m="${MIN_SPEEDUP}" 'BEGIN { exit !(s >= m) }' || {
  echo "perf_smoke: FAIL — scheduler speedup ${speedup}x below minimum ${MIN_SPEEDUP}x" >&2
  exit 1
}
awk -v s="${backend_speedup}" -v m="${MIN_BACKEND_SPEEDUP}" 'BEGIN { exit !(s >= m) }' || {
  echo "perf_smoke: FAIL — backend kernel speedup ${backend_speedup}x below minimum ${MIN_BACKEND_SPEEDUP}x" >&2
  exit 1
}
