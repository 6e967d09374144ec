#!/usr/bin/env bash
# Byte-identity harness: run one binary under several environment settings
# and require every output to match the first run's.
#
# Usage: tools/identity_matrix.sh [-j VAR]... [-H] [-o DIR] BINARY SETTING...
#
#   SETTING  space-separated VAR=VALUE assignments added to the ambient
#            environment for one run, e.g. "RTAD_SCHED=dense RTAD_JOBS=1".
#            "" runs with the ambient environment alone (knobs unset).
#   -j VAR   the binary writes a JSON artifact to the path in $VAR. Each run
#            gets its own path, and each artifact is compared against the
#            first run's. A setting that assigns VAR itself opts that run out
#            of the artifact comparison (e.g. "RTAD_METRICS=" for an
#            export-off reference run whose stdout must still match).
#   -H       drop the top-level "host" object (host wall-clock timings)
#            from every JSON artifact before comparing.
#   -o DIR   keep the outputs in DIR (default: a temporary directory that is
#            removed on exit). Run N leaves N.txt (stdout), N.err (stderr)
#            and N.VAR.json per artifact.
#
# Every run must exit 0. On the first mismatch the script names both runs
# and their settings, shows the diff, and exits 1.
set -euo pipefail

usage() {
  sed -n '5,22s/^# \{0,1\}//p' "$0" >&2
  exit 2
}

json_vars=()
strip_host=0
out_dir=""
while getopts "j:Ho:" opt; do
  case "${opt}" in
    j) json_vars+=("${OPTARG}") ;;
    H) strip_host=1 ;;
    o) out_dir="${OPTARG}" ;;
    *) usage ;;
  esac
done
shift $((OPTIND - 1))
[ $# -ge 3 ] || usage
binary="$1"
shift
settings=("$@")

if [ -z "${out_dir}" ]; then
  out_dir="$(mktemp -d)"
  trap 'rm -rf "${out_dir}"' EXIT
fi
mkdir -p "${out_dir}"

name="$(basename "${binary}")"
fail() {
  echo "identity_matrix: ${name}: $*" >&2
  exit 1
}

# assigns <setting> <var>: whether the setting sets <var> itself.
assigns() {
  local word
  for word in $1; do
    [ "${word%%=*}" = "$2" ] && return 0
  done
  return 1
}

# normalize <json>: the document to compare, host section dropped if -H.
normalize() {
  if [ "${strip_host}" -eq 1 ]; then
    python3 - "$1" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
doc.pop('host', None)
json.dump(doc, sys.stdout, indent=1)
EOF
  else
    cat "$1"
  fi
}

label() { echo "run $1 (${settings[$(($1 - 1))]:-ambient environment})"; }

# same <what> <ref-run> <run> <ref-file> <file>: compare two outputs,
# naming the pair of runs on mismatch.
same() {
  if ! cmp -s "$4" "$5"; then
    diff "$4" "$5" | head -20 >&2 || true
    fail "$1 of $(label "$3") differs from $(label "$2")"
  fi
}

declare -A ref_json=()
for i in "${!settings[@]}"; do
  run=$((i + 1))
  setting="${settings[$i]}"
  for word in ${setting}; do
    [[ "${word}" =~ ^[A-Za-z_][A-Za-z0-9_]*= ]] ||
      fail "setting '${setting}': '${word}' is not VAR=VALUE"
  done
  assignments=()
  for var in "${json_vars[@]}"; do
    assignments+=("${var}=${out_dir}/${run}.${var}.json")
  done
  echo "identity_matrix: ${name}: $(label "${run}")" >&2
  status=0
  # shellcheck disable=SC2086  # settings are word lists by design
  env "${assignments[@]}" ${setting} "${binary}" \
    > "${out_dir}/${run}.txt" 2> "${out_dir}/${run}.err" || status=$?
  if [ "${status}" -ne 0 ]; then
    tail -20 "${out_dir}/${run}.err" >&2
    fail "$(label "${run}") exited with status ${status}"
  fi

  same stdout 1 "${run}" "${out_dir}/1.txt" "${out_dir}/${run}.txt"
  for var in "${json_vars[@]}"; do
    assigns "${setting}" "${var}" && continue
    artifact="${out_dir}/${run}.${var}.json"
    [ -f "${artifact}" ] || fail "$(label "${run}") wrote no \$${var} artifact"
    normalize "${artifact}" > "${artifact}.cmp"
    ref="${ref_json[${var}]:=${run}}"
    same "\$${var} artifact" "${ref}" "${run}" \
      "${out_dir}/${ref}.${var}.json.cmp" "${artifact}.cmp"
  done
done
echo "identity_matrix: ${name}: ${#settings[@]} runs identical" >&2
