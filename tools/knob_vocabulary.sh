#!/usr/bin/env bash
# Knob vocabulary drift check. Fails, naming each offender, when
#   * an "RTAD_*" string literal in the C++ under src/ or bench/ is not a
#     name of the bench front-end's vocabulary (kVocabulary in
#     bench/frontend.hpp), so the typo guard would refuse a knob the
#     program reads, or
#   * README's knob table (the rows starting "| `RTAD_") does not hold
#     exactly one row per vocabulary name.
#
# Usage: tools/knob_vocabulary.sh [repo-root]   (default: this script's repo)
export LC_ALL=C  # one collation for sort and comm
root="${1:-$(dirname "$0")/..}"
names() { grep -oE 'RTAD_[A-Z0-9_]+' | sort; }

vocab="$(sed -n '/kVocabulary{/,/^};/p' "${root}/bench/frontend.hpp" |
         grep -oE '"RTAD_[A-Z0-9_]+"' | names)"
literals="$(grep -rhoE --include='*.cpp' --include='*.hpp' \
              '"RTAD_[A-Z0-9_]+"' "${root}/src" "${root}/bench" | names |
            uniq)"
rows="$(grep -oE '^\| `RTAD_[A-Z0-9_]+`' "${root}/README.md" | names)"

failed=0
report() {
  for name in $2; do
    echo "knob_vocabulary: ${name}: $1" >&2
    failed=1
  done
}
[ -n "${vocab}" ] || report "no kVocabulary found in bench/frontend.hpp" "?"
report "read in src/ or bench/ but not in kVocabulary" \
  "$(comm -23 <(echo "${literals}") <(echo "${vocab}"))"
report "in kVocabulary but not in README's knob table" \
  "$(comm -23 <(echo "${vocab}") <(echo "${rows}"))"
report "in README's knob table but not in kVocabulary" \
  "$(comm -13 <(echo "${vocab}") <(echo "${rows}") | uniq)"
report "more than one README knob-table row" "$(uniq -d <<< "${rows}")"
exit "${failed}"
