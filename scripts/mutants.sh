#!/usr/bin/env bash
# Mutation check of the gates: plants each defect listed in
# scripts/mutants.txt in a scratch copy of the repository and requires the
# named test to fail. Prints one line per mutant and exits non-zero if any
# survived (its test still passed) or is broken (could not be applied, or
# the mutated copy does not build, so no test could catch it).
#
#   scripts/mutants.sh
#
# The copy lives in a temporary directory with its own cargo target, which
# later mutants reuse incrementally; the working tree is never touched.
set -euo pipefail

cd "$(dirname "$0")/.."
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

git ls-files -z --cached --others --exclude-standard | xargs -0 cp --parents -t "$WORK"
export CARGO_TARGET_DIR="$WORK/target"

killed=0
survived=0
broken=0
while IFS= read -r row; do
    case "$row" in '' | '#'*) continue ;; esac
    file=${row%% | *}
    rest=${row#* | }
    pattern=${rest%% | *}
    rest=${rest#* | }
    replacement=${rest%% | *}
    test_args=${rest#* | }
    name="$file: $pattern"
    cp "$WORK/$file" "$WORK/$file.orig"
    if ! python3 - "$WORK/$file" "$pattern" "$replacement" <<'PY'; then
import sys
path, pattern, replacement = sys.argv[1:]
pattern = pattern.replace("\\n", "\n")
replacement = replacement.replace("\\n", "\n")
text = open(path).read()
if text.count(pattern) != 1:
    sys.exit(f"pattern occurs {text.count(pattern)} times")
open(path, "w").write(text.replace(pattern, replacement))
PY
        echo "BROKEN    $name"
        broken=$((broken + 1))
        rm "$WORK/$file.orig"
        continue
    fi
    # shellcheck disable=SC2086 # test_args is a list of cargo arguments
    if ! (cd "$WORK" && cargo test -q --no-run $test_args > "$WORK/log" 2>&1); then
        echo "BROKEN    $name  (does not build)"
        broken=$((broken + 1))
    # shellcheck disable=SC2086
    elif (cd "$WORK" && cargo test -q $test_args > "$WORK/log" 2>&1); then
        echo "SURVIVED  $name  (cargo test $test_args)"
        survived=$((survived + 1))
    else
        echo "killed    $name"
        killed=$((killed + 1))
    fi
    mv "$WORK/$file.orig" "$WORK/$file"
done < scripts/mutants.txt

echo "mutants: $killed killed, $survived survived, $broken broken"
[ "$survived" -eq 0 ] && [ "$broken" -eq 0 ]
