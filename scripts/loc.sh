#!/usr/bin/env bash
# Prints the two Rust line counts ROADMAP tracks:
#   total       every tracked .rs file outside third_party/;
#   production  the same less tests/ directories, perfbench/, examples/
#               and benches/, each file counted up to its first
#               `#[cfg(test)]` line (inline unit-test modules sit last).
#
#   scripts/loc.sh
set -euo pipefail

cd "$(dirname "$0")/.."

rs() { git ls-files '*.rs' | grep -v '^third_party/'; }

total=$(rs | xargs cat | wc -l)
production=$(rs | grep -v -E '(^|/)tests/|^perfbench/|^examples/|(^|/)benches/' \
    | xargs awk 'FNR==1{stop=0} /^#\[cfg\(test\)\]/{stop=1} !stop{n++} END{print n}')

echo "total       $total"
echo "production  $production"
