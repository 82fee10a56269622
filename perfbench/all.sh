#!/usr/bin/env bash
# Runs every workload of the benchmark, untraced and then traced, passing
# the remaining arguments through (for example --seed 2 --seconds 20).
set -euo pipefail
cd "$(dirname "$0")/.."
for w in cert-sharded-replace load-sharded cert-serial-open; do
	for t in 0 1; do
		echo "== $w --trace $t"
		bash perfbench/run.sh --workload "$w" --trace "$t" "$@"
	done
done
