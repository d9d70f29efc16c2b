#!/usr/bin/env bash
# Regenerates the golden regression corpus under tests/data/.
#
# The corpus pins the exact JSON documents (modulo wall-clock fields,
# normalized to 0) that msoc_plan produces, in the one v5 schema of
# each document, for:
#   * the d695m frontier across the paper's width ladder;
#   * a narrowed d695m sweep (3 widths x 3 weights);
#   * a power-constrained frontier over the committed
#     tests/data/d695m_power.soc fixture (3 budgets x 2 widths);
#   * the stdout of bench/table3_test_time and bench/table4_cost_optimizer
#     (the paper's Tables 3 and 4 on p93791m), which carry no timings.
# Every field except wall_ms is deterministic for every --jobs value,
# so a golden mismatch means behaviour changed, not scheduling noise.
#
# Run after an intentional behaviour change, then commit the diff:
#   tools/regen_golden.sh [build_dir]
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="${1:-$root/build}"
plan="$build/tools/msoc_plan"
data="$root/tests/data"

for binary in "$plan" "$build/bench/table3_test_time" \
    "$build/bench/table4_cost_optimizer"; do
  if [[ ! -x "$binary" ]]; then
    echo "error: $binary not built (pass the build dir as \$1?)" >&2
    exit 1
  fi
done

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

normalize() {
  sed -E 's/"(total_)?wall_ms": -?[0-9.eE+-]+/"\1wall_ms": 0/g' "$1" > "$2"
}

"$plan" --frontier --bench d695m --json "$tmp/frontier.json" > /dev/null
normalize "$tmp/frontier.json" "$data/d695m_frontier_golden.json"

"$plan" --sweep --bench d695m --widths 16,32,64 \
  --json "$tmp/sweep.json" > /dev/null
normalize "$tmp/sweep.json" "$data/d695m_sweep_golden.json"

"$plan" --frontier --soc "$data/d695m_power.soc" --widths 16,32 \
  --max-power 0,400,250 --json "$tmp/power.json" > /dev/null
normalize "$tmp/power.json" "$data/d695m_power_frontier_golden.json"

"$build/bench/table3_test_time" > "$data/table3_p93791m.txt"
"$build/bench/table4_cost_optimizer" > "$data/table4_p93791m.txt"

echo "golden corpus regenerated under $data"
