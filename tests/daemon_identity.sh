#!/usr/bin/env bash
# Daemon identity: msoc_pland replies must be byte-identical (wall-clock
# normalized) to standalone msoc_plan output, the --json document and
# the --csv table alike, for every planning op.  Each request goes to
# the daemon twice, so the second reply comes from the response memo.
#
# Usage: daemon_identity.sh MSOC_PLAN MSOC_PLAND DATA_DIR WORK_DIR
set -euo pipefail

plan=$1
pland=$2
data=$3
tmp=$4
rm -rf "$tmp" && mkdir -p "$tmp"
sock="$tmp/pland.sock"

"$pland" --socket "$sock" --threads 4 > "$tmp/daemon.log" 2>&1 &
daemon=$!
trap 'kill $daemon 2>/dev/null || true' EXIT
for _ in $(seq 1 100); do
  "$plan" --daemon "$sock" --ping > /dev/null 2>&1 && break
  sleep 0.1
done
"$plan" --daemon "$sock" --ping > /dev/null

normalize_json() {
  sed -E 's/"(total_)?wall_ms": -?[0-9.eE+-]+/"\1wall_ms": 0/g' "$1"
}
# Result tables carry wall_ms as the column before the last (error);
# a plan's schedule CSV has no wall-clock column.
normalize_csv() {
  if head -1 "$1" | grep -q ',wall_ms,error$'; then
    sed -E 's/,[-0-9.eE+]+,("[^"]*"|[^,"]*)$/,0,\1/' "$1"
  else
    cat "$1"
  fi
}

status=0
# check NAME FLAGS...: one standalone run against two daemon replies.
check() {
  local name=$1
  shift
  "$plan" "$@" --json "$tmp/local.json" --csv "$tmp/local.csv" > /dev/null
  for round in cold warm; do
    "$plan" --daemon "$sock" "$@" \
      --json "$tmp/daemon.json" --csv "$tmp/daemon.csv" > /dev/null
    for ext in json csv; do
      if ! diff -u <("normalize_$ext" "$tmp/local.$ext") \
                   <("normalize_$ext" "$tmp/daemon.$ext"); then
        echo "daemon mismatch: $name $ext ($round)"
        status=1
      fi
    done
  done
}

for bench in d695m p93791m; do
  for mode in frontier sweep; do
    check "$bench $mode" "--$mode" --bench "$bench" --widths 16,32
  done
  check "$bench plan" --bench "$bench" --width 16
done
powered=(--soc "$data/d695m_power.soc" --power-window 4096:400
         --exhaustive --epsilon 0.05)
check "powered frontier" --frontier "${powered[@]}" \
  --widths 16,32 --max-power 0,400
check "powered sweep" --sweep "${powered[@]}" --width 32 --max-power 400
check "powered plan" "${powered[@]}" --width 32 --max-power 400

"$plan" --daemon "$sock" --shutdown
wait "$daemon"
grep -q 'drained' "$tmp/daemon.log" ||
  { echo 'daemon did not report a drain'; status=1; }
test ! -e "$sock" || { echo 'socket file left behind'; status=1; }
exit $status
