#!/bin/sh
# Print one workload's golden line of perfbench work counters: the
# workload name, then the integer fields of the run's `counters:` line
# that count work (decisions, context switches, drops, frames,
# violations, admission outcomes, search simulations and hits, and
# per-device routing). Floats, digests and host-dependent counts
# (tables_built) are left out, so the line is the same on every
# compiler and host for a fixed seed. CI diffs the lines of all four
# workloads at --seed 7919 against tools/ci/perfbench_counters.golden.
#
# Usage: perfbench_counters.sh WORKLOAD LOG
#   LOG is the stdout of `python3 perfbench/run.py --workload WORKLOAD
#   --seed 7919 --seconds 1 --trace 0`.
set -eu

workload="$1"
log="$2"

line=$(grep '^counters:' "$log") || {
    echo "perfbench_counters: no counters: line in $log" >&2
    exit 1
}
fields=$(printf '%s\n' "$line" | tr ' ' '\n' | grep -E \
    '^(decisions|context_switches|drops|frames|violated|admitted|rejected|degraded|search_simulations|search_hits|dev[0-9]+_frames|route_decisions|device_frames_min|device_frames_max)=' \
    || true)
if [ -z "$fields" ]; then
    echo "perfbench_counters: no work counters in $log" >&2
    exit 1
fi
if printf '%s\n' "$fields" | grep -qvE '=[0-9]+$'; then
    echo "perfbench_counters: non-integer work counter in $log:" >&2
    printf '%s\n' "$fields" | grep -vE '=[0-9]+$' >&2
    exit 1
fi
echo "$workload" $fields
