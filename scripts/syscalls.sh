#!/usr/bin/env bash
# Read and write syscalls per request of the proxy in one benchmark run.
#
#   scripts/syscalls.sh <workload>      (or: make syscalls W=<workload>)
#
# Runs `bash benchmark/run.sh -workload <workload> -trace 0` unchanged and,
# meanwhile, samples syscr/syscw in /proc/<pid>/io of the flickrun the
# harness has running. The harness starts flickrun several times to time
# start-up (setup_s) and serves the timed run from the last start, so the
# last flickrun sampled is the serving one. Its counts over the timed
# window (run_seconds of BENCHMARK.json, which ends when the harness kills
# the proxy) are divided by the window's seconds and by the run's median
# req_per_s from benchmark/out/results.json. Needs jq.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
w=${1:?usage: scripts/syscalls.sh <workload>}
command -v jq >/dev/null || { echo "syscalls.sh: needs jq" >&2; exit 2; }

samples=$(mktemp)
log=$(mktemp)
trap 'rm -f "$samples" "$log"' EXIT

bash benchmark/run.sh -workload "$w" -trace 0 >"$log" 2>&1 &
harness=$!
# run.sh execs the harness (through taskset) in its own process, so the
# proxies are its children.
while kill -0 "$harness" 2>/dev/null; do
	pid=$(pgrep -n -x -P "$harness" flickrun || true)
	if [ -n "$pid" ] && io=$(cat "/proc/$pid/io" 2>/dev/null); then
		r=$(awk '$1 == "syscr:" { print $2 }' <<<"$io")
		x=$(awk '$1 == "syscw:" { print $2 }' <<<"$io")
		echo "$pid $(date +%s.%N) $r $x" >>"$samples"
	fi
	sleep 0.1
done
if ! wait "$harness"; then
	cat "$log" >&2
	echo "syscalls.sh: benchmark run failed" >&2
	exit 1
fi

res=benchmark/out/results.json
rate=$(jq -r --arg w "$w" '.workloads[$w].end_to_end.req_per_s.value' "$res")
secs=$(jq -r '.config.seconds' "$res")
awk -v w="$w" -v rate="$rate" -v secs="$secs" '
	{ pid[NR] = $1; t[NR] = $2; r[NR] = $3; x[NR] = $4 }
	END {
		if (NR == 0 || rate + 0 <= 0) { print "syscalls.sh: no samples or no req_per_s" > "/dev/stderr"; exit 1 }
		last = pid[NR]
		# The timed window is the last secs seconds the serving proxy lived;
		# skip half a second at its start for the warm-up tail.
		from = 0
		for (i = NR; i >= 1 && pid[i] == last; i--)
			if (t[NR] - t[i] <= secs - 0.5) from = i
		dt = t[NR] - t[from]
		if (from == 0 || dt < 1) { print "syscalls.sh: serving proxy sampled for under a second" > "/dev/stderr"; exit 1 }
		rd = (r[NR] - r[from]) / dt / rate
		wr = (x[NR] - x[from]) / dt / rate
		printf "%s: pid %d, %.1f s sampled, req_per_s %.0f\n", w, last, dt, rate
		printf "%s: read syscalls/req %.3f, write syscalls/req %.3f\n", w, rd, wr
	}' "$samples"
