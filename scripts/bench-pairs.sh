#!/usr/bin/env bash
# bench-pairs.sh — the pair protocol of bench/README.md ("Comparing two
# commits") as one command.
#
#   scripts/bench-pairs.sh PARENT [PAIRS=10] [SECONDS=20] [WORKLOADS...]
#
# Copies PARENT and the change into two temporary directories, runs
# PAIRS alternating pairs of
#
#   go run -C bench . -workload W -seed i -seconds SECONDS -trace 0
#
# per workload (pair i on seed SEED0+i, odd pairs parent first), and
# prints for every (workload, end-to-end metric) each side's median and
# quartiles, how many pairs the change won and lost, and a verdict by
# the rule in bench/README.md: gain / worse / unresolved / ok. Names,
# directions and bounds come from BENCHMARK.json; nothing in the
# repository is written. The exit code is non-zero when an op failed.
#
# The change is the working tree as it stands (tracked and untracked
# files, not ignored ones); CHANGE=<rev> compares a commit instead.
# SEED0=<n> shifts the seeds (default 0), OUT=<dir> keeps the raw
# results. WALDIR=<dir> is passed through as -waldir: the WALs of both
# sides go under that directory, on whatever device it is on, instead of
# the private tmpfs the benchmark mounts for itself — wal-small then
# measures the device (run-to-run spread 20-35 % on the sandbox's ext4),
# which is the other side of the rule that sends a durable put-data
# inline or on legs. Keep the machine idle while it runs: a concurrent
# go test moves mux-small by ~10 %.
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,28p' "$0" | sed 's/^# \{0,1\}//'; exit 2; }
parent=$1
pairs=${2:-10}
seconds=${3:-20}
shift $(( $# < 3 ? $# : 3 ))
root=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
cd "$root"
if [ $# -eq 0 ]; then
	set -- $(go run scripts/pairstat.go -workloads -benchmark BENCHMARK.json)
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
out=${OUT:-$tmp/out}
mkdir -p "$tmp/parent" "$tmp/change" "$out"
git archive "$(git rev-parse --verify "$parent^{commit}")" | tar -x -C "$tmp/parent"
if [ -n "${CHANGE:-}" ]; then
	git archive "$(git rev-parse --verify "$CHANGE^{commit}")" | tar -x -C "$tmp/change"
else
	git ls-files -z --cached --others --exclude-standard | tar -c --null --ignore-failed-read -T - 2>/dev/null | tar -x -C "$tmp/change"
fi

waldir=()
if [ -n "${WALDIR:-}" ]; then
	mkdir -p "$WALDIR"
	waldir=(-waldir "$(cd "$WALDIR" && pwd)")
fi

run() { # side workload seed
	local line
	# A run that fails its output check still prints its result line;
	# pairstat reports the failed ops.
	line=$(cd "$tmp/$1" && go run -C bench . -workload "$2" -seed "$3" -seconds "$seconds" -trace 0 ${waldir[@]+"${waldir[@]}"} | tail -n 1) || true
	printf '%s\n' "$line" >>"$out/$2.$1.jsonl"
}

for w in "$@"; do
	rm -f "$out/$w.parent.jsonl" "$out/$w.change.jsonl"
	for i in $(seq 1 "$pairs"); do
		seed=$(( ${SEED0:-0} + i ))
		if [ $(( i % 2 )) -eq 1 ]; then first=parent second=change; else first=change second=parent; fi
		echo "# $w pair $i/$pairs (seed $seed): $first, then $second" >&2
		run "$first" "$w" "$seed"
		run "$second" "$w" "$seed"
	done
done

go run scripts/pairstat.go -benchmark BENCHMARK.json -dir "$out" "$@"
