#!/usr/bin/env bash
# The noise protocol: two interleaved sets of runs of the same code, each
# run with another seed, then per workload and end-to-end metric each set's
# median and quartile spread and the distance between the two medians,
# all as shares of the metric's bound in BENCHMARK.json.
#
#   bash benchmark/repeat.sh [runs per set, default 10] [workload ...]
#
# Run it from the root of a checkout. The timing bounds were set from its
# table: at least twice the worst spread (benchmark/README.md). A change
# to the benchmark is acceptable when that still holds and no median moves
# by more than half of its bound between the sets.
set -euo pipefail

runs="${1:-10}"
shift || true
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [ "$#" -gt 0 ]; then
    workloads=("$@")
else
    mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi

out="${CARGO_TARGET_DIR:-.bench_build}/perf-scratch"
mkdir -p "$out"
results="$out/repeat-$$.jsonl"
: > "$results"
for workload in "${workloads[@]}"; do
    for i in $(seq 1 "$runs"); do
        for set in A B; do
            line=$(bash benchmark/run.sh --workload "$workload" --seed "$((100 + i))" \
                --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)
            echo "{\"workload\": \"$workload\", \"set\": \"$set\", \"result\": $line}" >> "$results"
            echo "$workload $set$i done" >&2
        done
    done
done

python3 - "$results" <<'EOF'
import json, statistics, sys

bench = json.load(open("BENCHMARK.json"))
bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
runs = [json.loads(line) for line in open(sys.argv[1])]

def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med

print("| workload | metric | bound | median A | spread A | median B | spread B | worst spread / bound | B worse by / bound |")
print("|---|---|---|---|---|---|---|---|---|")
for workload in dict.fromkeys(r["workload"] for r in runs):
    mine = [r for r in runs if r["workload"] == workload]
    bad = sum(not r["result"]["correct"] for r in mine)
    for name, (bound, better) in bounds.items():
        sets = {}
        for s in "AB":
            sets[s] = summary([r["result"]["metrics"][name]["value"] for r in mine if r["set"] == s])
        (med_a, iqr_a), (med_b, iqr_b) = sets["A"], sets["B"]
        worse = (med_b - med_a) / med_a * (1 if better == "lower" else -1)
        print(f"| {workload} | {name} | {bound} | {med_a:.6g} | {iqr_a:.4f} | {med_b:.6g} | {iqr_b:.4f} "
              f"| {max(iqr_a, iqr_b) / bound:.2f} | {worse / bound:+.2f} |")
    if bad:
        print(f"{workload}: {bad} runs were not correct", file=sys.stderr)
EOF
