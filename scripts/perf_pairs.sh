#!/usr/bin/env bash
# Parent-vs-change comparison of the benchmark, the way a claimed gain has
# to be shown (benchmark/README.md, "Rules for a change that claims a gain"):
#
#   scripts/perf_pairs.sh <parent-rev | parent-checkout-dir> [pairs=10] [workload…]
#
# Run it from the root of the checkout that holds the change. The parent is
# checked out into a temporary `git worktree` (removed on exit) unless the
# first argument is a directory that already holds it. For every workload
# (default: all four) it runs `bash benchmark/run.sh --workload W` as
# alternating parent/change pairs — the side that goes first flips each
# pair — plus one more pair with `--seed 7`, and prints, per end-to-end
# metric: both medians, both quartile spreads (q3 − q1), the change's
# median relative to the parent's, and in how many pairs the change was
# the better side (ties count for neither). Every run's result line is kept
# in a fresh temporary directory (under $TMPDIR), named at the end.
set -euo pipefail

[ $# -ge 1 ] || { sed -n '2,16p' "$0" >&2; exit 2; }
parent=$1
pairs=${2:-10}
shift $(( $# < 2 ? $# : 2 ))
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(build query query_ood serve)

change_dir=$(pwd)
[ -f "$change_dir/benchmark/run.sh" ] || { echo "run from the repository root" >&2; exit 2; }
out=$(mktemp -d)

if [ -d "$parent" ]; then
    parent_dir=$(cd "$parent" && pwd)
else
    parent_dir=$(mktemp -d)/parent
    git worktree add --detach "$parent_dir" "$parent" >&2
    trap 'git worktree remove --force "$parent_dir"' EXIT
fi

# One run: result line (the last line of stdout) appended to $out/<tag>.jsonl.
run() { # side workload tag [extra args…]
    local side=$1 workload=$2 tag=$3 dir
    shift 3
    [ "$side" = parent ] && dir=$parent_dir || dir=$change_dir
    (cd "$dir" && bash benchmark/run.sh --workload "$workload" "$@" 2>/dev/null | tail -n 1) \
        >> "$out/$workload.$tag.$side.jsonl"
}

for w in "${workloads[@]}"; do
    rm -f "$out/$w".*.jsonl
    for ((i = 0; i < pairs; i++)); do
        echo "$w: pair $((i + 1))/$pairs" >&2
        if ((i % 2 == 0)); then order=(parent change); else order=(change parent); fi
        for side in "${order[@]}"; do run "$side" "$w" pairs; done
    done
    echo "$w: seed 7" >&2
    run change "$w" seed7 --seed 7
    run parent "$w" seed7 --seed 7
done

python3 - "$change_dir/BENCHMARK.json" "$out" "${workloads[@]}" <<'PY'
import json, sys
from statistics import median, quantiles

spec, out, workloads = sys.argv[1], sys.argv[2], sys.argv[3:]
metrics = [(m["name"], m["better"]) for m in json.load(open(spec))["end_to_end"]]

def load(path):
    return [json.loads(line) for line in open(path) if line.strip()]

def iqr(xs):
    if len(xs) < 2:
        return 0.0
    q = quantiles(xs, n=4, method="inclusive")
    return q[2] - q[0]

for w in workloads:
    sides = {s: load(f"{out}/{w}.pairs.{s}.jsonl") for s in ("parent", "change")}
    seed7 = {s: load(f"{out}/{w}.seed7.{s}.jsonl")[0] for s in ("parent", "change")}
    failed = {s: sum(r["failed"] for r in sides[s]) for s in sides}
    n = len(sides["parent"])
    print(f"\n### {w} — {n} pairs; failed operations parent {failed['parent']}, change {failed['change']}\n")
    print("| metric | parent median (IQR) | change median (IQR) | change/parent | wins | seed 7 parent → change |")
    print("|---|---|---|---|---|---|")
    for name, better in metrics:
        vals = {s: [r["metrics"][name]["value"] for r in sides[s]] for s in sides}
        if all(v == -1 for v in vals["parent"] + vals["change"]):
            continue
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
        losses = sum(sign * (c - p) < 0 for p, c in zip(vals["parent"], vals["change"]))
        mp, mc = median(vals["parent"]), median(vals["change"])
        ratio = f"{mc / mp:.3f}" if mp else "n/a"
        s7 = [seed7[s]["metrics"][name]["value"] for s in ("parent", "change")]
        print(f"| {name} ({better}) | {mp:.6g} ({iqr(vals['parent']):.3g}) | {mc:.6g} ({iqr(vals['change']):.3g}) "
              f"| {ratio} | {wins}/{wins + losses} | {s7[0]:.6g} → {s7[1]:.6g} |")
print(f"\nresult lines: {out}")
PY
