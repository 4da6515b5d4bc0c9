#!/usr/bin/env bash
# Run-to-run stability of the benchmark on one commit.
#
# Runs two sets of N plain-pass runs (--trace 0) of every workload and, per
# workload x end-to-end metric, prints each set's median and interquartile
# range (IQR, from Python's statistics.quantiles(n=4)) and whether the two
# medians agree within the metric's bound from BENCHMARK.json. Every metric
# but setup_s must also keep its IQR/median within the bound.
#
# usage: benchmark/stability.sh [-n RUNS] [-s SEED | -v] [-w WORKLOAD]... [-t SECONDS]
#   -n RUNS     runs per set (default 5)
#   -s SEED     seed of every run (default 42)
#   -v          vary the seed instead: run i of each set uses seed i
#   -w WORKLOAD restrict to a workload (repeatable; default all four)
#   -t SECONDS  --seconds per run (default: run_seconds of BENCHMARK.json)
#
# Run from the repository root. Result lines and each run's artifact land
# in .bench_out/stability/; the exit status is non-zero when any pairing
# disagrees.
set -euo pipefail

runs=5
seed=42
vary=0
seconds=""
workloads=()
while getopts "n:s:vw:t:" opt; do
    case "$opt" in
        n) runs="$OPTARG" ;;
        s) seed="$OPTARG" ;;
        v) vary=1 ;;
        w) workloads+=("$OPTARG") ;;
        t) seconds="$OPTARG" ;;
        *) sed -n '2,19p' "$0" >&2; exit 2 ;;
    esac
done
[ -f BENCHMARK.json ] || { echo "run from the repository root" >&2; exit 2; }
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c 'import json; [print(w["name"]) for w in json.load(open("BENCHMARK.json"))["workloads"]]')
fi
if [ -z "$seconds" ]; then
    seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
fi

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --offline --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/benchmark"
out=.bench_out/stability
rm -rf "$out"
mkdir -p "$out"

for set in a b; do
    for i in $(seq 1 "$runs"); do
        s=$seed
        [ "$vary" -eq 1 ] && s=$i
        for w in "${workloads[@]}"; do
            echo "set $set run $i: $w seed $s" >&2
            "$bin" --workload "$w" --seed "$s" --seconds "$seconds" --trace 0 \
                --out-dir "$out/run" | tail -n 1 >>"$out/$set.$w.jsonl"
            cp "$out/run/$w.json" "$out/$set.$i.$w.json"
        done
    done
done

python3 - "$out" "${workloads[@]}" <<'EOF'
import json, statistics, sys

out, workloads = sys.argv[1], sys.argv[2:]
spec = json.load(open("BENCHMARK.json"))
ok = True
print(f"{'workload':16} {'metric':15} {'median A':>12} {'IQR/med A':>9} "
      f"{'median B':>12} {'IQR/med B':>9} {'B vs A':>8} {'bound':>6}  verdict")
for w in workloads:
    sets = {}
    for s in "ab":
        rows = [json.loads(l) for l in open(f"{out}/{s}.{w}.jsonl")]
        if not all(r["correct"] for r in rows):
            print(f"{w}: a run of set {s} reported correct=false")
            ok = False
        sets[s] = rows
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        stats = {}
        for s, rows in sets.items():
            values = [r["metrics"][name]["value"] for r in rows]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            stats[s] = (med, (q3 - q1) / med)
        (ma, sa), (mb, sb) = stats["a"], stats["b"]
        sign = 1 if m["better"] == "lower" else -1
        worse = sign * (mb - ma) / ma
        agree = abs(mb - ma) / ma < bound
        steady = name == "setup_s" or (sa <= bound and sb <= bound)
        verdict = "ok" if agree and steady else ("DISAGREE" if not agree else "SPREAD")
        ok &= agree and steady
        print(f"{w:16} {name:15} {ma:12.5g} {sa:9.2%} {mb:12.5g} {sb:9.2%} "
              f"{worse:+8.2%} {bound:6.0%}  {verdict}")
sys.exit(0 if ok else 1)
EOF
