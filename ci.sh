#!/usr/bin/env sh
# Offline CI gate: format, lint, build, test. No network access required —
# the workspace has zero external dependencies.
set -eu

cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check
# The repository benchmark is a package of its own (benchmark/Cargo.toml),
# outside the workspace: every gate names it explicitly.
cargo fmt --manifest-path benchmark/Cargo.toml -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets --offline -- -D warnings
cargo clippy --offline --all-targets --manifest-path benchmark/Cargo.toml -- -D warnings

echo "==> cargo doc -D warnings (broken, private or redundant intra-doc links fail)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> pipeline dispatch lint (org policy flows through StepCtx, never raw config reads)"
if grep -rn 'unified_l1\|config\.' crates/core/src/pipeline/ | grep -v ':[[:space:]]*//'; then
    echo "pipeline stages must not branch on Config directly; extend ProbePlan/StepCtx instead" >&2
    exit 1
fi

echo "==> hot-path emission lint (probe stages bump BlockDeltas, never emit per access)"
if grep -n 'sinks\.emit' \
    crates/core/src/pipeline/l1_probe.rs \
    crates/core/src/pipeline/l2_probe.rs | grep -v ':[[:space:]]*//'; then
    echo "per-access sinks.emit reappeared in a probe stage; accumulate in BlockDeltas and let flush_deltas settle it" >&2
    exit 1
fi

echo "==> cargo build --release"
cargo build --workspace --release --offline

echo "==> cargo test -q"
cargo test --workspace -q --offline

echo "==> golden-fixture parity (fails on any drift in simulation results)"
test -f tests/fixtures/golden/colt.txt || {
    echo "missing CoLT golden fixture; run EEAT_BLESS=1 cargo test --test golden_parity" >&2
    exit 1
}
cargo test --release -q --offline --test golden_parity --test block_equivalence
cargo test --release -q --offline -p eeat-core --test delta_settle_equivalence

# Smoke runs write their artifacts to a scratch results dir so the
# checked-in results/ stays pristine.
SCRATCH="$(mktemp -d)"
trap 'rm -rf "$SCRATCH"' EXIT

echo "==> repository benchmark: unit tests + smoke run (every cell must pass its checks)"
# It links the simulator crates through path dependencies, so an API change
# in crates/* that breaks it fails here. The smoke run exits non-zero when
# any cell fails; its artifacts and span sidecars must pass the checkers.
cargo test -q --offline --manifest-path benchmark/Cargo.toml
mkdir -p "$SCRATCH/benchmark"
cargo run --release --quiet --offline --manifest-path benchmark/Cargo.toml -- \
    --smoke --out-dir "$SCRATCH/benchmark"
cargo run --release --offline -p eeat-bench --bin report_diff -- --validate \
    "$SCRATCH"/benchmark/matrix_native.json "$SCRATCH"/benchmark/virt_walk.json \
    "$SCRATCH"/benchmark/cores_coherence.json "$SCRATCH"/benchmark/replay_trace.json
cargo run --release --offline -p eeat-bench --bin report_diff -- \
    --check-trace "$SCRATCH"/benchmark/*.trace.json

echo "==> differential fuzz smoke (8 seeds x 10k steps per target)"
EEAT_FUZZ_SEEDS=8 EEAT_RESULTS="$SCRATCH" cargo run --release --offline \
    -p eeat-bench --bin fuzz -- --instructions 10_000 --seed 1 \
    2> "$SCRATCH/fuzz.stderr" || { cat "$SCRATCH/fuzz.stderr" >&2; exit 1; }
cat "$SCRATCH/fuzz.stderr" >&2
grep -q "target colt" "$SCRATCH/fuzz.stderr" || {
    echo "fuzz smoke never exercised the colt target" >&2
    exit 1
}
grep -q "target multicore" "$SCRATCH/fuzz.stderr" || {
    echo "fuzz smoke never exercised the multicore target" >&2
    exit 1
}
grep -q "target nested" "$SCRATCH/fuzz.stderr" || {
    echo "fuzz smoke never exercised the nested (virtualized) target" >&2
    exit 1
}

echo "==> multi-core scaling smoke + thread determinism (parallel == sequential)"
mkdir -p "$SCRATCH/cores_seq" "$SCRATCH/cores_par"
EEAT_THREADS=1 EEAT_SERIES=1 EEAT_RESULTS="$SCRATCH/cores_seq" cargo run --release --offline \
    -p eeat-bench --bin cores -- --instructions 200_000 --seed 1
EEAT_THREADS=4 EEAT_SERIES=1 EEAT_RESULTS="$SCRATCH/cores_par" cargo run --release --offline \
    -p eeat-bench --bin cores -- --instructions 200_000 --seed 1 > /dev/null
diff "$SCRATCH/cores_seq/cores.txt" "$SCRATCH/cores_par/cores.txt" || {
    echo "EEAT_THREADS=4 cores run diverged from the sequential run" >&2
    exit 1
}
for f in "$SCRATCH"/cores_seq/*.series.jsonl; do
    diff "$f" "$SCRATCH/cores_par/$(basename "$f")" || {
        echo "per-core series diverged between sequential and parallel runs" >&2
        exit 1
    }
done

echo "==> CoLT head-to-head smoke"
EEAT_RESULTS="$SCRATCH" cargo run --release --offline -p eeat-bench --bin colt -- \
    --instructions 200_000 --workloads mcf,canneal

echo "==> virtualized (nested walk) smoke"
# Native bit-parity under virtualized configs is asserted inside the bin
# (identical L1/L2 miss counts per cell); here we additionally pin the
# cold-walk protocol: a fresh 2D 4K walk must out-cost a native one.
EEAT_RESULTS="$SCRATCH" cargo run --release --offline -p eeat-bench --bin virt -- \
    --instructions 200_000 --workloads mcf,canneal
awk -F'[:,]' '/"cold\/nested_4k_refs"/ { found = 1
    if ($2 + 0 <= 4) { printf "cold nested walk cost %s refs, expected > 4\n", $2; bad = 1 }
} END { exit (bad || !found) }' "$SCRATCH/virt.json" || {
    echo "virt smoke missing or failing the cold nested-walk cost check" >&2
    exit 1
}

echo "==> throughput harness smoke"
# The BENCH_* summary deliberately isn't an eeat-run-artifact/v1 file, so it
# lives in a subdir the schema-validation glob below doesn't sweep up.
mkdir -p "$SCRATCH/bench"
EEAT_RESULTS="$SCRATCH" cargo run --release --offline -p eeat-bench --bin throughput -- \
    --smoke --out "$SCRATCH/bench/BENCH_throughput_smoke.json"

echo "==> throughput floor (smoke; catches hot-loop regressions, e.g. per-access settling)"
# Conservative bar: the smoke cells measure ~12-15M acc/s on this box;
# 7M leaves ~2x headroom for CI noise while still failing well before the
# hot loop regresses to per-access event emission territory.
awk -F'[:,]' '/"accesses_per_sec"/ {
    if ($2 + 0 < 7000000) { printf "accesses_per_sec%s is below the 7M floor\n", $2; bad = 1 }
} END { exit bad }' "$SCRATCH/bench/BENCH_throughput_smoke.json" || {
    echo "throughput smoke fell below the floor; profile before raising the budget" >&2
    exit 1
}

echo "==> telemetry smoke (fig2 with per-epoch series + sampled trace)"
EEAT_RESULTS="$SCRATCH" EEAT_SERIES=1 EEAT_TRACE=1 cargo run --release --offline \
    -p eeat-bench --bin fig2 -- --instructions 200_000
ls "$SCRATCH"/fig2.*.series.jsonl "$SCRATCH"/fig2.*.trace.jsonl > /dev/null

echo "==> span + heartbeat smoke (chrome trace sidecars validate, heartbeat lines parse)"
# Own subdir: .trace.json sidecars must not get swept up by the
# run-artifact schema validation glob below.
mkdir -p "$SCRATCH/spans"
EEAT_RESULTS="$SCRATCH/spans" EEAT_SPANS=1 \
    EEAT_HEARTBEAT="$SCRATCH/spans/heartbeat.jsonl" EEAT_HEARTBEAT_EVERY=50000 \
    cargo run --release --offline -p eeat-bench --bin fig2 -- \
    --instructions 200_000 --workloads mcf > /dev/null
ls "$SCRATCH"/spans/fig2.*.trace.json > /dev/null
cargo run --release --offline -p eeat-bench --bin report_diff -- \
    --check-trace "$SCRATCH"/spans/fig2.*.trace.json
grep -q '"schema":"eeat-heartbeat/v1"' "$SCRATCH/spans/heartbeat.jsonl" || {
    echo "heartbeat smoke produced no eeat-heartbeat/v1 records" >&2
    exit 1
}
grep -q '"final":true' "$SCRATCH/spans/heartbeat.jsonl" || {
    echo "heartbeat smoke never emitted its final beat" >&2
    exit 1
}

echo "==> tail-latency regression gate (tails p99 vs committed baseline)"
# The same pinned cell as the committed baseline: simulation results are
# deterministic, so any dist/*/p99 drift is a real behavior change.
mkdir -p "$SCRATCH/tails"
EEAT_RESULTS="$SCRATCH/tails" cargo run --release --offline -p eeat-bench --bin tails -- \
    --instructions 300_000 --seed 42 --workloads mcf > /dev/null
cargo run --release --offline -p eeat-bench --bin report_diff -- \
    "$SCRATCH/tails/tails.json" crates/bench/fixtures/tails/baseline.json \
    --tolerance 0.02 || {
    echo "tail latencies drifted from the committed baseline; re-bless crates/bench/fixtures/tails/baseline.json if intended" >&2
    exit 1
}
# And the gate must actually fire on an injected slowdown.
if cargo run --release --offline -p eeat-bench --bin report_diff -- \
    crates/bench/fixtures/tails/baseline.json \
    crates/bench/fixtures/tails/regressed.json \
    --tolerance 0.02 > "$SCRATCH/tails/regressed.out"; then
    echo "tail-latency gate failed to flag the injected p99 regression" >&2
    exit 1
fi
grep -q 'dist/cell/mcf/4KB/lat/all/p99' "$SCRATCH/tails/regressed.out" || {
    echo "tail-latency gate fired but never named the regressed p99 metric" >&2
    exit 1
}

echo "==> run-artifact schema validation (checked-in and smoke artifacts)"
cargo run --release --offline -p eeat-bench --bin report_diff -- \
    --validate results/*.json "$SCRATCH"/*.json

echo "==> report_diff regression gate (injected 8% energy regression must be flagged)"
if cargo run --release --offline -p eeat-bench --bin report_diff -- \
    crates/bench/fixtures/report_diff/base.json \
    crates/bench/fixtures/report_diff/regressed.json \
    --tolerance 0.01; then
    echo "report_diff failed to flag the injected regression" >&2
    exit 1
fi
# The same pair is clean inside a generous tolerance.
cargo run --release --offline -p eeat-bench --bin report_diff -- \
    crates/bench/fixtures/report_diff/base.json \
    crates/bench/fixtures/report_diff/regressed.json \
    --tolerance 0.25

echo "==> validator completeness (--validate reports every violation, not just the first)"
if cargo run --release --offline -p eeat-bench --bin report_diff -- \
    --validate crates/bench/fixtures/report_diff/invalid_two.json \
    > "$SCRATCH/invalid_two.out"; then
    echo "report_diff --validate accepted a known-invalid fixture" >&2
    exit 1
fi
grep -q 'manifest.seed: missing or not a number' "$SCRATCH/invalid_two.out" || {
    echo "--validate missed the manifest.seed violation" >&2
    exit 1
}
grep -q 'metrics.cell/mcf/4KB/l1_mpki: not a number' "$SCRATCH/invalid_two.out" || {
    echo "--validate missed the non-numeric metric violation" >&2
    exit 1
}

echo "==> ci.sh: all checks passed"
