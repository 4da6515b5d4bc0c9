//! Single-thread throughput harness for the batched hot loop.
//!
//! Measures accesses/sec of the simulator on the Figure 2 mix
//! (`TLB_INTENSIVE` workloads × {4KB, THP, RMM}), writing machine-readable
//! results to `BENCH_throughput.json`. The headline number comes from plain
//! runs (the `()`-monomorphized pipeline, zero instrumentation). Per-layer
//! attribution of host time is the repository benchmark's traced pass
//! (`benchmark/`), which times each layer from outside the simulator.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p eeat-bench --bin throughput [-- --smoke] [--out PATH] [--best-of N]
//! EEAT_INSTRUCTIONS=2_000_000 cargo run --release -p eeat-bench --bin throughput
//! ```
//!
//! `--best-of N` (default 5 full / 1 smoke) repeats each plain cell N
//! times and keeps the minimum wall time — the standard estimator on hosts
//! with background load, since noise only ever adds time.
//!
//! `--smoke` runs a small instruction budget for CI: it validates the
//! harness end to end, and CI holds its plain rate to a floor.
//!
//! An observer-overhead pass rides along with only the always-on
//! `LatencyObserver` (the per-cell latency histograms every matrix bench
//! records), measured *marginally* against the empty observer stack the
//! matrix runner always carried — the histograms' own cost, not the
//! pre-existing event-dispatch cost. That marginal rate ratio is
//! acceptance-gated at ≥ 0.97 (≤ 3% overhead) in full runs, and the
//! merged distribution lands as p50/p90/p99/p999 columns in
//! `BENCH_throughput.json`. The cost of the `EpochSeries` telemetry
//! observer is measured by the repository benchmark
//! (`obs.series_ns_per_acc`).

use std::fmt::Write as _;
use std::time::Instant;

use eeat_bench::Runner;
use eeat_core::{Config, Simulator, DEFAULT_BLOCK};
use eeat_obs::{EpochSeries, LatencyHistogram, LatencyObserver};
use eeat_workloads::Workload;

const SEED: u64 = 42;
const FULL_INSTRUCTIONS: u64 = 5_000_000;
const SMOKE_INSTRUCTIONS: u64 = 200_000;

/// The acceptance bound on histogram cost: the latency-histogram pass must
/// retain at least this fraction of the empty-observer-stack baseline's
/// throughput (≤ 3% marginal overhead) in full runs.
const HIST_MIN_RATE_RATIO: f64 = 0.97;

struct ConfigResult {
    name: &'static str,
    accesses: u64,
    /// Plain wall time: best-of-N, the headline denominator.
    seconds: f64,
    /// Merged translation-latency distribution across the workload mix,
    /// from the histogram pass (filled in `main`, after `measure`).
    latency: LatencyHistogram,
    /// Histogram-pass throughput relative to plain — the ≤ 3% overhead
    /// acceptance number.
    hist_rate_ratio: f64,
}

fn measure(config: &Config, instructions: u64, best_of: u32) -> ConfigResult {
    // Headline throughput: plain batched runs. Per workload the wall time
    // is the *minimum* over `best_of` repeats — on a host with background
    // load, the fastest repeat is the one least disturbed by noise, and
    // every reported rate is still an actually-achieved run.
    let mut accesses = 0u64;
    let mut seconds = 0.0f64;
    for &workload in &Workload::TLB_INTENSIVE {
        let mut best = f64::INFINITY;
        let mut cell_accesses = 0u64;
        for _ in 0..best_of.max(1) {
            let mut sim = Simulator::from_workload(config.clone(), workload, SEED);
            let t = Instant::now();
            let r = sim.run(instructions);
            best = best.min(t.elapsed().as_secs_f64());
            cell_accesses = r.stats.accesses;
        }
        seconds += best;
        accesses += cell_accesses;
    }
    ConfigResult {
        name: config.name,
        accesses,
        seconds,
        latency: LatencyHistogram::new(),
        hist_rate_ratio: 0.0,
    }
}

/// Histogram-overhead check, measured *marginally*: the matrix runner
/// attached an external observer stack long before the histograms existed
/// (`(Option<EpochSeries>, Option<TraceRing>)`, both `None` by default),
/// so the cost of constructing and dispatching per-access events is
/// pre-existing, not the histograms'. Pass A runs with that empty stack;
/// pass B swaps in the always-on [`LatencyObserver`]. B/A is the price of
/// the bucketing itself — the number the ≥ [`HIST_MIN_RATE_RATIO`]
/// acceptance bound gates. Returns `(rate_a, rate_b, merged)` where the
/// merged distribution comes from pass B (deterministic: same seed, every
/// repeat identical).
fn measure_hist(config: &Config, instructions: u64, best_of: u32) -> (f64, f64, LatencyHistogram) {
    let mut wall = [0.0f64; 2];
    let mut accesses = 0u64;
    let mut merged = LatencyHistogram::new();
    for &workload in &Workload::TLB_INTENSIVE {
        let mut best = [f64::INFINITY; 2];
        let mut cell_accesses = 0u64;
        let mut cell_hist = LatencyHistogram::new();
        for _ in 0..best_of.max(1) {
            // Pass A: the pre-histogram observer stack with telemetry off.
            // Interleaved with pass B so background-load noise hits both.
            let mut sim = Simulator::from_workload(config.clone(), workload, SEED);
            let mut noop: (Option<EpochSeries>, Option<eeat_obs::TraceRing>) = (None, None);
            let t = Instant::now();
            let r = sim.run_with_observer(instructions, &mut noop);
            best[0] = best[0].min(t.elapsed().as_secs_f64());
            cell_accesses = r.stats.accesses;

            // Pass B: the same stack plus the latency histograms.
            let mut sim = Simulator::from_workload(config.clone(), workload, SEED);
            let mut obs = LatencyObserver::default();
            let t = Instant::now();
            let r = sim.run_with_observer(instructions, &mut obs);
            best[1] = best[1].min(t.elapsed().as_secs_f64());
            assert_eq!(
                r.stats.accesses, cell_accesses,
                "observer perturbed the run"
            );
            cell_hist = obs.merged();
            std::hint::black_box(cell_hist.count());
        }
        accesses += cell_accesses;
        wall[0] += best[0];
        wall[1] += best[1];
        merged.merge(&cell_hist);
    }
    (accesses as f64 / wall[0], accesses as f64 / wall[1], merged)
}

fn render_json(results: &[ConfigResult], instructions: u64, smoke: bool, best_of: u32) -> String {
    let mut out = String::new();
    writeln!(out, "{{").unwrap();
    writeln!(out, "  \"bench\": \"throughput\",").unwrap();
    writeln!(out, "  \"workload_mix\": \"TLB_INTENSIVE\",").unwrap();
    writeln!(out, "  \"instructions_per_cell\": {instructions},").unwrap();
    writeln!(out, "  \"block\": {DEFAULT_BLOCK},").unwrap();
    writeln!(out, "  \"seed\": {SEED},").unwrap();
    writeln!(out, "  \"smoke\": {smoke},").unwrap();
    writeln!(out, "  \"best_of\": {best_of},").unwrap();
    writeln!(out, "  \"configs\": [").unwrap();
    for (ci, r) in results.iter().enumerate() {
        let acc_per_sec = r.accesses as f64 / r.seconds;
        writeln!(out, "    {{").unwrap();
        writeln!(out, "      \"name\": \"{}\",", r.name).unwrap();
        writeln!(out, "      \"accesses\": {},", r.accesses).unwrap();
        writeln!(out, "      \"seconds\": {:.6},", r.seconds).unwrap();
        writeln!(out, "      \"accesses_per_sec\": {acc_per_sec:.0},").unwrap();
        writeln!(out, "      \"hist_rate_ratio\": {:.4},", r.hist_rate_ratio).unwrap();
        // Same shape as an artifact `distributions` entry (mean and the
        // p50/p90/p99/p999 tail columns), merged across the workload mix.
        writeln!(
            out,
            "      \"latency_cycles\": {}",
            r.latency.summary_json(false).to_compact()
        )
        .unwrap();
        let comma = if ci + 1 < results.len() { "," } else { "" };
        writeln!(out, "    }}{comma}").unwrap();
    }
    writeln!(out, "  ]").unwrap();
    writeln!(out, "}}").unwrap();
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_throughput.json".to_string());
    let best_of: u32 = args
        .iter()
        .position(|a| a == "--best-of")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(if smoke { 1 } else { 5 });
    let instructions: u64 = std::env::var("EEAT_INSTRUCTIONS")
        .ok()
        .and_then(|v| v.replace('_', "").parse().ok())
        .unwrap_or(if smoke {
            SMOKE_INSTRUCTIONS
        } else {
            FULL_INSTRUCTIONS
        });

    let configs = [Config::four_k(), Config::thp(), Config::rmm()];
    let mut runner = Runner::with_params("throughput", SEED, instructions, 1, &configs);
    let mut results = Vec::new();
    for config in &configs {
        let mut r = measure(config, instructions, best_of);
        let acc_per_sec = r.accesses as f64 / r.seconds;
        runner.line(&format!(
            "{:4} {:>12} accesses  {:>8.3} s  {:>12.0} acc/s",
            r.name, r.accesses, r.seconds, acc_per_sec,
        ));
        runner.metric(format!("config/{}/accesses_per_sec", r.name), acc_per_sec);

        // Histogram pass: the always-on latency distributions must cost
        // under 3% of the observer-stack baseline they were added to
        // (acceptance-gated in full runs, where the budget is long enough
        // for the ratio to be signal).
        let (noop_per_sec, hist_per_sec, latency) = measure_hist(config, instructions, best_of);
        let hist_ratio = hist_per_sec / noop_per_sec;
        runner.line(&format!(
            "{:4} histogram: {:>11.0} acc/s with LatencyObserver ({:.3}x the {:.0} acc/s \
             empty-observer baseline)  p50 {}  p99 {}  p999 {}  max {}",
            r.name,
            hist_per_sec,
            hist_ratio,
            noop_per_sec,
            latency.percentile(0.50),
            latency.percentile(0.99),
            latency.percentile(0.999),
            latency.max(),
        ));
        runner.metric(
            format!("config/{}/noop_observer_accesses_per_sec", r.name),
            noop_per_sec,
        );
        runner.metric(
            format!("config/{}/hist_accesses_per_sec", r.name),
            hist_per_sec,
        );
        runner.metric(format!("config/{}/hist_rate_ratio", r.name), hist_ratio);
        for (q, key) in [(0.50, "p50"), (0.90, "p90"), (0.99, "p99"), (0.999, "p999")] {
            runner.metric(
                format!("config/{}/latency/{key}", r.name),
                latency.percentile(q) as f64,
            );
        }
        runner.metric(
            format!("config/{}/latency/max", r.name),
            latency.max() as f64,
        );
        if !smoke {
            assert!(
                hist_ratio >= HIST_MIN_RATE_RATIO,
                "{}: latency histograms cost {:.1}% of observer-stack throughput (budget 3%)",
                r.name,
                (1.0 - hist_ratio) * 100.0
            );
        }
        r.latency = latency;
        r.hist_rate_ratio = hist_ratio;
        results.push(r);
    }

    let json = render_json(&results, instructions, smoke, best_of);
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("write {out_path}: {e}"));
    runner.line(&format!("wrote {out_path}"));
    runner.finish();
}
