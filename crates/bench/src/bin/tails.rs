//! Tail-latency bench: translation-latency distributions for the full
//! organization catalog.
//!
//! Where the figure benches report means, this one reports the shape of
//! the distribution: per (workload, org) cell the runner's always-on
//! [`LatencyObserver`](eeat_obs::LatencyObserver) buckets every access's translation cycles by
//! outcome class, and this bin renders the per-class breakdown (hit
//! shares, walk tails) on top of the runner's merged p50/p99/p999 table.
//! The artifact's `distributions` section carries the same numbers, which
//! is what CI's tail-latency regression gate diffs against the committed
//! baseline (`fixtures/tails/baseline.json`) with a percentile tolerance.
//!
//! ```text
//! cargo run --release -p eeat-bench --bin tails
//! EEAT_INSTRUCTIONS=500_000 cargo run --release -p eeat-bench --bin tails
//! ```

use eeat_bench::{Cli, Runner};
use eeat_core::{Org, Table};
use eeat_workloads::Workload;

fn main() {
    let cli = Cli::parse("Tail latency: per-class translation cycle distributions, all orgs");
    let configs: Vec<_> = Org::all().iter().map(|o| o.config()).collect();
    let workloads = cli.workloads(&Workload::TLB_INTENSIVE);
    let mut runner = Runner::new("tails", &cli, &configs);
    // The matrix run already prints the merged tails table and lands every
    // cell's distributions in the artifact; this bin adds the class view.
    let _ = runner.run_matrix(&cli, &workloads, &configs);

    let mut rows: Vec<[String; 7]> = Vec::new();
    for (workload, config, latency) in runner.latency_cells() {
        let cell = format!("{workload}/{config}");
        let total: u64 = latency.histograms().iter().map(|h| h.count()).sum();
        for (class, hist) in latency.class_histograms() {
            if hist.count() == 0 {
                continue;
            }
            rows.push([
                cell.clone(),
                class.name().to_string(),
                hist.count().to_string(),
                format!("{:.1}", 100.0 * hist.count() as f64 / total.max(1) as f64),
                hist.percentile(0.50).to_string(),
                hist.percentile(0.99).to_string(),
                hist.max().to_string(),
            ]);
        }
    }
    let mut table = Table::new(
        "Outcome-class breakdown (cycles per translated access)",
        &["cell", "class", "count", "share%", "p50", "p99", "max"],
    );
    for row in &rows {
        table.add_row(row);
    }
    runner.table(&table);
    runner.line("Tails live in the walk classes: L1/L2 hits are flat by construction,");
    runner.line("so p99 movement in the merged table means the walk mix shifted —");
    runner.line("compare the class rows above to see which one.");
    runner.finish();
}
