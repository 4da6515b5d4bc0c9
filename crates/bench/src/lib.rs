//! Shared plumbing for the benchmark harness.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper
//! (see DESIGN.md §5 for the index) and scales with two environment
//! variables:
//!
//! * `EEAT_INSTRUCTIONS` — instructions simulated per (workload, config)
//!   run. Default 20 000 000. The paper uses 50 G; the synthetic models
//!   reach steady state well before 20 M, so the default keeps a full
//!   matrix under a minute while preserving every reported trend.
//! * `EEAT_SEED` — the deterministic seed shared by the OS layout and the
//!   trace generator. Default 42.

pub mod cli;
pub mod runner;
pub mod timing;

use eeat_core::{par, Config, Experiment, Simulator};
use eeat_obs::{EpochRow, EpochSeries};
use eeat_workloads::Workload;

pub use cli::{baseline, Cli};
pub use runner::{series_bucket, Runner};

/// Reads the instruction budget from `EEAT_INSTRUCTIONS` (default 20 M).
pub fn instruction_budget() -> u64 {
    std::env::var("EEAT_INSTRUCTIONS")
        .ok()
        .and_then(|v| v.replace('_', "").parse().ok())
        .unwrap_or(20_000_000)
}

/// Reads the seed from `EEAT_SEED` (default 42).
pub fn seed() -> u64 {
    std::env::var("EEAT_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(42)
}

/// An [`Experiment`] configured from the environment.
pub fn experiment() -> Experiment {
    Experiment::new()
        .with_instructions(instruction_budget())
        .with_seed(seed())
}

/// Figure 4: the L1 TLB MPKI timeline under the four fixed configurations —
/// *Base* (4 KiB pages only), *64*, *32*, and *16* (THP with a 64/32/16-entry
/// L1-4KB TLB).
///
/// Returns `(config name, epoch rows)` pairs sampled every
/// `bucket_instructions`; a row's `l1_mpki` is the figure's y-value.
pub fn fig4_fixed_sizes(
    workload: Workload,
    instructions: u64,
    bucket_instructions: u64,
    seed: u64,
) -> Vec<(&'static str, Vec<EpochRow>)> {
    let configs = [
        ("Base", Config::four_k()),
        ("64", Config::thp_with_l1_4k(64, 4)),
        ("32", Config::thp_with_l1_4k(32, 2)),
        ("16", Config::thp_with_l1_4k(16, 1)),
    ];
    // The four series are independent simulations: one worker each.
    par::parallel_map(
        &configs,
        par::thread_count(configs.len(), None),
        |(label, config)| {
            let mut sim = Simulator::from_workload(config.clone(), workload, seed);
            let ways = sim
                .hierarchy()
                .l1_4k()
                .map(|t| t.active_ways())
                .unwrap_or(0);
            let mut series = EpochSeries::new(0, bucket_instructions, ways, None);
            sim.run_with_observer(instructions, &mut series);
            (*label, series.into_rows())
        },
    )
}

/// Formats a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}", x * 100.0)
}

/// Formats a normalized value with two decimals.
pub fn norm(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        // Avoid mutating the environment (tests run in parallel): the
        // defaults apply when the variables are unset.
        if std::env::var("EEAT_INSTRUCTIONS").is_err() {
            assert_eq!(instruction_budget(), 20_000_000);
        }
        if std::env::var("EEAT_SEED").is_err() {
            assert_eq!(seed(), 42);
        }
    }

    #[test]
    fn fig4_produces_four_series() {
        let series = fig4_fixed_sizes(Workload::Swaptions, 200_000, 50_000, 1);
        assert_eq!(series.len(), 4);
        let labels: Vec<&str> = series.iter().map(|(l, _)| *l).collect();
        assert_eq!(labels, ["Base", "64", "32", "16"]);
        for (label, rows) in &series {
            assert!(!rows.is_empty(), "{label} has samples");
        }
    }

    #[test]
    fn formatting() {
        assert_eq!(pct(0.234), "23.4");
        assert_eq!(norm(1.0), "1.00");
    }
}
