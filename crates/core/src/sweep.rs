//! Parameter sweeps: Figure 3 and the §6.2 sensitivity study. (Figure 4's
//! MPKI timeline is an `eeat-obs` epoch series, so it lives in `eeat-bench`.)

use eeat_energy::{EnergyModel, Structure};
use eeat_workloads::Workload;

use crate::config::{Config, LiteParams};
use crate::par;
use crate::simulator::{RunResult, Simulator};

/// Figure 3: dynamic energy of the 4KB configuration as the L1-cache hit
/// ratio of page-walk references sweeps from 1.0 down to 0.0.
///
/// The workload is simulated once; only the walk-reference energy is
/// re-evaluated per ratio (the hit ratio is an energy-model parameter, not
/// a behavioural one). Returns `(ratio, energy normalized to ratio = 1.0)`
/// pairs.
pub fn fig3_walk_locality(
    workload: Workload,
    instructions: u64,
    seed: u64,
    ratios: &[f64],
) -> Vec<(f64, f64)> {
    let mut sim = Simulator::from_workload(Config::four_k(), workload, seed);
    let result = sim.run(instructions);
    let base_total = result.energy.total_pj();
    let non_walk = base_total - result.energy.pj(Structure::PageWalk);
    let refs = result.stats.walk_memory_refs as f64;

    ratios
        .iter()
        .map(|&ratio| {
            let model = EnergyModel::sandy_bridge().with_walk_l1_hit_ratio(ratio);
            let total = non_walk + refs * model.walk_ref_pj();
            (ratio, total / base_total)
        })
        .collect()
}

/// One point of the §6.2 Lite sensitivity study.
#[derive(Clone, Debug)]
pub struct SensitivityPoint {
    /// Lite interval, instructions.
    pub interval_instructions: u64,
    /// Random re-activation probability.
    pub reactivation_prob: f64,
    /// The full run result at these parameters.
    pub result: RunResult,
}

/// §6.2: sweeps Lite's interval size and random re-activation probability
/// on a TLB_Lite-style configuration (the paper varies 1–10 M instructions
/// and 1/8–1/128).
pub fn lite_sensitivity(
    workload: Workload,
    instructions: u64,
    seed: u64,
    intervals: &[u64],
    probs: &[f64],
) -> Vec<SensitivityPoint> {
    let grid: Vec<(u64, f64)> = intervals
        .iter()
        .flat_map(|&interval| probs.iter().map(move |&prob| (interval, prob)))
        .collect();
    // Every grid point is an independent simulation; sweep them in
    // parallel (results come back in grid order).
    par::parallel_map(
        &grid,
        par::thread_count(grid.len(), None),
        |&(interval, prob)| {
            let mut config = Config::tlb_lite();
            config.lite = Some(LiteParams {
                interval_instructions: interval,
                reactivation_prob: prob,
                ..LiteParams::tlb_lite()
            });
            let mut sim = Simulator::from_workload(config, workload, seed);
            SensitivityPoint {
                interval_instructions: interval,
                reactivation_prob: prob,
                result: sim.run(instructions),
            }
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3_monotone_in_miss_ratio() {
        let points = fig3_walk_locality(Workload::Povray, 150_000, 1, &[1.0, 0.5, 0.0]);
        assert_eq!(points.len(), 3);
        assert!(
            (points[0].1 - 1.0).abs() < 1e-12,
            "ratio 1.0 is the baseline"
        );
        // Less L1-cache locality → more energy.
        assert!(points[1].1 >= points[0].1);
        assert!(points[2].1 >= points[1].1);
    }

    #[test]
    fn sensitivity_grid_is_complete() {
        let points = lite_sensitivity(
            Workload::Swaptions,
            120_000,
            1,
            &[50_000, 100_000],
            &[1.0 / 8.0, 1.0 / 32.0],
        );
        assert_eq!(points.len(), 4);
        assert!(points
            .iter()
            .all(|p| p.result.stats.instructions >= 120_000));
        // Every grid point is a distinct (interval, prob) pair.
        let mut pairs: Vec<(u64, u64)> = points
            .iter()
            .map(|p| (p.interval_instructions, p.reactivation_prob.to_bits()))
            .collect();
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), 4);
    }
}
