//! [`EpochSeries`] rows against a reference: a second simulator stepped by
//! `run(1)` calls (one access each) to the same absolute instruction marks.
//!
//! A bucket closes at the first step end at or past its mark, and `run`
//! stops at exactly that step, so every row must equal the difference of
//! two `SimStats` snapshots — counts exactly, MPKI bit for bit, and the
//! L1-4KB ways the reference's hierarchy holds at that instant. The Lite
//! cases use a short interval so the ways really change mid-run.
//!
//! Energy is held to a bound, not an equality: probe and fill counts reach
//! observers once per block, so the series' running total at a mark may
//! lack the pending part of the current block (it lands in the next row),
//! but never more than the reference spent on the last block of accesses,
//! and never runs ahead of the reference.

use eeat_core::{Config, LiteParams, SimStats, Simulator, DEFAULT_BLOCK};
use eeat_obs::EpochSeries;
use eeat_workloads::Workload;

const INSTRUCTIONS: u64 = 600_000;
const BUCKET: u64 = 50_000;
const SEED: u64 = 42;

fn l1_4k_ways(sim: &Simulator) -> usize {
    sim.hierarchy()
        .l1_4k()
        .map(|t| t.active_ways())
        .unwrap_or(0)
}

/// `config` with a 100k-instruction Lite interval (six decisions per run).
fn short_interval(mut config: Config) -> Config {
    config.lite = config.lite.map(|p| LiteParams {
        interval_instructions: 100_000,
        ..p
    });
    config
}

/// Checks every row of a series run against the stepped reference;
/// returns the L1-4KB ways at the start and at each row.
fn assert_rows_match_chunked_runs(config: Config, workload: Workload) -> Vec<usize> {
    let name = config.name;
    let mut observed = Simulator::from_workload(config.clone(), workload, SEED);
    let initial_ways = l1_4k_ways(&observed);
    let energy = observed.telemetry_energy_observer();
    let mut series = EpochSeries::new(0, BUCKET, initial_ways, Some(energy));
    let observed_result = observed.run_with_observer(INSTRUCTIONS, &mut series);
    let rows = series.rows();
    assert_eq!(
        rows.len() as u64,
        INSTRUCTIONS / BUCKET,
        "{name}: row count"
    );

    // `trail[n]` is the reference's energy after its first `n` accesses.
    let mut reference = Simulator::from_workload(config, workload, SEED);
    let mut trail = vec![0.0];
    let mut prev = SimStats::default();
    let mut series_pj = 0.0;
    for (i, row) in rows.iter().enumerate() {
        let mark = (i as u64 + 1) * BUCKET;
        while reference.stats().instructions < mark {
            trail.push(reference.run(1).energy.total_pj());
        }
        let stats = *reference.stats();
        assert_eq!(trail.len() as u64, stats.accesses + 1, "{name}: run(1)");
        let l1_misses = stats.l1_misses - prev.l1_misses;
        let l2_misses = stats.l2_misses - prev.l2_misses;
        let kilo = (stats.instructions - prev.instructions) as f64 / 1000.0;
        assert_eq!(row.instructions, stats.instructions, "{name} row {i}");
        assert_eq!(row.l1_misses, l1_misses, "{name} row {i}: l1_misses");
        assert_eq!(row.l2_misses, l2_misses, "{name} row {i}: l2_misses");
        assert_eq!(
            row.l1_mpki.to_bits(),
            (l1_misses as f64 / kilo).to_bits(),
            "{name} row {i}: l1_mpki {}",
            row.l1_mpki
        );
        assert_eq!(
            row.l2_mpki.to_bits(),
            (l2_misses as f64 / kilo).to_bits(),
            "{name} row {i}: l2_mpki {}",
            row.l2_mpki
        );
        assert_eq!(
            row.l1_4k_ways,
            l1_4k_ways(&reference),
            "{name} row {i}: active ways"
        );
        series_pj += row.energy_pj;
        let n = trail.len() - 1;
        let (lag, slack) = (trail[n] - series_pj, 1e-9 * trail[n]);
        let block = trail[n] - trail[n.saturating_sub(DEFAULT_BLOCK)];
        let per_access = row.energy_pj / row.accesses as f64;
        assert!(
            row.energy_pj >= 0.0
                && row.pj_per_access.to_bits() == per_access.to_bits()
                && (-slack..=block + slack).contains(&lag),
            "{name} row {i}: {} pJ, {} pJ/access, lag {lag} pJ, last block {block} pJ",
            row.energy_pj,
            row.pj_per_access
        );
        prev = stats;
    }

    // The series is a pure accumulator: both simulations end identical.
    let final_result = reference.run(INSTRUCTIONS.saturating_sub(reference.stats().instructions));
    assert_eq!(final_result.stats, observed_result.stats, "{name}: stats");
    let total_pj = observed_result.energy.total_pj();
    assert!((final_result.energy.total_pj() - total_pj).abs() <= 1e-9 * total_pj);
    let row_ways = rows.iter().map(|row| row.l1_4k_ways);
    std::iter::once(initial_ways).chain(row_ways).collect()
}

#[test]
fn fig4_fixed_sizes_match_chunked_runs() {
    // The Figure 4 configuration set: Base plus the three THP sizes.
    for config in [
        Config::four_k(),
        Config::thp_with_l1_4k(64, 4),
        Config::thp_with_l1_4k(32, 2),
        Config::thp_with_l1_4k(16, 1),
    ] {
        assert_rows_match_chunked_runs(config, Workload::Mcf);
    }
}

#[test]
fn lite_rows_match_chunked_runs_while_resizing() {
    let ways = assert_rows_match_chunked_runs(short_interval(Config::tlb_lite()), Workload::Astar);
    assert!(
        ways.iter().any(|&w| w != ways[0]),
        "TLB_Lite never resized: {ways:?}"
    );
    // RMM_Lite adds range hits and range-TLB epoch settles (its L1-4KB
    // keeps all ways on omnetpp over this span).
    assert_rows_match_chunked_runs(short_interval(Config::rmm_lite()), Workload::Omnetpp);
}
