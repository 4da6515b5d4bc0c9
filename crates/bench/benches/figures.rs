//! Std-only benches — one target per table/figure of the paper.
//!
//! These measure the wall-clock cost of regenerating each experiment at a
//! reduced instruction budget (the printable versions live in `src/bin/`);
//! they double as end-to-end smoke tests that every experiment path stays
//! healthy under `cargo bench`.

use eeat_bench::{fig4_fixed_sizes, timing::Harness};
use eeat_core::{fig3_walk_locality, lite_sensitivity, Config, Experiment};
use eeat_workloads::Workload;
use std::hint::black_box;

/// Small budget so each sample stays fast.
const INSTR: u64 = 400_000;

fn quick() -> Experiment {
    Experiment::new().with_instructions(INSTR).with_seed(7)
}

fn main() {
    let mut h = Harness::new();

    let fig2_configs = [Config::four_k(), Config::thp(), Config::rmm()];
    h.bench("fig2_energy_breakdown", || {
        black_box(quick().run_workload(Workload::Mcf, &fig2_configs))
    });

    h.bench("fig3_walk_locality", || {
        black_box(fig3_walk_locality(
            Workload::Mcf,
            INSTR,
            7,
            &[1.0, 0.5, 0.0],
        ))
    });

    h.bench("fig4_fixed_sizes", || {
        black_box(fig4_fixed_sizes(Workload::Astar, INSTR, INSTR / 10, 7))
    });

    let fig10_configs = Config::all_six();
    h.bench("fig10_main_result", || {
        black_box(quick().run_workload(Workload::CactusADM, &fig10_configs))
    });

    let fig11_configs = [Config::four_k(), Config::rmm_lite()];
    h.bench("fig11_mpki", || {
        let r = quick().run_workload(Workload::GemsFDTD, &fig11_configs);
        let s = &r.runs[1].result.stats;
        black_box((s.l1_mpki(), s.l2_mpki()))
    });

    let fig12_configs = [Config::thp(), Config::tlb_lite(), Config::rmm_lite()];
    h.bench("fig12_other_workloads", || {
        black_box(quick().run_workload(Workload::Povray, &fig12_configs))
    });

    let model = eeat_energy::EnergyModel::sandy_bridge();
    h.bench("table2_energy_model", || {
        let mut total = 0.0;
        for ways in [1usize, 2, 4] {
            total += black_box(model.l1_4k(ways).read_pj);
            total += black_box(model.l1_2m(ways).read_pj);
        }
        total += model.l1_range().read_pj + model.l2_page().read_pj;
        black_box(total)
    });

    let table5_configs = [Config::tlb_lite(), Config::rmm_lite()];
    h.bench("table5_way_residency", || {
        let r = quick().run_workload(Workload::Zeusmp, &table5_configs);
        let s = &r.runs[1].result.stats;
        black_box((s.l1_4k_way_shares(), s.l1_hit_shares()))
    });

    h.bench("sensitivity_lite_params", || {
        black_box(lite_sensitivity(
            Workload::Astar,
            INSTR,
            7,
            &[100_000, 200_000],
            &[1.0 / 32.0],
        ))
    });
}
