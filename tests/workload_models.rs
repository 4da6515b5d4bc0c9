//! Integration tests: the synthetic workload models exhibit the behavioural
//! signatures the paper reports for their real counterparts.

use eeat::core::{Config, Simulator};
use eeat::workloads::Workload;

const INSTR: u64 = 1_500_000;

fn run(config: Config, workload: Workload) -> eeat::core::RunResult {
    let mut sim = Simulator::from_workload(config, workload, 42);
    sim.run(INSTR)
}

#[test]
fn all_intensive_workloads_exceed_the_papers_threshold() {
    // The paper defines TLB-intensive as > 5 L1 MPKI with 4 KiB pages.
    for &w in &Workload::TLB_INTENSIVE {
        let r = run(Config::four_k(), w);
        assert!(
            r.stats.l1_mpki() > 5.0,
            "{w}: L1 MPKI {:.2}",
            r.stats.l1_mpki()
        );
    }
}

#[test]
fn mcf_and_cactus_are_walk_heavy() {
    // §3.2: "applications that suffer frequently from page walks, such as
    // cactusADM and mcf" — walk energy dominates their 4 KiB profile.
    for w in [Workload::Mcf, Workload::CactusADM] {
        let r = run(Config::four_k(), w);
        let walk_share = r.energy.walks_pj() / r.energy.total_pj();
        assert!(walk_share > 0.4, "{w}: walk share {walk_share:.2}");
    }
    // Counterpoint: canneal is L1-lookup dominated.
    let r = run(Config::four_k(), Workload::Canneal);
    let l1_share = r.energy.l1_pj() / r.energy.total_pj();
    assert!(l1_share > 0.5, "canneal L1 share {l1_share:.2}");
}

#[test]
fn fragmented_workloads_hit_the_4k_tlb_under_thp() {
    // Table 5: canneal and mummer draw ≥ ~85% of their L1 hits from the
    // 4 KiB TLB even with THP enabled.
    for w in [Workload::Canneal, Workload::Mummer] {
        let r = run(Config::tlb_lite(), w);
        let (h4k, _, _, _) = r.stats.l1_hit_shares();
        assert!(h4k > 0.8, "{w}: 4K hit share {h4k:.2}");
    }
    // Counterpoint: GemsFDTD and zeusmp are 2 MiB-hit dominated.
    for w in [Workload::GemsFDTD, Workload::Zeusmp] {
        let r = run(Config::tlb_lite(), w);
        let (_, h2m, _, _) = r.stats.l1_hit_shares();
        assert!(h2m > 0.5, "{w}: 2M hit share {h2m:.2}");
    }
}

#[test]
fn footprints_are_fully_mapped_and_range_counts_match_vmas() {
    for &w in &Workload::TLB_INTENSIVE {
        let sim = Simulator::from_workload(Config::rmm_lite(), w, 42);
        let asp = sim.address_space();
        let spec = w.spec();
        assert_eq!(
            asp.range_table().len() as u32,
            spec.vma_count(),
            "{w}: one range per allocation request"
        );
        assert_eq!(
            asp.range_table().covered_bytes(),
            (asp.base_pages() + asp.huge_pages() * 512) * 4096,
            "{w}: ranges cover the whole mapped footprint"
        );
    }
}

#[test]
fn phased_workloads_show_mpki_variation_over_time() {
    // Figure 4: astar changes phases (map-heavy search, then heap-heavy
    // backtracking at the 30 M-instruction boundary) with visibly
    // different MPKI at 4 KiB pages.
    // Sampled per 5 M instructions by running to each absolute mark and
    // differencing the cumulative stats.
    let mut sim = Simulator::from_workload(Config::four_k(), Workload::Astar, 42);
    let mut prev = *sim.stats();
    let mut mpkis = Vec::new();
    for mark in (1..=8).map(|k| k * 5_000_000) {
        let stats = sim.run(mark - sim.stats().instructions).stats;
        let kilo = (stats.instructions - prev.instructions) as f64 / 1000.0;
        mpkis.push((stats.l1_misses - prev.l1_misses) as f64 / kilo);
        prev = stats;
    }
    let before = mpkis[..5].iter().sum::<f64>() / 5.0; // phase 0
    let after = mpkis[6..].iter().sum::<f64>() / (mpkis.len() - 6) as f64;
    let ratio = before.max(after) / before.min(after).max(1e-9);
    assert!(ratio > 1.3, "astar phases should differ: {mpkis:?}");
}

#[test]
fn light_workloads_stay_light() {
    // Figure 12's workloads stress the TLBs less (the paper's selection
    // criterion in reverse).
    for w in [
        Workload::Povray,
        Workload::Swaptions,
        Workload::Hmmer,
        Workload::Gamess,
        Workload::Namd,
    ] {
        let r = run(Config::four_k(), w);
        assert!(
            r.stats.l1_mpki() < 6.0,
            "{w}: L1 MPKI {:.2} should be light",
            r.stats.l1_mpki()
        );
    }
}

#[test]
fn footprint_scale_orders_l2_pressure() {
    // Bigger random-touch footprints stress L2/walks more: mcf (1.6 GB)
    // must out-walk omnetpp (128 MB) at 4 KiB pages.
    let mcf = run(Config::four_k(), Workload::Mcf);
    let omnetpp = run(Config::four_k(), Workload::Omnetpp);
    assert!(mcf.stats.l2_mpki() > omnetpp.stats.l2_mpki());
}

#[test]
fn every_catalogued_workload_simulates() {
    // Smoke: all 43 models build an address space and run under THP.
    for w in Workload::all() {
        let mut sim = Simulator::from_workload(Config::thp(), w, 7);
        let r = sim.run(120_000);
        assert!(r.stats.accesses > 0, "{w} produced no accesses");
        assert_eq!(
            r.stats.l1_hits() + r.stats.l1_misses,
            r.stats.accesses,
            "{w}"
        );
    }
}
