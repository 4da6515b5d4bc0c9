//! End-to-end behaviour of the staged translation pipeline, one test per
//! paper mechanism (these ran inside `simulator.rs` before the pipeline
//! split; they exercise only the public API).

use eeat_core::{Config, Simulator};
use eeat_energy::Structure;
use eeat_types::{AccessKind, MemAccess, VirtAddr};
use eeat_workloads::{trace_file, Pattern, PhaseSpec, RegionSpec, StreamSpec, WorkloadSpec};

/// A small, fast workload: 2 MiB hot region + 64 MiB cold region.
fn small_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "unit",
        mem_ops_per_kilo_instr: 300,
        store_fraction: 0.2,
        regions: vec![
            RegionSpec {
                name: "hot",
                bytes: 128 << 10,
                count: 1,
                thp_eligible: false,
            },
            RegionSpec {
                name: "cold",
                bytes: 64 << 20,
                count: 1,
                thp_eligible: true,
            },
        ],
        streams: vec![
            StreamSpec {
                region: 0,
                pattern: Pattern::Hotspot {
                    hot_fraction: 0.5,
                    hot_prob: 0.9,
                },
                region_switch_prob: 0.0,
            },
            StreamSpec {
                region: 1,
                pattern: Pattern::Random,
                region_switch_prob: 0.0,
            },
        ],
        phases: vec![PhaseSpec {
            duration_units: 1,
            weights: vec![(0, 0.8), (1, 0.2)],
        }],
        phase_unit_instructions: 100_000,
        alloc_contiguity: 1.0,
    }
}

#[test]
fn counters_are_consistent() {
    let mut sim = Simulator::from_spec(Config::four_k(), &small_spec(), 1);
    let r = sim.run(200_000);
    assert!(r.stats.instructions >= 200_000);
    assert!(r.stats.accesses > 0);
    // Hits + misses == accesses.
    assert_eq!(r.stats.l1_hits() + r.stats.l1_misses, r.stats.accesses);
    // L2 misses never exceed L1 misses.
    assert!(r.stats.l2_misses <= r.stats.l1_misses);
    assert_eq!(
        r.stats.l2_hits_page + r.stats.l2_hits_range + r.stats.l2_misses,
        r.stats.l1_misses
    );
    // Cycles follow Table 3 exactly.
    assert_eq!(r.cycles.l1_miss_cycles, 7 * r.stats.l1_misses);
    assert_eq!(r.cycles.l2_miss_cycles, 50 * r.stats.l2_misses);
    // Energy is positive and includes L1 lookups.
    assert!(r.energy.pj(Structure::L1Page4K) > 0.0);
    assert!(r.energy.total_pj() > 0.0);
}

#[test]
fn four_k_has_no_2m_energy() {
    let mut sim = Simulator::from_spec(Config::four_k(), &small_spec(), 1);
    let r = sim.run(100_000);
    assert_eq!(r.energy.pj(Structure::L1Page2M), 0.0);
    assert_eq!(r.energy.pj(Structure::L1Range), 0.0);
    assert_eq!(r.energy.pj(Structure::L2Range), 0.0);
    assert_eq!(r.stats.l1_hits_2m, 0);
}

#[test]
fn thp_reduces_misses_but_adds_l1_energy() {
    let mut four_k = Simulator::from_spec(Config::four_k(), &small_spec(), 1);
    let mut thp = Simulator::from_spec(Config::thp(), &small_spec(), 1);
    let a = four_k.run(400_000);
    let b = thp.run(400_000);
    // The cold region is THP-backed: fewer L2 misses (walks).
    assert!(
        b.stats.l2_mpki() < a.stats.l2_mpki(),
        "THP should reduce walks: {} vs {}",
        b.stats.l2_mpki(),
        a.stats.l2_mpki()
    );
    // But the second L1 structure costs energy on every access.
    assert!(b.energy.pj(Structure::L1Page2M) > 0.0);
    assert!(b.stats.l1_hits_2m > 0, "cold region hits the 2M TLB");
}

#[test]
fn rmm_eliminates_walks() {
    let mut rmm = Simulator::from_spec(Config::rmm(), &small_spec(), 1);
    let r = rmm.run(400_000);
    // After warmup both VMAs sit in the 32-entry L2-range TLB: walks
    // only happen before the first fills.
    assert!(
        r.stats.l2_misses < 10,
        "L2-range covers both VMAs: {}",
        r.stats.l2_misses
    );
    assert!(r.stats.l2_hits_range > 0);
    assert!(r.energy.pj(Structure::L2Range) > 0.0);
}

#[test]
fn rmm_lite_hits_l1_range_and_downsizes() {
    let mut sim = Simulator::from_spec(Config::rmm_lite(), &small_spec(), 1);
    let r = sim.run(3_000_000);
    assert!(r.stats.l1_hits_range > 0, "L1-range TLB serves hits");
    // With two VMAs in a 4-entry L1-range TLB nearly everything hits
    // there; Lite should have downsized the L1-4KB TLB.
    let ways = sim.hierarchy().l1_4k().unwrap().active_ways();
    assert!(ways < 4, "Lite should downsize, still at {ways} ways");
    assert!(r.stats.lite_intervals >= 2);
    // Way-time accounting: some lookups ran at a reduced size.
    let (w4, _w2, _w1) = r.stats.l1_4k_way_shares();
    assert!(w4 < 1.0);
}

#[test]
fn tlb_pp_uses_single_l1_structure() {
    let mut sim = Simulator::from_spec(Config::tlb_pp(), &small_spec(), 1);
    let r = sim.run(300_000);
    assert_eq!(r.energy.pj(Structure::L1Page2M), 0.0);
    // 2 MiB-backed accesses hit the unified structure.
    assert!(r.stats.l1_hits_4k > 0);
    assert_eq!(r.stats.l1_hits_2m, 0);
    // Reach advantage: fewer L1 misses than THP for the same trace.
    let mut thp = Simulator::from_spec(Config::thp(), &small_spec(), 1);
    let t = thp.run(300_000);
    assert!(r.energy.total_pj() < t.energy.total_pj());
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut sim = Simulator::from_spec(Config::tlb_lite(), &small_spec(), 7);
        let r = sim.run(400_000);
        (r.stats, r.energy.total_pj().to_bits(), r.cycles)
    };
    assert_eq!(run(), run());
}

#[test]
fn trace_replay_round_trip() {
    // A tiny hand-written trace: two hot pages plus one far page.
    let mut accesses = Vec::new();
    for i in 0..600u64 {
        let va = match i % 3 {
            0 => 0x10_0000_0000 + (i % 2) * 4096,
            1 => 0x10_0000_2000,
            _ => 0x20_0000_0000,
        };
        accesses.push(MemAccess::new(
            VirtAddr::new(va),
            if i % 4 == 0 {
                AccessKind::Store
            } else {
                AccessKind::Load
            },
            3,
        ));
    }
    let mut sim = Simulator::from_trace(Config::thp(), accesses.clone(), 1);
    let r = sim.run(600 * 3);
    assert_eq!(r.stats.accesses, 600);
    // Three hot pages + one far page: after warmup everything hits.
    assert!(r.stats.l1_misses <= 8, "misses {}", r.stats.l1_misses);
    // The trace loops when the run is longer than the recording.
    let r2 = sim.run(600 * 3);
    assert_eq!(r2.stats.accesses, 1200);

    // And the file format round-trips into the same simulation.
    let mut buf = Vec::new();
    trace_file::write_trace(&mut buf, accesses).unwrap();
    let parsed = trace_file::read_trace(buf.as_slice()).unwrap();
    let mut sim2 = Simulator::from_trace(Config::thp(), parsed, 1);
    let q = sim2.run(600 * 3);
    assert_eq!(q.stats.l1_misses, r.stats.l1_misses);
}

#[test]
fn context_switch_flushes_cost_misses() {
    let mut quiet = Simulator::from_spec(Config::thp(), &small_spec(), 1);
    let base = quiet.run(600_000);

    let mut noisy = Simulator::from_spec(Config::thp(), &small_spec(), 1);
    noisy.set_flush_interval(Some(50_000));
    let flushed = noisy.run(600_000);

    assert!(noisy.flushes() >= 11, "{} flushes", noisy.flushes());
    assert_eq!(base.stats.accesses, flushed.stats.accesses, "same trace");
    assert!(
        flushed.stats.l1_misses > base.stats.l1_misses,
        "cold-start misses after each switch"
    );
    assert!(flushed.stats.l2_misses > base.stats.l2_misses);
    // Disabling the interval stops further flushes.
    noisy.set_flush_interval(None);
    let before = noisy.flushes();
    noisy.run(200_000);
    assert_eq!(noisy.flushes(), before);
}

#[test]
fn tlb_pred_pays_for_second_probes() {
    // The realizable predictor: same behaviour as TLB_PP (both resolve
    // every lookup) but mispredicted/missing first probes cost a second
    // L1 read.
    let mut pp = Simulator::from_spec(Config::tlb_pp(), &small_spec(), 1);
    let mut pred = Simulator::from_spec(Config::tlb_pred(), &small_spec(), 1);
    let a = pp.run(400_000);
    let b = pred.run(400_000);
    // Identical traces, identical hit/miss outcomes (the retry checks
    // the alternate index, so no hit is ever lost).
    assert_eq!(a.stats.accesses, b.stats.accesses);
    assert_eq!(a.stats.l1_misses, b.stats.l1_misses);
    assert_eq!(a.stats.l2_misses, b.stats.l2_misses);
    // But TLB_Pred paid extra probes — at least one per L1 miss.
    assert!(b.stats.predictor_second_probes >= b.stats.l1_misses);
    assert!(a.stats.predictor_second_probes == 0);
    assert!(
        b.energy.total_pj() > a.energy.total_pj(),
        "realizable prediction costs energy over the perfect oracle"
    );
    let p = pred.predictor().expect("TLB_Pred has a predictor");
    assert!(p.predictions() > 0);
    // The region-hashed predictor learns quickly: mispredicts are rare.
    assert!(
        p.misprediction_ratio() < 0.05,
        "ratio {}",
        p.misprediction_ratio()
    );
}

#[test]
fn static_energy_gating_saves_leakage() {
    use eeat_energy::PowerGating;
    // A workload that downsizes under TLB_Lite: gated leakage < ungated.
    let mut sim = Simulator::from_spec(Config::tlb_lite(), &small_spec(), 1);
    sim.run(3_000_000);
    let gated = sim.static_energy(PowerGating::Gated);
    let ungated = sim.static_energy(PowerGating::None);
    assert!(gated.total_uj() > 0.0);
    assert!(
        gated.total_uj() <= ungated.total_uj(),
        "gating can only reduce leakage"
    );
    // Without Lite, gating changes nothing (always full size).
    let mut plain = Simulator::from_spec(Config::thp(), &small_spec(), 1);
    plain.run(1_000_000);
    let a = plain.static_energy(PowerGating::Gated);
    let b = plain.static_energy(PowerGating::None);
    assert!((a.total_uj() - b.total_uj()).abs() < 1e-9);
}

#[test]
fn fully_assoc_l1_organization() {
    // §4.4 extension: one FA structure serves both page sizes.
    let mut sim = Simulator::from_spec(Config::fa_thp(), &small_spec(), 1);
    let r = sim.run(300_000);
    assert!(sim.hierarchy().l1_fa().is_some());
    assert!(sim.hierarchy().l1_4k().is_none());
    assert!(sim.hierarchy().l1_2m().is_none());
    // Hits from both page sizes land in the FA structure.
    assert!(r.stats.l1_hits_4k > 0);
    assert_eq!(
        r.stats.l1_hits_2m, 0,
        "mixed structure reports in one column"
    );
    assert!(r.energy.pj(Structure::L1FullyAssoc) > 0.0);
    assert_eq!(r.energy.pj(Structure::L1Page4K), 0.0);
    assert_eq!(r.energy.pj(Structure::L1Page2M), 0.0);
    // The paper's premise: the 64-entry FA search costs more per lookup
    // than the separate set-associative structures.
    let mut thp = Simulator::from_spec(Config::thp(), &small_spec(), 1);
    let t = thp.run(300_000);
    assert!(
        r.energy.pj(Structure::L1FullyAssoc) > t.energy.pj(Structure::L1Page4K),
        "FA lookups should cost more than the 4K-way structure alone"
    );
    assert_eq!(r.stats.accesses, t.stats.accesses, "same trace");
}

#[test]
fn fa_lite_downsizes_in_powers_of_two() {
    // A near-resident working set: four hot pages dominate, so Lite can
    // shrink the 64-entry FA structure far below full size.
    let spec = WorkloadSpec {
        name: "tiny-hot",
        mem_ops_per_kilo_instr: 300,
        store_fraction: 0.2,
        regions: vec![RegionSpec {
            name: "hot",
            bytes: 16 << 20,
            count: 1,
            thp_eligible: false,
        }],
        streams: vec![StreamSpec {
            region: 0,
            pattern: Pattern::HotspotBurst {
                hot_fraction: 0.001, // ~4 pages
                hot_prob: 0.995,
                burst: 4,
                burst_stride: 64,
            },
            region_switch_prob: 0.0,
        }],
        phases: vec![PhaseSpec {
            duration_units: 1,
            weights: vec![(0, 1.0)],
        }],
        phase_unit_instructions: 100_000,
        alloc_contiguity: 1.0,
    };
    let mut sim = Simulator::from_spec(Config::fa_lite(), &spec, 1);
    let r = sim.run(2_000_000);
    let fa = sim.hierarchy().l1_fa().unwrap();
    assert!(fa.active_entries() <= 64);
    assert!(fa.active_entries().is_power_of_two());
    assert!(r.stats.lite_intervals >= 2);
    // Lite found a smaller size for this small-working-set workload.
    assert!(
        r.stats.l1_fa_mean_entries() < 64.0,
        "mean active entries {}",
        r.stats.l1_fa_mean_entries()
    );
    // Energy accounting went to the FA category only.
    assert!(r.energy.pj(Structure::L1FullyAssoc) > 0.0);
    assert_eq!(r.energy.pj(Structure::L1Page4K), 0.0);
}

#[test]
fn thp_breakdown_demotes_and_shoots_down() {
    let mut sim = Simulator::from_spec(Config::tlb_lite(), &small_spec(), 1);
    sim.run(200_000);
    let huge_before = sim.address_space().huge_pages();
    assert!(huge_before > 0, "the cold region is THP-backed");
    let occupancy_before = sim.hierarchy().l2_page().occupancy();
    let broken = sim.break_huge_pages(4);
    assert_eq!(broken, 4);
    assert_eq!(sim.address_space().huge_pages(), huge_before - 4);
    // The shootdown is precise: at most the four demoted mappings left the
    // L2, everything else survived the demotion.
    let occupancy_after = sim.hierarchy().l2_page().occupancy();
    assert!(occupancy_after + 4 >= occupancy_before);
    assert!(occupancy_after > 0, "unrelated entries survive");
    // Simulation continues and the demoted regions now walk as 4 KiB.
    let r = sim.run(200_000);
    assert!(r.stats.instructions >= 400_000);
    // Nothing was broken beyond what existed.
    assert_eq!(sim.break_huge_pages(0), 0);
}

#[test]
fn energy_accumulates_across_run_calls() {
    let mut sim = Simulator::from_spec(Config::thp(), &small_spec(), 1);
    let first = sim.run(100_000);
    let second = sim.run(100_000);
    assert!(second.energy.total_pj() > first.energy.total_pj());
    assert!(second.stats.instructions >= 2 * 100_000);
    // A single long run matches the two-part run exactly.
    let mut sim2 = Simulator::from_spec(Config::thp(), &small_spec(), 1);
    let long = sim2.run(second.stats.instructions - sim2.stats().instructions);
    assert_eq!(long.stats.accesses, second.stats.accesses);
    assert!((long.energy.total_pj() - second.energy.total_pj()).abs() < 1e-6);
}
