//! Differential tests for the per-block delta settle (the "lazy epoch
//! settle" hot-path accounting): for every registered organization, a
//! batched run whose probe/fill counts are accumulated as per-block deltas
//! must be bit-identical — stats, energy, and cycles — to the per-access
//! reference that settles after every step.
//!
//! These tests are the contract that lets the hot loop bump plain integers
//! instead of emitting per-access events: any drift between the two
//! accounting paths is a bug in the delta flush placement, not a tolerable
//! approximation.

use eeat_core::{Org, RunResult, Simulator};
use eeat_types::events::{Observer, TranslationEvent};
use eeat_workloads::{Pattern, PhaseSpec, RegionSpec, StreamSpec, WorkloadSpec};

/// A mixed-size workload that exercises 4 KiB and 2 MiB paths, hotspot
/// locality (so TLBs actually hit), and enough footprint to force L2
/// probes and page walks in every organization.
fn mixed_spec() -> WorkloadSpec {
    WorkloadSpec {
        name: "settle_diff",
        mem_ops_per_kilo_instr: 250,
        store_fraction: 0.3,
        regions: vec![
            RegionSpec {
                name: "huge",
                bytes: 128 << 20,
                count: 2,
                thp_eligible: true,
            },
            RegionSpec {
                name: "base",
                bytes: 24 << 20,
                count: 2,
                thp_eligible: false,
            },
        ],
        streams: vec![
            StreamSpec {
                region: 0,
                pattern: Pattern::Hotspot {
                    hot_fraction: 0.1,
                    hot_prob: 0.8,
                },
                region_switch_prob: 0.01,
            },
            StreamSpec {
                region: 1,
                pattern: Pattern::Random,
                region_switch_prob: 0.0,
            },
        ],
        phases: vec![PhaseSpec {
            duration_units: 1,
            weights: vec![(0, 0.6), (1, 0.4)],
        }],
        phase_unit_instructions: 50_000,
        alloc_contiguity: 0.8,
    }
}

const INSTRUCTIONS: u64 = 150_000;
const SEED: u64 = 20160312;

/// Asserts two results are bit-identical: stats via `Eq`, the float energy
/// and cycle accounts field by field via `to_bits` on their JSON-visible
/// totals (an `abs_diff` tolerance would mask accumulation-order drift,
/// which is exactly what these tests exist to catch).
fn assert_bit_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.stats, b.stats, "{what}: stats diverged");
    assert_eq!(
        a.energy.total_pj().to_bits(),
        b.energy.total_pj().to_bits(),
        "{what}: total energy diverged: {} vs {}",
        a.energy.total_pj(),
        b.energy.total_pj()
    );
    assert_eq!(a.energy, b.energy, "{what}: energy breakdown diverged");
    assert_eq!(a.cycles, b.cycles, "{what}: cycle breakdown diverged");
}

/// The tentpole equivalence: batched per-block delta accounting ==
/// per-access settling, for every registered organization (all seven,
/// including the resizable-Lite and coalesced ones whose decision
/// boundaries are the delicate flush points).
#[test]
fn per_block_deltas_match_per_access_reference_for_every_org() {
    for org in Org::all() {
        let config = org.config();
        let spec = mixed_spec();

        let mut batched = Simulator::from_spec(config.clone(), &spec, SEED);
        let blocked = batched.run(INSTRUCTIONS);

        let mut reference = Simulator::from_spec(config.clone(), &spec, SEED);
        let per_access = reference.run_per_access_with(INSTRUCTIONS, &mut ());

        assert!(
            blocked.stats.accesses > 1_000,
            "{}: workload must generate real traffic",
            org.name()
        );
        assert_bit_identical(&blocked, &per_access, org.name());
    }
}

/// Odd block sizes flush deltas at different points; totals must not care.
#[test]
fn block_size_never_changes_results() {
    for org in Org::all() {
        let config = org.config();
        let spec = mixed_spec();
        let mut canonical = Simulator::from_spec(config.clone(), &spec, SEED);
        let want = canonical.run_block(INSTRUCTIONS, 1024);
        for block in [1, 7, 97] {
            let mut sim = Simulator::from_spec(config.clone(), &spec, SEED);
            let got = sim.run_block(INSTRUCTIONS, block);
            assert_bit_identical(&got, &want, &format!("{} block={block}", org.name()));
        }
    }
}

/// Counts probe/fill operations from the event stream, whether they arrive
/// as per-access events or count-carrying delta flushes.
#[derive(Default)]
struct OpCounter {
    probes: u64,
    second_probes: u64,
    fills: u64,
    fixed_lookups: u64,
    fixed_fills: u64,
}

impl Observer for OpCounter {
    fn on_event(&mut self, event: &TranslationEvent) {
        match *event {
            TranslationEvent::Probe { count, .. } => self.probes += count,
            TranslationEvent::SecondProbe { count, .. } => self.second_probes += count,
            TranslationEvent::Fill { count, .. } => self.fills += count,
            TranslationEvent::FixedOps { lookups, fills, .. } => {
                self.fixed_lookups += lookups;
                self.fixed_fills += fills;
            }
            _ => {}
        }
    }
}

/// An external observer riding the block-settled run sees the same
/// operation totals the per-access reference accumulates in its stats:
/// nothing is lost or double-counted between flush boundaries.
#[test]
fn external_observer_sees_settled_totals() {
    for org in Org::all() {
        let config = org.config();
        let spec = mixed_spec();

        let mut observed = Simulator::from_spec(config.clone(), &spec, SEED);
        let mut counter = OpCounter::default();
        let with_observer = observed.run_with_observer(INSTRUCTIONS, &mut counter);

        let mut reference = Simulator::from_spec(config.clone(), &spec, SEED);
        let per_access = reference.run_per_access_with(INSTRUCTIONS, &mut ());

        assert_bit_identical(&with_observer, &per_access, org.name());

        // The observer's probe totals must equal the stats' own lookup
        // histograms — the same events built both.
        let s = &per_access.stats;
        let stat_probes: u64 = s.l1_4k_lookups_by_ways.iter().sum::<u64>()
            + s.l1_2m_lookups_by_ways.iter().sum::<u64>()
            + s.l1_fa_lookups_by_entries.iter().sum::<u64>();
        assert_eq!(
            counter.probes,
            stat_probes,
            "{}: observer probe total diverged from stats histograms",
            org.name()
        );
        assert_eq!(
            counter.second_probes,
            s.predictor_second_probes,
            "{}: observer second-probe total diverged",
            org.name()
        );
    }
}
