//! Batched-loop equivalence: `run_block` ≡ `run_per_access_with`, bit for
//! bit.
//!
//! The block-driven hot loop must be a pure throughput optimization: for
//! every configuration, every block size, and every run-flavour mix, the
//! `RunResult` — stats counters, per-structure energy as raw IEEE-754 bit
//! patterns, and the cycle split — must equal the unbatched reference
//! implementation exactly. `run_with_observer` rides the same generic
//! pipeline with an extra observer in its slot and is held to the same
//! standard.

use eeat_core::{Config, RunResult, Simulator, DEFAULT_BLOCK};
use eeat_energy::Structure;
use eeat_types::events::{Observer, TranslationEvent};
use eeat_workloads::Workload;

const INSTRUCTIONS: u64 = 300_000;
const SEED: u64 = 42;

/// Block sizes worth pinning: degenerate (1), odd (3), and two powers of
/// two including the default.
const BLOCKS: [usize; 4] = [1, 3, 256, DEFAULT_BLOCK];

/// The canonical configurations of the golden-parity suite.
fn cases() -> Vec<(&'static str, Simulator)> {
    let sim = |config: Config| Simulator::from_workload(config, Workload::Mcf, SEED);
    let mut with_flush = sim(Config::tlb_lite());
    with_flush.set_flush_interval(Some(230_000));
    vec![
        ("four_k", sim(Config::four_k())),
        ("thp", sim(Config::thp())),
        ("tlb_lite", sim(Config::tlb_lite())),
        ("rmm", sim(Config::rmm())),
        ("rmm_lite", sim(Config::rmm_lite())),
        ("tlb_pp", sim(Config::tlb_pp())),
        ("tlb_pred", sim(Config::tlb_pred())),
        ("fa_lite", sim(Config::fa_lite())),
        ("tlb_lite_flush", with_flush),
    ]
}

/// Rebuilds the named case from scratch (fresh simulator, same seed).
fn rebuild(name: &str) -> Simulator {
    cases()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, sim)| sim)
        .expect("known case name")
}

/// Asserts two results identical: integer counters by equality, energy by
/// raw bit pattern (stricter than `f64` equality: rules out `-0.0`/`0.0`
/// and NaN aliasing).
fn assert_identical(label: &str, got: &RunResult, want: &RunResult) {
    assert_eq!(got.stats, want.stats, "[{label}] stats diverged");
    assert_eq!(got.cycles, want.cycles, "[{label}] cycles diverged");
    for structure in Structure::ALL {
        assert_eq!(
            got.energy.pj(structure).to_bits(),
            want.energy.pj(structure).to_bits(),
            "[{label}] energy({structure}) diverged: {} vs {}",
            got.energy.pj(structure),
            want.energy.pj(structure),
        );
    }
}

#[test]
fn run_block_matches_per_access_for_all_cases_and_block_sizes() {
    for (name, mut reference) in cases() {
        let want = reference.run_per_access_with(INSTRUCTIONS, &mut ());
        for block in BLOCKS {
            let got = rebuild(name).run_block(INSTRUCTIONS, block);
            assert_identical(&format!("{name} block={block}"), &got, &want);
        }
    }
}

/// Counts the steps the pipeline reports to the observer slot.
struct StepCounter(u64);

impl Observer for StepCounter {
    fn on_event(&mut self, event: &TranslationEvent) {
        if let TranslationEvent::StepEnd = event {
            self.0 += 1;
        }
    }
}

#[test]
fn observer_run_matches_per_access() {
    // An extra observer rides the generic observer slot; it sees every
    // step and must not perturb the simulation.
    for (name, mut reference) in cases() {
        let want = reference.run_per_access_with(INSTRUCTIONS, &mut ());
        let mut steps = StepCounter(0);
        let got = rebuild(name).run_with_observer(INSTRUCTIONS, &mut steps);
        assert_identical(&format!("{name} observer"), &got, &want);
        assert_eq!(steps.0, got.stats.accesses, "[{name}] one step per access");
    }
}

#[test]
fn mixed_flavours_drain_block_leftovers_in_order() {
    // Alternating run flavours on one simulator must consume the exact
    // same access stream as either flavour alone: buffered leftovers are
    // drained before the source is consulted again.
    for (name, mut reference) in cases() {
        let _ = reference.run_per_access_with(INSTRUCTIONS, &mut ());
        let want = reference.run_per_access_with(INSTRUCTIONS, &mut ());

        let mut mixed = rebuild(name);
        // An odd block size guarantees leftovers at the handoff.
        let _ = mixed.run_block(INSTRUCTIONS, 777);
        let got = mixed.run_per_access_with(INSTRUCTIONS, &mut ());
        assert_identical(&format!("{name} mixed"), &got, &want);
    }
}

#[test]
fn equivalence_survives_huge_page_demotion_and_flushes() {
    // Fuzz-seeded sweep over run/demote/run schedules: the mid-run
    // break_huge_pages shootdown and context-switch flushes must commute
    // with batching exactly.
    type ConfigCtor = fn() -> Config;
    let configs: [(&str, ConfigCtor); 3] = [
        ("thp", Config::thp),
        ("rmm_lite", Config::rmm_lite),
        ("tlb_pp", Config::tlb_pp),
    ];
    for (cname, config) in configs {
        for seed in [1, 7, 99] {
            let schedule = |mut sim: Simulator, batched: bool| {
                sim.set_flush_interval(Some(90_000 + seed * 1_000));
                let run = |sim: &mut Simulator, n: u64| {
                    if batched {
                        sim.run_block(n, 64)
                    } else {
                        sim.run_per_access_with(n, &mut ())
                    }
                };
                let _ = run(&mut sim, 120_000);
                let demoted = sim.break_huge_pages(8 + seed);
                let result = run(&mut sim, 120_000);
                (demoted, result)
            };
            let workload = Workload::Mcf;
            let (d1, want) = schedule(Simulator::from_workload(config(), workload, seed), false);
            let (d2, got) = schedule(Simulator::from_workload(config(), workload, seed), true);
            assert_eq!(d1, d2, "[{cname} seed={seed}] demotion count diverged");
            assert_identical(&format!("{cname} seed={seed} demote"), &got, &want);
        }
    }
}
