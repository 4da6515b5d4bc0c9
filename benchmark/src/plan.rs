//! The four workloads: which simulations each runs, and at what size.

use eeat_core::{Config, MultiCoreParams};
use eeat_workloads::Workload as Program;

/// A benchmark workload (a set of simulator runs sharing one purpose).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// 7 organizations × the 8 TLB-intensive programs, native, with the
    /// latency histograms every matrix bench attaches.
    MatrixNative,
    /// {4KB, CoLT} virtualized over walk-heavy programs, with periodic
    /// context-switch flushes that force cold two-dimensional walks.
    VirtWalk,
    /// 4 cores × 9 tenants: ASID retags, walker flushes on switch, and
    /// shootdown IPIs from huge-page demotion.
    CoresCoherence,
    /// A recorded mcf trace parsed from disk and replayed.
    ReplayTrace,
}

impl Workload {
    /// Every workload, in run order.
    pub const ALL: [Workload; 4] = [
        Workload::MatrixNative,
        Workload::VirtWalk,
        Workload::CoresCoherence,
        Workload::ReplayTrace,
    ];

    /// The workload's command-line and `BENCHMARK.json` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MatrixNative => "matrix_native",
            Workload::VirtWalk => "virt_walk",
            Workload::CoresCoherence => "cores_coherence",
            Workload::ReplayTrace => "replay_trace",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How large a pass runs its cells.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The plain pass: the budgets below.
    Plain,
    /// The traced pass: a quarter of every instruction budget, but at
    /// least [`TRACED_FLOOR`].
    Traced,
    /// One cell per workload at no more than 100k instructions.
    Smoke,
}

/// One simulation of a workload.
#[derive(Clone, Debug)]
pub struct Cell {
    /// `program/organization`, unique within the workload.
    pub id: String,
    /// The organization simulated.
    pub config: Config,
    /// The catalogued program whose spec (or trace) drives it.
    pub program: Program,
    /// Instructions to simulate (per core in multi-core cells).
    pub instructions: u64,
    /// Instructions per timed chunk (the quantum in multi-core cells).
    pub chunk: u64,
}

/// A workload's cells and run settings at one scale.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The simulations, in run order.
    pub cells: Vec<Cell>,
    /// Attach a `LatencyObserver` in the plain pass (the matrix benches do).
    pub latency_observer: bool,
    /// Context-switch flush interval of single-core cells.
    pub flush_interval: Option<u64>,
    /// Multi-core shape, for multi-core cells.
    pub cores: Option<MultiCoreParams>,
    /// Accesses in the replayed trace (replay only; 0 otherwise).
    pub trace_accesses: usize,
}

impl Plan {
    /// The plan of `workload` at `scale`.
    ///
    /// Plain budgets keep each Lite cell through at least two
    /// 1M-instruction intervals and each virtualized cell through several
    /// 1M-instruction flushes, and give every plain round at least 1000
    /// chunks; one plain round takes 1–3 s on a 2-core x86-64 host.
    pub fn new(workload: Workload, scale: Scale) -> Plan {
        let (programs, configs, instructions, chunk): (Vec<Program>, Vec<Config>, u64, u64) =
            match workload {
                Workload::MatrixNative => (
                    Program::TLB_INTENSIVE.to_vec(),
                    Config::all_registered().to_vec(),
                    2_000_000,
                    100_000,
                ),
                Workload::VirtWalk => (
                    vec![
                        Program::Mcf,
                        Program::Canneal,
                        Program::Astar,
                        Program::Omnetpp,
                    ],
                    vec![Config::four_k().virtualized(), Config::colt().virtualized()],
                    8_000_000,
                    50_000,
                ),
                Workload::CoresCoherence => (
                    vec![Program::Mcf, Program::Canneal],
                    vec![Config::thp(), Config::tlb_lite()],
                    6_250_000,
                    QUANTUM,
                ),
                Workload::ReplayTrace => (
                    vec![Program::Mcf],
                    vec![
                        Config::four_k(),
                        Config::thp(),
                        Config::rmm(),
                        Config::rmm_lite(),
                    ],
                    8_000_000,
                    25_000,
                ),
            };
        let mut cells: Vec<Cell> = programs
            .iter()
            .flat_map(|&program| {
                configs.iter().map(move |config| Cell {
                    id: format!("{}/{}", program.spec().name, config.name),
                    config: config.clone(),
                    program,
                    instructions,
                    chunk,
                })
            })
            .collect();
        let mut cores = (workload == Workload::CoresCoherence).then_some(MultiCoreParams {
            cores: 4,
            tenants: 9,
            quantum: QUANTUM,
            demotions_per_quantum: 1,
        });
        let mut trace_accesses = if workload == Workload::ReplayTrace {
            2_000_000
        } else {
            0
        };
        match scale {
            Scale::Plain => {}
            Scale::Traced => {
                for cell in &mut cells {
                    cell.instructions = (cell.instructions / 4).max(TRACED_FLOOR);
                }
            }
            Scale::Smoke => {
                cells.truncate(1);
                let cell = &mut cells[0];
                let share = cores.map_or(1, |c| c.cores as u64);
                cell.instructions = 100_000 / share;
                cell.chunk = 5_000;
                if let Some(c) = &mut cores {
                    c.quantum = cell.chunk;
                }
                trace_accesses = trace_accesses.min(20_000);
            }
        }
        Plan {
            cells,
            latency_observer: workload == Workload::MatrixNative,
            flush_interval: (workload == Workload::VirtWalk).then_some(1_000_000),
            cores,
            trace_accesses,
        }
    }
}

/// The inputs' seed in round `round` of a pass: the run's seed itself
/// first, then fresh inputs every round, so a run's medians span several
/// input sets and depend less on any one.
pub fn round_seed(seed: u64, round: usize) -> u64 {
    seed ^ (round as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Multi-core scheduling quantum: one demotion per core per 25k
/// instructions keeps the IPI bus busy without demoting every huge page.
const QUANTUM: u64 = 25_000;

/// Fewest instructions of a traced cell: past the first 1M-instruction Lite
/// interval, so Lite cells decide at least once.
const TRACED_FLOOR: u64 = 1_100_000;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::min_samples;

    #[test]
    fn every_plain_round_times_enough_chunks_for_a_p99() {
        for workload in Workload::ALL {
            let plan = Plan::new(workload, Scale::Plain);
            let chunks: u64 = plan
                .cells
                .iter()
                .map(|c| c.instructions.div_ceil(c.chunk))
                .sum();
            assert!(
                chunks >= min_samples(0.99) as u64,
                "{}: {chunks} chunks",
                workload.name()
            );
            let smoke = Plan::new(workload, Scale::Smoke);
            assert_eq!(smoke.cells.len(), 1);
            let cores = smoke.cores.map_or(1, |c| c.cores as u64);
            assert!(smoke.cells[0].instructions * cores <= 100_000);
        }
    }
}
