//! Building and running one cell, and the replay workload's trace file.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::PathBuf;
use std::time::Instant;

use eeat_core::{Config, MultiCoreSim, RunResult, Simulator};
use eeat_obs::{EpochSeries, LatencyObserver};
use eeat_os::AddressSpace;
use eeat_types::events::Observer;
use eeat_types::{MemAccess, VirtAddr, VirtRange};
use eeat_workloads::{trace_file, TraceGenerator, Workload as Program, WorkloadSpec};

use crate::check;
use crate::plan::{Cell, Plan};
use crate::stats::{chunk_marks, to_mark};

/// The replay workload's input: a text trace written once, untimed, and
/// parsed by `trace_file::read_trace` on every round.
pub struct Trace {
    path: PathBuf,
}

impl Trace {
    /// Generates `accesses` accesses of `program` (as a `4KB` native run
    /// lays it out) and writes them to `path`.
    pub fn record(
        path: PathBuf,
        program: Program,
        accesses: usize,
        seed: u64,
    ) -> io::Result<Trace> {
        let (_, mut generator) = populate(
            &Config::four_k(),
            &program.spec(),
            seed,
            &mut Setup::default(),
        );
        let mut buf = vec![MemAccess::load(VirtAddr::new(0)); accesses];
        generator.fill(&mut buf);
        let mut out = BufWriter::new(File::create(&path)?);
        trace_file::write_trace(&mut out, buf)?;
        out.flush()?;
        Ok(Trace { path })
    }

    /// Parses the trace, returning it with the host seconds parsing took.
    ///
    /// # Panics
    ///
    /// Panics when the file written by [`Trace::record`] cannot be read
    /// back.
    pub fn parse_timed(&self) -> (Vec<MemAccess>, f64) {
        let start = Instant::now();
        let file = File::open(&self.path)
            .unwrap_or_else(|e| panic!("cannot open {}: {e}", self.path.display()));
        let accesses = trace_file::read_trace(BufReader::new(file))
            .unwrap_or_else(|e| panic!("cannot parse {}: {e}", self.path.display()));
        (accesses, start.elapsed().as_secs_f64())
    }
}

/// A built simulation: one core, or a `MultiCoreSim`.
pub enum Engine {
    Single(Box<Simulator>),
    Multi(Box<MultiCoreSim>),
}

/// `AddressSpace` construction, virtualization and `mmap`s (`eeat-os`).
pub const POPULATE: &str = "os.populate";
/// `TraceGenerator::new` (`eeat-workloads`).
pub const GENERATOR_NEW: &str = "workloads.generator_new";
/// `Simulator::assemble`, `Simulator::from_trace` or
/// `MultiCoreSim::from_spec` (`eeat-core`).
pub const ASSEMBLE: &str = "core.assemble";

/// The timed steps of building one cell, named by the crate doing the work.
#[derive(Clone, Debug, Default)]
pub struct Setup {
    /// `(layer, start, end)` per step, in order.
    pub steps: Vec<(&'static str, Instant, Instant)>,
}

impl Setup {
    /// Runs `f` as the step `layer`.
    pub fn step<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let value = f();
        self.steps.push((layer, start, Instant::now()));
        value
    }

    /// Seconds spent in `layer`.
    pub fn seconds(&self, layer: &str) -> f64 {
        self.steps
            .iter()
            .filter(|(name, _, _)| *name == layer)
            .map(|(_, start, end)| (*end - *start).as_secs_f64())
            .sum()
    }

    /// Seconds across every step.
    pub fn total(&self) -> f64 {
        self.steps
            .iter()
            .map(|(_, start, end)| (*end - *start).as_secs_f64())
            .sum()
    }
}

/// Maps `spec`'s regions into a fresh address space and builds its
/// generator — what `Simulator::from_spec` does, step by step so each
/// crate's share can be timed.
pub fn populate(
    config: &Config,
    spec: &WorkloadSpec,
    seed: u64,
    setup: &mut Setup,
) -> (AddressSpace, TraceGenerator) {
    let (space, regions) = setup.step(POPULATE, || {
        let mut space = AddressSpace::new(config.policy, seed);
        if config.depth.is_virtualized() {
            space.virtualize();
        }
        space.set_alloc_contiguity(spec.alloc_contiguity);
        let regions: Vec<Vec<VirtRange>> = spec
            .regions
            .iter()
            .map(|r| {
                (0..r.count)
                    .map(|_| space.mmap(r.bytes, r.thp_eligible, r.name))
                    .collect()
            })
            .collect();
        (space, regions)
    });
    let generator = setup.step(GENERATOR_NEW, || TraceGenerator::new(spec, regions, seed));
    (space, generator)
}

/// Builds `cell`. `trace` is the parsed trace of a replay workload; a
/// clone of the synthetic generator is returned when `keep_generator`
/// (the traced pass replays its stream through standalone layers).
pub fn build(
    plan: &Plan,
    cell: &Cell,
    spec: &WorkloadSpec,
    seed: u64,
    trace: Option<&[MemAccess]>,
    keep_generator: bool,
) -> (Engine, Setup, Option<TraceGenerator>) {
    let mut setup = Setup::default();
    let config = cell.config.clone();
    if let Some(params) = plan.cores {
        let sim = setup.step(ASSEMBLE, || {
            MultiCoreSim::from_spec(config, spec, params, seed)
        });
        return (Engine::Multi(Box::new(sim)), setup, None);
    }
    if let Some(trace) = trace {
        let accesses = trace.to_vec();
        let sim = setup.step(ASSEMBLE, || Simulator::from_trace(config, accesses, seed));
        return (Engine::Single(Box::new(sim)), setup, None);
    }
    let (space, generator) = populate(&config, spec, seed, &mut setup);
    let kept = keep_generator.then(|| generator.clone());
    let sim = setup.step(ASSEMBLE, || {
        let mut sim = Simulator::assemble(config, space, generator, seed);
        sim.set_flush_interval(plan.flush_interval);
        sim
    });
    (Engine::Single(Box::new(sim)), setup, kept)
}

/// Builds `cell` the way a user of the library would — one call — for the
/// single-call reference run the chunked run is checked against.
pub fn build_reference(
    plan: &Plan,
    cell: &Cell,
    spec: &WorkloadSpec,
    seed: u64,
    trace: Option<&[MemAccess]>,
) -> Engine {
    if let Some(params) = plan.cores {
        return Engine::Multi(Box::new(MultiCoreSim::from_spec(
            cell.config.clone(),
            spec,
            params,
            seed,
        )));
    }
    let mut sim = match trace {
        Some(trace) => Simulator::from_trace(cell.config.clone(), trace.to_vec(), seed),
        None => Simulator::from_spec(cell.config.clone(), spec, seed),
    };
    sim.set_flush_interval(plan.flush_interval);
    Engine::Single(Box::new(sim))
}

impl Engine {
    /// Cores simulated.
    pub fn cores(&self) -> usize {
        match self {
            Engine::Single(_) => 1,
            Engine::Multi(m) => m.cores(),
        }
    }

    /// The simulator of `core`.
    pub fn core(&self, core: usize) -> &Simulator {
        match self {
            Engine::Single(sim) => sim,
            Engine::Multi(m) => m.simulator(core),
        }
    }

    /// Runs `cell` in timed chunks with `observers[core]` attached, calling
    /// `on_chunk(start, end, accesses)` after each; returns the final
    /// per-core results. Single-core chunks stop at absolute instruction
    /// marks; a multi-core chunk is one `run(quantum)` call.
    ///
    /// # Panics
    ///
    /// Panics when `observers` does not hold one observer per core.
    pub fn run_chunks<E: Observer>(
        &mut self,
        cell: &Cell,
        observers: &mut [E],
        mut on_chunk: impl FnMut(Instant, Instant, u64),
    ) -> Vec<RunResult> {
        assert_eq!(observers.len(), self.cores(), "one observer per core");
        let mut accesses = 0;
        let mut last = Vec::new();
        match self {
            Engine::Single(sim) => {
                for mark in chunk_marks(cell.instructions, cell.chunk) {
                    let Some(n) = to_mark(mark, sim.stats().instructions) else {
                        continue;
                    };
                    let start = Instant::now();
                    let result = sim.run_with_observer(n, &mut observers[0]);
                    let end = Instant::now();
                    on_chunk(start, end, result.stats.accesses - accesses);
                    accesses = result.stats.accesses;
                    last = vec![result];
                }
            }
            Engine::Multi(m) => {
                let mut remaining = cell.instructions;
                while remaining > 0 {
                    let n = remaining.min(cell.chunk);
                    let start = Instant::now();
                    let result = m.run_with(n, observers);
                    let end = Instant::now();
                    let total: u64 = result.per_core.iter().map(|c| c.run.stats.accesses).sum();
                    on_chunk(start, end, total - accesses);
                    accesses = total;
                    remaining -= n;
                    last = result.per_core.into_iter().map(|c| c.run).collect();
                }
            }
        }
        last
    }

    /// [`run_chunks`](Self::run_chunks) as the plain pass runs `cell`: with
    /// one `LatencyObserver` per core when the plan attaches them (each
    /// must hold one sample per access), with no extra observer otherwise.
    pub fn run_planned(
        &mut self,
        plan: &Plan,
        cell: &Cell,
        on_chunk: impl FnMut(Instant, Instant, u64),
    ) -> Result<Vec<RunResult>, String> {
        if !plan.latency_observer {
            let mut observers = vec![(); self.cores()];
            return Ok(self.run_chunks(cell, &mut observers, on_chunk));
        }
        let mut observers = self.latency_observers();
        let results = self.run_chunks(cell, &mut observers, on_chunk);
        for (obs, r) in observers.iter_mut().zip(&results) {
            check::latency_count(obs.merged().count(), r.stats.accesses)?;
        }
        Ok(results)
    }

    /// Runs `cell` in one call — the reference a chunked run must match.
    pub fn run_once(&mut self, cell: &Cell) -> Vec<RunResult> {
        match self {
            Engine::Single(sim) => vec![sim.run(cell.instructions)],
            Engine::Multi(m) => m
                .run(cell.instructions)
                .per_core
                .into_iter()
                .map(|c| c.run)
                .collect(),
        }
    }

    /// One fresh `LatencyObserver` per core.
    pub fn latency_observers(&self) -> Vec<LatencyObserver> {
        vec![LatencyObserver::default(); self.cores()]
    }

    /// One energy observer per core, configured like the core's own sink.
    pub fn energy_observers(&self) -> Vec<eeat_energy::EnergyObserver> {
        (0..self.cores())
            .map(|c| self.core(c).telemetry_energy_observer())
            .collect()
    }

    /// One `EpochSeries` per core sampling 20 buckets over `cell`, with
    /// embedded energy columns (what `EEAT_SERIES=1` attaches).
    pub fn series_observers(&self, cell: &Cell) -> Vec<EpochSeries> {
        let bucket = (cell.instructions / 20).max(1);
        (0..self.cores())
            .map(|c| {
                let sim = self.core(c);
                let ways = sim.hierarchy().l1_4k().map_or(0, |t| t.active_ways());
                EpochSeries::new(0, bucket, ways, Some(sim.telemetry_energy_observer()))
            })
            .collect()
    }
}
