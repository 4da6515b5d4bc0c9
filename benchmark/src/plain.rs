//! The plain pass: tracing off, the source of every end-to-end metric.

use std::time::{Duration, Instant};

use eeat_workloads::WorkloadSpec;

use crate::calibrate::Calibration;
use crate::check::{self, Tally};
use crate::engine::{self, Trace};
use crate::plan::{round_seed, Plan};
use crate::stats::{median, nearest_rank};

/// Builds per cell per round; the median build is the cell's setup time.
const BUILDS: usize = 3;

/// Rounds at least, so every per-cell and per-chunk median can outvote two
/// rounds disturbed by other load on the host.
const MIN_ROUNDS: usize = 5;

/// What the plain pass measured.
pub struct PlainResult {
    /// Σ over cells of the median build time (plus the median trace parse).
    pub setup_s: f64,
    /// Σ over cells of the median run time.
    pub run_s: f64,
    /// Simulated instructions of one round (all cells, all cores).
    pub instructions: u64,
    /// Host ns per simulated access of each chunk position (cell, chunk
    /// index): the median over rounds.
    pub chunk_ns: Vec<f64>,
    /// Rounds run.
    pub rounds: usize,
    /// The reference kernel, sampled after every cell.
    pub calibration: Calibration,
}

impl PlainResult {
    /// The end-to-end timings as measured: `setup_s`, `sim_mips`, `wall_s`,
    /// `ns_per_acc_p50`, `ns_per_acc_p99`.
    pub fn measured(&self) -> [(&'static str, f64); 5] {
        let quantile = |q| {
            if self.chunk_ns.is_empty() {
                f64::NAN
            } else {
                nearest_rank(&self.chunk_ns, q)
            }
        };
        [
            ("setup_s", self.setup_s),
            ("sim_mips", self.instructions as f64 / self.run_s / 1e6),
            ("wall_s", self.setup_s + self.run_s),
            ("ns_per_acc_p50", quantile(0.5)),
            ("ns_per_acc_p99", quantile(0.99)),
        ]
    }

    /// [`measured`](Self::measured) on the reference host's scale: times
    /// divided, and the rate multiplied, by the host's slowdown.
    pub fn scaled(&self) -> [(&'static str, f64); 5] {
        let slowdown = self.calibration.slowdown();
        self.measured().map(|(name, value)| {
            let value = if name == "sim_mips" {
                value * slowdown
            } else {
                value / slowdown
            };
            (name, value)
        })
    }
}

/// Runs every cell of `plan` round after round, for at least
/// [`MIN_ROUNDS`] rounds and `seconds` of measuring (reference runs
/// excluded); one round when `smoke`. Each round builds every cell
/// [`BUILDS`] times, runs the last build in chunks, checks the result, and
/// samples the reference kernel; the first round also checks each cell
/// against a single-call reference run.
pub fn run(
    plan: &Plan,
    specs: &[WorkloadSpec],
    trace: Option<&Trace>,
    seed: u64,
    seconds: f64,
    smoke: bool,
    tally: &mut Tally,
) -> PlainResult {
    let virtualized = plan.cells[0].config.depth.is_virtualized();
    let cells = plan.cells.len();
    let mut setup: Vec<Vec<f64>> = vec![Vec::new(); cells];
    let mut run: Vec<Vec<f64>> = vec![Vec::new(); cells];
    // chunks[cell][chunk index]: ns per access, one sample per round.
    let mut chunks: Vec<Vec<Vec<f64>>> = vec![Vec::new(); cells];
    let mut instructions = vec![0u64; cells];
    let mut parse = Vec::new();
    let mut calibration = Calibration::new();
    let start = Instant::now();
    // Time spent on the reference runs, which is not measuring.
    let mut checking = Duration::ZERO;
    let mut rounds = 0;
    loop {
        let accesses = trace.map(|t| {
            let (accesses, seconds) = t.parse_timed();
            parse.push(seconds);
            accesses
        });
        let seed = round_seed(seed, rounds);
        for (i, cell) in plan.cells.iter().enumerate() {
            let spec = &specs[i];
            let cell_start = Instant::now();
            let outcome = tally.attempt(&cell.id, || {
                let mut builds = Vec::with_capacity(BUILDS);
                let mut engine = None;
                for _ in 0..BUILDS {
                    let (e, setup, _) =
                        engine::build(plan, cell, spec, seed, accesses.as_deref(), false);
                    builds.push(setup.total());
                    engine = Some(e);
                }
                let mut engine = engine.expect("built at least once");
                let mut samples = Vec::new();
                let begin = Instant::now();
                let results = engine.run_planned(plan, cell, |s, e, acc| {
                    samples.push((e - s).as_nanos() as f64 / acc.max(1) as f64);
                })?;
                let elapsed = begin.elapsed();
                check::invariants(&results, virtualized)?;
                if rounds == 0 {
                    let begin = Instant::now();
                    let mut reference =
                        engine::build_reference(plan, cell, spec, seed, accesses.as_deref());
                    let single = reference.run_once(cell);
                    checking += begin.elapsed();
                    check::same_run(&results, &single)?;
                }
                Ok((
                    builds,
                    elapsed,
                    samples,
                    check::total(&results).instructions,
                ))
            });
            if let Some((builds, elapsed, samples, instr)) = outcome {
                setup[i].extend(builds);
                run[i].push(elapsed.as_secs_f64());
                let positions = &mut chunks[i];
                positions.resize(positions.len().max(samples.len()), Vec::new());
                for (position, sample) in positions.iter_mut().zip(samples) {
                    position.push(sample);
                }
                instructions[i] = instr;
            }
            // One kernel sample per started quarter second of the cell, so
            // the samples spread over the pass as its time does.
            let quarters = (cell_start.elapsed().as_secs_f64() / 0.25).ceil().max(1.0);
            for _ in 0..quarters as usize {
                calibration.sample();
            }
        }
        rounds += 1;
        let measured = start.elapsed() - checking;
        if smoke || (rounds >= MIN_ROUNDS && measured >= Duration::from_secs_f64(seconds)) {
            break;
        }
    }
    let medians = |samples: &[Vec<f64>]| -> Vec<f64> {
        samples
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| median(s))
            .collect()
    };
    let parse_s = if parse.is_empty() {
        0.0
    } else {
        median(&parse)
    };
    PlainResult {
        setup_s: parse_s + medians(&setup).iter().sum::<f64>(),
        run_s: medians(&run).iter().sum(),
        instructions: instructions.iter().sum(),
        chunk_ns: chunks.iter().flat_map(|c| medians(c)).collect(),
        rounds,
        calibration,
    }
}
