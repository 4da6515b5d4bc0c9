//! The traced pass: per-layer host time, timed from outside each crate.
//!
//! Every cell runs at the traced scale (see [`crate::plan::Scale`]),
//! several ways over:
//!
//! * `core.run.plain` — exactly as the plain pass runs it, untraced;
//! * `core.run` — the same run with one span per chunk, the traced run
//!   whose ratio to the plain one is the tracing overhead;
//! * `core.run.bare` / `obs.latency` / `obs.series` / `energy.sink` — no
//!   extra observer, or one `LatencyObserver`, `EpochSeries` or energy
//!   observer per core: each observer's marginal cost over the bare run;
//! * `workloads.fill`, `tlb.lookup`, `paging.walk` — standalone copies of
//!   the generator, a 64-entry 4-way L1 plus 512-entry 4-way L2 TLB, and
//!   the cell's page walker, fed the cell's own address stream.
//!
//! Setup steps are timed inside the build itself (see [`engine::Setup`]);
//! multi-core cells, whose tenants `MultiCoreSim::from_spec` builds in one
//! call, repeat the per-tenant steps standalone.

use std::hint::black_box;
use std::time::{Duration, Instant};

use eeat_core::{RunResult, SimStats, Simulator};
use eeat_os::AddressSpace;
use eeat_paging::{MmuCaches, NestedWalker, PageWalker};
use eeat_tlb::{PageTranslation, SetAssocTlb};
use eeat_types::events::Observer;
use eeat_types::{MemAccess, PageSize, Pfn, VirtAddr};
use eeat_workloads::{TraceGenerator, WorkloadSpec};

use crate::check::{self, Tally};
use crate::engine::{self, Engine, Setup, Trace, ASSEMBLE, GENERATOR_NEW, POPULATE};
use crate::plan::{round_seed, Cell, Plan};
use crate::spans::Spans;
use crate::stats::median;

/// Accesses per standalone generation block (the simulator's own).
const BLOCK: usize = eeat_core::DEFAULT_BLOCK;

/// Host time and simulated counts of one traced round, summed over cells.
#[derive(Clone, Debug, Default)]
struct Round {
    /// Counters of the `core.run` runs.
    stats: SimStats,
    energy_pj: f64,
    miss_cycles: u64,
    chunks: u64,
    plain_s: f64,
    traced_s: f64,
    bare_s: f64,
    latency_s: f64,
    series_s: f64,
    energy_s: f64,
    fill_s: f64,
    fill_n: u64,
    tlb_s: f64,
    tlb_lookups: u64,
    walk_s: f64,
    walks: u64,
    read_trace_s: f64,
    populate_s: f64,
    generator_s: f64,
    assemble_s: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Round {
    /// The per-layer metrics of this round, in `BENCHMARK.json` order.
    fn metrics(&self, plan: &Plan) -> Vec<(&'static str, f64)> {
        let s = &self.stats;
        let acc = s.accesses as f64;
        let (l1, l2) = (s.l1_misses as f64, s.l2_misses as f64);
        let kilo_instructions = s.instructions as f64 / 1000.0;
        let per_acc_ns = |seconds: f64| ratio(seconds * 1e9, acc);
        let fill_ns = ratio(self.fill_s * 1e9, self.fill_n as f64);
        let lookup_ns = ratio(self.tlb_s * 1e9, self.tlb_lookups as f64);
        let walk_ns = ratio(self.walk_s * 1e9, self.walks as f64);
        let run_ns = per_acc_ns(self.traced_s);
        let sink_ns = per_acc_ns(self.energy_s - self.bare_s);
        let latency_ns = per_acc_ns(self.latency_s - self.bare_s);
        // Layer time estimated inside one `core.run`: generation, one L1
        // probe per access plus one L2 probe per L1 miss, one walk per L2
        // miss, the energy sink, and the latency histograms where the
        // plain pass attaches them.
        let observed_ns = if plan.latency_observer {
            latency_ns
        } else {
            0.0
        };
        let walk_est_s = l2 * walk_ns * 1e-9;
        let attributed_s =
            (acc * (fill_ns + sink_ns + observed_ns) + (acc + l1) * lookup_ns) * 1e-9 + walk_est_s;
        vec![
            ("workloads.fill_ns_per_acc", fill_ns),
            ("workloads.read_trace_s", self.read_trace_s),
            ("workloads.generator_new_s", self.generator_s),
            ("os.populate_s", self.populate_s),
            ("core.assemble_s", self.assemble_s),
            ("core.run_ns_per_acc", run_ns),
            ("core.self_ns_per_acc", run_ns - fill_ns),
            ("core.asid_switches", s.asid_switches as f64),
            ("core.ipis_sent", s.ipis_sent as f64),
            ("core.ipi_invalidations", s.ipi_invalidations as f64),
            ("core.lite_intervals", s.lite_intervals as f64),
            ("core.lite_reactivations", s.lite_reactivations as f64),
            ("tlb.l1_mpki", ratio(l1, kilo_instructions)),
            ("tlb.l2_mpki", ratio(l2, kilo_instructions)),
            ("tlb.l1_hit_ratio", 1.0 - ratio(l1, acc)),
            ("tlb.l2_hit_ratio", 1.0 - ratio(l2, l1)),
            ("tlb.lookup_ns", lookup_ns),
            ("paging.walks", l2),
            ("paging.refs_per_walk", ratio(s.walk_memory_refs as f64, l2)),
            (
                "paging.host_refs_per_walk",
                ratio(s.host_walk_refs as f64, l2),
            ),
            ("paging.walk_ns", walk_ns),
            ("paging.est_share", ratio(walk_est_s, self.traced_s)),
            ("energy.pj_per_acc", ratio(self.energy_pj, acc)),
            (
                "energy.miss_cycles_per_kinst",
                ratio(self.miss_cycles as f64, kilo_instructions),
            ),
            ("energy.sink_ns_per_acc", sink_ns),
            ("obs.latency_ns_per_acc", latency_ns),
            (
                "obs.series_ns_per_acc",
                per_acc_ns(self.series_s - self.bare_s),
            ),
            ("bench.chunks", self.chunks as f64),
            ("bench.attributed_share", ratio(attributed_s, self.traced_s)),
            ("bench.trace_overhead", ratio(self.traced_s, self.plain_s)),
        ]
    }

    /// Adds one run's counters and energy.
    fn count(&mut self, results: &[RunResult]) {
        for r in results {
            check::add(&mut self.stats, &r.stats);
            self.energy_pj += r.energy.total_pj();
            self.miss_cycles += r.cycles.total();
        }
    }

    fn add_setup(&mut self, setup: &Setup) {
        self.populate_s += setup.seconds(POPULATE);
        self.generator_s += setup.seconds(GENERATOR_NEW);
        self.assemble_s += setup.seconds(ASSEMBLE);
    }
}

/// The traced pass's per-layer metrics (medians over rounds) and spans.
pub struct TracedResult {
    /// `(name, value)` in `BENCHMARK.json` order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Rounds run.
    pub rounds: usize,
    /// Every span recorded.
    pub spans: Spans,
}

/// Runs the traced pass round after round until `seconds` have passed (one
/// round when `smoke`).
pub fn run(
    plan: &Plan,
    specs: &[WorkloadSpec],
    trace: Option<&Trace>,
    seed: u64,
    seconds: f64,
    smoke: bool,
    tally: &mut Tally,
) -> TracedResult {
    let mut spans = Spans::new();
    let mut rounds: Vec<Round> = Vec::new();
    let start = Instant::now();
    loop {
        let mut round = Round::default();
        let accesses = trace.map(|t| {
            let begin = Instant::now();
            let (accesses, seconds) = t.parse_timed();
            let (cell, root) = spans.open_cell(format!("trace#{}", rounds.len()));
            spans.record(
                "workloads.read_trace",
                begin,
                Instant::now(),
                Some(root),
                cell,
            );
            spans.close(root);
            round.read_trace_s = seconds;
            accesses
        });
        for (i, cell) in plan.cells.iter().enumerate() {
            let spec = &specs[i];
            let mut part = Round::default();
            let ok = tally.attempt(&cell.id, || {
                let (span_cell, root) = spans.open_cell(format!("{}#{}", cell.id, rounds.len()));
                let ctx = Ctx {
                    plan,
                    cell,
                    spec,
                    seed: round_seed(seed, rounds.len()),
                    trace: accesses.as_deref(),
                    span_cell,
                    root,
                };
                let result = trace_cell(&ctx, &mut spans, &mut part);
                spans.close(root);
                result
            });
            if ok.is_some() {
                merge(&mut round, &part);
            }
        }
        rounds.push(round);
        if smoke || start.elapsed() >= Duration::from_secs_f64(seconds) {
            break;
        }
    }
    let per_round: Vec<Vec<(&'static str, f64)>> = rounds.iter().map(|r| r.metrics(plan)).collect();
    let metrics = per_round[0]
        .iter()
        .enumerate()
        .map(|(k, &(name, _))| {
            let values: Vec<f64> = per_round.iter().map(|m| m[k].1).collect();
            (name, median(&values))
        })
        .collect();
    TracedResult {
        metrics,
        rounds: rounds.len(),
        spans,
    }
}

/// Adds a finished cell's sums into its round.
fn merge(round: &mut Round, part: &Round) {
    check::add(&mut round.stats, &part.stats);
    macro_rules! add {
        ($($field:ident),*) => { $(round.$field += part.$field;)* };
    }
    add!(
        energy_pj,
        miss_cycles,
        chunks,
        plain_s,
        traced_s,
        bare_s,
        latency_s,
        series_s,
        energy_s,
        fill_s,
        fill_n,
        tlb_s,
        tlb_lookups,
        walk_s,
        walks,
        populate_s,
        generator_s,
        assemble_s
    );
}

/// One cell of one traced round.
struct Ctx<'a> {
    plan: &'a Plan,
    cell: &'a Cell,
    spec: &'a WorkloadSpec,
    seed: u64,
    trace: Option<&'a [MemAccess]>,
    span_cell: usize,
    root: usize,
}

impl Ctx<'_> {
    fn build(&self) -> Engine {
        engine::build(
            self.plan, self.cell, self.spec, self.seed, self.trace, false,
        )
        .0
    }

    /// Builds a fresh engine and runs it with `observers`, as one span
    /// named `name`; returns the run's host seconds.
    fn timed_run<E: Observer>(
        &self,
        spans: &mut Spans,
        name: &'static str,
        observers: impl FnOnce(&Engine) -> Vec<E>,
    ) -> Result<f64, String> {
        let mut engine = self.build();
        let mut observers = observers(&engine);
        let start = Instant::now();
        let results = engine.run_chunks(self.cell, &mut observers, |_, _, _| {});
        let end = Instant::now();
        spans.record(name, start, end, Some(self.root), self.span_cell);
        check::invariants(&results, self.cell.config.depth.is_virtualized())?;
        Ok((end - start).as_secs_f64())
    }
}

fn trace_cell(ctx: &Ctx, spans: &mut Spans, part: &mut Round) -> Result<(), String> {
    let (plan, cell) = (ctx.plan, ctx.cell);
    let virtualized = cell.config.depth.is_virtualized();

    // Setup, timed step by step. Multi-core cells repeat their tenants'
    // steps standalone, since `MultiCoreSim::from_spec` builds all of them
    // in one call.
    let keep = ctx.trace.is_none();
    let (mut engine, setup, generator) =
        engine::build(plan, cell, ctx.spec, ctx.seed, ctx.trace, keep);
    let (setup, generator, layout) = match plan.cores {
        Some(params) => {
            let (setup, generator, sim) = tenant_steps(ctx, params.tenants, params.cores);
            (setup, Some(generator), Some(sim))
        }
        None => (setup, generator, None),
    };
    for &(name, start, end) in &setup.steps {
        spans.record(name, start, end, Some(ctx.root), ctx.span_cell);
    }
    part.add_setup(&setup);

    // The plain-pass run, untraced.
    let start = Instant::now();
    let plain = engine.run_planned(plan, cell, |_, _, _| {})?;
    let end = Instant::now();
    spans.record("core.run.plain", start, end, Some(ctx.root), ctx.span_cell);
    part.plain_s = (end - start).as_secs_f64();
    check::invariants(&plain, virtualized)?;

    // The same run, one span per chunk.
    let mut traced_engine = ctx.build();
    let start = Instant::now();
    let run_span = spans.record("core.run", start, start, Some(ctx.root), ctx.span_cell);
    let mut chunks = Vec::new();
    let traced = traced_engine.run_planned(plan, cell, |s, e, _| chunks.push((s, e)))?;
    for &(s, e) in &chunks {
        spans.record("core.run.chunk", s, e, Some(run_span), ctx.span_cell);
    }
    spans.close(run_span);
    part.traced_s = start.elapsed().as_secs_f64();
    part.chunks = chunks.len() as u64;
    check::invariants(&traced, virtualized)?;
    part.count(&traced);

    // Observers' marginal costs; the plain run doubles as whichever variant
    // it already is.
    if plan.latency_observer {
        part.latency_s = part.plain_s;
        part.bare_s = ctx.timed_run(spans, "core.run.bare", |e| vec![(); e.cores()])?;
    } else {
        part.bare_s = part.plain_s;
        part.latency_s = ctx.timed_run(spans, "obs.latency", Engine::latency_observers)?;
    }
    part.energy_s = ctx.timed_run(spans, "energy.sink", Engine::energy_observers)?;
    part.series_s = ctx.timed_run(spans, "obs.series", |e| e.series_observers(cell))?;

    // Standalone layers over the cell's own address stream.
    let n = part.stats.accesses as usize;
    let space = match &layout {
        Some(sim) => sim.address_space(),
        None => engine.core(0).address_space(),
    };
    let stream = fill(ctx, spans, generator, n, part);
    let walks = tlb(ctx, spans, &stream, part);
    walk(ctx, spans, space, &walks, part);
    Ok(())
}

/// Repeats the tenant-building steps of `MultiCoreSim::from_spec`: every
/// tenant's address space and generator, and one `Simulator::assemble` per
/// core. Returns the steps, tenant 0's generator and tenant 0's simulator.
fn tenant_steps(ctx: &Ctx, tenants: usize, cores: usize) -> (Setup, TraceGenerator, Simulator) {
    let mut setup = Setup::default();
    let mut first = None;
    for t in 0..tenants {
        let tseed = ctx.seed.wrapping_add(t as u64);
        let (space, generator) = engine::populate(&ctx.cell.config, ctx.spec, tseed, &mut setup);
        if t < cores {
            let kept = (t == 0).then(|| generator.clone());
            let config = ctx.cell.config.clone();
            let sim = setup.step(ASSEMBLE, || {
                Simulator::assemble(config, space, generator, ctx.seed)
            });
            if let Some(kept) = kept {
                first = Some((kept, sim));
            }
        }
    }
    let (generator, sim) = first.expect("at least one core");
    (setup, generator, sim)
}

/// Regenerates `n` accesses of the cell's stream in blocks of [`BLOCK`],
/// timing each block's generation (a generator clone, or the replay copy
/// loop for traces); returns the stream.
fn fill(
    ctx: &Ctx,
    spans: &mut Spans,
    generator: Option<TraceGenerator>,
    n: usize,
    part: &mut Round,
) -> Vec<MemAccess> {
    let mut stream = Vec::with_capacity(n);
    let mut block = vec![MemAccess::load(VirtAddr::new(0)); BLOCK];
    let mut generator = generator;
    let mut position = 0;
    let begin = Instant::now();
    let mut busy = Duration::ZERO;
    while stream.len() < n {
        let len = BLOCK.min(n - stream.len());
        let start = Instant::now();
        match (&mut generator, ctx.trace) {
            (Some(g), _) => {
                g.fill(&mut block[..len]);
            }
            (None, Some(trace)) => {
                for slot in &mut block[..len] {
                    *slot = trace[position];
                    position = (position + 1) % trace.len();
                }
            }
            (None, None) => unreachable!("every cell has a generator or a trace"),
        }
        busy += start.elapsed();
        stream.extend_from_slice(black_box(&block[..len]));
    }
    spans.record(
        "workloads.fill",
        begin,
        Instant::now(),
        Some(ctx.root),
        ctx.span_cell,
    );
    part.fill_s = busy.as_secs_f64();
    part.fill_n = n as u64;
    stream
}

/// Feeds `stream` through a standalone 64-entry 4-way L1 and 512-entry
/// 4-way L2 TLB (lookup, then insert on a miss); returns the addresses
/// that missed both.
fn tlb(ctx: &Ctx, spans: &mut Spans, stream: &[MemAccess], part: &mut Round) -> Vec<VirtAddr> {
    let mut l1 = SetAssocTlb::new("L1", 64, 4, PageSize::Size4K);
    let mut l2 = SetAssocTlb::new("L2", 512, 4, PageSize::Size4K);
    let mut misses = Vec::new();
    let mut lookups = stream.len() as u64;
    let start = Instant::now();
    for access in stream {
        let va = access.vaddr();
        if black_box(l1.lookup(va)).is_some() {
            continue;
        }
        let page = PageTranslation::new(va.vpn(), Pfn::new(va.vpn().raw()), PageSize::Size4K);
        lookups += 1;
        if black_box(l2.lookup(va)).is_none() {
            misses.push(va);
            l2.insert(page);
        }
        l1.insert(page);
    }
    let end = Instant::now();
    spans.record("tlb.lookup", start, end, Some(ctx.root), ctx.span_cell);
    part.tlb_s = (end - start).as_secs_f64();
    part.tlb_lookups = lookups;
    misses
}

/// Walks every address of `walks` through a fresh walker of the cell's
/// depth over the cell's page tables.
fn walk(ctx: &Ctx, spans: &mut Spans, space: &AddressSpace, walks: &[VirtAddr], part: &mut Round) {
    let table = space.page_table();
    let start = Instant::now();
    match space.ept() {
        Some(ept) => {
            let mut walker = NestedWalker::sandy_bridge();
            for &va in walks {
                black_box(walker.walk(table, ept, va));
            }
        }
        None => {
            let mut walker = PageWalker::new(MmuCaches::sandy_bridge());
            for &va in walks {
                black_box(walker.walk(table, va));
            }
        }
    }
    let end = Instant::now();
    spans.record("paging.walk", start, end, Some(ctx.root), ctx.span_cell);
    part.walk_s = (end - start).as_secs_f64();
    part.walks = walks.len() as u64;
}
