//! Simulator construction: access sources, address-space assembly, and the
//! page-size oracle. The run/result API lives in [`crate::simulator`].

use eeat_energy::{CycleModel, CycleObserver, EnergyObserver};
use eeat_os::AddressSpace;
use eeat_paging::{MmuCaches, NestedWalker, PageWalker};
use eeat_types::{MemAccess, VirtAddr, VirtRange};
use eeat_workloads::{trace_file, TraceGenerator, Workload, WorkloadSpec};

use crate::config::Config;
use crate::lite::LiteController;
use crate::pipeline::Sinks;
use crate::predictor::SizePredictor;
use crate::simulator::{Simulator, SizeOracle, WalkEngine};
use crate::stats::StatsObserver;

/// Where the simulator's accesses come from: a synthetic generator or a
/// replayed trace (looped when shorter than the run).
pub(crate) enum AccessSource {
    Synthetic(TraceGenerator),
    Replay {
        accesses: Vec<MemAccess>,
        position: usize,
    },
}

impl AccessSource {
    pub(crate) fn next_access(&mut self) -> MemAccess {
        match self {
            AccessSource::Synthetic(generator) => generator.next_access(),
            AccessSource::Replay { accesses, position } => {
                let access = accesses[*position];
                *position = (*position + 1) % accesses.len();
                access
            }
        }
    }

    /// Fills `buf` with the next `buf.len()` accesses of the stream —
    /// identical to `buf.len()` consecutive [`next_access`](Self::next_access)
    /// calls. Returns the number of accesses written (always `buf.len()`;
    /// both sources are infinite).
    pub(crate) fn fill_block(&mut self, buf: &mut [MemAccess]) -> usize {
        match self {
            AccessSource::Synthetic(generator) => generator.fill(buf),
            AccessSource::Replay { accesses, position } => {
                for slot in buf.iter_mut() {
                    *slot = accesses[*position];
                    *position = (*position + 1) % accesses.len();
                }
                buf.len()
            }
        }
    }
}

impl Simulator {
    /// Builds a simulator for a catalogued workload.
    pub fn from_workload(config: Config, workload: Workload, seed: u64) -> Self {
        Self::from_spec(config, &workload.spec(), seed)
    }

    /// Builds a simulator for an arbitrary workload spec (tests, custom
    /// studies).
    ///
    /// # Panics
    ///
    /// Panics when the spec is invalid or exceeds physical memory.
    pub fn from_spec(config: Config, spec: &WorkloadSpec, seed: u64) -> Self {
        let mut address_space = AddressSpace::new(config.policy, seed);
        if config.depth.is_virtualized() {
            // Before any mapping exists, so the EPT covers every frame.
            address_space.virtualize();
        }
        let (address_space, generator) = populate_spec(address_space, spec, seed);
        Self::assemble(config, address_space, generator, seed)
    }

    /// Builds a simulator that replays a recorded trace (see
    /// [`eeat_workloads::trace_file`] for the format). The address space is
    /// constructed to cover every touched page, with regions of at least
    /// 4 MiB treated as THP-eligible; traces shorter than the run loop.
    ///
    /// # Panics
    ///
    /// Panics when `accesses` is empty, names an address at or above 2^48
    /// (the reach of the 4-level page table, which
    /// [`trace_file::read_trace`] also enforces), or exceeds physical
    /// memory.
    pub fn from_trace(config: Config, accesses: Vec<MemAccess>, seed: u64) -> Self {
        assert!(!accesses.is_empty(), "cannot replay an empty trace");
        assert!(
            accesses.iter().all(|a| a.vaddr().raw() < 1 << 48),
            "trace addresses must lie below 2^48, the reach of the 4-level page table"
        );
        let mut address_space = AddressSpace::new(config.policy, seed);
        if config.depth.is_virtualized() {
            address_space.virtualize();
        }
        // Cover the trace with VMAs; merge touches within 16 MiB so a
        // sparse heap becomes a few arenas rather than thousands.
        for (start, len) in trace_file::covering_regions(&accesses, 16 << 20) {
            let eligible = len >= (4 << 20);
            address_space.mmap_at(VirtAddr::new(start), len, eligible, "trace");
        }
        let source = AccessSource::Replay {
            accesses,
            position: 0,
        };
        assemble_with_source(config, address_space, source, seed)
    }

    /// Builds a simulator over an existing address space and generator
    /// (advanced use: failure injection, custom layouts).
    pub fn assemble(
        config: Config,
        address_space: AddressSpace,
        generator: TraceGenerator,
        seed: u64,
    ) -> Self {
        assemble_with_source(
            config,
            address_space,
            AccessSource::Synthetic(generator),
            seed,
        )
    }
}

/// Maps a spec's regions into `address_space` and builds its trace
/// generator — the workload-construction half of [`Simulator::from_spec`],
/// shared with the multi-core path where each tenant brings its own
/// (sharded) address space.
pub(crate) fn populate_spec(
    mut address_space: AddressSpace,
    spec: &WorkloadSpec,
    seed: u64,
) -> (AddressSpace, TraceGenerator) {
    address_space.set_alloc_contiguity(spec.alloc_contiguity);
    let regions: Vec<Vec<VirtRange>> = spec
        .regions
        .iter()
        .map(|r| {
            (0..r.count)
                .map(|_| address_space.mmap(r.bytes, r.thp_eligible, r.name))
                .collect()
        })
        .collect();
    let generator = TraceGenerator::new(spec, regions, seed);
    (address_space, generator)
}

/// Builds the page-size oracle of an address space: one entry per
/// 2 MiB-aligned region of every VMA (sizes are uniform within such
/// regions by construction).
pub(crate) fn size_oracle_for(address_space: &AddressSpace) -> SizeOracle {
    let mut size_pairs = Vec::new();
    for vma in address_space.vmas() {
        let start = vma.range().start().raw();
        let end = vma.range().end().raw();
        let mut at = start;
        while at < end {
            let size = address_space
                .page_table()
                .translate(VirtAddr::new(at))
                .expect("VMAs are fully mapped")
                .size();
            size_pairs.push((at >> 21, size));
            at = (at & !((2 << 20) - 1)) + (2 << 20);
        }
    }
    SizeOracle::new(size_pairs)
}

pub(crate) fn assemble_with_source(
    config: Config,
    address_space: AddressSpace,
    source: AccessSource,
    seed: u64,
) -> Simulator {
    // Registered organizations build (and pick their energy model) through
    // the registry; ad-hoc configs take the equivalent default path.
    let hierarchy = crate::org::hierarchy_for(&config);
    let lite = config
        .lite
        .map(|params| LiteController::new(params, &hierarchy.resizable_ways(), seed));
    let predictor = config
        .predictor_entries
        .filter(|_| config.unified_l1)
        .map(SizePredictor::new);

    let size_oracle = size_oracle_for(&address_space);

    // The walk engine follows the configured translation depth; the
    // address space must have been virtualized (EPT built) to match.
    let walker = if config.depth.is_virtualized() {
        assert!(
            address_space.is_virtualized(),
            "virtualized config requires a virtualized address space"
        );
        WalkEngine::Virtualized(Box::new(NestedWalker::sandy_bridge()))
    } else {
        WalkEngine::Native(PageWalker::new(MmuCaches::sandy_bridge()))
    };

    let sinks = Sinks {
        stats: StatsObserver::new(),
        energy: EnergyObserver::new(
            crate::org::energy_model_for(&config),
            hierarchy.l1_1g().map(|t| t.active_entries()),
        ),
        cycles: CycleObserver::new(CycleModel::sandy_bridge()),
        deltas: Default::default(),
    };

    Simulator {
        config,
        hierarchy,
        walker,
        address_space,
        source,
        lite,
        predictor,
        size_oracle,
        sinks,
        clock: 0,
        flush_interval: None,
        next_flush_at: u64::MAX,
        flushes: 0,
        block_buf: Vec::new(),
        block_pos: 0,
    }
}
