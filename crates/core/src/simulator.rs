//! The MMU simulator facade over the staged translation pipeline.
//!
//! The per-access logic lives in [`crate::pipeline`]; this type owns the
//! simulation state (structures, workload source, Lite controller) and the
//! accounting sinks, and exposes the run/result API.
//!
//! # Hot loop & batching
//!
//! The public [`run`](Simulator::run) drives the pipeline over *blocks* of
//! accesses: the workload source fills a reusable caller-owned buffer
//! ([`TraceGenerator::fill`](eeat_workloads::TraceGenerator::fill) /
//! trace-replay copy) and the pipeline then consumes it access by access.
//! Per-run invariants are hoisted into a [`StepCtx`] once, and the
//! observer-free instantiation of the generic pipeline monomorphizes the
//! optional observer away. Block state survives across `run` calls:
//! leftover buffered accesses are consumed first, which is sound because
//! the access stream is a pure function of the source's state, independent
//! of simulation state.
//!
//! There are four run entry points, all over the same pipeline:
//! [`run`](Simulator::run), [`run_block`](Simulator::run_block) (explicit
//! block size), [`run_with_observer`](Simulator::run_with_observer) (an
//! extra [`Observer`] in the generic slot), and
//! [`run_per_access_with`](Simulator::run_per_access_with), the unbatched
//! reference implementation used by the equivalence tests.

use eeat_energy::{CycleBreakdown, EnergyBreakdown, EnergyModel, LeakageInputs};
use eeat_os::AddressSpace;
use eeat_paging::{NestedWalker, PageWalker};
use eeat_tlb::Invalidate;
use eeat_types::events::{Observer, TranslationEvent};
use eeat_types::{MemAccess, PageSize, VirtAddr};

use crate::config::Config;
use crate::hierarchy::TlbHierarchy;
use crate::lite::LiteController;
use crate::pipeline::{self, epoch, Sinks, StepCtx};
use crate::predictor::SizePredictor;
use crate::setup::AccessSource;
use crate::stats::SimStats;

/// Default number of accesses generated per block by [`Simulator::run`].
///
/// Large enough to amortize the per-block dispatch, small enough that the
/// buffer (24 KiB) stays cache-resident.
pub const DEFAULT_BLOCK: usize = 1024;

/// The actual page size per 2 MiB-aligned virtual region — the simulator's
/// `pagemap` (page sizes are uniform per such region in the OS model).
///
/// Stored as two parallel sorted vectors and queried by binary search: the
/// hot unified-L1 path reads it per access, and a flat sorted layout both
/// probes faster than a `HashMap` at this size (a few hundred regions) and
/// keeps iteration order deterministic for free.
pub(crate) struct SizeOracle {
    keys: Vec<u64>,
    sizes: Vec<PageSize>,
}

impl SizeOracle {
    /// Builds the oracle from `(region key, size)` pairs in insertion
    /// order; on duplicate keys the last write wins (`HashMap::insert`
    /// semantics).
    pub(crate) fn new(mut pairs: Vec<(u64, PageSize)>) -> Self {
        // Stable sort preserves insertion order within equal keys.
        pairs.sort_by_key(|&(key, _)| key);
        let mut keys = Vec::with_capacity(pairs.len());
        let mut sizes = Vec::with_capacity(pairs.len());
        for (key, size) in pairs {
            if keys.last() == Some(&key) {
                *sizes.last_mut().expect("parallel to keys") = size;
            } else {
                keys.push(key);
                sizes.push(size);
            }
        }
        Self { keys, sizes }
    }

    /// The size of the page backing `va`.
    ///
    /// # Panics
    ///
    /// Panics when `va` falls outside every mapped region — workload traces
    /// only touch mapped memory.
    #[inline]
    pub(crate) fn get(&self, va: VirtAddr) -> PageSize {
        match self.keys.binary_search(&(va.raw() >> 21)) {
            Ok(i) => self.sizes[i],
            Err(_) => panic!("trace addresses are always mapped"),
        }
    }

    /// Rewrites the size of an existing region (huge-page demotion).
    pub(crate) fn set(&mut self, key: u64, size: PageSize) {
        let i = self
            .keys
            .binary_search(&key)
            .expect("demotion targets a mapped region");
        self.sizes[i] = size;
    }

    /// Region keys currently backed by 2 MiB pages, ascending.
    pub(crate) fn huge_keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.keys
            .iter()
            .zip(&self.sizes)
            .filter(|&(_, &size)| size == PageSize::Size2M)
            .map(|(&key, _)| key)
    }
}

/// The walk engine behind the L2 TLBs: one radix descent in native mode,
/// or the two-dimensional nested walk (guest + host through the EPT) in
/// virtualized mode. Selected once at construction from
/// [`Config::depth`](crate::TranslationDepth); the walk stage dispatches on
/// the variant, never on the config.
// The native walker stays inline by design: it is the default depth and
// walks on every L2 miss, so it should not pay a pointer chase to spare
// the enum a few hundred bytes. The rare virtualized variant is boxed.
#[allow(clippy::large_enum_variant)]
pub(crate) enum WalkEngine {
    /// One-dimensional: the classic four-level walk through the MMU caches.
    Native(PageWalker),
    /// Two-dimensional: every guest paging-structure reference (and the
    /// data page) is itself translated through the host dimension. Boxed:
    /// the second dimension's caches would otherwise dominate the enum
    /// (and every native simulator's footprint).
    Virtualized(Box<NestedWalker>),
}

impl WalkEngine {
    /// Flushes every paging-structure cache — and, in virtualized mode, the
    /// host dimension and the nested TLB of combined entries (a VM switch
    /// invalidates combined translations wholesale).
    pub(crate) fn flush(&mut self) {
        match self {
            WalkEngine::Native(w) => w.caches_mut().flush(),
            WalkEngine::Virtualized(w) => w.flush(),
        }
    }
}

/// The result of a simulation run.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Event counters (misses, hits by structure, Lite activity, …).
    pub stats: SimStats,
    /// Dynamic energy spent in address translation (Table 3 accounting).
    pub energy: EnergyBreakdown,
    /// Cycles spent in TLB misses (7 per L1 miss, 50 per L2 miss).
    pub cycles: CycleBreakdown,
}

/// The full MMU simulator: one core's TLB hierarchy and MMU caches, an OS
/// address space, and a workload trace, under one [`Config`].
///
/// Per memory operation the staged pipeline
///
/// 1. probes every present L1 structure in parallel (each probe costs its
///    Table 2 read energy at the structure's *current* Lite size),
/// 2. on an all-L1 miss probes the L2 page and range TLBs (7 cycles),
/// 3. on an L2 miss walks the page table through the MMU caches (50 cycles,
///    1–4 memory references) and, under RMM, walks the range table in the
///    background (energy only),
/// 4. refills structures on the way back, and
/// 5. at Lite interval boundaries runs the decision algorithm and resizes
///    the L1 page TLBs.
///
/// Every countable side effect is emitted as a
/// [`eeat_types::events::TranslationEvent`] and accumulated by observer
/// sinks; the simulator itself carries no accounting state.
pub struct Simulator {
    pub(crate) config: Config,
    pub(crate) hierarchy: TlbHierarchy,
    pub(crate) walker: WalkEngine,
    pub(crate) address_space: AddressSpace,
    pub(crate) source: AccessSource,
    pub(crate) lite: Option<LiteController>,
    /// Realizable TLB_Pred: predicts the index size of unified-L1 lookups.
    pub(crate) predictor: Option<SizePredictor>,
    /// Actual page size per 2 MiB-aligned virtual region.
    pub(crate) size_oracle: SizeOracle,
    /// Accounting sinks fed by the pipeline's event stream.
    pub(crate) sinks: Sinks,
    /// Instructions simulated (the pipeline's clock).
    pub(crate) clock: u64,
    /// Optional multiprogramming model: full TLB + MMU-cache flush every
    /// this many instructions (an ASID-less context switch).
    pub(crate) flush_interval: Option<u64>,
    pub(crate) next_flush_at: u64,
    pub(crate) flushes: u64,
    /// Reusable block of generated accesses; `block_pos..block_buf.len()`
    /// are pending (leftovers survive across `run` calls).
    pub(crate) block_buf: Vec<MemAccess>,
    pub(crate) block_pos: usize,
}

impl Simulator {
    /// Models multiprogramming on a core without ASIDs: every `instructions`
    /// a context switch flushes all TLBs and MMU caches. `None` disables.
    ///
    /// # Panics
    ///
    /// Panics when an interval of zero is given.
    pub fn set_flush_interval(&mut self, instructions: Option<u64>) {
        if let Some(n) = instructions {
            assert!(n > 0, "flush interval must be non-zero");
            self.next_flush_at = self.clock + n;
        } else {
            self.next_flush_at = u64::MAX;
        }
        self.flush_interval = instructions;
    }

    /// Context-switch flushes performed so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Replaces the energy model (e.g. a Figure 3 walk-locality variant).
    pub fn set_energy_model(&mut self, model: EnergyModel) {
        self.sinks.energy.set_model(model);
    }

    /// The configuration being simulated.
    pub fn config(&self) -> &Config {
        &self.config
    }

    /// The TLB hierarchy (for structure-level stats).
    pub fn hierarchy(&self) -> &TlbHierarchy {
        &self.hierarchy
    }

    /// The Lite controller, when the configuration enables it.
    pub fn lite(&self) -> Option<&LiteController> {
        self.lite.as_ref()
    }

    /// The page-size predictor, when the configuration is TLB_Pred.
    pub fn predictor(&self) -> Option<&SizePredictor> {
        self.predictor.as_ref()
    }

    /// The OS address space.
    pub fn address_space(&self) -> &AddressSpace {
        &self.address_space
    }

    /// Counters so far.
    pub fn stats(&self) -> &SimStats {
        self.sinks.stats.stats()
    }

    /// The actual page size backing `va` (the simulator's `pagemap` query).
    #[inline]
    pub(crate) fn actual_size(&self, va: VirtAddr) -> PageSize {
        self.size_oracle.get(va)
    }

    /// Precise (`invlpg`-style) walker invalidation for `va`. Native mode
    /// drops the cached paging-structure entries along `va`'s path; in
    /// virtualized mode a guest invalidation additionally flushes the
    /// nested TLB's combined entries for the walk's structure pages and the
    /// data page (HATRIC-style: combined entries are tagged with the guest
    /// translation they were built from).
    pub(crate) fn invalidate_walker(&mut self, va: VirtAddr) -> u64 {
        match &mut self.walker {
            WalkEngine::Native(w) => w.caches_mut().invalidate(va),
            WalkEngine::Virtualized(w) => {
                // The data page's gPN survives demotion (same guest frames),
                // but a shootdown must still drop its combined entry: the
                // guest mapping it was built from is gone.
                let data_gpn = self
                    .address_space
                    .page_table()
                    .translate(va)
                    .map(|t| t.translate(va).raw() >> 12);
                w.invalidate_guest(va, data_gpn)
            }
        }
    }

    /// The per-run invariant step context (structure presence, monitor
    /// slots, range usage) — all fixed after construction. The probe/refill
    /// flags come from the organization's [`crate::org::ProbePlan`]; the
    /// monitor slots from the hierarchy's dense order.
    pub(crate) fn step_ctx(&self) -> StepCtx {
        let plan = crate::org::ProbePlan::from_config(&self.config);
        StepCtx {
            unified: plan.mixed_l1,
            monitors: self.hierarchy.monitor_indices(),
            uses_ranges: plan.uses_ranges,
            has_l1_fa: plan.fully_assoc_l1,
            has_colt: plan.coalesced_l1,
        }
    }

    /// Refills the block buffer with the next `block` accesses.
    fn refill_block(&mut self, block: usize) {
        debug_assert!(block > 0, "block size must be non-zero");
        self.block_buf
            .resize(block, MemAccess::load(VirtAddr::new(0)));
        let filled = self.source.fill_block(&mut self.block_buf);
        self.block_buf.truncate(filled);
        self.block_pos = 0;
    }

    /// The batched run loop shared by every public run flavour.
    pub(crate) fn run_inner<E: Observer>(
        &mut self,
        instructions: u64,
        block: usize,
        extra: &mut E,
    ) {
        let ctx = self.step_ctx();
        let target = self.clock.saturating_add(instructions);
        while self.clock < target {
            if self.block_pos == self.block_buf.len() {
                self.refill_block(block);
            }
            // Consume buffered accesses until the buffer drains or the
            // instruction target is reached (leftovers persist).
            while self.block_pos < self.block_buf.len() && self.clock < target {
                let access = self.block_buf[self.block_pos];
                self.block_pos += 1;
                pipeline::step(self, &ctx, access, extra);
            }
            // Per-block settle of the hot-path delta counters, so external
            // observers (and multi-core quantum boundaries, which run one
            // `run_inner` per quantum) never see stale totals.
            self.sinks.flush_deltas(extra);
        }
    }

    /// Runs until at least `instructions` more instructions have executed;
    /// returns cumulative results.
    pub fn run(&mut self, instructions: u64) -> RunResult {
        self.run_block(instructions, DEFAULT_BLOCK)
    }

    /// Like [`run`](Self::run) with an explicit block size (accesses
    /// generated per buffer refill). Results are bit-identical for every
    /// block size; see the crate's equivalence tests.
    ///
    /// # Panics
    ///
    /// Panics when `block` is zero.
    pub fn run_block(&mut self, instructions: u64, block: usize) -> RunResult {
        assert!(block > 0, "block size must be non-zero");
        self.run_inner(instructions, block, &mut ());
        self.result_with(&mut ())
    }

    /// The unbatched reference implementation of [`run`](Self::run): pulls
    /// one access at a time and settles the hot-path deltas after each,
    /// with an extra [`Observer`] in the generic slot (`&mut ()` for none).
    /// The equivalence tests hold every batched flavour, observers
    /// included, to its results bit for bit.
    pub fn run_per_access_with<E: Observer>(
        &mut self,
        instructions: u64,
        extra: &mut E,
    ) -> RunResult {
        let ctx = self.step_ctx();
        let target = self.clock.saturating_add(instructions);
        while self.clock < target {
            // Drain any block leftovers first so mixing run flavours on one
            // simulator never reorders the access stream.
            let access = if self.block_pos < self.block_buf.len() {
                let access = self.block_buf[self.block_pos];
                self.block_pos += 1;
                access
            } else {
                self.source.next_access()
            };
            pipeline::step(self, &ctx, access, extra);
            // Flushing after every step makes this the genuine per-access
            // reference for the delta-settle equivalence tests.
            self.sinks.flush_deltas(extra);
        }
        self.result_with(extra)
    }

    /// Like [`run`](Self::run) with an arbitrary extra [`Observer`] riding
    /// the pipeline's generic observer slot. The observer sees every
    /// [`eeat_types::events::TranslationEvent`] of the run plus the final
    /// settle event; runs without an extra observer pay nothing for the
    /// capability.
    ///
    /// This is how external telemetry (e.g. `eeat-obs` epoch recorders and
    /// trace rings) attaches without the simulator knowing about it.
    pub fn run_with_observer<E: Observer>(
        &mut self,
        instructions: u64,
        extra: &mut E,
    ) -> RunResult {
        self.run_inner(instructions, DEFAULT_BLOCK, extra);
        self.result_with(extra)
    }

    /// A zeroed [`eeat_energy::EnergyObserver`] configured identically to
    /// the simulator's own accounting sink (same model, same L1-1GB
    /// geometry) — what external telemetry recorders embed so their
    /// per-epoch energy deltas use bit-identical arithmetic.
    pub fn telemetry_energy_observer(&self) -> eeat_energy::EnergyObserver {
        eeat_energy::EnergyObserver::new(
            *self.sinks.energy.model(),
            self.hierarchy.l1_1g().map(|t| t.active_entries()),
        )
    }

    /// Static (leakage) energy of the translation structures over the run —
    /// the §6.2 extension.
    ///
    /// Execution time is modelled as `instructions × CPI_base(=1) +
    /// TLB-miss cycles` at [`eeat_energy::DEFAULT_CLOCK_GHZ`]; see
    /// [`eeat_energy::leakage_energy`] for the gating model.
    pub fn static_energy(&self, gating: eeat_energy::PowerGating) -> eeat_energy::StaticEnergy {
        let stats = self.sinks.stats.stats();
        let inputs = LeakageInputs {
            cycles: stats.instructions + self.sinks.cycles.snapshot().total(),
            l1_4k_lookups_by_ways: self
                .hierarchy
                .l1_4k()
                .map(|_| &stats.l1_4k_lookups_by_ways[..]),
            l1_2m_lookups_by_ways: self
                .hierarchy
                .l1_2m()
                .map(|_| &stats.l1_2m_lookups_by_ways[..]),
            l1_fa_lookups_by_entries: self
                .hierarchy
                .l1_fa()
                .map(|_| &stats.l1_fa_lookups_by_entries[..]),
            has_l1_1g: self.hierarchy.l1_1g().is_some(),
            has_l1_range: self.hierarchy.l1_range().is_some(),
            has_l2_range: self.hierarchy.l2_range().is_some(),
        };
        eeat_energy::leakage_energy(self.sinks.energy.model(), gating, &inputs)
    }

    /// Failure injection: breaks up to `max_pages` huge pages back into
    /// 4 KiB pages (what Linux does under memory pressure) and performs a
    /// precise per-page TLB shootdown for each demoted mapping. Returns how
    /// many pages were demoted.
    ///
    /// The resulting miss burst is the event Lite's degradation guard
    /// responds to by re-activating all ways (paper §4.2.2).
    pub fn break_huge_pages(&mut self, max_pages: u64) -> u64 {
        // Lowest-addressed huge pages first; the oracle's key lane is
        // already sorted ascending, so victim choice is deterministic.
        let mut victims: Vec<u64> = self.size_oracle.huge_keys().collect();
        victims.truncate(max_pages as usize);
        let mut broken = 0;
        for key in victims {
            let va = VirtAddr::new(key << 21);
            if self.address_space.break_huge_page(va).is_some() {
                self.size_oracle.set(key, PageSize::Size4K);
                // invlpg semantics: only the demoted mapping (and its
                // cached paging-structure entries) is shot down; unrelated
                // translations survive.
                self.hierarchy
                    .invalidate(Invalidate::Page { va, asid: None });
                self.invalidate_walker(va);
                self.sinks.emit(&mut (), TranslationEvent::Shootdown);
                broken += 1;
            }
        }
        broken
    }

    /// Assembles the cumulative result: settles pending resizable-L1 energy
    /// at the current sizes and snapshots every sink.
    pub(crate) fn result_with<E: Observer>(&mut self, extra: &mut E) -> RunResult {
        self.sinks.flush_deltas(extra);
        let settle = epoch::settle_event(&self.hierarchy);
        self.sinks.emit(extra, settle);
        RunResult {
            stats: *self.sinks.stats.stats(),
            energy: self.sinks.energy.snapshot(),
            cycles: self.sinks.cycles.snapshot(),
        }
    }
}
