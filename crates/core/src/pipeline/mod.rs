//! The staged translation pipeline.
//!
//! One memory access flows through the stages in order, each consuming the
//! previous stage's typed outcome:
//!
//! ```text
//! epoch::context_switch_if_due   (flush scheduling)
//!   -> l1_probe::probe           -> L1Outcome
//!   -> l2_probe::probe           -> L2Outcome      (on L1 miss)
//!   -> walk::translate           -> PageTranslation (on L2 miss)
//!   -> refill::*                 (structure refills)
//!   -> epoch::interval_check     (Lite decision + resize)
//! ```
//!
//! Stages mutate only simulation state (TLB contents, LRU/monitor state,
//! the walker's caches); every countable side effect is emitted as a
//! [`TranslationEvent`] into the simulator's [`Sinks`]. Observers are pure
//! accumulators, so the simulation is identical for any set of sinks.
//!
//! Every stage is generic over one *extra* [`Observer`] `E` beyond the
//! always-on sinks. Ordinary runs instantiate `E = ()` — a no-op whose
//! `on_event` monomorphizes away entirely — while
//! [`Simulator::run_with_observer`](crate::Simulator::run_with_observer)
//! instantiates it with the caller's observer (an `eeat-obs` epoch series,
//! latency histograms, a trace ring). The optional observer therefore
//! costs observer-free runs nothing, not even a branch per event.
//!
//! Per-access invariants (which structures exist, the Lite monitor slots,
//! whether the config uses ranges) are hoisted into a [`StepCtx`] computed
//! once per run, not re-derived per access.

pub(crate) mod epoch;
pub(crate) mod l1_probe;
pub(crate) mod l2_probe;
pub(crate) mod refill;
pub(crate) mod walk;

use eeat_energy::{CycleObserver, EnergyObserver};
use eeat_types::events::{FixedUnit, HitColumn, Observer, ResizableUnit, TranslationEvent};
use eeat_types::MemAccess;

use crate::hierarchy::MonitorIndices;
use crate::simulator::Simulator;
use crate::stats::StatsObserver;

/// Per-access invariant state, hoisted out of the hot loop.
///
/// Everything here is fixed for the lifetime of a run: the set of present
/// structures never changes after construction (Lite resizes *active ways*,
/// not presence), and the monitor slots and range-usage flag derive from
/// the config. Recomputing them per access was measurable overhead.
#[derive(Clone, Copy, Debug)]
pub(crate) struct StepCtx {
    /// Whether the L1 page TLB mixes 4 KiB and 2 MiB entries (TLB_PP).
    pub(crate) unified: bool,
    /// Dense Lite monitor slots of the resizable L1 structures.
    pub(crate) monitors: MonitorIndices,
    /// Whether the configuration performs background range-table walks.
    pub(crate) uses_ranges: bool,
    /// `sim.hierarchy.l1_fa.is_some()`, for the hit-column mapping.
    pub(crate) has_l1_fa: bool,
    /// Whether a coalesced (CoLT) L1 is present: 4 KiB page-walk refills
    /// probe the fetched PTE line's neighbours and install coalesced runs.
    pub(crate) has_colt: bool,
}

/// Per-span counters for one resizable L1 structure.
#[derive(Clone, Copy, Debug, Default)]
struct ResizableDelta {
    probes: u64,
    second_probes: u64,
    fills: u64,
    /// Active ways/entries at probe time. Sizes change only at flush
    /// boundaries (the interval check flushes before resizing), so one
    /// value covers every probe of the span.
    active: u32,
}

/// Per-span lookup/fill counters for one hot fixed-geometry structure.
#[derive(Clone, Copy, Debug, Default)]
struct FixedDelta {
    lookups: u64,
    fills: u64,
}

/// Slots of [`BlockDeltas::fixed`], in [`FLUSH_FIXED_UNITS`] order.
const FD_L1_ONE_G: usize = 0;
const FD_L1_RANGE: usize = 1;
const FD_L1_COLT: usize = 2;
const FD_L2_PAGE: usize = 3;
const FD_L2_RANGE: usize = 4;

const FLUSH_RESIZABLE_UNITS: [ResizableUnit; 3] = [
    ResizableUnit::L1FourK,
    ResizableUnit::L1TwoM,
    ResizableUnit::L1FullyAssoc,
];

const FLUSH_FIXED_UNITS: [FixedUnit; 5] = [
    FixedUnit::L1OneG,
    FixedUnit::L1Range,
    FixedUnit::L1Colt,
    FixedUnit::L2Page,
    FixedUnit::L2Range,
];

/// The hot path's per-block delta scratch.
///
/// The probe/refill stages run every access but only bump these plain
/// integers; [`Sinks::flush_deltas`] turns the accumulated counts into
/// count-carrying [`TranslationEvent`]s once per block and at every
/// decision boundary (Lite interval, context-switch flush, result
/// collection). Observers therefore see totals identical to per-access
/// emission at every point where accounting is read. Cold-path events
/// (MMU-cache ops, walks, outcomes, epoch markers) stay per-access.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BlockDeltas {
    resizable: [ResizableDelta; 3],
    fixed: [FixedDelta; 5],
}

#[inline]
fn resizable_slot(unit: ResizableUnit) -> usize {
    match unit {
        ResizableUnit::L1FourK => 0,
        ResizableUnit::L1TwoM => 1,
        ResizableUnit::L1FullyAssoc => 2,
    }
}

impl BlockDeltas {
    /// Records one probe of a resizable structure at its current size.
    #[inline]
    pub(crate) fn probe(&mut self, unit: ResizableUnit, active: u32) {
        let d = &mut self.resizable[resizable_slot(unit)];
        debug_assert!(
            d.probes == 0 || d.active == active,
            "active size changed without a delta flush"
        );
        d.active = active;
        d.probes += 1;
    }

    /// Records one predictor second probe of a resizable structure.
    #[inline]
    pub(crate) fn second_probe(&mut self, unit: ResizableUnit) {
        self.resizable[resizable_slot(unit)].second_probes += 1;
    }

    /// Records one fill of a resizable structure.
    #[inline]
    pub(crate) fn fill(&mut self, unit: ResizableUnit) {
        self.resizable[resizable_slot(unit)].fills += 1;
    }

    #[inline]
    fn fixed_slot(unit: FixedUnit) -> usize {
        match unit {
            FixedUnit::L1OneG => FD_L1_ONE_G,
            FixedUnit::L1Range => FD_L1_RANGE,
            FixedUnit::L1Colt => FD_L1_COLT,
            FixedUnit::L2Page => FD_L2_PAGE,
            FixedUnit::L2Range => FD_L2_RANGE,
            _ => unreachable!("MMU-cache ops are emitted directly by the walk stage"),
        }
    }

    /// Records one lookup of a hot fixed-geometry structure.
    #[inline]
    pub(crate) fn fixed_lookup(&mut self, unit: FixedUnit) {
        self.fixed[Self::fixed_slot(unit)].lookups += 1;
    }

    /// Records one fill of a hot fixed-geometry structure.
    #[inline]
    pub(crate) fn fixed_fill(&mut self, unit: FixedUnit) {
        self.fixed[Self::fixed_slot(unit)].fills += 1;
    }
}

/// The simulator's always-on accounting sinks, fanned out per event
/// together with one generic extra observer, plus the hot path's
/// per-block delta scratch.
pub(crate) struct Sinks {
    pub(crate) stats: StatsObserver,
    pub(crate) energy: EnergyObserver,
    pub(crate) cycles: CycleObserver,
    pub(crate) deltas: BlockDeltas,
}

impl Sinks {
    /// Fans `event` out to every sink, then to `extra`. With `E = ()` the
    /// extra call compiles to nothing.
    #[inline]
    pub(crate) fn emit<E: Observer>(&mut self, extra: &mut E, event: TranslationEvent) {
        self.stats.on_event(&event);
        self.energy.on_event(&event);
        self.cycles.on_event(&event);
        extra.on_event(&event);
    }

    /// Drains the delta scratch through the observer chain as
    /// count-carrying events (zero counts are skipped).
    ///
    /// Must run before anything reads observer totals or resizes a
    /// structure: block boundaries, the Lite interval check (ahead of its
    /// settle/resize), context-switch flushes, and result collection.
    pub(crate) fn flush_deltas<E: Observer>(&mut self, extra: &mut E) {
        let deltas = std::mem::take(&mut self.deltas);
        for (slot, unit) in FLUSH_RESIZABLE_UNITS.into_iter().enumerate() {
            let d = deltas.resizable[slot];
            if d.probes > 0 {
                self.emit(
                    extra,
                    TranslationEvent::Probe {
                        unit,
                        active: d.active,
                        count: d.probes,
                    },
                );
            }
            if d.second_probes > 0 {
                self.emit(
                    extra,
                    TranslationEvent::SecondProbe {
                        unit,
                        count: d.second_probes,
                    },
                );
            }
            if d.fills > 0 {
                self.emit(
                    extra,
                    TranslationEvent::Fill {
                        unit,
                        count: d.fills,
                    },
                );
            }
        }
        for (slot, unit) in FLUSH_FIXED_UNITS.into_iter().enumerate() {
            let d = deltas.fixed[slot];
            if d.lookups > 0 || d.fills > 0 {
                self.emit(
                    extra,
                    TranslationEvent::FixedOps {
                        unit,
                        lookups: d.lookups,
                        fills: d.fills,
                    },
                );
            }
        }
        self.emit(extra, TranslationEvent::BlockEnd);
    }
}

/// Runs one access through every stage.
#[inline]
pub(crate) fn step<E: Observer>(
    sim: &mut Simulator,
    ctx: &StepCtx,
    access: MemAccess,
    extra: &mut E,
) {
    let va = access.vaddr();
    sim.clock += u64::from(access.instructions());
    sim.sinks.emit(
        extra,
        TranslationEvent::Access {
            instruction_gap: access.instructions(),
        },
    );
    epoch::context_switch_if_due(sim, extra);

    match l1_probe::probe(sim, ctx, va) {
        l1_probe::L1Outcome::RangeHit => {
            // The range TLB serves the translation; a redundant page-TLB
            // hit adds no utility (disabling those ways would not create an
            // L2 access), so Lite's monitors are not credited.
            sim.sinks.emit(
                extra,
                TranslationEvent::L1Hit {
                    column: HitColumn::Range,
                },
            );
        }
        l1_probe::L1Outcome::PageHit {
            column,
            rank,
            monitor,
        } => {
            sim.sinks.emit(extra, TranslationEvent::L1Hit { column });
            if let (Some(lite), Some(idx)) = (sim.lite.as_mut(), monitor) {
                lite.record_hit(idx, rank);
            }
        }
        l1_probe::L1Outcome::Miss => {
            // All L1 structures missed: access the L2 TLBs (7 cycles).
            sim.sinks.emit(extra, TranslationEvent::L1Miss);
            if let Some(lite) = sim.lite.as_mut() {
                lite.record_l1_miss();
            }
            let size = sim.actual_size(va);
            let l2 = l2_probe::probe(sim, va, size);
            if l2.page.is_some() || l2.range.is_some() {
                let range = l2.page.is_none();
                sim.sinks.emit(extra, TranslationEvent::L2Hit { range });
                refill::after_l2_hit(sim, ctx, &l2, va, size);
            } else {
                // L2 miss: page walk (50 cycles).
                sim.sinks.emit(extra, TranslationEvent::L2Miss);
                let translation = walk::translate(sim, va, extra);
                refill::after_walk(sim, ctx, translation);
                walk::range_walk_background(sim, ctx, va, extra);
            }
        }
    }

    epoch::interval_check(sim, ctx, extra);
    sim.sinks.emit(extra, TranslationEvent::StepEnd);
}
