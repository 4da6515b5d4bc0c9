//! Epoch stage: context-switch flush scheduling and the Lite interval
//! decision, including the settle events that let energy observers charge
//! resizable-L1 operations at their outgoing sizes.

use eeat_tlb::Invalidate;
use eeat_types::events::{Observer, ResizableUnit, TranslationEvent};

use crate::hierarchy::TlbHierarchy;
use crate::lite::LiteDecision;
use crate::pipeline::StepCtx;
use crate::simulator::Simulator;

/// Performs the periodic ASID-less context switch when due: every TLB and
/// MMU cache is flushed.
#[inline]
pub(crate) fn context_switch_if_due<E: Observer>(sim: &mut Simulator, extra: &mut E) {
    if sim.clock < sim.next_flush_at {
        return;
    }
    // A decision boundary: settle the pending delta counters so observers
    // attribute every prior access's probes before the switch is recorded.
    sim.sinks.flush_deltas(extra);
    // Context switch: everything translation-related is lost (including,
    // in virtualized mode, the nested TLB's combined entries).
    sim.hierarchy.invalidate(Invalidate::All);
    sim.walker.flush();
    sim.flushes += 1;
    // Advance on the fixed grid, not from the (possibly late) flush
    // instruction, so flush counts depend only on instructions executed.
    let interval = sim.flush_interval.expect("armed only when set");
    sim.next_flush_at += interval;
    while sim.next_flush_at <= sim.clock {
        sim.next_flush_at += interval;
    }
    sim.sinks.emit(extra, TranslationEvent::ContextSwitch);
}

/// The settle event describing the hierarchy's current resizable-L1 sizes.
///
/// Emitted before any resize is applied (and when results are collected),
/// so pending operations are always charged at the sizes they ran at.
pub(crate) fn settle_event(hierarchy: &TlbHierarchy) -> TranslationEvent {
    TranslationEvent::EpochSettle {
        l1_4k_ways: hierarchy.l1_4k().map(|t| t.active_ways() as u32),
        l1_2m_ways: hierarchy.l1_2m().map(|t| t.active_ways() as u32),
        l1_fa_entries: hierarchy.l1_fa().map(|t| t.active_entries() as u32),
    }
}

/// Runs the Lite decision at interval boundaries and applies resizes.
#[inline]
pub(crate) fn interval_check<E: Observer>(sim: &mut Simulator, ctx: &StepCtx, extra: &mut E) {
    let due = sim
        .lite
        .as_ref()
        .is_some_and(|lite| lite.interval_due(sim.clock));
    if !due {
        return;
    }
    // Settle the pending delta counters before anything below reads
    // observer totals or resizes a structure: pending probes must be
    // charged at the sizes they actually ran at.
    sim.sinks.flush_deltas(extra);
    let lite = sim.lite.as_mut().expect("checked due above");
    // Export the interval's LRU-distance counters before the decision
    // resets them: one event per monitored structure, in monitor order.
    let idx = ctx.monitors;
    let units = [
        (idx.l1_4k, ResizableUnit::L1FourK),
        (idx.l1_2m, ResizableUnit::L1TwoM),
        (idx.l1_fa, ResizableUnit::L1FullyAssoc),
    ];
    let mut monitor_events = [None; 3];
    for (slot, unit) in units {
        let Some(slot) = slot else { continue };
        let raw = lite.monitors()[slot].counters();
        let mut counters = [0u64; 7];
        counters[..raw.len()].copy_from_slice(raw);
        monitor_events[slot] = Some(TranslationEvent::EpochMonitor {
            unit,
            counters,
            len: raw.len() as u8,
        });
    }
    let decision = lite.end_interval(sim.clock);
    for event in monitor_events.into_iter().flatten() {
        sim.sinks.emit(extra, event);
    }
    // The per-operation L1 energies are about to change: settle the
    // pending operations at the outgoing way configuration.
    let settle = settle_event(&sim.hierarchy);
    sim.sinks.emit(extra, settle);

    let mut reactivated = false;
    let mut new_ways = Vec::new();
    match decision {
        LiteDecision::ActivateAllDegraded | LiteDecision::ActivateAllRandom => {
            reactivated = true;
            if let Some(t) = &sim.hierarchy.l1_fa {
                new_ways.push(t.capacity());
            } else {
                if let Some(t) = &sim.hierarchy.l1_4k {
                    new_ways.push(t.ways());
                }
                if let Some(t) = &sim.hierarchy.l1_2m {
                    new_ways.push(t.ways());
                }
            }
        }
        LiteDecision::Resize(ways) => new_ways = ways,
    }
    // One source of truth for which decision slot belongs to which
    // structure: the hierarchy's dense monitor order (shared with the L1
    // probe stage via the precomputed step context).
    if let (Some(i), Some(t)) = (idx.l1_fa, sim.hierarchy.l1_fa.as_mut()) {
        t.set_active_entries(new_ways[i]);
    }
    if let (Some(i), Some(t)) = (idx.l1_4k, sim.hierarchy.l1_4k.as_mut()) {
        t.set_active_ways(new_ways[i]);
    }
    if let (Some(i), Some(t)) = (idx.l1_2m, sim.hierarchy.l1_2m.as_mut()) {
        t.set_active_ways(new_ways[i]);
    }
    sim.sinks.emit(
        extra,
        TranslationEvent::EpochEnd {
            reactivated,
            l1_4k_ways: sim.hierarchy.l1_4k().map(|t| t.active_ways() as u32),
        },
    );
}
