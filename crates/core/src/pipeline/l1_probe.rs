//! L1 stage: every present L1 structure is probed in parallel.

use eeat_types::events::{FixedUnit, HitColumn, ResizableUnit};
use eeat_types::{PageSize, VirtAddr};

use crate::pipeline::StepCtx;
use crate::simulator::Simulator;

/// The L1 stage's outcome.
pub(crate) enum L1Outcome {
    /// The L1-range TLB served the translation.
    RangeHit,
    /// An L1 page structure served the translation.
    PageHit {
        /// The stats column the hit reports under (mixed structures report
        /// 2 MiB hits in the 4KB column).
        column: HitColumn,
        /// LRU recency of the hit way/entry.
        rank: u8,
        /// Lite monitor index covering the structure, when monitored.
        monitor: Option<usize>,
    },
    /// Every L1 structure missed.
    Miss,
}

/// Probes every present L1 structure for `va`.
///
/// All probes happen (and cost energy) regardless of where the hit lands —
/// the structures are searched in parallel in hardware — so every present
/// structure's probe delta is charged unconditionally even when its
/// occupancy skip-count proves the lookup cannot hit. The per-run
/// invariants (unified indexing, monitor slots) come precomputed in `ctx`.
///
/// This is the hot path: no events are emitted here, only the simulator's
/// [`BlockDeltas`](crate::pipeline::BlockDeltas) counters are bumped
/// (`ci.sh` greps that per-access `sinks.emit` calls never come back).
#[inline]
pub(crate) fn probe(sim: &mut Simulator, ctx: &StepCtx, va: VirtAddr) -> L1Outcome {
    let range_hit = sim.hierarchy.l1_range.as_mut().and_then(|t| t.lookup(va));
    if sim.hierarchy.l1_range.is_some() {
        sim.sinks.deltas.fixed_lookup(FixedUnit::L1Range);
    }

    // The unified L1 of TLB_PP is indexed with the (perfectly predicted)
    // actual page size; per-size L1s use their own size.
    let unified = ctx.unified;
    // Monitor slots come from the hierarchy's dense order (shared with the
    // epoch resize path) — a 2MB-only resizable config owns slot 0.
    let monitors = ctx.monitors;
    // (page size of the hit, LRU rank, Lite monitor index if monitored)
    let mut page_hit: Option<(PageSize, u8, Option<usize>)> = None;
    if let Some(t) = sim.hierarchy.l1_fa.as_mut() {
        // §4.4: one fully associative structure for all sizes; the lookup
        // needs no page size at all.
        let entries = t.active_entries();
        let hit = t.lookup_any_size(va);
        sim.sinks
            .deltas
            .probe(ResizableUnit::L1FullyAssoc, entries as u32);
        if let Some(h) = hit {
            page_hit = Some((h.translation.size(), h.rank, monitors.l1_fa));
        }
    }
    if let Some(t) = sim.hierarchy.l1_4k.as_mut() {
        let ways = t.active_ways();
        let hit = if unified {
            let actual = sim.size_oracle.get(va);
            if let Some(predictor) = sim.predictor.as_mut() {
                // Realizable TLB_Pred: probe with the predicted index; a
                // first-probe miss cannot be declared an L1 miss until the
                // other size's index has been checked, so it always costs a
                // second probe.
                let guess = predictor.predict(va);
                let mut hit = t.lookup_for_size(va, guess);
                if hit.is_none() {
                    let alternate = if guess == PageSize::Size4K {
                        PageSize::Size2M
                    } else {
                        PageSize::Size4K
                    };
                    sim.sinks.deltas.second_probe(ResizableUnit::L1FourK);
                    hit = t.lookup_for_size(va, alternate);
                }
                predictor.update(va, actual);
                hit
            } else {
                // TLB_PP: the perfect predictor always indexes right.
                t.lookup_for_size(va, actual)
            }
        } else {
            t.lookup(va)
        };
        sim.sinks.deltas.probe(ResizableUnit::L1FourK, ways as u32);
        if let Some(h) = hit {
            page_hit = Some((h.translation.size(), h.rank, monitors.l1_4k));
        }
    }
    if let Some(t) = sim.hierarchy.l1_2m.as_mut() {
        let ways = t.active_ways();
        let hit = t.lookup(va);
        sim.sinks.deltas.probe(ResizableUnit::L1TwoM, ways as u32);
        if let Some(h) = hit {
            assert!(page_hit.is_none(), "page sizes are disjoint");
            page_hit = Some((PageSize::Size2M, h.rank, monitors.l1_2m));
        }
    }
    if let Some(t) = sim.hierarchy.l1_1g.as_mut() {
        let hit = t.lookup(va);
        sim.sinks.deltas.fixed_lookup(FixedUnit::L1OneG);
        if let Some(h) = hit {
            assert!(page_hit.is_none(), "page sizes are disjoint");
            page_hit = Some((PageSize::Size1G, h.rank, None));
        }
    }
    if let Some(t) = sim.hierarchy.l1_colt.as_mut() {
        // CoLT: one tag compare plus a presence-mask test covers a whole
        // contiguous run; fixed geometry, so no Lite monitor is credited.
        let hit = t.lookup(va);
        sim.sinks.deltas.fixed_lookup(FixedUnit::L1Colt);
        if let Some(h) = hit {
            assert!(page_hit.is_none(), "page sizes are disjoint");
            page_hit = Some((PageSize::Size4K, h.rank, None));
        }
    }

    if range_hit.is_some() {
        return L1Outcome::RangeHit;
    }
    if let Some((size, rank, monitor)) = page_hit {
        let column = match size {
            PageSize::Size4K => HitColumn::FourK,
            PageSize::Size2M => {
                // Mixed structures (unified / FA) report under the 4K
                // column; the separate L1-2MB TLB under its own.
                if unified || ctx.has_l1_fa {
                    HitColumn::FourK
                } else {
                    HitColumn::TwoM
                }
            }
            PageSize::Size1G => HitColumn::OneG,
        };
        return L1Outcome::PageHit {
            column,
            rank,
            monitor,
        };
    }
    L1Outcome::Miss
}

#[cfg(test)]
mod tests {
    use eeat_tlb::{Invalidate, PageTranslation};
    use eeat_types::{Pfn, PhysAddr, RangeTranslation, VirtRange, Vpn};
    use eeat_workloads::Workload;

    use super::*;
    use crate::config::Config;

    /// Range hits outrank page hits: when the L1-range TLB and a page TLB
    /// both cover a VA, the outcome is `RangeHit` (and the caller therefore
    /// credits no Lite monitor — a redundant page hit adds no utility).
    /// Probe *ordering* must not decide this; the classification does.
    #[test]
    fn range_hit_takes_precedence_over_page_hit() {
        let mut sim = Simulator::from_workload(Config::rmm_lite(), Workload::Mcf, 1);
        let va = VirtAddr::new(42 << 12);
        sim.hierarchy
            .l1_range
            .as_mut()
            .expect("RMM_Lite has an L1-range TLB")
            .insert(RangeTranslation::new(
                VirtRange::new(VirtAddr::new(40 << 12), 16 << 12),
                PhysAddr::new(1 << 30),
            ));
        sim.hierarchy
            .l1_4k
            .as_mut()
            .expect("RMM_Lite has an L1-4KB TLB")
            .insert(PageTranslation::new(
                Vpn::new(42),
                Pfn::new(1000),
                PageSize::Size4K,
            ));
        let ctx = sim.step_ctx();
        assert!(
            matches!(probe(&mut sim, &ctx, va), L1Outcome::RangeHit),
            "range coverage must win over a simultaneous page hit"
        );
        // Alone, the page entry serves the VA as an ordinary page hit.
        sim.hierarchy
            .l1_range
            .as_mut()
            .unwrap()
            .invalidate(Invalidate::All);
        assert!(matches!(
            probe(&mut sim, &ctx, va),
            L1Outcome::PageHit { .. }
        ));
    }

    /// Two page structures claiming the same VA violates page-size
    /// disjointness and must abort in every build (release included) — a
    /// silent last-writer-wins would misattribute hits between columns.
    #[test]
    #[should_panic(expected = "page sizes are disjoint")]
    fn overlapping_size_classes_abort_in_all_builds() {
        let mut sim = Simulator::from_workload(Config::thp(), Workload::Mcf, 1);
        let va = VirtAddr::new(0);
        sim.hierarchy
            .l1_4k
            .as_mut()
            .expect("THP has an L1-4KB TLB")
            .insert(PageTranslation::new(
                Vpn::new(0),
                Pfn::new(7),
                PageSize::Size4K,
            ));
        sim.hierarchy
            .l1_2m
            .as_mut()
            .expect("THP has an L1-2MB TLB")
            .insert(PageTranslation::new(
                Vpn::new(0),
                Pfn::new(512),
                PageSize::Size2M,
            ));
        let ctx = sim.step_ctx();
        let _ = probe(&mut sim, &ctx, va);
    }
}
