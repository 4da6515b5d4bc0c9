//! Simulation statistics and result types, and the observers that build
//! them from the translation-event stream.

use core::fmt;

use eeat_types::events::{HitColumn, Observer, ResizableUnit, TranslationEvent};

/// Aggregate counters of one simulation run.
///
/// "L1 miss" means a translation lookup that missed *every* L1 structure
/// (and therefore accessed the L2 TLBs — the event the paper's performance
/// model charges 7 cycles); "L2 miss" means a lookup that also missed the
/// L2 structures and triggered a page walk (50 cycles).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Instructions simulated.
    pub instructions: u64,
    /// Memory operations simulated.
    pub accesses: u64,
    /// Lookups that missed all L1 TLB structures.
    pub l1_misses: u64,
    /// Lookups that missed the L2 structures too (page walks).
    pub l2_misses: u64,
    /// L1 hits served by the L1-4KB TLB (or unified L1).
    pub l1_hits_4k: u64,
    /// L1 hits served by the L1-2MB TLB.
    pub l1_hits_2m: u64,
    /// L1 hits served by the L1-1GB TLB.
    pub l1_hits_1g: u64,
    /// L1 hits served by the L1-range TLB.
    pub l1_hits_range: u64,
    /// L2 hits served by the page L2 TLB.
    pub l2_hits_page: u64,
    /// L2 hits served by the L2-range TLB (counted when the page L2 missed).
    pub l2_hits_range: u64,
    /// Memory references performed by page walks.
    pub walk_memory_refs: u64,
    /// Background range-table walks.
    pub range_table_walks: u64,
    /// Guest-dimension references of nested walks (virtualized mode; zero
    /// natively, where `walk_memory_refs` carries everything).
    pub guest_walk_refs: u64,
    /// Host-dimension (EPT) references of nested walks (virtualized mode).
    pub host_walk_refs: u64,
    /// L1-4KB TLB lookups performed at 4 / 2 / 1 active ways
    /// (indices 2 / 1 / 0 — `lookups_by_ways[log2(ways)]`).
    pub l1_4k_lookups_by_ways: [u64; 3],
    /// L1-2MB TLB lookups performed at 4 / 2 / 1 active ways.
    pub l1_2m_lookups_by_ways: [u64; 3],
    /// Fully associative L1 lookups by active entries (§4.4 extension):
    /// `l1_fa_lookups_by_entries[log2(entries)]` for 1…64 entries.
    pub l1_fa_lookups_by_entries: [u64; 7],
    /// Second L1 probes forced by the TLB_Pred page-size predictor
    /// (first-probe misses: wrong guesses that hit on retry, plus all real
    /// L1 misses, which must check both indices).
    pub predictor_second_probes: u64,
    /// Lite intervals completed.
    pub lite_intervals: u64,
    /// Lite full re-activations (random + degradation).
    pub lite_reactivations: u64,
    /// ASID-retagging context switches (multi-core mode; no flush).
    pub asid_switches: u64,
    /// Cross-core shootdown IPIs this core sent.
    pub ipis_sent: u64,
    /// Cross-core shootdown IPIs this core received and processed.
    pub ipis_received: u64,
    /// Entries removed from this core's structures by received IPIs.
    pub ipi_invalidations: u64,
}

impl SimStats {
    /// L1 TLB misses per thousand instructions.
    pub fn l1_mpki(&self) -> f64 {
        per_kilo(self.l1_misses, self.instructions)
    }

    /// L2 TLB misses per thousand instructions.
    pub fn l2_mpki(&self) -> f64 {
        per_kilo(self.l2_misses, self.instructions)
    }

    /// Total L1 hits across all structures.
    pub fn l1_hits(&self) -> u64 {
        self.l1_hits_4k + self.l1_hits_2m + self.l1_hits_1g + self.l1_hits_range
    }

    /// Fraction of L1 hits served by each structure
    /// `(4K, 2M, 1G, range)`; zeros when there were no hits.
    pub fn l1_hit_shares(&self) -> (f64, f64, f64, f64) {
        let total = self.l1_hits() as f64;
        if total == 0.0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        (
            self.l1_hits_4k as f64 / total,
            self.l1_hits_2m as f64 / total,
            self.l1_hits_1g as f64 / total,
            self.l1_hits_range as f64 / total,
        )
    }

    /// Fraction of L1-4KB lookups at `(4, 2, 1)` active ways (Table 5 left).
    pub fn l1_4k_way_shares(&self) -> (f64, f64, f64) {
        way_shares(&self.l1_4k_lookups_by_ways)
    }

    /// Fraction of L1-2MB lookups at `(4, 2, 1)` active ways.
    pub fn l1_2m_way_shares(&self) -> (f64, f64, f64) {
        way_shares(&self.l1_2m_lookups_by_ways)
    }

    /// Mean active entries of the fully associative L1 over all lookups
    /// (0 when no FA configuration ran).
    pub fn l1_fa_mean_entries(&self) -> f64 {
        let total: u64 = self.l1_fa_lookups_by_entries.iter().sum();
        if total == 0 {
            return 0.0;
        }
        self.l1_fa_lookups_by_entries
            .iter()
            .enumerate()
            .map(|(log, &n)| (1u64 << log) as f64 * n as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Average memory references per page walk.
    pub fn avg_walk_refs(&self) -> f64 {
        if self.l2_misses == 0 {
            0.0
        } else {
            self.walk_memory_refs as f64 / self.l2_misses as f64
        }
    }
}

fn per_kilo(count: u64, instructions: u64) -> f64 {
    if instructions == 0 {
        0.0
    } else {
        count as f64 / (instructions as f64 / 1000.0)
    }
}

fn way_shares(buckets: &[u64; 3]) -> (f64, f64, f64) {
    let total: u64 = buckets.iter().sum();
    if total == 0 {
        return (0.0, 0.0, 0.0);
    }
    let t = total as f64;
    (
        buckets[2] as f64 / t,
        buckets[1] as f64 / t,
        buckets[0] as f64 / t,
    )
}

impl fmt::Display for SimStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} instr, {} accesses, L1 MPKI {:.2}, L2 MPKI {:.2}",
            self.instructions,
            self.accesses,
            self.l1_mpki(),
            self.l2_mpki()
        )
    }
}

/// Builds a [`SimStats`] from the translation-event stream.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatsObserver {
    stats: SimStats,
}

impl StatsObserver {
    /// Creates a zeroed observer.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counters accumulated so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }
}

impl Observer for StatsObserver {
    #[inline(always)]
    fn on_event(&mut self, event: &TranslationEvent) {
        let s = &mut self.stats;
        match *event {
            TranslationEvent::Access { instruction_gap } => {
                s.instructions += u64::from(instruction_gap);
                s.accesses += 1;
            }
            TranslationEvent::Probe {
                unit,
                active,
                count,
            } => {
                let log = active.ilog2() as usize;
                match unit {
                    ResizableUnit::L1FourK => s.l1_4k_lookups_by_ways[log] += count,
                    ResizableUnit::L1TwoM => s.l1_2m_lookups_by_ways[log] += count,
                    ResizableUnit::L1FullyAssoc => s.l1_fa_lookups_by_entries[log] += count,
                }
            }
            // A second probe re-reads the same structure at the same size;
            // it is an extra energy event, not a second way-residency
            // sample, so the ways histogram is not credited.
            TranslationEvent::SecondProbe { count, .. } => s.predictor_second_probes += count,
            TranslationEvent::L1Hit { column } => match column {
                HitColumn::FourK => s.l1_hits_4k += 1,
                HitColumn::TwoM => s.l1_hits_2m += 1,
                HitColumn::OneG => s.l1_hits_1g += 1,
                HitColumn::Range => s.l1_hits_range += 1,
            },
            TranslationEvent::L1Miss => s.l1_misses += 1,
            TranslationEvent::L2Hit { range: false } => s.l2_hits_page += 1,
            TranslationEvent::L2Hit { range: true } => s.l2_hits_range += 1,
            TranslationEvent::L2Miss => s.l2_misses += 1,
            TranslationEvent::PageWalk { memory_refs } => {
                s.walk_memory_refs += u64::from(memory_refs);
            }
            TranslationEvent::RangeTableWalk { .. } => s.range_table_walks += 1,
            TranslationEvent::NestedWalk {
                guest_refs,
                host_refs,
            } => {
                s.guest_walk_refs += u64::from(guest_refs);
                s.host_walk_refs += u64::from(host_refs);
            }
            TranslationEvent::EpochEnd { reactivated, .. } => {
                s.lite_intervals += 1;
                if reactivated {
                    s.lite_reactivations += 1;
                }
            }
            TranslationEvent::AsidSwitch { .. } => s.asid_switches += 1,
            TranslationEvent::ShootdownIpi { recipients } => {
                s.ipis_sent += u64::from(recipients);
            }
            TranslationEvent::IpiDelivered { invalidations } => {
                s.ipis_received += 1;
                s.ipi_invalidations += invalidations;
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mpki_math() {
        let s = SimStats {
            instructions: 2_000_000,
            l1_misses: 30_000,
            l2_misses: 4_000,
            ..Default::default()
        };
        assert!((s.l1_mpki() - 15.0).abs() < 1e-12);
        assert!((s.l2_mpki() - 2.0).abs() < 1e-12);
        assert_eq!(SimStats::default().l1_mpki(), 0.0);
    }

    #[test]
    fn hit_shares() {
        let s = SimStats {
            l1_hits_4k: 30,
            l1_hits_2m: 60,
            l1_hits_range: 10,
            ..Default::default()
        };
        let (h4, h2, h1, hr) = s.l1_hit_shares();
        assert!((h4 - 0.3).abs() < 1e-12);
        assert!((h2 - 0.6).abs() < 1e-12);
        assert_eq!(h1, 0.0);
        assert!((hr - 0.1).abs() < 1e-12);
        assert_eq!(SimStats::default().l1_hit_shares(), (0.0, 0.0, 0.0, 0.0));
    }

    #[test]
    fn way_share_ordering() {
        let s = SimStats {
            l1_4k_lookups_by_ways: [10, 30, 60], // 1-way, 2-way, 4-way
            ..Default::default()
        };
        let (w4, w2, w1) = s.l1_4k_way_shares();
        assert!((w4 - 0.6).abs() < 1e-12);
        assert!((w2 - 0.3).abs() < 1e-12);
        assert!((w1 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn avg_walk_refs() {
        let s = SimStats {
            l2_misses: 4,
            walk_memory_refs: 10,
            ..Default::default()
        };
        assert!((s.avg_walk_refs() - 2.5).abs() < 1e-12);
        assert_eq!(SimStats::default().avg_walk_refs(), 0.0);
    }

    #[test]
    fn display() {
        let s = SimStats {
            instructions: 1000,
            accesses: 300,
            ..Default::default()
        };
        assert!(s.to_string().contains("300 accesses"));
    }
}
