//! The per-core TLB hierarchy built from a [`Config`].

use core::fmt;

use eeat_tlb::{CoalescedTlb, FullyAssocTlb, RangeTlb, SetAssocTlb};
use eeat_types::{PageSize, VirtAddr};

use crate::config::Config;

/// Dense Lite monitor/decision indices of the resizable L1 structures, in
/// the same order [`TlbHierarchy::resizable_ways`] reports them.
///
/// At most one of the three is meaningful per configuration kind: the §4.4
/// fully associative L1 owns the only slot when present; otherwise L1-4KB
/// (when present) takes slot 0 and L1-2MB the next free slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MonitorIndices {
    /// Slot of the fully associative mixed-size L1, if present.
    pub l1_fa: Option<usize>,
    /// Slot of the L1-4KB (or unified) TLB, if present and resizable.
    pub l1_4k: Option<usize>,
    /// Slot of the L1-2MB TLB, if present and resizable.
    pub l1_2m: Option<usize>,
}

/// The concrete TLB structures of one simulated core.
///
/// Which structures exist follows the configuration (Figure 8 of the paper
/// shows the RMM_Lite arrangement); the simulator probes all present L1
/// structures on every memory operation and the L2 structures on L1 misses.
#[derive(Clone, Debug)]
pub struct TlbHierarchy {
    pub(crate) l1_4k: Option<SetAssocTlb>,
    pub(crate) l1_2m: Option<SetAssocTlb>,
    pub(crate) l1_1g: Option<FullyAssocTlb>,
    /// §4.4 extension: a single fully associative L1 for all page sizes.
    pub(crate) l1_fa: Option<FullyAssocTlb>,
    /// CoLT: a coalesced L1 whose entries cover contiguous 4 KiB runs.
    pub(crate) l1_colt: Option<CoalescedTlb>,
    pub(crate) l1_range: Option<RangeTlb>,
    pub(crate) l2_page: SetAssocTlb,
    pub(crate) l2_range: Option<RangeTlb>,
    unified_l1: bool,
}

impl TlbHierarchy {
    /// Builds the hierarchy a configuration describes.
    pub fn from_config(config: &Config) -> Self {
        let fa = config.l1_fa_entries;
        Self {
            l1_fa: fa.map(|n| FullyAssocTlb::new("L1-FA", n, PageSize::Size4K)),
            l1_4k: config.l1_4k.filter(|_| fa.is_none()).map(|g| {
                SetAssocTlb::new(
                    if config.unified_l1 {
                        "L1-unified"
                    } else {
                        "L1-4KB"
                    },
                    g.entries,
                    g.ways,
                    PageSize::Size4K,
                )
            }),
            l1_2m: config
                .l1_2m
                .filter(|_| fa.is_none())
                .map(|g| SetAssocTlb::new("L1-2MB", g.entries, g.ways, PageSize::Size2M)),
            l1_1g: config
                .l1_1g
                .filter(|_| fa.is_none())
                .map(|g| FullyAssocTlb::new("L1-1GB", g.entries, PageSize::Size1G)),
            l1_colt: config
                .l1_colt
                .map(|g| CoalescedTlb::new("L1-CoLT", g.entries, g.ways)),
            l1_range: config
                .l1_range_entries
                .map(|n| RangeTlb::new("L1-range", n)),
            l2_page: SetAssocTlb::new(
                "L2",
                config.l2_page.entries,
                config.l2_page.ways,
                PageSize::Size4K,
            ),
            l2_range: config
                .l2_range_entries
                .map(|n| RangeTlb::new("L2-range", n)),
            unified_l1: config.unified_l1,
        }
    }

    /// Whether the L1 page TLB mixes 4 KiB and 2 MiB entries (TLB_PP).
    pub fn unified_l1(&self) -> bool {
        self.unified_l1
    }

    /// The L1-4KB TLB (or unified L1), if present.
    pub fn l1_4k(&self) -> Option<&SetAssocTlb> {
        self.l1_4k.as_ref()
    }

    /// The L1-2MB TLB, if present.
    pub fn l1_2m(&self) -> Option<&SetAssocTlb> {
        self.l1_2m.as_ref()
    }

    /// The L1-1GB TLB, if present.
    pub fn l1_1g(&self) -> Option<&FullyAssocTlb> {
        self.l1_1g.as_ref()
    }

    /// The fully associative mixed-size L1 TLB, if this is a §4.4
    /// configuration.
    pub fn l1_fa(&self) -> Option<&FullyAssocTlb> {
        self.l1_fa.as_ref()
    }

    /// The coalesced (CoLT) L1 TLB, if present.
    pub fn l1_colt(&self) -> Option<&CoalescedTlb> {
        self.l1_colt.as_ref()
    }

    /// The L1-range TLB, if present.
    pub fn l1_range(&self) -> Option<&RangeTlb> {
        self.l1_range.as_ref()
    }

    /// The unified L2 page TLB.
    pub fn l2_page(&self) -> &SetAssocTlb {
        &self.l2_page
    }

    /// The L2-range TLB, if present.
    pub fn l2_range(&self) -> Option<&RangeTlb> {
        self.l2_range.as_ref()
    }

    /// Number of Lite-resizable L1 page TLBs, in controller order
    /// (L1-4KB first, then L1-2MB).
    pub fn resizable_ways(&self) -> Vec<usize> {
        if let Some(t) = &self.l1_fa {
            // Lite clusters the fully associative structure's LRU distances
            // "as if there were ways" (§4.4): one monitor sized by entries.
            return vec![t.capacity()];
        }
        let mut v = Vec::new();
        if let Some(t) = &self.l1_4k {
            v.push(t.ways());
        }
        if let Some(t) = &self.l1_2m {
            v.push(t.ways());
        }
        v
    }

    /// Positions of the resizable L1 structures within the dense
    /// [`resizable_ways`](Self::resizable_ways) order. This is the single
    /// source of truth tying a structure to its Lite monitor/decision slot;
    /// the probe and resize paths must both use it so a configuration with,
    /// say, only an L1-2MB TLB credits monitor 0, not a hard-coded 1.
    ///
    /// The fallback ordering is deterministic and documented: the fully
    /// associative L1 (when present) owns the only slot; otherwise slots
    /// are claimed in the fixed order **L1-4KB, then L1-2MB**, skipping
    /// absent structures — so an organization with no L1-4KB TLB assigns
    /// slot 0 to its L1-2MB TLB, and an organization with no resizable
    /// structure at all (e.g. CoLT, whose coalesced L1 is fixed-geometry)
    /// gets every slot `None`. Pinned by the
    /// `monitor_indices_fallback_is_deterministic` test.
    pub fn monitor_indices(&self) -> MonitorIndices {
        if self.l1_fa.is_some() {
            return MonitorIndices {
                l1_fa: Some(0),
                l1_4k: None,
                l1_2m: None,
            };
        }
        let mut next = 0usize;
        let mut claim = |present: bool| {
            present.then(|| {
                let i = next;
                next += 1;
                i
            })
        };
        MonitorIndices {
            l1_fa: None,
            l1_4k: claim(self.l1_4k.is_some()),
            l1_2m: claim(self.l1_2m.is_some()),
        }
    }

    /// Invalidates only the entries covering `va` — the precise TLB
    /// shootdown (`invlpg`) the OS issues when it changes a single mapping,
    /// e.g. breaking a huge page. Entries for other pages survive. Returns
    /// the total number of entries removed across all structures.
    pub fn shootdown(&mut self, va: VirtAddr) -> u64 {
        let mut removed = 0u64;
        if let Some(t) = &mut self.l1_4k {
            removed += t.invalidate(va);
        }
        if let Some(t) = &mut self.l1_2m {
            removed += t.invalidate(va);
        }
        if let Some(t) = &mut self.l1_1g {
            removed += t.invalidate(va);
        }
        if let Some(t) = &mut self.l1_fa {
            removed += t.invalidate(va);
        }
        if let Some(t) = &mut self.l1_colt {
            removed += t.invalidate(va);
        }
        if let Some(t) = &mut self.l1_range {
            removed += t.invalidate(va);
        }
        removed += self.l2_page.invalidate(va);
        if let Some(t) = &mut self.l2_range {
            removed += t.invalidate(va);
        }
        removed
    }

    /// Retags every structure with `asid` — the multi-core context switch
    /// that replaces [`flush_all`](Self::flush_all): entries of other ASIDs
    /// stay resident and become visible again when their tenant returns.
    pub fn set_current_asid(&mut self, asid: u16) {
        if let Some(t) = &mut self.l1_4k {
            t.set_current_asid(asid);
        }
        if let Some(t) = &mut self.l1_2m {
            t.set_current_asid(asid);
        }
        if let Some(t) = &mut self.l1_1g {
            t.set_current_asid(asid);
        }
        if let Some(t) = &mut self.l1_fa {
            t.set_current_asid(asid);
        }
        if let Some(t) = &mut self.l1_colt {
            t.set_current_asid(asid);
        }
        if let Some(t) = &mut self.l1_range {
            t.set_current_asid(asid);
        }
        self.l2_page.set_current_asid(asid);
        if let Some(t) = &mut self.l2_range {
            t.set_current_asid(asid);
        }
    }

    /// The shootdown an IPI delivers on a *remote* core: invalidates only
    /// the non-global entries of `asid` covering `va`, sparing whatever the
    /// core's current tenant has cached. Returns the total number of
    /// entries removed across all structures.
    pub fn shootdown_asid(&mut self, asid: u16, va: VirtAddr) -> u64 {
        let mut removed = 0u64;
        if let Some(t) = &mut self.l1_4k {
            removed += t.invalidate_asid(asid, va);
        }
        if let Some(t) = &mut self.l1_2m {
            removed += t.invalidate_asid(asid, va);
        }
        if let Some(t) = &mut self.l1_1g {
            removed += t.invalidate_asid(asid, va);
        }
        if let Some(t) = &mut self.l1_fa {
            removed += t.invalidate_asid(asid, va);
        }
        if let Some(t) = &mut self.l1_colt {
            removed += t.invalidate_asid(asid, va);
        }
        if let Some(t) = &mut self.l1_range {
            removed += t.invalidate_asid(asid, va);
        }
        removed += self.l2_page.invalidate_asid(asid, va);
        if let Some(t) = &mut self.l2_range {
            removed += t.invalidate_asid(asid, va);
        }
        removed
    }

    /// Removes every non-global entry of `asid` from every structure — the
    /// teardown of an exiting tenant (ASID recycling). Returns the total
    /// number of entries removed.
    pub fn flush_asid(&mut self, asid: u16) -> u64 {
        let mut removed = 0u64;
        if let Some(t) = &mut self.l1_4k {
            removed += t.flush_asid(asid);
        }
        if let Some(t) = &mut self.l1_2m {
            removed += t.flush_asid(asid);
        }
        if let Some(t) = &mut self.l1_1g {
            removed += t.flush_asid(asid);
        }
        if let Some(t) = &mut self.l1_fa {
            removed += t.flush_asid(asid);
        }
        if let Some(t) = &mut self.l1_colt {
            removed += t.flush_asid(asid);
        }
        if let Some(t) = &mut self.l1_range {
            removed += t.flush_asid(asid);
        }
        removed += self.l2_page.flush_asid(asid);
        if let Some(t) = &mut self.l2_range {
            removed += t.flush_asid(asid);
        }
        removed
    }

    /// Flushes every structure — the full-context invalidation of an
    /// address-space switch without ASIDs. Per-page shootdowns use the
    /// precise [`shootdown`](Self::shootdown) instead.
    pub fn flush_all(&mut self) {
        if let Some(t) = &mut self.l1_4k {
            t.flush();
        }
        if let Some(t) = &mut self.l1_2m {
            t.flush();
        }
        if let Some(t) = &mut self.l1_1g {
            t.flush();
        }
        if let Some(t) = &mut self.l1_fa {
            t.flush();
        }
        if let Some(t) = &mut self.l1_colt {
            t.flush();
        }
        if let Some(t) = &mut self.l1_range {
            t.flush();
        }
        self.l2_page.flush();
        if let Some(t) = &mut self.l2_range {
            t.flush();
        }
    }
}

impl fmt::Display for TlbHierarchy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if !first {
                write!(f, "; ")?;
            }
            first = false;
            Ok(())
        };
        if let Some(t) = &self.l1_4k {
            sep(f)?;
            write!(f, "{t}")?;
        }
        if let Some(t) = &self.l1_2m {
            sep(f)?;
            write!(f, "{t}")?;
        }
        if let Some(t) = &self.l1_fa {
            sep(f)?;
            write!(f, "{t}")?;
        }
        if let Some(t) = &self.l1_colt {
            sep(f)?;
            write!(f, "{t}")?;
        }
        if let Some(t) = &self.l1_range {
            sep(f)?;
            write!(f, "{t}")?;
        }
        sep(f)?;
        write!(f, "{}", self.l2_page)?;
        if let Some(t) = &self.l2_range {
            write!(f, "; {t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_k_config_builds_minimal_hierarchy() {
        let h = TlbHierarchy::from_config(&Config::four_k());
        assert!(h.l1_4k().is_some());
        assert!(h.l1_2m().is_none());
        assert!(h.l1_range().is_none());
        assert!(h.l2_range().is_none());
        assert_eq!(h.l2_page().capacity(), 512);
        assert_eq!(h.resizable_ways(), vec![4]);
    }

    #[test]
    fn thp_adds_2m_tlb() {
        let h = TlbHierarchy::from_config(&Config::thp());
        let t = h.l1_2m().expect("THP has an L1-2MB TLB");
        assert_eq!(t.capacity(), 32);
        assert_eq!(t.ways(), 4);
        assert_eq!(h.resizable_ways(), vec![4, 4]);
    }

    #[test]
    fn rmm_lite_has_ranges_but_no_2m() {
        let h = TlbHierarchy::from_config(&Config::rmm_lite());
        assert!(h.l1_2m().is_none());
        assert_eq!(h.l1_range().unwrap().capacity(), 4);
        assert_eq!(h.l2_range().unwrap().capacity(), 32);
        assert_eq!(h.resizable_ways(), vec![4]);
    }

    #[test]
    fn tlb_pp_is_unified() {
        let h = TlbHierarchy::from_config(&Config::tlb_pp());
        assert!(h.unified_l1());
        assert_eq!(h.l1_4k().unwrap().name(), "L1-unified");
    }

    #[test]
    fn shootdown_is_precise() {
        let mut h = TlbHierarchy::from_config(&Config::rmm_lite());
        use eeat_tlb::PageTranslation;
        use eeat_types::{Pfn, Vpn};
        for vpn in [5u64, 6, 7] {
            h.l1_4k.as_mut().unwrap().insert(PageTranslation::new(
                Vpn::new(vpn),
                Pfn::new(vpn + 100),
                PageSize::Size4K,
            ));
            h.l2_page.insert(PageTranslation::new(
                Vpn::new(vpn),
                Pfn::new(vpn + 100),
                PageSize::Size4K,
            ));
        }
        // Shooting down page 5 removes it from the L1 and the L2 but leaves
        // the neighbouring pages alone.
        assert_eq!(h.shootdown(VirtAddr::new(5 * 4096)), 2);
        assert_eq!(h.l1_4k().unwrap().occupancy(), 2);
        assert_eq!(h.l2_page().occupancy(), 2);
        assert!(h
            .l1_4k()
            .unwrap()
            .probe(VirtAddr::new(5 * 4096), PageSize::Size4K)
            .is_none());
        assert!(h
            .l1_4k()
            .unwrap()
            .probe(VirtAddr::new(6 * 4096), PageSize::Size4K)
            .is_some());
        // A repeated shootdown of the same page finds nothing.
        assert_eq!(h.shootdown(VirtAddr::new(5 * 4096)), 0);
    }

    #[test]
    fn flush_all_empties_structures() {
        let mut h = TlbHierarchy::from_config(&Config::rmm_lite());
        use eeat_tlb::PageTranslation;
        use eeat_types::{Pfn, Vpn};
        h.l1_4k.as_mut().unwrap().insert(PageTranslation::new(
            Vpn::new(5),
            Pfn::new(6),
            PageSize::Size4K,
        ));
        h.flush_all();
        assert_eq!(h.l1_4k().unwrap().occupancy(), 0);
    }

    #[test]
    fn monitor_indices_follow_dense_order() {
        // THP: both L1-4KB and L1-2MB resizable.
        let h = TlbHierarchy::from_config(&Config::thp());
        let idx = h.monitor_indices();
        assert_eq!(idx.l1_4k, Some(0));
        assert_eq!(idx.l1_2m, Some(1));
        assert_eq!(idx.l1_fa, None);

        // 4K-only: single slot.
        let h = TlbHierarchy::from_config(&Config::four_k());
        let idx = h.monitor_indices();
        assert_eq!(idx.l1_4k, Some(0));
        assert_eq!(idx.l1_2m, None);

        // 2MB-only: the 2MB TLB must own slot 0, not a hard-coded 1.
        let mut config = Config::thp();
        config.l1_4k = None;
        let h = TlbHierarchy::from_config(&config);
        let idx = h.monitor_indices();
        assert_eq!(idx.l1_4k, None);
        assert_eq!(idx.l1_2m, Some(0));
        assert_eq!(h.resizable_ways().len(), 1);
    }

    #[test]
    fn monitor_indices_fallback_is_deterministic() {
        // No resizable structure at all (CoLT's coalesced L1 is
        // fixed-geometry): every slot is None and nothing is monitored.
        let h = TlbHierarchy::from_config(&Config::colt());
        let idx = h.monitor_indices();
        assert_eq!(
            idx,
            MonitorIndices {
                l1_fa: None,
                l1_4k: None,
                l1_2m: None,
            }
        );
        assert!(h.resizable_ways().is_empty());

        // No L1-4KB TLB: the L1-2MB TLB deterministically claims slot 0
        // (the documented fixed claim order, not a hard-coded 1).
        let mut config = Config::thp();
        config.l1_4k = None;
        let idx = TlbHierarchy::from_config(&config).monitor_indices();
        assert_eq!(
            idx,
            MonitorIndices {
                l1_fa: None,
                l1_4k: None,
                l1_2m: Some(0),
            }
        );

        // The fully associative L1 owns the only slot when present, even
        // if the config also names per-size geometries.
        let mut config = Config::thp();
        config.l1_fa_entries = Some(64);
        let idx = TlbHierarchy::from_config(&config).monitor_indices();
        assert_eq!(
            idx,
            MonitorIndices {
                l1_fa: Some(0),
                l1_4k: None,
                l1_2m: None,
            }
        );
    }

    #[test]
    fn colt_hierarchy_builds_and_invalidates() {
        use eeat_types::{Pfn, Vpn};
        let mut h = TlbHierarchy::from_config(&Config::colt());
        assert!(h.l1_4k().is_none() && h.l1_2m().is_none());
        let colt = h.l1_colt.as_mut().expect("CoLT builds a coalesced L1");
        assert_eq!(colt.capacity(), 64);
        assert_eq!(colt.ways(), 4);
        colt.insert_group(Vpn::new(0), Pfn::new(64), 0b0011);
        assert_eq!(h.shootdown(VirtAddr::new(0)), 1);
        assert_eq!(h.l1_colt().unwrap().coverage_pages(), 1);
        h.flush_all();
        assert_eq!(h.l1_colt().unwrap().occupancy(), 0);
        assert!(h.to_string().contains("L1-CoLT"));
    }

    #[test]
    fn display_lists_structures() {
        let h = TlbHierarchy::from_config(&Config::rmm());
        let s = h.to_string();
        assert!(s.contains("L1-4KB"));
        assert!(s.contains("L1-2MB"));
        assert!(s.contains("L2-range"));
    }
}
