//! The per-core TLB hierarchy built from a [`Config`].
//!
//! The simulator's pipeline probes and refills the structures one by one,
//! but shootdowns, flushes and ASID retags treat them as one list:
//! [`TlbHierarchy::invalidate`] applies one [`Invalidate`] scope to every
//! present structure and [`TlbHierarchy::set_current_asid`] retags them
//! all.

use eeat_tlb::{CoalescedTlb, FullyAssocTlb, Invalidate, RangeTlb, SetAssocTlb, TranslationCache};
use eeat_types::PageSize;

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

    /// Every present structure, L1s before L2s: the one list that
    /// [`invalidate`](Self::invalidate) and
    /// [`set_current_asid`](Self::set_current_asid) walk.
    fn structures(&mut self) -> impl Iterator<Item = &mut dyn TranslationCache> {
        [
            self.l1_4k.as_mut().map(|t| t as &mut dyn TranslationCache),
            self.l1_2m.as_mut().map(|t| t as _),
            self.l1_1g.as_mut().map(|t| t as _),
            self.l1_fa.as_mut().map(|t| t as _),
            self.l1_colt.as_mut().map(|t| t as _),
            self.l1_range.as_mut().map(|t| t as _),
            Some(&mut self.l2_page as _),
            self.l2_range.as_mut().map(|t| t as _),
        ]
        .into_iter()
        .flatten()
    }

    /// Removes the entries `scope` selects from every structure and
    /// returns the total removed. `Invalidate::Page { va, asid: None }` is
    /// the `invlpg` of an OS changing one mapping, e.g. breaking a huge
    /// page, so other pages survive; a remote core's IPI delivers
    /// `asid: Some(a)`, sparing whatever its current tenant has cached; an
    /// ASID-less context switch flushes with [`Invalidate::All`].
    // Out of line: the context-switch flush is called from the hot loop,
    // whose code layout should not change with this cold walk.
    #[inline(never)]
    pub fn invalidate(&mut self, scope: Invalidate) -> u64 {
        self.structures().map(|t| t.invalidate(scope)).sum()
    }

    /// Retags every structure with `asid`: the multi-core context switch,
    /// which replaces the flush of an ASID-less switch. Entries of other
    /// ASIDs stay resident and become visible again when their tenant
    /// returns.
    pub fn set_current_asid(&mut self, asid: u16) {
        self.structures().for_each(|t| t.set_current_asid(asid));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TlbGeometry;
    use crate::org::Org;
    use eeat_tlb::{PageTranslation, COLT_GROUP};
    use eeat_types::{Pfn, PhysAddr, RangeTranslation, VirtAddr, VirtRange, Vpn};

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

    /// The `invlpg` scope: every entry covering `va`, any ASID.
    fn page(va: u64) -> Invalidate {
        Invalidate::Page {
            va: VirtAddr::new(va),
            asid: None,
        }
    }

    #[test]
    fn shootdown_is_precise() {
        let mut h = TlbHierarchy::from_config(&Config::rmm_lite());
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
        assert_eq!(h.invalidate(page(5 * 4096)), 2);
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
        assert_eq!(h.invalidate(page(5 * 4096)), 0);
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
        let mut h = TlbHierarchy::from_config(&Config::colt());
        assert!(h.l1_4k().is_none() && h.l1_2m().is_none());
        let colt = h.l1_colt.as_mut().expect("CoLT builds a coalesced L1");
        assert_eq!(colt.capacity(), 64);
        assert_eq!(colt.ways(), 4);
        colt.insert_group(Vpn::new(0), Pfn::new(64), 0b0011);
        assert_eq!(h.invalidate(page(0)), 1);
        assert_eq!(h.l1_colt().unwrap().coverage_pages(), 1);
        assert_eq!(h.invalidate(Invalidate::All), 1);
        assert_eq!(h.l1_colt().unwrap().occupancy(), 0);
    }

    /// The reach test's handle on one structure, enumerated field by
    /// field so that a structure missing from `structures()` shows.
    trait Fixture {
        /// Entry spacing: the structure's page size, a CoLT group, or a
        /// 16 MiB range.
        fn stride(&self) -> u64;
        /// Caches one entry at `va` under `asid` (global when asked), with
        /// an ASID-specific frame.
        fn fill(&mut self, va: u64, asid: u16, global: bool);
        /// The physical address `va` translates to under the current ASID.
        fn probe_pa(&self, va: u64) -> Option<u64>;
        fn count(&self) -> usize;
    }

    fn frame(va: u64, asid: u16) -> u64 {
        va + (u64::from(asid) << 40)
    }

    macro_rules! page_fixture {
        ($($tlb:ty),*) => {$(
            impl Fixture for $tlb {
                fn stride(&self) -> u64 {
                    self.default_size().bytes()
                }
                fn fill(&mut self, va: u64, asid: u16, global: bool) {
                    self.set_current_asid(asid);
                    let t = PageTranslation::new(
                        VirtAddr::new(va).vpn(),
                        Pfn::new(frame(va, asid) >> 12),
                        self.default_size(),
                    );
                    if global { self.insert_global(t) } else { self.insert(t) }
                }
                fn probe_pa(&self, va: u64) -> Option<u64> {
                    let va = VirtAddr::new(va);
                    self.probe(va, self.default_size()).map(|t| t.translate(va).raw())
                }
                fn count(&self) -> usize {
                    self.occupancy()
                }
            }
        )*};
    }
    page_fixture!(SetAssocTlb, FullyAssocTlb);

    impl Fixture for RangeTlb {
        fn stride(&self) -> u64 {
            16 << 20
        }
        fn fill(&mut self, va: u64, asid: u16, global: bool) {
            self.set_current_asid(asid);
            let virt = VirtRange::new(VirtAddr::new(va), self.stride());
            let t = RangeTranslation::new(virt, PhysAddr::new(frame(va, asid)));
            if global {
                self.insert_global(t)
            } else {
                self.insert(t)
            }
        }
        fn probe_pa(&self, va: u64) -> Option<u64> {
            let va = VirtAddr::new(va);
            self.probe(va)
                .and_then(|t| t.translate(va))
                .map(PhysAddr::raw)
        }
        fn count(&self) -> usize {
            self.occupancy()
        }
    }

    impl Fixture for CoalescedTlb {
        fn stride(&self) -> u64 {
            COLT_GROUP as u64 * 4096
        }
        fn fill(&mut self, va: u64, asid: u16, global: bool) {
            self.set_current_asid(asid);
            let (group, base) = (Vpn::new(va >> 12), Pfn::new(frame(va, asid) >> 12));
            if global {
                self.insert_group_global(group, base, 1)
            } else {
                self.insert_group(group, base, 1)
            }
        }
        fn probe_pa(&self, va: u64) -> Option<u64> {
            let va = VirtAddr::new(va);
            self.probe(va).map(|t| t.translate(va).raw())
        }
        fn count(&self) -> usize {
            self.occupancy()
        }
    }

    fn fixtures(h: &mut TlbHierarchy) -> Vec<&mut dyn Fixture> {
        let mut v: Vec<&mut dyn Fixture> = vec![&mut h.l2_page];
        v.extend(h.l1_4k.as_mut().map(|t| t as _));
        v.extend(h.l1_2m.as_mut().map(|t| t as _));
        v.extend(h.l1_1g.as_mut().map(|t| t as _));
        v.extend(h.l1_fa.as_mut().map(|t| t as _));
        v.extend(h.l1_colt.as_mut().map(|t| t as _));
        v.extend(h.l1_range.as_mut().map(|t| t as _));
        v.extend(h.l2_range.as_mut().map(|t| t as _));
        v
    }

    const GIB: u64 = 1 << 30;

    /// Each structure caches X under ASIDs 1 and 2, Y under ASID 1 and a
    /// global Z. X starts at 1 GiB in every structure, so one page scope
    /// covers them all, while Y and Z sit in other sets.
    fn xyz(t: &dyn Fixture) -> [u64; 3] {
        [GIB, 2 * GIB + t.stride(), 3 * GIB + 2 * t.stride()]
    }

    /// Asserts every structure holds `count` entries and translates X, Y
    /// and Z with the frames of `owners` (`None`: a miss).
    fn expect(h: &mut TlbHierarchy, count: usize, owners: [Option<u16>; 3]) {
        for (i, t) in fixtures(h).into_iter().enumerate() {
            let vas = xyz(t);
            let seen = vas.map(|va| t.probe_pa(va));
            let want: [_; 3] = std::array::from_fn(|k| owners[k].map(|a| frame(vas[k], a)));
            assert_eq!((t.count(), seen), (count, want), "structure {i}");
        }
    }

    #[test]
    fn invalidate_and_retag_reach_every_structure() {
        let mut configs: Vec<Config> = Org::all().iter().map(|org| org.config()).collect();
        configs.push(Config {
            l1_1g: Some(TlbGeometry::new(4, 4)),
            ..Config::thp()
        });
        configs.push(Config::fa_thp());
        for config in configs {
            let mut h = TlbHierarchy::from_config(&config);
            let structures = fixtures(&mut h).len() as u64;
            for t in fixtures(&mut h) {
                let [x, y, z] = xyz(t);
                t.fill(x, 1, false);
                t.fill(x, 2, false);
                t.fill(y, 1, false);
                t.fill(z, 2, true);
            }
            h.set_current_asid(1);
            expect(&mut h, 4, [Some(1), Some(1), Some(2)]);
            h.set_current_asid(2);
            expect(&mut h, 4, [Some(2), None, Some(2)]);

            let x1 = Invalidate::Page {
                va: VirtAddr::new(GIB + 123),
                asid: Some(1),
            };
            assert_eq!(h.invalidate(x1), structures, "{}", config.name);
            expect(&mut h, 3, [Some(2), None, Some(2)]);
            h.set_current_asid(1);
            expect(&mut h, 3, [None, Some(1), Some(2)]);

            assert_eq!(h.invalidate(Invalidate::Asid(1)), structures);
            expect(&mut h, 2, [None, None, Some(2)]);
            h.set_current_asid(2);
            expect(&mut h, 2, [Some(2), None, Some(2)]);

            assert_eq!(h.invalidate(Invalidate::All), 2 * structures);
            expect(&mut h, 0, [None, None, None]);
        }
    }
}
