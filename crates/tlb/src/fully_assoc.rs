//! Fully associative page TLB.

use core::fmt;

use eeat_types::{PageSize, VirtAddr};

use crate::entry::{Hit, PageTranslation};
use crate::invalidate::Invalidate;
use crate::set_assoc::SetAssocTlb;
use crate::stats::TlbStats;

/// A fully associative page TLB — a single set whose every slot is a way.
///
/// Used for the 4-entry L1-1GB TLB of the Sandy Bridge baseline (Table 1).
/// Lite applies to fully associative structures too: §4.4 of the paper
/// clusters LRU distances "as if there were ways" and resizes the structure
/// in powers of two, which is exactly what [`set_active_entries`]
/// implements.
///
/// [`set_active_entries`]: FullyAssocTlb::set_active_entries
///
/// # Examples
///
/// ```
/// use eeat_tlb::{FullyAssocTlb, PageTranslation};
/// use eeat_types::{PageSize, Pfn, VirtAddr, Vpn};
///
/// let mut tlb = FullyAssocTlb::new("L1-1GB", 4, PageSize::Size1G);
/// let pages = PageSize::Size1G.base_pages();
/// tlb.insert(PageTranslation::new(Vpn::new(0), Pfn::new(pages), PageSize::Size1G));
/// assert!(tlb.lookup(VirtAddr::new(123)).is_some());
/// ```
#[derive(Clone, Debug)]
pub struct FullyAssocTlb {
    inner: SetAssocTlb,
}

impl FullyAssocTlb {
    /// Creates an empty fully associative TLB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two no larger than
    /// [`MAX_WAYS`](crate::MAX_WAYS) (every slot is a way of the single
    /// set, so the way bound is the entry bound).
    pub fn new(name: &'static str, entries: usize, default_size: PageSize) -> Self {
        Self {
            inner: SetAssocTlb::new(name, entries, entries, default_size),
        }
    }

    /// The structure's display name.
    pub fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// Total number of slots.
    pub fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    /// Currently active slots (≤ capacity, power of two).
    pub fn active_entries(&self) -> usize {
        self.inner.active_ways()
    }

    /// The page size assumed by [`lookup`](Self::lookup).
    pub fn default_size(&self) -> PageSize {
        self.inner.default_size()
    }

    /// Event counters.
    pub fn stats(&self) -> &TlbStats {
        self.inner.stats()
    }

    /// Resets the event counters.
    pub fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    /// Looks up `va` assuming the structure's default page size; hits report
    /// their LRU rank and are promoted to MRU.
    pub fn lookup(&mut self, va: VirtAddr) -> Option<Hit> {
        self.inner.lookup(va)
    }

    /// Looks up `va` as a reference to a page of `size`.
    pub fn lookup_for_size(&mut self, va: VirtAddr, size: PageSize) -> Option<Hit> {
        self.inner.lookup_for_size(va, size)
    }

    /// Looks up `va` matching entries of *any* page size — the natural
    /// lookup of a fully associative TLB, where the page size need not be
    /// known to form an index (paper §2.2 / §4.4).
    pub fn lookup_any_size(&mut self, va: VirtAddr) -> Option<Hit> {
        self.inner.lookup_any_size(va)
    }

    /// Probes without disturbing LRU state or counters.
    pub fn probe(&self, va: VirtAddr, size: PageSize) -> Option<PageTranslation> {
        self.inner.probe(va, size)
    }

    /// Inserts `translation`, evicting the LRU entry when full.
    pub fn insert(&mut self, translation: PageTranslation) {
        self.inner.insert(translation);
    }

    /// Inserts `translation` as a *global* mapping, visible to every ASID.
    pub fn insert_global(&mut self, translation: PageTranslation) {
        self.inner.insert_global(translation);
    }

    /// Switches the ASID that subsequent lookups and inserts run under.
    ///
    /// # Panics
    ///
    /// Panics if `asid` exceeds [`ASID_BITS`](crate::ASID_BITS) bits.
    pub fn set_current_asid(&mut self, asid: u16) {
        self.inner.set_current_asid(asid);
    }

    /// The ASID lookups currently run under.
    pub fn current_asid(&self) -> u16 {
        self.inner.current_asid()
    }

    /// Resizes to `entries` active slots (Lite's power-of-two downsizing of
    /// fully associative structures). Disabled slots are invalidated.
    ///
    /// # Panics
    ///
    /// Panics unless `entries` is a power of two in `1..=capacity()`.
    pub fn set_active_entries(&mut self, entries: usize) {
        self.inner.set_active_ways(entries);
    }

    /// Removes the entries `scope` selects, of any page size, and returns
    /// how many went.
    pub fn invalidate(&mut self, scope: Invalidate) -> u64 {
        self.inner.invalidate(scope)
    }

    /// Number of valid entries currently held.
    pub fn occupancy(&self) -> usize {
        self.inner.occupancy()
    }

    /// Checks internal invariants; meant for tests.
    ///
    /// # Panics
    ///
    /// Panics when the LRU permutation or the inactive-slot emptiness
    /// invariant is violated.
    pub fn assert_invariants(&self) {
        self.inner.assert_invariants();
    }
}

impl fmt::Display for FullyAssocTlb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} entries fully associative ({} active), {}",
            self.name(),
            self.capacity(),
            self.active_entries(),
            self.stats()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eeat_types::{Pfn, Vpn};

    fn t1g(index: u64) -> PageTranslation {
        let pages = PageSize::Size1G.base_pages();
        PageTranslation::new(
            Vpn::new(index * pages),
            Pfn::new((index + 8) * pages),
            PageSize::Size1G,
        )
    }

    fn va1g(index: u64) -> VirtAddr {
        VirtAddr::new(index * PageSize::Size1G.bytes() + 0x1234)
    }

    #[test]
    fn full_associativity_no_conflicts() {
        let mut tlb = FullyAssocTlb::new("L1-1GB", 4, PageSize::Size1G);
        for i in 0..4 {
            tlb.insert(t1g(i));
        }
        for i in 0..4 {
            assert!(tlb.lookup(va1g(i)).is_some(), "entry {i} present");
        }
        assert_eq!(tlb.occupancy(), 4);
        tlb.assert_invariants();
    }

    #[test]
    fn lru_eviction_order() {
        let mut tlb = FullyAssocTlb::new("t", 4, PageSize::Size1G);
        for i in 0..4 {
            tlb.insert(t1g(i));
        }
        tlb.lookup(va1g(0)); // protect the oldest
        tlb.insert(t1g(4)); // evicts entry 1
        assert!(tlb.probe(va1g(0), PageSize::Size1G).is_some());
        assert!(tlb.probe(va1g(1), PageSize::Size1G).is_none());
        assert!(tlb.probe(va1g(4), PageSize::Size1G).is_some());
    }

    #[test]
    fn rank_is_lru_distance() {
        let mut tlb = FullyAssocTlb::new("t", 4, PageSize::Size1G);
        for i in 0..4 {
            tlb.insert(t1g(i));
        }
        assert_eq!(tlb.lookup(va1g(0)).unwrap().rank, 3);
        assert_eq!(tlb.lookup(va1g(3)).unwrap().rank, 1);
    }

    #[test]
    fn downsizing_to_single_entry() {
        let mut tlb = FullyAssocTlb::new("t", 4, PageSize::Size1G);
        for i in 0..4 {
            tlb.insert(t1g(i));
        }
        tlb.set_active_entries(1);
        assert_eq!(tlb.active_entries(), 1);
        assert_eq!(tlb.occupancy(), 1);
        // Only the MRU entry (the last insert) survives.
        assert!(tlb.probe(va1g(3), PageSize::Size1G).is_some());
        tlb.insert(t1g(7));
        assert!(tlb.probe(va1g(3), PageSize::Size1G).is_none());
        tlb.assert_invariants();
    }

    #[test]
    fn mixed_sizes_via_any_size_lookup() {
        use eeat_types::{Pfn, Vpn};
        let mut tlb = FullyAssocTlb::new("L1", 8, PageSize::Size4K);
        tlb.insert(PageTranslation::new(
            Vpn::new(7),
            Pfn::new(7),
            PageSize::Size4K,
        ));
        tlb.insert(PageTranslation::new(
            Vpn::new(512),
            Pfn::new(1024),
            PageSize::Size2M,
        ));
        // Size-agnostic: both sizes hit without knowing the page size.
        assert!(tlb.lookup_any_size(VirtAddr::new(7 * 4096 + 5)).is_some());
        let hit = tlb
            .lookup_any_size(VirtAddr::new(512 * 4096 + (1 << 20)))
            .expect("2M entry covers");
        assert_eq!(hit.translation.size(), PageSize::Size2M);
        assert!(tlb.lookup_any_size(VirtAddr::new(9 * 4096)).is_none());
    }

    #[test]
    fn invalidate_targets_one_entry() {
        let mut tlb = FullyAssocTlb::new("t", 4, PageSize::Size1G);
        for i in 0..4 {
            tlb.insert(t1g(i));
        }
        assert_eq!(tlb.invalidate(Invalidate::page(va1g(2))), 1);
        assert!(tlb.probe(va1g(2), PageSize::Size1G).is_none());
        for i in [0, 1, 3] {
            assert!(tlb.probe(va1g(i), PageSize::Size1G).is_some());
        }
        tlb.assert_invariants();
    }

    #[test]
    fn asid_delegation_isolates_and_spares_globals() {
        let mut tlb = FullyAssocTlb::new("t", 4, PageSize::Size1G);
        tlb.set_current_asid(1);
        tlb.insert(t1g(0));
        tlb.insert_global(t1g(1));
        tlb.set_current_asid(2);
        assert!(tlb.lookup(va1g(0)).is_none(), "ASID 1 entry hidden");
        assert!(tlb.lookup(va1g(1)).is_some(), "global entry visible");
        assert_eq!(tlb.invalidate(Invalidate::Asid(1)), 1);
        assert!(tlb.probe(va1g(1), PageSize::Size1G).is_some());
        tlb.set_current_asid(1);
        assert!(tlb.lookup(va1g(0)).is_none());
        tlb.assert_invariants();
    }

    #[test]
    fn display_mentions_capacity() {
        let tlb = FullyAssocTlb::new("L1-range", 4, PageSize::Size4K);
        assert!(tlb.to_string().contains("4 entries fully associative"));
    }
}
