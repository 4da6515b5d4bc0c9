//! Fully associative TLB for RMM range translations.

use core::fmt;

use eeat_types::{PhysAddr, RangeTranslation, VirtAddr, VirtRange};

use crate::invalidate::Invalidate;
use crate::set_assoc::{asid_overlaps, asid_visible, ASID_GLOBAL, ASID_MASK, MAX_WAYS};
use crate::stats::TlbStats;

/// A fully associative cache of [`RangeTranslation`] entries.
///
/// Unlike a page TLB, a hit requires a *range check* — two comparisons
/// against the base and limit of each entry instead of one tag equality —
/// which is why the energy model charges a range TLB as a page TLB with
/// twice the tag bits (paper §5). Each entry maps an arbitrarily large
/// range, giving small range TLBs (4 entries at L1, 32 at L2) very high hit
/// ratios under eager paging.
///
/// Entries are replaced with true LRU.
///
/// # Scan layout
///
/// Besides the authoritative slot array, the structure maintains a scan
/// lane of `(base, end, slot)` triples sorted by range base, rebuilt on the
/// cold mutation paths (insert / invalidate / flush). Lookups walk the
/// sorted lane and stop at the first base above the probed address; since
/// the range table keeps ranges disjoint, at most one entry can contain any
/// address, so the sorted walk returns exactly what the slot-order walk
/// would.
///
/// # Examples
///
/// ```
/// use eeat_tlb::RangeTlb;
/// use eeat_types::{PhysAddr, RangeTranslation, VirtAddr, VirtRange};
///
/// let mut tlb = RangeTlb::new("L1-range", 4);
/// let rt = RangeTranslation::new(
///     VirtRange::new(VirtAddr::new(0x10_0000), 0x100_0000),
///     PhysAddr::new(0x8000_0000),
/// );
/// tlb.insert(rt);
/// let pa = tlb.lookup(VirtAddr::new(0x55_1234)).expect("inside the range");
/// assert_eq!(pa.translate(VirtAddr::new(0x55_1234)).unwrap().raw(),
///            0x8000_0000 + 0x45_1234);
/// ```
#[derive(Clone, Debug)]
pub struct RangeTlb {
    name: &'static str,
    entries: Vec<Option<RangeTranslation>>,
    /// `recency[i]` is the LRU rank of slot `i` (0 = MRU).
    recency: Vec<u8>,
    /// ASID lane: the owning address-space tag of each slot, with the
    /// [`ASID_GLOBAL`] bit for entries visible to every ASID.
    asids: Vec<u16>,
    /// Valid entries as `(base, end, delta, slot)` sorted by `(base, slot)`
    /// — the lane the lookup scans, where `delta` is the wrapping
    /// `phys_base - virt_base` offset. A hit reconstructs the full
    /// translation from the scan tuple alone (one wrapping add), never
    /// touching the slot array. Rebuilt by
    /// [`rebuild_scan`](Self::rebuild_scan) after any content mutation.
    /// Bases are unique per ASID (the range table keeps ranges disjoint),
    /// but distinct ASIDs may cache the same virtual range, so the lookup
    /// filters by ASID visibility as it walks.
    scan: Vec<(u64, u64, u64, u8)>,
    /// The ASID lookups and inserts currently run under.
    current_asid: u16,
    stats: TlbStats,
}

impl RangeTlb {
    /// Creates an empty range TLB with `entries` slots.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or above
    /// [`MAX_WAYS`](crate::MAX_WAYS).
    pub fn new(name: &'static str, entries: usize) -> Self {
        assert!(entries > 0, "a range TLB needs at least one entry");
        assert!(
            entries <= MAX_WAYS,
            "entries above MAX_WAYS ({MAX_WAYS}) unsupported: rank counters are u8"
        );
        Self {
            name,
            entries: vec![None; entries],
            recency: (0..entries).map(|i| i as u8).collect(),
            asids: vec![0; entries],
            scan: Vec::with_capacity(entries),
            current_asid: 0,
            stats: TlbStats::new(),
        }
    }

    /// Switches the ASID that subsequent lookups and inserts run under.
    ///
    /// # Panics
    ///
    /// Panics if `asid` exceeds [`ASID_BITS`](crate::ASID_BITS) bits.
    pub fn set_current_asid(&mut self, asid: u16) {
        assert!(asid <= ASID_MASK, "ASID exceeds {} bits", crate::ASID_BITS);
        self.current_asid = asid;
    }

    /// The ASID lookups currently run under.
    pub fn current_asid(&self) -> u16 {
        self.current_asid
    }

    /// The structure's display name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Total number of slots.
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Event counters.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Resets the event counters.
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// Looks up the range containing `va`; a hit is promoted to MRU.
    #[inline]
    pub fn lookup(&mut self, va: VirtAddr) -> Option<RangeTranslation> {
        let raw = va.raw();
        let cur = self.current_asid;
        for i in 0..self.scan.len() {
            let (base, end, delta, slot) = self.scan[i];
            if base > raw {
                break; // sorted by base: no later entry can contain va
            }
            if raw < end && asid_visible(self.asids[slot as usize], cur) {
                let slot = slot as usize;
                let rank = self.recency[slot];
                self.touch(slot, rank);
                self.stats.record_hit();
                // Reconstructed from the scan tuple: exact, since the
                // wrapping delta round-trips the physical base.
                return Some(RangeTranslation::new(
                    VirtRange::new(VirtAddr::new(base), end - base),
                    PhysAddr::new(base.wrapping_add(delta)),
                ));
            }
        }
        self.stats.record_miss();
        None
    }

    /// Probes for the range containing `va` without disturbing LRU state or
    /// counters.
    #[inline]
    pub fn probe(&self, va: VirtAddr) -> Option<RangeTranslation> {
        let raw = va.raw();
        let cur = self.current_asid;
        self.scan
            .iter()
            .take_while(|&&(base, _, _, _)| base <= raw)
            .find(|&&(_, end, _, slot)| raw < end && asid_visible(self.asids[slot as usize], cur))
            .map(|&(base, end, delta, _)| {
                RangeTranslation::new(
                    VirtRange::new(VirtAddr::new(base), end - base),
                    PhysAddr::new(base.wrapping_add(delta)),
                )
            })
    }

    /// Rebuilds the sorted scan lane from the slot array. Called on the cold
    /// mutation paths; the `(base, slot)` key is a total order (bases are
    /// unique per ASID but may repeat across ASIDs), so the unstable sort is
    /// deterministic.
    fn rebuild_scan(&mut self) {
        self.scan.clear();
        for (slot, entry) in self.entries.iter().enumerate() {
            if let Some(rt) = entry {
                let base = rt.virt().start().raw();
                self.scan.push((
                    base,
                    rt.virt().end().raw(),
                    rt.phys_base().raw().wrapping_sub(base),
                    slot as u8,
                ));
            }
        }
        self.scan
            .sort_unstable_by_key(|&(base, _, _, slot)| (base, slot));
    }

    /// Inserts `translation` under the current ASID, evicting the LRU entry
    /// when full.
    ///
    /// An entry with the same virtual range whose ASID lane overlaps the
    /// current one is overwritten in place, so no lookup ever sees two
    /// entries for one range. (Overlapping-but-unequal ranges are the range
    /// table's responsibility to prevent.)
    pub fn insert(&mut self, translation: RangeTranslation) {
        self.insert_tagged(translation, self.current_asid);
    }

    /// Inserts `translation` as a *global* range, visible to every ASID.
    pub fn insert_global(&mut self, translation: RangeTranslation) {
        self.insert_tagged(translation, self.current_asid | ASID_GLOBAL);
    }

    fn insert_tagged(&mut self, translation: RangeTranslation, lane: u16) {
        let mut dup = None;
        let mut invalid = None;
        let mut shadowed = 0u64;
        for slot in 0..self.entries.len() {
            match self.entries[slot] {
                Some(rt)
                    if rt.virt() == translation.virt() && asid_overlaps(self.asids[slot], lane) =>
                {
                    if dup.is_none() {
                        dup = Some(slot);
                    } else {
                        self.clear_slot(slot);
                        shadowed += 1;
                    }
                }
                None if invalid.is_none() => invalid = Some(slot),
                _ => {}
            }
        }
        if shadowed > 0 {
            self.stats.record_invalidations(shadowed);
        }
        let slot = dup.or(invalid).unwrap_or_else(|| {
            let lru_rank = (self.entries.len() - 1) as u8;
            self.recency
                .iter()
                .position(|&r| r == lru_rank)
                .expect("one slot always holds the LRU rank")
        });
        self.entries[slot] = Some(translation);
        self.asids[slot] = lane;
        let rank = self.recency[slot];
        self.touch(slot, rank);
        self.rebuild_scan();
        self.stats.record_fill();
    }

    /// Empties `slot` and demotes it to the LRU end, keeping the ranks a
    /// permutation. Does not rebuild the scan lane.
    fn clear_slot(&mut self, slot: usize) {
        self.entries[slot] = None;
        let rank = self.recency[slot];
        for r in self.recency.iter_mut() {
            if *r > rank {
                *r -= 1;
            }
        }
        self.recency[slot] = (self.entries.len() - 1) as u8;
    }

    #[inline]
    fn touch(&mut self, slot: usize, rank: u8) {
        for r in self.recency.iter_mut() {
            if *r < rank {
                *r += 1;
            }
        }
        self.recency[slot] = 0;
    }

    /// Removes the entries `scope` selects and returns how many went: a page
    /// scope takes every range containing the address (unmapping one page
    /// breaks any range covering it), a range scope every range overlapping
    /// it. Each vacated slot drops to the LRU end so the ranks stay a
    /// permutation; [`Invalidate::All`] resets them.
    pub fn invalidate(&mut self, scope: Invalidate) -> u64 {
        if matches!(scope, Invalidate::All) {
            return self.flush();
        }
        let mut removed = 0u64;
        for slot in 0..self.entries.len() {
            let Some(rt) = self.entries[slot] else {
                continue;
            };
            let virt = rt.virt();
            if scope.removes(self.asids[slot], virt.start().raw(), virt.len()) {
                self.clear_slot(slot);
                removed += 1;
            }
        }
        if removed > 0 {
            self.rebuild_scan();
        }
        self.stats.record_invalidations(removed);
        removed
    }

    /// Empties every slot, globals included, and returns the count.
    fn flush(&mut self) -> u64 {
        let removed = self.occupancy() as u64;
        self.stats.record_invalidations(removed);
        for (i, e) in self.entries.iter_mut().enumerate() {
            *e = None;
            self.recency[i] = i as u8;
            self.asids[i] = 0;
        }
        self.scan.clear();
        removed
    }

    /// Number of valid entries currently held.
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Checks internal invariants; meant for tests and debugging.
    ///
    /// # Panics
    ///
    /// Panics if the recency ranks are not a permutation of `0..capacity`,
    /// or the sorted scan lane disagrees with the slot array.
    pub fn assert_invariants(&self) {
        let n = self.entries.len();
        let mut seen = vec![false; n];
        for &rank in &self.recency {
            let rank = rank as usize;
            assert!(rank < n, "rank out of range");
            assert!(!seen[rank], "duplicate rank");
            seen[rank] = true;
        }
        assert_eq!(
            self.scan.len(),
            self.occupancy(),
            "scan lane covers every valid slot"
        );
        for (i, &(base, end, delta, slot)) in self.scan.iter().enumerate() {
            let rt = self.entries[slot as usize].expect("scan lane points at a valid slot");
            assert_eq!(base, rt.virt().start().raw(), "stale scan base");
            assert_eq!(end, rt.virt().end().raw(), "stale scan end");
            assert_eq!(
                base.wrapping_add(delta),
                rt.phys_base().raw(),
                "stale scan delta"
            );
            if i > 0 {
                let (pb, _, _, ps) = self.scan[i - 1];
                assert!(
                    (pb, ps) < (base, slot),
                    "scan lane not sorted by (base, slot)"
                );
            }
        }
        for a in 0..n {
            let Some(ra) = self.entries[a] else { continue };
            for b in a + 1..n {
                let Some(rb) = self.entries[b] else { continue };
                assert!(
                    !(ra.virt() == rb.virt() && asid_overlaps(self.asids[a], self.asids[b])),
                    "range {:?} resident twice for overlapping ASID lanes",
                    ra.virt()
                );
            }
        }
    }
}

impl fmt::Display for RangeTlb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} range entries, {}",
            self.name,
            self.capacity(),
            self.stats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eeat_types::{PhysAddr, VirtRange};

    fn rt(start_mb: u64, len_mb: u64, phys_mb: u64) -> RangeTranslation {
        RangeTranslation::new(
            VirtRange::new(VirtAddr::new(start_mb << 20), len_mb << 20),
            PhysAddr::new(phys_mb << 20),
        )
    }

    #[test]
    fn containment_hit() {
        let mut tlb = RangeTlb::new("t", 4);
        tlb.insert(rt(16, 64, 512));
        assert!(tlb.lookup(VirtAddr::new(40 << 20)).is_some());
        assert!(tlb.lookup(VirtAddr::new(80 << 20)).is_none());
        assert_eq!(tlb.stats().hits(), 1);
        assert_eq!(tlb.stats().misses(), 1);
    }

    #[test]
    fn one_entry_maps_huge_span() {
        let mut tlb = RangeTlb::new("t", 1);
        tlb.insert(rt(0, 4096, 8192)); // a 4 GiB range in one entry
        for mb in [0u64, 1000, 4095] {
            assert!(tlb.lookup(VirtAddr::new(mb << 20)).is_some());
        }
        assert_eq!(tlb.occupancy(), 1);
    }

    #[test]
    fn lru_eviction() {
        let mut tlb = RangeTlb::new("t", 2);
        tlb.insert(rt(0, 1, 100));
        tlb.insert(rt(10, 1, 200));
        tlb.lookup(VirtAddr::new(0)); // protect the first range
        tlb.insert(rt(20, 1, 300)); // evicts the 10 MB range
        assert!(tlb.probe(VirtAddr::new(0)).is_some());
        assert!(tlb.probe(VirtAddr::new(10 << 20)).is_none());
        assert!(tlb.probe(VirtAddr::new(20 << 20)).is_some());
    }

    #[test]
    fn duplicate_insert_overwrites() {
        let mut tlb = RangeTlb::new("t", 4);
        tlb.insert(rt(0, 1, 100));
        tlb.insert(rt(0, 1, 300));
        assert_eq!(tlb.occupancy(), 1);
        let hit = tlb.probe(VirtAddr::new(0)).unwrap();
        assert_eq!(hit.phys_base().raw(), 300 << 20);
    }

    #[test]
    fn flush_and_counters() {
        let mut tlb = RangeTlb::new("t", 4);
        tlb.insert(rt(0, 1, 100));
        tlb.insert(rt(10, 1, 200));
        assert_eq!(tlb.invalidate(Invalidate::All), 2);
        assert_eq!(tlb.occupancy(), 0);
        assert_eq!(tlb.stats().invalidations(), 2);
        assert!(tlb.lookup(VirtAddr::new(0)).is_none());
    }

    #[test]
    fn invalidate_hits_only_covering_ranges() {
        let mut tlb = RangeTlb::new("t", 4);
        tlb.insert(rt(0, 16, 100));
        tlb.insert(rt(32, 16, 200));
        assert_eq!(tlb.invalidate(Invalidate::page(VirtAddr::new(40 << 20))), 1);
        assert!(tlb.probe(VirtAddr::new(0)).is_some());
        assert!(tlb.probe(VirtAddr::new(40 << 20)).is_none());
        assert_eq!(tlb.stats().invalidations(), 1);
        // The vacated slot is reused before any eviction.
        tlb.insert(rt(64, 1, 300));
        tlb.insert(rt(80, 1, 400));
        tlb.insert(rt(96, 1, 500));
        assert!(tlb.probe(VirtAddr::new(0)).is_some());
    }

    #[test]
    fn range_scope_takes_overlaps() {
        let mut tlb = RangeTlb::new("t", 4);
        tlb.insert(rt(0, 16, 100));
        tlb.insert(rt(32, 16, 200));
        tlb.insert(rt(64, 16, 300));
        // [40 MB, 72 MB) overlaps the second and third ranges.
        let shot = VirtRange::new(VirtAddr::new(40 << 20), 32 << 20);
        assert_eq!(tlb.invalidate(Invalidate::range(shot)), 2);
        assert!(tlb.probe(VirtAddr::new(0)).is_some());
        assert_eq!(tlb.occupancy(), 1);
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut tlb = RangeTlb::new("t", 2);
        tlb.insert(rt(0, 1, 100));
        let before = *tlb.stats();
        tlb.probe(VirtAddr::new(0));
        assert_eq!(*tlb.stats(), before);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_capacity_rejected() {
        let _ = RangeTlb::new("t", 0);
    }

    #[test]
    fn max_ways_boundary_accepted() {
        use crate::MAX_WAYS;
        let mut tlb = RangeTlb::new("t", MAX_WAYS);
        for i in 0..MAX_WAYS as u64 {
            tlb.insert(rt(16 * i, 1, 1000 + i));
        }
        assert_eq!(tlb.occupancy(), MAX_WAYS);
        // Oldest entry is LRU; one more insert evicts it.
        tlb.insert(rt(16 * MAX_WAYS as u64, 1, 9999));
        assert!(tlb.probe(VirtAddr::new(0)).is_none());
        assert_eq!(tlb.occupancy(), MAX_WAYS);
        tlb.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "MAX_WAYS")]
    fn above_max_ways_rejected() {
        let _ = RangeTlb::new("t", crate::MAX_WAYS + 1);
    }

    #[test]
    fn asid_isolates_ranges() {
        let mut tlb = RangeTlb::new("t", 4);
        tlb.set_current_asid(1);
        tlb.insert(rt(0, 16, 100));
        tlb.set_current_asid(2);
        assert!(tlb.lookup(VirtAddr::new(8 << 20)).is_none(), "other ASID");
        // The same virtual range may be cached under both ASIDs at once.
        tlb.insert(rt(0, 16, 900));
        assert_eq!(tlb.occupancy(), 2);
        assert_eq!(
            tlb.probe(VirtAddr::new(0)).unwrap().phys_base().raw(),
            900 << 20
        );
        tlb.set_current_asid(1);
        assert_eq!(
            tlb.probe(VirtAddr::new(0)).unwrap().phys_base().raw(),
            100 << 20
        );
        tlb.assert_invariants();
    }

    #[test]
    fn global_range_visible_to_every_asid() {
        let mut tlb = RangeTlb::new("t", 4);
        tlb.set_current_asid(3);
        tlb.insert_global(rt(64, 16, 700));
        tlb.set_current_asid(5);
        assert!(tlb.lookup(VirtAddr::new(70 << 20)).is_some());
        tlb.assert_invariants();
    }

    #[test]
    fn asid_scope_spares_globals_and_other_asids() {
        let mut tlb = RangeTlb::new("t", 4);
        tlb.set_current_asid(1);
        tlb.insert(rt(0, 16, 100));
        tlb.insert_global(rt(64, 16, 700));
        tlb.set_current_asid(2);
        tlb.insert(rt(32, 16, 200));
        assert_eq!(tlb.invalidate(Invalidate::Asid(1)), 1);
        assert!(tlb.probe(VirtAddr::new(70 << 20)).is_some(), "global stays");
        assert!(tlb.probe(VirtAddr::new(40 << 20)).is_some(), "ASID 2 stays");
        tlb.set_current_asid(1);
        assert!(tlb.probe(VirtAddr::new(0)).is_none());
        tlb.assert_invariants();
    }

    #[test]
    fn asid_page_scope_is_targeted() {
        let mut tlb = RangeTlb::new("t", 4);
        tlb.set_current_asid(1);
        tlb.insert(rt(0, 16, 100));
        tlb.set_current_asid(2);
        tlb.insert(rt(0, 16, 900));
        assert_eq!(
            tlb.invalidate(Invalidate::page_of(1, VirtAddr::new(8 << 20))),
            1
        );
        assert!(
            tlb.probe(VirtAddr::new(8 << 20)).is_some(),
            "ASID 2 copy stays"
        );
        tlb.set_current_asid(1);
        assert!(tlb.probe(VirtAddr::new(8 << 20)).is_none());
        tlb.assert_invariants();
    }

    #[test]
    fn scan_lane_tracks_mutations() {
        let mut tlb = RangeTlb::new("t", 4);
        tlb.insert(rt(32, 16, 200));
        tlb.insert(rt(0, 16, 100));
        tlb.assert_invariants();
        // Lookup in the middle range works through the sorted lane.
        assert!(tlb.lookup(VirtAddr::new(40 << 20)).is_some());
        tlb.invalidate(Invalidate::page(VirtAddr::new(40 << 20)));
        tlb.assert_invariants();
        assert!(tlb.lookup(VirtAddr::new(40 << 20)).is_none());
        assert!(tlb.lookup(VirtAddr::new(8 << 20)).is_some());
        tlb.invalidate(Invalidate::All);
        tlb.assert_invariants();
        assert!(tlb.lookup(VirtAddr::new(8 << 20)).is_none());
    }
}
