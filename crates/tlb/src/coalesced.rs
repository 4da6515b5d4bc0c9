//! Coalesced set-associative TLB (CoLT): one entry covers up to a group of
//! contiguous 4 KiB mappings.

use core::fmt;

use eeat_types::{PageSize, Pfn, VirtAddr, Vpn};

use crate::entry::{Hit, PageTranslation};
use crate::invalidate::Invalidate;
use crate::set_assoc::{asid_overlaps, asid_visible, ASID_GLOBAL, ASID_MASK};
use crate::stats::TlbStats;

/// Pages per coalesced entry: CoLT's default coalescing degree. The
/// presence mask is a `u8`, so eight is also the structural maximum.
pub const COLT_GROUP: usize = 8;

/// Tag value of an empty slot (a real group tag always fits 45 − 3 bits).
const INVALID_TAG: u64 = u64::MAX;

/// A CoLT-style coalesced set-associative TLB.
///
/// Each entry anchors one *group* of [`COLT_GROUP`] virtually consecutive
/// 4 KiB pages (the group-aligned VPN is the tag) and stores a base PFN
/// plus an 8-bit presence mask: bit `i` set means page `group_vpn + i`
/// maps to `base_pfn + i`. A single entry therefore covers an entire
/// physically contiguous run within its group — up to 8× the reach of a
/// plain 4 KiB entry for the same entry count — while a lookup stays one
/// tag compare plus one mask test ("Coalesced TLB to Exploit Diverse
/// Contiguity of Memory Mapping", the CoLT-SA design).
///
/// Storage follows the workspace's structure-of-arrays idiom
/// ([`SetAssocTlb`](crate::SetAssocTlb)): a `u64` tag lane scanned on every
/// probe, a `u8` recency lane holding each set's true-LRU permutation, and
/// payload lanes (wrapping base-PFN delta, presence mask) read only after a
/// tag match.
///
/// # Examples
///
/// ```
/// use eeat_tlb::{CoalescedTlb, COLT_GROUP};
/// use eeat_types::{Pfn, VirtAddr, Vpn};
///
/// let mut tlb = CoalescedTlb::new("L1-CoLT", 64, 4);
/// // Three contiguous pages starting at the group base:
/// tlb.insert_group(Vpn::new(8), Pfn::new(100), 0b0000_0111);
/// assert!(tlb.lookup(VirtAddr::new(9 * 4096 + 5)).is_some());
/// assert!(tlb.lookup(VirtAddr::new(11 * 4096)).is_none()); // bit clear
/// ```
#[derive(Clone, Debug)]
pub struct CoalescedTlb {
    name: &'static str,
    /// Tag lane: the group-aligned VPN per slot, [`INVALID_TAG`] when empty.
    tags: Vec<u64>,
    /// `recency[i]` is the LRU rank of slot `i` within its set (0 = MRU).
    recency: Vec<u8>,
    /// Payload lane: wrapping `base_pfn - group_vpn` delta of the group's
    /// contiguous run (a hit reconstructs the page's PFN as
    /// `vpn.wrapping_add(delta)` — the run is PFN-contiguous, so one delta
    /// serves every covered page).
    pfn_deltas: Vec<u64>,
    /// Payload lane: presence mask, bit `i` covers page `group_vpn + i`.
    masks: Vec<u8>,
    /// ASID lane: the owning address-space tag of each slot, with the
    /// [`ASID_GLOBAL`] bit for entries visible to every ASID.
    asids: Vec<u16>,
    sets: usize,
    ways: usize,
    /// The ASID lookups and inserts currently run under.
    current_asid: u16,
    /// Total valid entries, kept incrementally so the empty-structure
    /// early-out and [`occupancy`](Self::occupancy) are O(1).
    valid: u32,
    stats: TlbStats,
}

impl CoalescedTlb {
    /// Creates an empty coalesced TLB with `entries` slots and `ways`
    /// associativity.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` and `entries / ways` are non-zero powers of two
    /// and `entries` is a multiple of `ways`.
    pub fn new(name: &'static str, entries: usize, ways: usize) -> Self {
        assert!(
            ways.is_power_of_two() && ways > 0,
            "ways must be a power of two"
        );
        assert!(
            entries.is_multiple_of(ways),
            "entries must divide evenly into ways"
        );
        let sets = entries / ways;
        assert!(
            sets.is_power_of_two() && sets > 0,
            "sets must be a power of two"
        );
        Self {
            name,
            tags: vec![INVALID_TAG; entries],
            recency: (0..entries).map(|i| (i % ways) as u8).collect(),
            pfn_deltas: vec![0; entries],
            masks: vec![0; entries],
            asids: vec![0; entries],
            sets,
            ways,
            current_asid: 0,
            valid: 0,
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

    /// The structure's display name (e.g. `"L1-CoLT"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Total number of entry slots.
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Event counters.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Resets the event counters (the contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    /// The group-aligned VPN covering `vpn`.
    #[inline]
    fn group_base(vpn: Vpn) -> u64 {
        vpn.raw() & !(COLT_GROUP as u64 - 1)
    }

    #[inline]
    fn set_of(&self, group_vpn_raw: u64) -> usize {
        ((group_vpn_raw / COLT_GROUP as u64) as usize) & (self.sets - 1)
    }

    /// Looks up `va` (4 KiB references only — CoLT coalesces base pages).
    ///
    /// On a hit the entry is promoted to MRU; the reported rank is its
    /// pre-promotion LRU recency, as with the plain set-associative TLB.
    #[inline]
    pub fn lookup(&mut self, va: VirtAddr) -> Option<Hit> {
        // Skip mask: an empty structure is a guaranteed miss.
        if self.valid == 0 {
            self.stats.record_miss();
            return None;
        }
        let vpn = va.vpn();
        let group = Self::group_base(vpn);
        let offset = (vpn.raw() - group) as u32;
        let base = self.set_of(group) * self.ways;
        let cur = self.current_asid;
        if let Some(slot) = (base..base + self.ways)
            .find(|&slot| self.tags[slot] == group && asid_visible(self.asids[slot], cur))
        {
            if self.masks[slot] & (1 << offset) != 0 {
                let rank = self.recency[slot];
                self.touch(base, slot, rank);
                self.stats.record_hit();
                return Some(Hit {
                    translation: PageTranslation::new(
                        vpn,
                        Pfn::new(vpn.raw().wrapping_add(self.pfn_deltas[slot])),
                        PageSize::Size4K,
                    ),
                    rank,
                });
            }
        }
        self.stats.record_miss();
        None
    }

    /// Probes for a covering entry without affecting LRU state or counters.
    #[inline]
    pub fn probe(&self, va: VirtAddr) -> Option<PageTranslation> {
        if self.valid == 0 {
            return None;
        }
        let vpn = va.vpn();
        let group = Self::group_base(vpn);
        let offset = (vpn.raw() - group) as u32;
        let base = self.set_of(group) * self.ways;
        let cur = self.current_asid;
        (base..base + self.ways)
            .find(|&slot| {
                self.tags[slot] == group
                    && asid_visible(self.asids[slot], cur)
                    && self.masks[slot] & (1 << offset) != 0
            })
            .map(|slot| {
                PageTranslation::new(
                    vpn,
                    Pfn::new(vpn.raw().wrapping_add(self.pfn_deltas[slot])),
                    PageSize::Size4K,
                )
            })
    }

    /// Inserts a coalesced run under the current ASID: mask bit `i` maps
    /// page `group_vpn + i` to `base_pfn + i`. Evicts the set's LRU entry
    /// when the group is new to this ASID; a matching group with the same
    /// base PFN grows its mask in place, and a matching group with a
    /// *different* base PFN is replaced outright (the old run's translations
    /// are superseded), so no VPN is ever resident with two different
    /// translations visible to one ASID.
    ///
    /// # Panics
    ///
    /// Panics unless `group_vpn` is group-aligned and `mask` is non-zero.
    pub fn insert_group(&mut self, group_vpn: Vpn, base_pfn: Pfn, mask: u8) {
        self.insert_group_tagged(group_vpn, base_pfn, mask, self.current_asid);
    }

    /// Inserts a coalesced run as a *global* entry, visible to every ASID.
    ///
    /// # Panics
    ///
    /// Panics unless `group_vpn` is group-aligned and `mask` is non-zero.
    pub fn insert_group_global(&mut self, group_vpn: Vpn, base_pfn: Pfn, mask: u8) {
        self.insert_group_tagged(group_vpn, base_pfn, mask, self.current_asid | ASID_GLOBAL);
    }

    fn insert_group_tagged(&mut self, group_vpn: Vpn, base_pfn: Pfn, mask: u8, lane: u16) {
        assert!(
            group_vpn.raw() == Self::group_base(group_vpn),
            "group_vpn must be aligned to the coalescing group"
        );
        assert!(mask != 0, "a coalesced entry must cover at least one page");
        let group = group_vpn.raw();
        let base = self.set_of(group) * self.ways;

        // Merge into an overlapping duplicate (clearing any extra copy this
        // lane shadows), or pick an invalid slot, else evict LRU.
        let mut dup = None;
        let mut invalid = None;
        let mut shadowed = 0u64;
        for way in 0..self.ways {
            let slot = base + way;
            if self.tags[slot] == group && asid_overlaps(self.asids[slot], lane) {
                if dup.is_none() {
                    dup = Some(slot);
                } else {
                    self.clear_slot(base, slot);
                    shadowed += 1;
                }
            } else if invalid.is_none() && self.tags[slot] == INVALID_TAG {
                invalid = Some(slot);
            }
        }
        if shadowed > 0 {
            self.stats.record_invalidations(shadowed);
        }
        let slot = dup.or(invalid).unwrap_or_else(|| {
            let lru_rank = (self.ways - 1) as u8;
            (base..base + self.ways)
                .find(|&s| self.recency[s] == lru_rank)
                .expect("one slot always holds the LRU rank")
        });

        // Equal deltas under an equal group tag means an equal base PFN.
        let delta = base_pfn.raw().wrapping_sub(group);
        if self.tags[slot] == INVALID_TAG {
            self.valid += 1;
        }
        if self.tags[slot] == group && self.pfn_deltas[slot] == delta && self.asids[slot] == lane {
            self.masks[slot] |= mask;
        } else {
            self.tags[slot] = group;
            self.pfn_deltas[slot] = delta;
            self.masks[slot] = mask;
            self.asids[slot] = lane;
        }
        let rank = self.recency[slot];
        self.touch(base, slot, rank);
        self.stats.record_fill();
    }

    /// Empties `slot` and demotes it to its set's LRU end, keeping the
    /// ranks a permutation.
    fn clear_slot(&mut self, base: usize, slot: usize) {
        debug_assert!(
            self.tags[slot] != INVALID_TAG,
            "clear_slot expects a valid entry"
        );
        self.valid -= 1;
        self.tags[slot] = INVALID_TAG;
        self.masks[slot] = 0;
        let rank = self.recency[slot];
        for s in base..base + self.ways {
            if self.recency[s] > rank {
                self.recency[s] -= 1;
            }
        }
        self.recency[slot] = (self.ways - 1) as u8;
    }

    /// Promotes `slot` (with pre-promotion `rank`) to MRU within its set.
    #[inline]
    fn touch(&mut self, base: usize, slot: usize, rank: u8) {
        let set = &mut self.recency[base..base + self.ways];
        for r in set.iter_mut() {
            *r += u8::from(*r < rank);
        }
        self.recency[slot] = 0;
    }

    /// Removes the coverage `scope` selects and returns how many entries
    /// went or shrank (counted as invalidations in the stats). Each page
    /// of an entry is judged on its own: a page scope clears the presence
    /// bit of the page containing the address, a range scope every bit
    /// whose page overlaps the range. An entry whose mask empties is
    /// removed, its slot dropping to the set's LRU end so the ranks stay a
    /// permutation; [`Invalidate::All`] resets them.
    pub fn invalidate(&mut self, scope: Invalidate) -> u64 {
        if matches!(scope, Invalidate::All) {
            return self.flush();
        }
        let mut removed = 0u64;
        for set in 0..self.sets {
            let base = set * self.ways;
            for way in 0..self.ways {
                let slot = base + way;
                let group = self.tags[slot];
                if group == INVALID_TAG || !scope.reaches(self.asids[slot]) {
                    continue;
                }
                let mask = self.masks[slot];
                let mut kept = mask;
                for i in 0..COLT_GROUP as u64 {
                    let start = Vpn::new(group + i).base_addr().raw();
                    if mask & (1 << i) != 0 && scope.spans(start, 4096) {
                        kept &= !(1 << i);
                    }
                }
                if kept == mask {
                    continue;
                }
                removed += 1;
                if kept != 0 {
                    self.masks[slot] = kept;
                } else {
                    self.clear_slot(base, slot);
                }
            }
        }
        self.stats.record_invalidations(removed);
        removed
    }

    /// Empties every slot, globals included, and returns the count.
    fn flush(&mut self) -> u64 {
        let removed = u64::from(self.valid);
        self.stats.record_invalidations(removed);
        for (i, tag) in self.tags.iter_mut().enumerate() {
            *tag = INVALID_TAG;
            self.recency[i] = (i % self.ways) as u8;
        }
        self.masks.fill(0);
        self.asids.fill(0);
        self.valid = 0;
        removed
    }

    /// Number of valid entries currently held (O(1): maintained
    /// incrementally).
    pub fn occupancy(&self) -> usize {
        self.valid as usize
    }

    /// Total 4 KiB pages covered by the resident entries (the reach the
    /// coalescing buys; equals [`occupancy`](Self::occupancy) when nothing
    /// coalesced).
    pub fn coverage_pages(&self) -> u64 {
        self.masks.iter().map(|&m| u64::from(m.count_ones())).sum()
    }

    /// Checks internal invariants; meant for tests and debugging.
    ///
    /// # Panics
    ///
    /// Panics if any set's recency lane is not a permutation of
    /// `0..ways`, a group tag appears twice in one set under overlapping
    /// ASID lanes (two resident entries could then translate the same VA
    /// differently for one lookup), a valid entry has an empty mask, an
    /// invalid slot a non-empty one, or a tag indexes into the wrong set.
    pub fn assert_invariants(&self) {
        assert_eq!(
            self.valid,
            self.tags.iter().filter(|&&t| t != INVALID_TAG).count() as u32,
            "valid count diverged from the tag lane"
        );
        for set in 0..self.sets {
            let base = set * self.ways;
            let mut seen = vec![false; self.ways];
            for w in 0..self.ways {
                let slot = base + w;
                let rank = self.recency[slot] as usize;
                assert!(rank < self.ways, "rank out of range in set {set}");
                assert!(!seen[rank], "duplicate rank in set {set}");
                seen[rank] = true;
                let tag = self.tags[slot];
                if tag == INVALID_TAG {
                    assert!(self.masks[slot] == 0, "empty slot holds coverage");
                    continue;
                }
                assert!(self.masks[slot] != 0, "valid entry covers no page");
                assert!(
                    tag == tag & !(COLT_GROUP as u64 - 1),
                    "tag not group-aligned in set {set}"
                );
                assert!(self.set_of(tag) == set, "tag indexed into wrong set");
                for other in base + w + 1..base + self.ways {
                    assert!(
                        self.tags[other] != tag
                            || !asid_overlaps(self.asids[slot], self.asids[other]),
                        "group {tag:#x} resident twice in set {set} for overlapping ASID lanes"
                    );
                }
            }
        }
    }
}

impl fmt::Display for CoalescedTlb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} entries x{} pages, {} resident covering {} pages, {}",
            self.name,
            self.capacity(),
            COLT_GROUP,
            self.occupancy(),
            self.coverage_pages(),
            self.stats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eeat_types::VirtRange;

    fn small() -> CoalescedTlb {
        CoalescedTlb::new("colt", 8, 2) // 4 sets x 2 ways
    }

    #[test]
    fn lookup_covers_only_masked_pages() {
        let mut t = small();
        t.insert_group(Vpn::new(16), Pfn::new(300), 0b0000_1101);
        for (page, expect) in [(16u64, true), (17, false), (18, true), (19, true)] {
            let hit = t.lookup(VirtAddr::new(page * 4096 + 7));
            assert_eq!(hit.is_some(), expect, "page {page}");
            if let Some(h) = hit {
                assert_eq!(h.translation.pfn().raw(), 300 + (page - 16));
            }
        }
        assert_eq!(t.stats().hits(), 3);
        assert_eq!(t.stats().misses(), 1);
        t.assert_invariants();
    }

    #[test]
    fn one_entry_reaches_a_whole_group() {
        let mut t = small();
        t.insert_group(Vpn::new(0), Pfn::new(64), 0xff);
        assert_eq!(t.occupancy(), 1);
        assert_eq!(t.coverage_pages(), 8);
        for page in 0..8u64 {
            let h = t.lookup(VirtAddr::new(page * 4096)).expect("covered");
            assert_eq!(h.translation.pfn().raw(), 64 + page);
        }
    }

    #[test]
    fn same_group_same_base_merges_masks() {
        let mut t = small();
        t.insert_group(Vpn::new(8), Pfn::new(100), 0b0011);
        t.insert_group(Vpn::new(8), Pfn::new(100), 0b1100);
        assert_eq!(t.occupancy(), 1);
        assert_eq!(t.coverage_pages(), 4);
        t.assert_invariants();
    }

    #[test]
    fn same_group_new_base_replaces_entirely() {
        let mut t = small();
        t.insert_group(Vpn::new(8), Pfn::new(100), 0b0011);
        // The group was remapped elsewhere: the stale run must go.
        t.insert_group(Vpn::new(8), Pfn::new(500), 0b0100);
        assert_eq!(t.occupancy(), 1);
        assert!(t.lookup(VirtAddr::new(8 * 4096)).is_none());
        let h = t.lookup(VirtAddr::new(10 * 4096)).expect("new run");
        assert_eq!(h.translation.pfn().raw(), 502);
        t.assert_invariants();
    }

    #[test]
    fn lru_evicts_within_set() {
        let mut t = small(); // 4 sets, 2 ways: groups 0, 32, 64 share set 0
        t.insert_group(Vpn::new(0), Pfn::new(10), 1);
        t.insert_group(Vpn::new(32), Pfn::new(20), 1);
        t.lookup(VirtAddr::new(0)); // promote group 0
        t.insert_group(Vpn::new(64), Pfn::new(30), 1); // evicts group 32
        assert!(t.lookup(VirtAddr::new(0)).is_some());
        assert!(t.lookup(VirtAddr::new(32 * 4096)).is_none());
        assert!(t.lookup(VirtAddr::new(64 * 4096)).is_some());
        t.assert_invariants();
    }

    #[test]
    fn invalidate_clears_one_bit_then_entry() {
        let mut t = small();
        t.insert_group(Vpn::new(8), Pfn::new(100), 0b0011);
        assert_eq!(t.invalidate(Invalidate::page(VirtAddr::new(8 * 4096))), 1);
        assert_eq!(t.occupancy(), 1, "one page still covered");
        assert!(t.lookup(VirtAddr::new(8 * 4096)).is_none());
        assert!(t.lookup(VirtAddr::new(9 * 4096)).is_some());
        assert_eq!(t.invalidate(Invalidate::page(VirtAddr::new(9 * 4096))), 1);
        assert_eq!(t.occupancy(), 0, "last bit removes the entry");
        assert_eq!(t.invalidate(Invalidate::page(VirtAddr::new(9 * 4096))), 0);
        t.assert_invariants();
    }

    #[test]
    fn range_scope_handles_topmost_group() {
        // The COLT group containing the last page of the address space:
        // per-page overlap checks must not overflow past `u64::MAX`.
        let mut t = small();
        let top_group = ((1u64 << 52) - 1) & !(COLT_GROUP as u64 - 1);
        t.insert_group(Vpn::new(top_group), Pfn::new(64), 0xff);
        let shot = VirtRange::new(VirtAddr::new(u64::MAX - 4095), 4095);
        assert_eq!(t.invalidate(Invalidate::range(shot)), 1);
        // Only the topmost page's bit was trimmed; the rest survive.
        assert!(t.lookup(Vpn::new(top_group).base_addr()).is_some());
        assert!(t
            .lookup(Vpn::new(top_group + COLT_GROUP as u64 - 1).base_addr())
            .is_none());
        t.assert_invariants();
    }

    #[test]
    fn range_scope_trims_overlap() {
        let mut t = small();
        t.insert_group(Vpn::new(0), Pfn::new(64), 0xff);
        // Shoot down pages 2..6.
        let n = t.invalidate(Invalidate::range(VirtRange::new(
            VirtAddr::new(2 * 4096),
            4 * 4096,
        )));
        assert_eq!(n, 1);
        assert_eq!(t.coverage_pages(), 4);
        assert!(t.lookup(VirtAddr::new(4096)).is_some());
        assert!(t.lookup(VirtAddr::new(3 * 4096)).is_none());
        t.assert_invariants();
    }

    #[test]
    fn flush_empties_everything() {
        let mut t = small();
        t.insert_group(Vpn::new(0), Pfn::new(64), 0xff);
        t.insert_group(Vpn::new(8), Pfn::new(80), 0x01);
        assert_eq!(t.invalidate(Invalidate::All), 2);
        assert_eq!(t.occupancy(), 0);
        assert_eq!(t.coverage_pages(), 0);
        assert_eq!(t.stats().invalidations(), 2);
        t.assert_invariants();
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut t = small();
        t.insert_group(Vpn::new(8), Pfn::new(100), 0b0001);
        let before = *t.stats();
        assert!(t.probe(VirtAddr::new(8 * 4096)).is_some());
        assert!(t.probe(VirtAddr::new(9 * 4096)).is_none());
        assert_eq!(*t.stats(), before);
    }

    #[test]
    fn asid_isolates_groups() {
        let mut t = small();
        t.set_current_asid(1);
        t.insert_group(Vpn::new(8), Pfn::new(100), 0b0001);
        t.set_current_asid(2);
        assert!(t.lookup(VirtAddr::new(8 * 4096)).is_none(), "other ASID");
        // Same group under a second ASID coexists with the first copy.
        t.insert_group(Vpn::new(8), Pfn::new(500), 0b0001);
        assert_eq!(t.occupancy(), 2);
        assert_eq!(
            t.lookup(VirtAddr::new(8 * 4096))
                .unwrap()
                .translation
                .pfn()
                .raw(),
            500
        );
        t.set_current_asid(1);
        assert_eq!(
            t.lookup(VirtAddr::new(8 * 4096))
                .unwrap()
                .translation
                .pfn()
                .raw(),
            100
        );
        t.assert_invariants();
    }

    #[test]
    fn global_group_shadows_and_survives() {
        let mut t = small();
        t.set_current_asid(1);
        t.insert_group(Vpn::new(8), Pfn::new(100), 0b0001);
        // A global insert of the same group supersedes the per-ASID copy.
        t.insert_group_global(Vpn::new(8), Pfn::new(100), 0b0011);
        assert_eq!(t.occupancy(), 1);
        t.set_current_asid(7);
        assert!(
            t.lookup(VirtAddr::new(9 * 4096)).is_some(),
            "global visible"
        );
        assert_eq!(
            t.invalidate(Invalidate::Asid(1)),
            0,
            "global untouched by ASID flush"
        );
        assert!(t.probe(VirtAddr::new(8 * 4096)).is_some());
        t.assert_invariants();
    }

    #[test]
    fn asid_page_scope_trims_only_that_asid() {
        let mut t = small();
        t.set_current_asid(1);
        t.insert_group(Vpn::new(8), Pfn::new(100), 0b0011);
        t.set_current_asid(2);
        t.insert_group(Vpn::new(8), Pfn::new(500), 0b0011);
        assert_eq!(
            t.invalidate(Invalidate::page_of(1, VirtAddr::new(8 * 4096))),
            1
        );
        assert!(
            t.lookup(VirtAddr::new(8 * 4096)).is_some(),
            "ASID 2 copy stays"
        );
        t.set_current_asid(1);
        assert!(t.lookup(VirtAddr::new(8 * 4096)).is_none());
        assert!(
            t.lookup(VirtAddr::new(9 * 4096)).is_some(),
            "other bit stays"
        );
        let shot = VirtRange::new(VirtAddr::new(8 * 4096), 2 * 4096);
        assert_eq!(t.invalidate(Invalidate::range_of(2, shot)), 1);
        assert!(
            t.lookup(VirtAddr::new(9 * 4096)).is_some(),
            "ASID 1 bit stays"
        );
        t.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "group_vpn must be aligned")]
    fn unaligned_group_rejected() {
        small().insert_group(Vpn::new(3), Pfn::new(0), 1);
    }

    #[test]
    #[should_panic(expected = "at least one page")]
    fn empty_mask_rejected() {
        small().insert_group(Vpn::new(8), Pfn::new(0), 0);
    }

    #[test]
    fn display_summarizes() {
        let mut t = small();
        t.insert_group(Vpn::new(0), Pfn::new(64), 0b0111);
        let s = t.to_string();
        assert!(s.contains("colt"));
        assert!(s.contains("covering 3 pages"));
    }
}
