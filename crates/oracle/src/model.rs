//! Timestamp-LRU reference models of the production structures.
//!
//! The production structures maintain per-set rank *permutations* that are
//! updated incrementally on every touch/insert/resize/invalidate — fast,
//! but easy to get subtly wrong. The models here store one timestamp per
//! entry instead; every derived quantity (rank, victim, survivor set) is
//! recomputed from scratch on demand, so each operation is a few lines of
//! obviously-correct code.

use std::collections::HashMap;

use eeat_tlb::{Invalidate, PageTranslation, TlbStats, ASID_GLOBAL, ASID_MASK, COLT_GROUP};
use eeat_types::{PageSize, Pfn, RangeTranslation, VirtAddr, Vpn};

/// The oracle's own reading of an invalidation scope, shared by every model
/// and written apart from production's: does `scope` remove an entry tagged
/// `lane` that translates the `len` bytes from `start`? Intervals are
/// compared in `u128`, where the topmost page's end (2^64) needs no care.
fn scope_removes(scope: Invalidate, lane: u16, start: u64, len: u64) -> bool {
    let owned_by = |asid: u16| lane & ASID_GLOBAL == 0 && lane & ASID_MASK == asid;
    let entry = u128::from(start)..u128::from(start) + u128::from(len);
    match scope {
        Invalidate::Page { va, asid } => {
            asid.is_none_or(owned_by) && entry.contains(&u128::from(va.raw()))
        }
        Invalidate::Range { range, asid } => {
            let shot = u128::from(range.start().raw())
                ..u128::from(range.start().raw()) + u128::from(range.len());
            asid.is_none_or(owned_by)
                && !shot.is_empty()
                && !entry.is_empty()
                && shot.start < entry.end
                && entry.start < shot.end
        }
        Invalidate::Asid(asid) => owned_by(asid),
        Invalidate::All => true,
    }
}

/// One cached translation with its ASID lane word and last-used tick.
#[derive(Clone, Copy, Debug)]
struct TimedEntry {
    translation: PageTranslation,
    lane: u16,
    last_used: u64,
}

/// `true` when an entry tagged `lane` is visible to a lookup under ASID
/// `current`: the lane's ASID matches, or the entry is global.
fn lane_visible(lane: u16, current: u16) -> bool {
    lane & ASID_GLOBAL != 0 || lane & ASID_MASK == current
}

/// `true` when two stored lanes can shadow each other for some lookup:
/// either is global, or both carry the same ASID.
fn lanes_overlap(a: u16, b: u16) -> bool {
    a & ASID_GLOBAL != 0 || b & ASID_GLOBAL != 0 || a & ASID_MASK == b & ASID_MASK
}

/// Timestamp-LRU reference model of the ASID-tagged
/// [`eeat_tlb::SetAssocTlb`] (and, with one set, of
/// [`eeat_tlb::FullyAssocTlb`]).
///
/// Each set is an unordered list of valid entries, each with its ASID lane
/// word; the reported LRU rank of an entry is the count of same-set entries
/// used more recently, and the eviction victim is the oldest entry. This
/// matches the production rank permutation because production keeps its
/// valid entries packed into the lowest ranks of every set. Lookups filter
/// by ASID visibility and inserts collapse shadowing duplicates.
///
/// LRU ranks remain ASID-agnostic, like production: recency is a property
/// of the physical slot, not of the address space that filled it.
#[derive(Clone, Debug)]
pub struct OraclePageTlb {
    sets: Vec<Vec<TimedEntry>>,
    ways: usize,
    active_ways: usize,
    current_asid: u16,
    tick: u64,
    /// Event counters, mirroring the production structure's stats.
    pub stats: TlbStats,
}

impl OraclePageTlb {
    /// Creates a model with `entries` slots and `ways` associativity,
    /// running under ASID 0.
    ///
    /// Shares the production rank-width bound: at most
    /// [`eeat_tlb::MAX_WAYS`] ways, so the fuzzer can never build a
    /// reference structure the production constructor rejects.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries.is_multiple_of(ways));
        assert!(ways <= eeat_tlb::MAX_WAYS, "oracle mirrors MAX_WAYS");
        Self {
            sets: vec![Vec::new(); entries / ways],
            ways,
            active_ways: ways,
            current_asid: 0,
            tick: 0,
            stats: TlbStats::new(),
        }
    }

    /// Sets the ASID subsequent lookups and fills run under.
    pub fn set_current_asid(&mut self, asid: u16) {
        assert!(asid <= ASID_MASK, "ASID exceeds the lane width");
        self.current_asid = asid;
    }

    /// The ASID lookups currently run under.
    pub fn current_asid(&self) -> u16 {
        self.current_asid
    }

    fn set_index(&self, va: VirtAddr, size: PageSize) -> usize {
        ((va.raw() >> size.shift()) as usize) & (self.sets.len() - 1)
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up `va` as a page of `size` under the current ASID; hits
    /// report `(translation, rank)` and are promoted to MRU.
    pub fn lookup_for_size(
        &mut self,
        va: VirtAddr,
        size: PageSize,
    ) -> Option<(PageTranslation, u8)> {
        let s = self.set_index(va, size);
        self.lookup_in(s, |t| t.size() == size && t.covers(va))
    }

    /// Size-agnostic lookup; only valid for a single-set (fully
    /// associative) model, like production.
    pub fn lookup_any_size(&mut self, va: VirtAddr) -> Option<(PageTranslation, u8)> {
        assert_eq!(self.sets.len(), 1, "size-agnostic lookup needs one set");
        self.lookup_in(0, |t| t.covers(va))
    }

    /// Looks up the first entry of set `s` that the current ASID sees and
    /// `matches` accepts; a hit reports its pre-promotion rank and is
    /// promoted.
    fn lookup_in(
        &mut self,
        s: usize,
        matches: impl Fn(&PageTranslation) -> bool,
    ) -> Option<(PageTranslation, u8)> {
        let cur = self.current_asid;
        let tick = self.next_tick();
        let set = &mut self.sets[s];
        let hit = set
            .iter_mut()
            .find(|e| matches(&e.translation) && lane_visible(e.lane, cur))
            .map(|e| {
                let old = e.last_used;
                e.last_used = tick;
                (e.translation, old)
            });
        match hit {
            Some((t, old)) => {
                // Rank before promotion: entries newer than the hit's old
                // timestamp, minus itself (now carrying the fresh tick).
                let rank = set
                    .iter()
                    .filter(|e| e.last_used > old && e.last_used != tick)
                    .count() as u8;
                self.stats.record_hit();
                Some((t, rank))
            }
            None => {
                self.stats.record_miss();
                None
            }
        }
    }

    /// Probes for an entry visible to the current ASID without touching
    /// LRU state or counters.
    pub fn probe(&self, va: VirtAddr, size: PageSize) -> Option<PageTranslation> {
        let s = self.set_index(va, size);
        self.sets[s]
            .iter()
            .find(|e| {
                e.translation.size() == size
                    && e.translation.covers(va)
                    && lane_visible(e.lane, self.current_asid)
            })
            .map(|e| e.translation)
    }

    /// Inserts `translation` under the current ASID.
    pub fn insert(&mut self, translation: PageTranslation) {
        self.insert_lane(translation, self.current_asid);
    }

    /// Inserts `translation` with the global bit set: visible to every
    /// ASID, shadowing every same-page entry.
    pub fn insert_global(&mut self, translation: PageTranslation) {
        self.insert_lane(translation, self.current_asid | ASID_GLOBAL);
    }

    /// Shared insert path: collapse every shadowing duplicate — same page,
    /// overlapping lane — into one entry carrying the new translation and
    /// lane (extra duplicates count as invalidations, as in production),
    /// else fill a free active slot, else evict the set's oldest entry.
    fn insert_lane(&mut self, translation: PageTranslation, lane: u16) {
        let va = translation.vpn().base_addr();
        let s = self.set_index(va, translation.size());
        let tick = self.next_tick();
        let active = self.active_ways;
        let set = &mut self.sets[s];
        let mut kept = false;
        let mut shadowed = 0u64;
        set.retain_mut(|e| {
            let dup = e.translation.size() == translation.size()
                && e.translation.vpn() == translation.vpn()
                && lanes_overlap(e.lane, lane);
            if !dup {
                return true;
            }
            if kept {
                shadowed += 1;
                return false;
            }
            kept = true;
            e.translation = translation;
            e.lane = lane;
            e.last_used = tick;
            true
        });
        self.stats.record_invalidations(shadowed);
        if !kept {
            if set.len() >= active {
                let oldest = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(i, _)| i)
                    .expect("set is non-empty when full");
                set.swap_remove(oldest);
            }
            set.push(TimedEntry {
                translation,
                lane,
                last_used: tick,
            });
        }
        self.stats.record_fill();
    }

    /// Resizes to `ways` active ways; downsizing keeps each set's most
    /// recently used entries (with their lanes) and counts the rest as
    /// invalidated.
    pub fn set_active_ways(&mut self, ways: usize) {
        assert!(ways >= 1 && ways <= self.ways);
        if ways < self.active_ways {
            let mut dropped = 0u64;
            for set in &mut self.sets {
                while set.len() > ways {
                    let oldest = set
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.last_used)
                        .map(|(i, _)| i)
                        .expect("non-empty");
                    set.swap_remove(oldest);
                    dropped += 1;
                }
            }
            self.stats.record_invalidations(dropped);
        }
        self.active_ways = ways;
    }

    /// Removes the entries `scope` selects, of any page size. Returns the
    /// count.
    pub fn invalidate(&mut self, scope: Invalidate) -> u64 {
        let mut removed = 0u64;
        for set in &mut self.sets {
            let before = set.len();
            set.retain(|e| {
                let t = e.translation;
                !scope_removes(scope, e.lane, t.vpn().base_addr().raw(), t.size().bytes())
            });
            removed += (before - set.len()) as u64;
        }
        self.stats.record_invalidations(removed);
        removed
    }

    /// Valid entries currently held, across all ASIDs.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// One cached range translation plus its last-used tick.
#[derive(Clone, Copy, Debug)]
struct TimedRange {
    translation: RangeTranslation,
    last_used: u64,
}

/// Timestamp-LRU reference model of [`eeat_tlb::RangeTlb`].
///
/// Every entry belongs to ASID 0 and none is global, as in the fuzz
/// target that drives it.
#[derive(Clone, Debug)]
pub struct OracleRangeTlb {
    entries: Vec<TimedRange>,
    capacity: usize,
    tick: u64,
    /// Event counters, mirroring the production structure's stats.
    pub stats: TlbStats,
}

impl OracleRangeTlb {
    /// Creates a model with `capacity` slots.
    ///
    /// Bounded by [`eeat_tlb::MAX_WAYS`] like the production
    /// [`eeat_tlb::RangeTlb`] (full associativity: every slot is a way).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        assert!(capacity <= eeat_tlb::MAX_WAYS, "oracle mirrors MAX_WAYS");
        Self {
            entries: Vec::new(),
            capacity,
            tick: 0,
            stats: TlbStats::new(),
        }
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up the range containing `va`; hits are promoted.
    pub fn lookup(&mut self, va: VirtAddr) -> Option<RangeTranslation> {
        let tick = self.next_tick();
        match self
            .entries
            .iter_mut()
            .find(|e| e.translation.virt().contains(va))
        {
            Some(e) => {
                e.last_used = tick;
                self.stats.record_hit();
                Some(e.translation)
            }
            None => {
                self.stats.record_miss();
                None
            }
        }
    }

    /// Probes without touching LRU state or counters.
    pub fn probe(&self, va: VirtAddr) -> Option<RangeTranslation> {
        self.entries
            .iter()
            .map(|e| e.translation)
            .find(|t| t.virt().contains(va))
    }

    /// Inserts `translation`: overwrites an entry with the same virtual
    /// range, else fills a free slot, else evicts the oldest entry.
    pub fn insert(&mut self, translation: RangeTranslation) {
        let tick = self.next_tick();
        if let Some(e) = self
            .entries
            .iter_mut()
            .find(|e| e.translation.virt() == translation.virt())
        {
            e.translation = translation;
            e.last_used = tick;
        } else {
            if self.entries.len() >= self.capacity {
                let oldest = self
                    .entries
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(i, _)| i)
                    .expect("non-empty when full");
                self.entries.swap_remove(oldest);
            }
            self.entries.push(TimedRange {
                translation,
                last_used: tick,
            });
        }
        self.stats.record_fill();
    }

    /// Removes the ranges `scope` selects. Returns the count.
    pub fn invalidate(&mut self, scope: Invalidate) -> u64 {
        let before = self.entries.len();
        self.entries.retain(|e| {
            let virt = e.translation.virt();
            !scope_removes(scope, 0, virt.start().raw(), virt.len())
        });
        let removed = (before - self.entries.len()) as u64;
        self.stats.record_invalidations(removed);
        removed
    }

    /// Valid entries currently held.
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Checks the translation-consistency invariant: no two resident
    /// ranges may translate the same virtual address differently. Two
    /// entries whose virtual ranges overlap must agree byte-for-byte on
    /// the shared span (same virtual-to-physical offset).
    ///
    /// # Panics
    ///
    /// Panics when two overlapping resident ranges disagree.
    pub fn assert_invariants(&self) {
        for (i, a) in self.entries.iter().enumerate() {
            for b in &self.entries[i + 1..] {
                let (a, b) = (a.translation, b.translation);
                if !a.virt().overlaps(b.virt()) {
                    continue;
                }
                let va = a.virt().start().max(b.virt().start());
                assert_eq!(
                    a.translate(va),
                    b.translate(va),
                    "overlapping resident ranges {:?} and {:?} disagree at {va:?}",
                    a.virt(),
                    b.virt()
                );
            }
        }
    }
}

/// One coalesced group plus its last-used tick.
#[derive(Clone, Copy, Debug)]
struct TimedGroup {
    group: u64,
    base_pfn: u64,
    mask: u8,
    last_used: u64,
}

/// Timestamp-LRU reference model of [`eeat_tlb::CoalescedTlb`].
///
/// Each set is an unordered list of `(group, base_pfn, mask)` entries with
/// a last-used timestamp; ranks, victims, and survivor sets are recomputed
/// from the timestamps on demand, exactly like [`OraclePageTlb`]. Every
/// entry belongs to ASID 0 and none is global, as in the fuzz target that
/// drives it.
#[derive(Clone, Debug)]
pub struct OracleColtTlb {
    sets: Vec<Vec<TimedGroup>>,
    ways: usize,
    tick: u64,
    /// Event counters, mirroring the production structure's stats.
    pub stats: TlbStats,
}

impl OracleColtTlb {
    /// Creates a model with `entries` slots and `ways` associativity.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries.is_multiple_of(ways));
        assert!(ways <= eeat_tlb::MAX_WAYS, "oracle mirrors MAX_WAYS");
        Self {
            sets: vec![Vec::new(); entries / ways],
            ways,
            tick: 0,
            stats: TlbStats::new(),
        }
    }

    fn group_of(va: VirtAddr) -> (u64, u64) {
        let vpn = va.vpn().raw();
        let group = vpn & !(COLT_GROUP as u64 - 1);
        (group, vpn - group)
    }

    fn set_index(&self, group: u64) -> usize {
        ((group / COLT_GROUP as u64) as usize) & (self.sets.len() - 1)
    }

    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Looks up `va`; a covered page hits, is promoted, and reports its
    /// pre-promotion rank. A tag match with the page's presence bit clear
    /// is a miss, like production.
    pub fn lookup(&mut self, va: VirtAddr) -> Option<(PageTranslation, u8)> {
        let (group, offset) = Self::group_of(va);
        let s = self.set_index(group);
        let tick = self.next_tick();
        let set = &mut self.sets[s];
        let hit = set
            .iter_mut()
            .find(|e| e.group == group && e.mask & (1 << offset) != 0)
            .map(|e| {
                let old = e.last_used;
                e.last_used = tick;
                (e.base_pfn, old)
            });
        match hit {
            Some((base_pfn, old)) => {
                let rank = set
                    .iter()
                    .filter(|e| e.last_used > old && e.last_used != tick)
                    .count() as u8;
                self.stats.record_hit();
                Some((
                    PageTranslation::new(va.vpn(), Pfn::new(base_pfn + offset), PageSize::Size4K),
                    rank,
                ))
            }
            None => {
                self.stats.record_miss();
                None
            }
        }
    }

    /// Probes for a covering entry without touching LRU state or counters.
    pub fn probe(&self, va: VirtAddr) -> Option<PageTranslation> {
        let (group, offset) = Self::group_of(va);
        self.sets[self.set_index(group)]
            .iter()
            .find(|e| e.group == group && e.mask & (1 << offset) != 0)
            .map(|e| {
                PageTranslation::new(va.vpn(), Pfn::new(e.base_pfn + offset), PageSize::Size4K)
            })
    }

    /// Inserts a coalesced run: merges the mask into a resident entry with
    /// the same group and base frame, replaces a same-group entry with a
    /// different base outright, else fills/evicts like production.
    ///
    /// # Panics
    ///
    /// Panics unless `group_vpn` is group-aligned and `mask` is non-zero.
    pub fn insert_group(&mut self, group_vpn: Vpn, base_pfn: Pfn, mask: u8) {
        let group = group_vpn.raw();
        assert!(
            group.is_multiple_of(COLT_GROUP as u64),
            "group_vpn must be aligned"
        );
        assert!(mask != 0, "a coalesced entry must cover at least one page");
        let s = self.set_index(group);
        let tick = self.next_tick();
        let active = self.ways;
        let set = &mut self.sets[s];
        if let Some(e) = set.iter_mut().find(|e| e.group == group) {
            if e.base_pfn == base_pfn.raw() {
                e.mask |= mask;
            } else {
                e.base_pfn = base_pfn.raw();
                e.mask = mask;
            }
            e.last_used = tick;
        } else {
            if set.len() >= active {
                let oldest = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(i, _)| i)
                    .expect("set is non-empty when full");
                set.swap_remove(oldest);
            }
            set.push(TimedGroup {
                group,
                base_pfn: base_pfn.raw(),
                mask,
                last_used: tick,
            });
        }
        self.stats.record_fill();
    }

    /// Clears the presence bit of every page `scope` selects; an entry
    /// losing its last bit is removed. Returns entries removed or shrunk.
    pub fn invalidate(&mut self, scope: Invalidate) -> u64 {
        let mut touched = 0u64;
        for set in &mut self.sets {
            set.retain_mut(|e| {
                let kept = (0..COLT_GROUP as u64)
                    .filter(|&i| e.mask & (1 << i) != 0)
                    .filter(|&i| !scope_removes(scope, 0, (e.group + i) << 12, 4096))
                    .fold(0u8, |m, i| m | 1 << i);
                if kept != e.mask {
                    touched += 1;
                    e.mask = kept;
                }
                e.mask != 0
            });
        }
        self.stats.record_invalidations(touched);
        touched
    }

    /// Valid entries currently held.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    /// Total 4 KiB pages covered by the resident entries.
    pub fn coverage_pages(&self) -> u64 {
        self.sets
            .iter()
            .flatten()
            .map(|e| u64::from(e.mask.count_ones()))
            .sum()
    }

    /// Checks the translation-consistency invariant: no virtual page may
    /// be resident in two entries (a duplicate could translate the same VA
    /// two ways), every entry covers at least one page with a group-aligned
    /// tag, and every entry sits in the set its group indexes to.
    ///
    /// # Panics
    ///
    /// Panics when any of the above is violated.
    pub fn assert_invariants(&self) {
        let mut translations: HashMap<u64, u64> = HashMap::new();
        for (s, set) in self.sets.iter().enumerate() {
            for e in set {
                assert!(e.mask != 0, "resident entry covers no page");
                assert!(
                    e.group % COLT_GROUP as u64 == 0,
                    "group {:#x} not aligned",
                    e.group
                );
                assert_eq!(self.set_index(e.group), s, "entry in wrong set");
                for i in 0..COLT_GROUP as u64 {
                    if e.mask & (1 << i) != 0 {
                        let prev = translations.insert(e.group + i, e.base_pfn + i);
                        assert!(
                            prev.is_none(),
                            "vpn {:#x} resident in two coalesced entries",
                            e.group + i
                        );
                    }
                }
            }
        }
    }
}

/// One cached tag plus its last-used tick.
#[derive(Clone, Copy, Debug)]
struct TimedTag {
    tag: u64,
    last_used: u64,
}

/// Timestamp-LRU reference model of [`eeat_paging::TagCache`].
#[derive(Clone, Debug)]
pub struct OracleTagCache {
    sets: Vec<Vec<TimedTag>>,
    ways: usize,
    tick: u64,
    /// Event counters, mirroring the production cache's stats.
    pub stats: TlbStats,
}

impl OracleTagCache {
    /// Creates a model with `entries` slots and `ways` associativity.
    pub fn new(entries: usize, ways: usize) -> Self {
        assert!(ways > 0 && entries.is_multiple_of(ways));
        Self {
            sets: vec![Vec::new(); entries / ways],
            ways,
            tick: 0,
            stats: TlbStats::new(),
        }
    }

    fn set_index(&self, tag: u64) -> usize {
        (tag as usize) & (self.sets.len() - 1)
    }

    /// Looks up `tag`; a hit is promoted.
    pub fn lookup(&mut self, tag: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let s = self.set_index(tag);
        match self.sets[s].iter_mut().find(|e| e.tag == tag) {
            Some(e) => {
                e.last_used = tick;
                self.stats.record_hit();
                true
            }
            None => {
                self.stats.record_miss();
                false
            }
        }
    }

    /// Inserts `tag`, evicting the set's oldest entry when full.
    pub fn insert(&mut self, tag: u64) {
        self.tick += 1;
        let tick = self.tick;
        let ways = self.ways;
        let s = self.set_index(tag);
        let set = &mut self.sets[s];
        if let Some(e) = set.iter_mut().find(|e| e.tag == tag) {
            e.last_used = tick;
        } else {
            if set.len() >= ways {
                let oldest = set
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(i, _)| i)
                    .expect("non-empty when full");
                set.swap_remove(oldest);
            }
            set.push(TimedTag {
                tag,
                last_used: tick,
            });
        }
        self.stats.record_fill();
    }

    /// Removes `tag` if present. Returns whether it was.
    pub fn invalidate(&mut self, tag: u64) -> bool {
        let s = self.set_index(tag);
        let set = &mut self.sets[s];
        let before = set.len();
        set.retain(|e| e.tag != tag);
        if set.len() < before {
            self.stats.record_invalidations(1);
            true
        } else {
            false
        }
    }

    /// Empties the model, counting every tag as invalidated.
    pub fn flush(&mut self) {
        let valid: u64 = self.sets.iter().map(|s| s.len() as u64).sum();
        self.stats.record_invalidations(valid);
        for set in &mut self.sets {
            set.clear();
        }
    }

    /// Valid tags currently held.
    pub fn occupancy(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }
}

/// Reference model of [`eeat_paging::MmuCaches`]: the Table 2 geometry over
/// three [`OracleTagCache`]s.
#[derive(Clone, Debug)]
pub struct OracleMmuCaches {
    /// PDE cache model (32 entries, 2-way).
    pub pde: OracleTagCache,
    /// PDPTE cache model (4 entries, fully associative).
    pub pdpte: OracleTagCache,
    /// PML4 cache model (2 entries, fully associative).
    pub pml4: OracleTagCache,
}

impl OracleMmuCaches {
    /// The Table 2 configuration matching
    /// [`eeat_paging::MmuCaches::sandy_bridge`].
    pub fn sandy_bridge() -> Self {
        Self {
            pde: OracleTagCache::new(32, 2),
            pdpte: OracleTagCache::new(4, 4),
            pml4: OracleTagCache::new(2, 2),
        }
    }

    fn tag(va: VirtAddr, level: u32) -> u64 {
        match level {
            2 => va.raw() >> 21,
            3 => va.raw() >> 30,
            4 => va.raw() >> 39,
            _ => unreachable!("no paging-structure cache at level {level}"),
        }
    }

    /// Probes all three caches (each counts a lookup) and returns the level
    /// of the deepest cached non-terminal entry.
    pub fn deepest_cached_level(&mut self, va: VirtAddr) -> Option<u32> {
        let pde = self.pde.lookup(Self::tag(va, 2));
        let pdpte = self.pdpte.lookup(Self::tag(va, 3));
        let pml4 = self.pml4.lookup(Self::tag(va, 4));
        if pde {
            Some(2)
        } else if pdpte {
            Some(3)
        } else if pml4 {
            Some(4)
        } else {
            None
        }
    }

    /// Inserts the non-terminal entry covering `va` at `level`.
    pub fn fill_level(&mut self, va: VirtAddr, level: u32) {
        match level {
            2 => self.pde.insert(Self::tag(va, 2)),
            3 => self.pdpte.insert(Self::tag(va, 3)),
            4 => self.pml4.insert(Self::tag(va, 4)),
            _ => panic!("no paging-structure cache at level {level}"),
        }
    }

    /// Removes the tags covering `va` from all three caches.
    pub fn invalidate(&mut self, va: VirtAddr) -> u64 {
        u64::from(self.pde.invalidate(Self::tag(va, 2)))
            + u64::from(self.pdpte.invalidate(Self::tag(va, 3)))
            + u64::from(self.pml4.invalidate(Self::tag(va, 4)))
    }

    /// Empties all three caches.
    pub fn flush(&mut self) {
        self.pde.flush();
        self.pdpte.flush();
        self.pml4.flush();
    }
}

/// Reference page walker: translation by linear scan over a fixed mapping
/// list, memory references by one arithmetic expression.
///
/// `memory_refs = start_level − terminal_level + 1` where `start_level` is
/// just below the deepest cached non-terminal entry (or the PML4 root, 4,
/// on a complete MMU-cache miss) and `terminal_level` comes from the page
/// size (4 KiB → 1, 2 MiB → 2, 1 GiB → 3; unmapped charges a full descent
/// to level 1).
#[derive(Clone, Debug)]
pub struct OracleWalker {
    /// The MMU cache models refilled by walks.
    pub caches: OracleMmuCaches,
    mappings: Vec<PageTranslation>,
}

impl OracleWalker {
    /// Creates a walker over a fixed set of mappings.
    pub fn new(mappings: Vec<PageTranslation>) -> Self {
        Self {
            caches: OracleMmuCaches::sandy_bridge(),
            mappings,
        }
    }

    /// The mapping covering `va`, if any.
    pub fn translate(&self, va: VirtAddr) -> Option<PageTranslation> {
        self.mappings.iter().copied().find(|m| m.covers(va))
    }

    /// The lowest level whose entry along `va`'s walk path is a present
    /// non-terminal table pointer, derived by linear scan: the level-`L`
    /// entry is a table iff some mapping shares `va`'s walk-path indices
    /// down to `L` and terminates below `L` (a same-tag terminal *at* `L`
    /// is a page entry and stops the descent without extending the floor).
    fn present_table_floor(&self, va: VirtAddr) -> Option<u32> {
        let mut floor = None;
        for level in (2..=4u32).rev() {
            let shift = 12 + 9 * (level - 1);
            let tag = va.raw() >> shift;
            let is_table = self.mappings.iter().any(|m| {
                m.size().mapping_level() < level && m.vpn().base_addr().raw() >> shift == tag
            });
            if is_table {
                floor = Some(level);
            } else {
                return floor;
            }
        }
        floor
    }

    /// Walks `va`: returns the translation (if mapped) and the number of
    /// memory references charged, refilling the cache models like the
    /// production walker does — including, on a fault, the non-terminal
    /// levels that exist above the hole.
    pub fn walk(&mut self, va: VirtAddr) -> (Option<PageTranslation>, u32) {
        let (translation, refs, _) = self.walk_detailed(va);
        (translation, refs)
    }

    /// [`walk`](Self::walk) additionally reporting the level of the deepest
    /// MMU-cache hit (the nested model needs it to enumerate the structure
    /// pages the guest descent fetched).
    pub fn walk_detailed(&mut self, va: VirtAddr) -> (Option<PageTranslation>, u32, Option<u32>) {
        let hit_level = self.caches.deepest_cached_level(va);
        let start_level = hit_level.unwrap_or(5) - 1;
        let translation = self.translate(va);
        let terminal_level = translation.map(|t| t.size().mapping_level()).unwrap_or(1);
        let memory_refs = start_level - terminal_level + 1;
        match translation {
            Some(_) => {
                for level in (terminal_level + 1..=start_level).rev() {
                    self.caches.fill_level(va, level);
                }
            }
            None => {
                if let Some(floor) = self.present_table_floor(va) {
                    for level in (floor..=start_level).rev() {
                        self.caches.fill_level(va, level);
                    }
                }
            }
        }
        (translation, memory_refs, hit_level)
    }

    /// Mirror of [`RadixWalk::descend_fixed`](eeat_paging::RadixWalk): a
    /// modeled descent for an address known to terminate at
    /// `terminal_level`, with no backing mapping list.
    pub fn descend_fixed(&mut self, va: VirtAddr, terminal_level: u32) -> u32 {
        let hit_level = self.caches.deepest_cached_level(va);
        let start_level = hit_level.unwrap_or(5) - 1;
        let memory_refs = start_level - terminal_level + 1;
        for level in (terminal_level + 1..=start_level).rev() {
            self.caches.fill_level(va, level);
        }
        memory_refs
    }
}

/// The outcome of one [`OracleNestedWalker`] walk, field-for-field
/// comparable with [`eeat_paging::NestedWalkResult`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OracleNestedResult {
    /// The guest translation (gVA → gPA), or `None` on a guest fault.
    pub translation: Option<PageTranslation>,
    /// The host translation of the data page (gPA → hPA), if any.
    pub host_translation: Option<PageTranslation>,
    /// Total memory references, both dimensions.
    pub memory_refs: u32,
    /// Guest-dimension references.
    pub guest_refs: u32,
    /// Host-dimension references.
    pub host_refs: u32,
    /// Deepest guest MMU-cache hit level.
    pub guest_hit_level: Option<u32>,
    /// Nested-TLB hits that skipped a host sub-walk.
    pub nested_tlb_hits: u32,
}

/// Reference model of [`eeat_paging::NestedWalker`]: two linear-scan
/// [`OracleWalker`] dimensions (guest mappings and the EPT) joined by a
/// nested TLB of combined gPN entries, with the same synthesized
/// structure-page layout as production.
#[derive(Clone, Debug)]
pub struct OracleNestedWalker {
    /// Guest dimension: gVA-keyed caches over the guest mapping list.
    pub guest: OracleWalker,
    /// Host dimension: gPA-keyed caches over the EPT mapping list.
    pub host: OracleWalker,
    /// The nested TLB of combined gPN entries (32-entry fully associative).
    pub nested_tlb: OracleTagCache,
    structure_terminal: u32,
}

impl OracleNestedWalker {
    /// Creates the model over fixed guest and EPT mapping lists, matching
    /// [`eeat_paging::NestedWalker::sandy_bridge`].
    pub fn new(guest_mappings: Vec<PageTranslation>, ept_mappings: Vec<PageTranslation>) -> Self {
        Self {
            guest: OracleWalker::new(guest_mappings),
            host: OracleWalker::new(ept_mappings),
            nested_tlb: OracleTagCache::new(32, 32),
            structure_terminal: 1,
        }
    }

    /// Mirror of [`eeat_paging::NestedWalker::structure_gpn`].
    fn structure_gpn(gva: VirtAddr, level: u32) -> u64 {
        (u64::from(level) << 45) | (gva.raw() >> (12 + 9 * level))
    }

    /// One nested walk of `gva`, mirroring the production walker step for
    /// step: guest descent, a host sub-walk (or nested-TLB hit) per guest
    /// structure reference, then the data frame through the EPT.
    pub fn walk(&mut self, gva: VirtAddr) -> OracleNestedResult {
        let (translation, guest_refs, guest_hit_level) = self.guest.walk_detailed(gva);
        let start_level = guest_hit_level.unwrap_or(5) - 1;
        let lowest_fetched = start_level - guest_refs + 1;

        let mut host_refs = 0u32;
        let mut nested_tlb_hits = 0u32;
        for level in (lowest_fetched..=start_level).rev() {
            let gpn = Self::structure_gpn(gva, level);
            if self.nested_tlb.lookup(gpn) {
                nested_tlb_hits += 1;
            } else {
                host_refs += self
                    .host
                    .descend_fixed(VirtAddr::new(gpn << 12), self.structure_terminal);
                self.nested_tlb.insert(gpn);
            }
        }

        let host_translation = match translation {
            Some(t) => {
                let gpa = VirtAddr::new(t.translate(gva).raw());
                let gpn = gpa.raw() >> 12;
                if self.nested_tlb.lookup(gpn) {
                    nested_tlb_hits += 1;
                    self.host.translate(gpa)
                } else {
                    let (ht, refs) = self.host.walk(gpa);
                    host_refs += refs;
                    if ht.is_some() {
                        self.nested_tlb.insert(gpn);
                    }
                    ht
                }
            }
            None => None,
        };

        OracleNestedResult {
            translation,
            host_translation,
            memory_refs: guest_refs + host_refs,
            guest_refs,
            host_refs,
            guest_hit_level,
            nested_tlb_hits,
        }
    }

    /// Mirror of [`eeat_paging::NestedWalker::invalidate_guest`].
    pub fn invalidate_guest(&mut self, gva: VirtAddr, data_gpn: Option<u64>) -> u64 {
        let mut removed = self.guest.caches.invalidate(gva);
        for level in 1..=4 {
            removed += u64::from(self.nested_tlb.invalidate(Self::structure_gpn(gva, level)));
        }
        if let Some(gpn) = data_gpn {
            removed += u64::from(self.nested_tlb.invalidate(gpn));
        }
        removed
    }

    /// Mirror of [`eeat_paging::NestedWalker::invalidate_host`].
    pub fn invalidate_host(&mut self, gpa: VirtAddr) -> u64 {
        let mut removed = self.host.caches.invalidate(gpa);
        removed += u64::from(self.nested_tlb.invalidate(gpa.raw() >> 12));
        removed
    }

    /// Mirror of [`eeat_paging::NestedWalker::flush`].
    pub fn flush(&mut self) {
        self.guest.caches.flush();
        self.host.caches.flush();
        self.nested_tlb.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eeat_types::{Pfn, Vpn};

    fn t4k(vpn: u64) -> PageTranslation {
        PageTranslation::new(Vpn::new(vpn), Pfn::new(vpn + 1000), PageSize::Size4K)
    }

    #[test]
    fn ranks_count_more_recent_entries() {
        let mut o = OraclePageTlb::new(4, 4);
        for vpn in 0..4 {
            o.insert(t4k(vpn));
        }
        // Insert order 0..4: vpn 3 is MRU (rank 0), vpn 0 LRU (rank 3).
        let (_, r) = o
            .lookup_for_size(Vpn::new(0).base_addr(), PageSize::Size4K)
            .unwrap();
        assert_eq!(r, 3);
        // After the touch, vpn 0 is MRU.
        let (_, r) = o
            .lookup_for_size(Vpn::new(0).base_addr(), PageSize::Size4K)
            .unwrap();
        assert_eq!(r, 0);
    }

    #[test]
    fn eviction_takes_oldest() {
        let mut o = OraclePageTlb::new(4, 4);
        for vpn in 0..4 {
            o.insert(t4k(vpn));
        }
        o.lookup_for_size(Vpn::new(0).base_addr(), PageSize::Size4K);
        o.insert(t4k(9)); // evicts vpn 1, the oldest untouched entry
        assert!(o.probe(Vpn::new(0).base_addr(), PageSize::Size4K).is_some());
        assert!(o.probe(Vpn::new(1).base_addr(), PageSize::Size4K).is_none());
        assert_eq!(o.occupancy(), 4);
    }

    #[test]
    fn downsizing_keeps_most_recent() {
        let mut o = OraclePageTlb::new(4, 4);
        for vpn in 0..4 {
            o.insert(t4k(vpn));
        }
        o.set_active_ways(2);
        assert_eq!(o.occupancy(), 2);
        assert!(o.probe(Vpn::new(2).base_addr(), PageSize::Size4K).is_some());
        assert!(o.probe(Vpn::new(3).base_addr(), PageSize::Size4K).is_some());
        assert_eq!(o.stats.invalidations(), 2);
    }

    #[test]
    fn range_model_basics() {
        use eeat_types::{PhysAddr, VirtRange};
        let mut o = OracleRangeTlb::new(2);
        let rt = |mb: u64| {
            RangeTranslation::new(
                VirtRange::new(VirtAddr::new(mb << 20), 1 << 20),
                PhysAddr::new((mb + 512) << 20),
            )
        };
        o.insert(rt(0));
        o.insert(rt(10));
        o.lookup(VirtAddr::new(0));
        o.insert(rt(20)); // evicts the 10 MB range (oldest)
        assert!(o.probe(VirtAddr::new(0)).is_some());
        assert!(o.probe(VirtAddr::new(10 << 20)).is_none());
        let page = |va| Invalidate::Page {
            va: VirtAddr::new(va),
            asid: None,
        };
        assert_eq!(o.invalidate(page(5)), 1);
        assert_eq!(o.occupancy(), 1);
    }

    #[test]
    fn colt_model_basics() {
        let mut o = OracleColtTlb::new(4, 2);
        o.insert_group(Vpn::new(8), Pfn::new(100), 0b0000_0111);
        // Covered page hits with the run-derived frame.
        let (t, _) = o.lookup(VirtAddr::new(9 * 4096 + 5)).unwrap();
        assert_eq!(t.pfn().raw(), 101);
        // Same group, bit clear: miss.
        assert!(o.lookup(VirtAddr::new(11 * 4096)).is_none());
        // Merge on same base grows the run.
        o.insert_group(Vpn::new(8), Pfn::new(100), 0b0000_1000);
        assert_eq!(o.coverage_pages(), 4);
        assert_eq!(o.occupancy(), 1);
        // A different base replaces the run outright.
        o.insert_group(Vpn::new(8), Pfn::new(500), 0b0000_0001);
        assert_eq!(o.coverage_pages(), 1);
        let (t, _) = o.lookup(VirtAddr::new(8 * 4096)).unwrap();
        assert_eq!(t.pfn().raw(), 500);
        // Bit-level shootdown removes the last page and the entry.
        let page = Invalidate::Page {
            va: VirtAddr::new(8 * 4096),
            asid: None,
        };
        assert_eq!(o.invalidate(page), 1);
        assert_eq!(o.occupancy(), 0);
        o.assert_invariants();
    }

    #[test]
    fn range_overlap_invariant_catches_disagreement() {
        use eeat_types::{PhysAddr, VirtRange};
        let mut o = OracleRangeTlb::new(4);
        // Two overlapping ranges that agree on the shared span pass.
        o.insert(RangeTranslation::new(
            VirtRange::new(VirtAddr::new(0), 2 << 20),
            PhysAddr::new(1 << 30),
        ));
        o.insert(RangeTranslation::new(
            VirtRange::new(VirtAddr::new(1 << 20), 2 << 20),
            PhysAddr::new((1 << 30) + (1 << 20)),
        ));
        o.assert_invariants();
        // A conflicting overlap panics.
        o.insert(RangeTranslation::new(
            VirtRange::new(VirtAddr::new(1 << 20), 1 << 20),
            PhysAddr::new(7 << 30),
        ));
        let err = std::panic::catch_unwind(|| o.assert_invariants());
        assert!(err.is_err(), "disagreeing overlap must be caught");
    }

    #[test]
    fn walker_ref_counts() {
        let mut w = OracleWalker::new(vec![t4k(5)]);
        let (t, refs) = w.walk(VirtAddr::new(5 * 4096));
        assert!(t.is_some());
        assert_eq!(refs, 4);
        let (_, refs) = w.walk(VirtAddr::new(5 * 4096 + 8));
        assert_eq!(refs, 1, "PDE cache hit");
    }
}
