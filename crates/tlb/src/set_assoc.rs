//! Set-associative page TLB with true LRU and way-disabling.

use core::fmt;

use eeat_types::{PageSize, Pfn, VirtAddr, Vpn};

use crate::entry::{Hit, PageTranslation};
use crate::invalidate::Invalidate;
use crate::stats::TlbStats;

/// Maximum physical associativity of a [`SetAssocTlb`] — and, since a
/// fully associative structure is a single set whose every slot is a way,
/// also the maximum entry count of [`FullyAssocTlb`](crate::FullyAssocTlb)
/// and [`RangeTlb`](crate::RangeTlb).
///
/// LRU recency ranks are stored as one `u8` per slot, holding the
/// permutation `0..active_ways` of each set. 128 is the largest power of
/// two that leaves the upper half of the `u8` range as headroom for debug
/// sentinels and keeps the rank-compaction arithmetic trivially
/// overflow-free; it is far above any hardware TLB associativity (the
/// paper's largest structure is the 512-entry 4-way L2). The differential
/// oracle models in `eeat-oracle` mirror this bound so the fuzzer cannot
/// construct a reference structure the production code rejects.
pub const MAX_WAYS: usize = 128;

/// Tag value of an empty slot. Valid tags encode the page-size code in
/// their two low bits (`0..=2`), so `u64::MAX` (low bits `0b11`) can never
/// collide with a real tag.
const INVALID_TAG: u64 = u64::MAX;

/// Number of ASID bits carried per entry (x86 PCIDs are 12 bits; 15 leaves
/// headroom while keeping the lane one `u16` with the global flag).
pub const ASID_BITS: u32 = 15;

/// Mask of the ASID value within a stored lane word.
pub const ASID_MASK: u16 = (1 << ASID_BITS) - 1;

/// Lane flag marking an entry visible to every ASID (the PTE global bit:
/// kernel text/data that survives context switches).
pub const ASID_GLOBAL: u16 = 1 << ASID_BITS;

/// `true` when an entry tagged `lane` is visible to a lookup under
/// `current` — its ASID matches or the entry is global.
#[inline]
pub(crate) fn asid_visible(lane: u16, current: u16) -> bool {
    lane & ASID_GLOBAL != 0 || lane & ASID_MASK == current
}

/// `true` when two stored lanes can shadow each other for some lookup:
/// either is global, or both carry the same ASID. Insert uses this to keep
/// at most one entry visible per (tag, ASID) pair.
#[inline]
pub(crate) fn asid_overlaps(a: u16, b: u16) -> bool {
    a & ASID_GLOBAL != 0 || b & ASID_GLOBAL != 0 || a & ASID_MASK == b & ASID_MASK
}

/// The 2-bit size-class code fused into tags — also the index into the
/// per-size occupancy skip counts.
#[inline]
fn size_code(size: PageSize) -> usize {
    match size {
        PageSize::Size4K => 0,
        PageSize::Size2M => 1,
        PageSize::Size1G => 2,
    }
}

/// Packs a size-aligned VPN and its page size into one comparable word:
/// `(vpn << 2) | size_code`. x86-64 VPNs fit 45 bits (57-bit VA space), so
/// the shift cannot overflow.
#[inline]
fn encode_tag(vpn: Vpn, size: PageSize) -> u64 {
    debug_assert!(vpn.raw() < (1 << 62), "vpn too large to tag-encode");
    (vpn.raw() << 2) | size_code(size) as u64
}

/// The tag a lookup of `va` at `size` compares against.
#[inline]
fn lookup_tag(va: VirtAddr, size: PageSize) -> u64 {
    encode_tag(va.vpn().align_down(size), size)
}

/// Recovers the page size from a valid tag's low bits.
#[inline]
fn tag_size(tag: u64) -> PageSize {
    match tag & 3 {
        0 => PageSize::Size4K,
        1 => PageSize::Size2M,
        2 => PageSize::Size1G,
        _ => unreachable!("invalid slots are filtered before decoding"),
    }
}

/// Bitmask of lanes in `tags` equal to `tag` (bit `i` set ⇔ `tags[i] ==
/// tag`).
///
/// The scan runs over fixed-width 8-lane chunks so LLVM autovectorizes the
/// compares; `tags.len()` is bounded by [`MAX_WAYS`], so the mask fits a
/// `u128`.
#[inline]
fn match_mask(tags: &[u64], tag: u64) -> u128 {
    debug_assert!(tags.len() <= MAX_WAYS);
    let mut mask = 0u128;
    let mut lane = 0u32;
    let mut chunks = tags.chunks_exact(8);
    for chunk in &mut chunks {
        let c: [u64; 8] = chunk.try_into().expect("exact 8-lane chunk");
        let mut m = 0u32;
        for (i, &t) in c.iter().enumerate() {
            m |= u32::from(t == tag) << i;
        }
        mask |= u128::from(m) << lane;
        lane += 8;
    }
    for (i, &t) in chunks.remainder().iter().enumerate() {
        mask |= u128::from(t == tag) << (lane + i as u32);
    }
    mask
}

/// Like [`match_mask`] against any of three candidate tags in one pass
/// (the size-agnostic fully associative lookup).
#[inline]
fn match_mask3(tags: &[u64], candidates: [u64; 3]) -> u128 {
    debug_assert!(tags.len() <= MAX_WAYS);
    let [c0, c1, c2] = candidates;
    let mut mask = 0u128;
    let mut lane = 0u32;
    let mut chunks = tags.chunks_exact(8);
    for chunk in &mut chunks {
        let c: [u64; 8] = chunk.try_into().expect("exact 8-lane chunk");
        let mut m = 0u32;
        for (i, &t) in c.iter().enumerate() {
            m |= u32::from(t == c0 || t == c1 || t == c2) << i;
        }
        mask |= u128::from(m) << lane;
        lane += 8;
    }
    for (i, &t) in chunks.remainder().iter().enumerate() {
        mask |= u128::from(t == c0 || t == c1 || t == c2) << (lane + i as u32);
    }
    mask
}

/// A set-associative page TLB with per-set true-LRU replacement and
/// Albonesi-style *way-disabling*.
///
/// The structure is partitioned into `ways` subarrays; at any time only
/// `active_ways()` of them (a power of two, chosen by the Lite mechanism) are
/// searched and filled. Disabling ways invalidates their entries — TLBs are
/// read-only so no write-back is needed — and re-enabled ways come back
/// empty, exactly as §4.2.3 of the paper requires.
///
/// Multiple page sizes may coexist in one structure (the unified L2 TLB and
/// the TLB_PP organization); the lookup is then indexed by the actual page
/// size of the reference, modelling a perfect page-size predictor.
///
/// # Storage layout
///
/// The slots are held structure-of-arrays: a packed `u64` tag lane (the
/// size-aligned VPN fused with a 2-bit size code — one comparison replaces
/// the `size() == size && covers(va)` pair), a `u8` recency lane, and a
/// payload lane holding wrapping `pfn - vpn` deltas (a hit reconstructs
/// the PFN with one wrapping add from the tag it already matched). A probe
/// therefore scans a contiguous run of at most `active_ways` tag words and
/// touches the payload only on a hit, which is what makes the simulator's
/// hot loop memory-bound on the trace, not on the TLB model.
///
/// The structure additionally keeps per-size-class occupancy counts (the
/// page-size *skip masks*): a lookup for a size class the structure holds
/// zero entries of is a guaranteed miss and skips the tag scan entirely.
/// Energy accounting is unaffected — the pipeline layer charges the
/// paper's parallel-probe energy per structure regardless of whether the
/// model shortcut the scan.
///
/// # Examples
///
/// ```
/// use eeat_tlb::{PageTranslation, SetAssocTlb};
/// use eeat_types::{PageSize, Pfn, VirtAddr, Vpn};
///
/// let mut tlb = SetAssocTlb::new("L1-4KB", 64, 4, PageSize::Size4K);
/// tlb.insert(PageTranslation::new(Vpn::new(3), Pfn::new(8), PageSize::Size4K));
/// tlb.set_active_ways(1); // Lite downsizes to 16 entries direct-mapped
/// assert_eq!(tlb.active_capacity(), 16);
/// // The MRU entry of each set survives; conflicting fills now evict it.
/// assert!(tlb.lookup(VirtAddr::new(3 * 4096)).is_some());
/// tlb.insert(PageTranslation::new(Vpn::new(3 + 16), Pfn::new(9), PageSize::Size4K));
/// assert!(tlb.lookup(VirtAddr::new(3 * 4096)).is_none());
/// ```
#[derive(Clone, Debug)]
pub struct SetAssocTlb {
    name: &'static str,
    /// Packed tag lane: `encode_tag(vpn, size)` per slot, [`INVALID_TAG`]
    /// when empty. Scanned on every probe.
    tags: Vec<u64>,
    /// `recency[i]` is the LRU rank of slot `i` among the active ways of its
    /// set: 0 = MRU … `active_ways - 1` = LRU. Values of inactive ways are
    /// meaningless.
    recency: Vec<u8>,
    /// Payload lane: wrapping `pfn - vpn` delta per slot, read only after a
    /// tag match (the PFN is `(tag >> 2).wrapping_add(delta)` — exact,
    /// since wrapping subtraction/addition round-trip on `u64`).
    pfn_deltas: Vec<u64>,
    /// ASID lane: `asid | ASID_GLOBAL?` per slot, meaningful only where the
    /// tag is valid. All zeros (ASID 0, non-global) in single-context use.
    asids: Vec<u16>,
    sets: usize,
    ways: usize,
    active_ways: usize,
    default_size: PageSize,
    /// The ASID lookups and fills run under (the CR3 PCID). Defaults to 0,
    /// which keeps single-context behaviour bit-identical to the pre-ASID
    /// structure.
    current_asid: u16,
    /// Valid-entry count per page-size class, indexed by [`size_code`]:
    /// the skip masks. A lookup whose class counts zero is a guaranteed
    /// miss and skips the tag scan.
    size_occupancy: [u32; 3],
    /// Total valid entries (the sum of `size_occupancy`), kept separately
    /// so [`occupancy`](Self::occupancy) and the size-agnostic early-out
    /// are O(1).
    valid: u32,
    stats: TlbStats,
}

impl SetAssocTlb {
    /// Creates an empty TLB with `entries` total slots and `ways`
    /// associativity, all ways active.
    ///
    /// `default_size` is the page size used by [`lookup`](Self::lookup) and
    /// determines the index bits of single-size structures.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` and `entries / ways` are non-zero powers of two,
    /// `entries` is a multiple of `ways`, and `ways <= `[`MAX_WAYS`].
    pub fn new(name: &'static str, entries: usize, ways: usize, default_size: PageSize) -> Self {
        assert!(
            ways.is_power_of_two() && ways > 0,
            "ways must be a power of two"
        );
        assert!(
            ways <= MAX_WAYS,
            "ways above MAX_WAYS ({MAX_WAYS}) unsupported: rank counters are u8"
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
            asids: vec![0; entries],
            sets,
            ways,
            active_ways: ways,
            default_size,
            current_asid: 0,
            size_occupancy: [0; 3],
            valid: 0,
            stats: TlbStats::new(),
        }
    }

    /// Sets the ASID subsequent lookups and fills run under (an ASID-tagged
    /// context switch: the structure's contents survive, only visibility
    /// changes).
    ///
    /// # Panics
    ///
    /// Panics when `asid` exceeds [`ASID_MASK`].
    pub fn set_current_asid(&mut self, asid: u16) {
        assert!(asid <= ASID_MASK, "ASID exceeds {ASID_BITS} bits");
        self.current_asid = asid;
    }

    /// The ASID lookups currently run under.
    pub fn current_asid(&self) -> u16 {
        self.current_asid
    }

    /// The structure's display name (e.g. `"L1-4KB"`).
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Total number of slots (active or not).
    pub fn capacity(&self) -> usize {
        self.tags.len()
    }

    /// Number of sets (constant across resizing).
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Physical associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Currently active (searched and filled) ways.
    pub fn active_ways(&self) -> usize {
        self.active_ways
    }

    /// Number of currently usable slots: `sets * active_ways`.
    pub fn active_capacity(&self) -> usize {
        self.sets * self.active_ways
    }

    /// The page size assumed by [`lookup`](Self::lookup).
    pub fn default_size(&self) -> PageSize {
        self.default_size
    }

    /// Event counters.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    /// Resets the event counters (the contents are untouched).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
    }

    #[inline]
    fn set_index(&self, va: VirtAddr, size: PageSize) -> usize {
        ((va.raw() >> size.shift()) as usize) & (self.sets - 1)
    }

    /// Reconstructs the translation held in `slot`, if any.
    #[inline]
    fn slot_translation(&self, slot: usize) -> Option<PageTranslation> {
        let tag = self.tags[slot];
        if tag == INVALID_TAG {
            return None;
        }
        Some(PageTranslation::new(
            Vpn::new(tag >> 2),
            Pfn::new((tag >> 2).wrapping_add(self.pfn_deltas[slot])),
            tag_size(tag),
        ))
    }

    /// Looks up `va` assuming the structure's default page size.
    ///
    /// On a hit the entry is promoted to MRU and its pre-promotion recency
    /// rank is reported for Lite's LRU-distance counters.
    #[inline]
    pub fn lookup(&mut self, va: VirtAddr) -> Option<Hit> {
        self.lookup_for_size(va, self.default_size)
    }

    /// Looks up `va` as a reference to a page of `size` (mixed-size
    /// structures are indexed by the actual page size — the perfect
    /// prediction assumption of TLB_PP).
    #[inline]
    pub fn lookup_for_size(&mut self, va: VirtAddr, size: PageSize) -> Option<Hit> {
        // Page-size skip mask: a structure holding zero entries of this
        // size class cannot hit, so skip the indexing and tag scan. The
        // miss is still recorded — behaviourally this is the same probe,
        // just resolved without reading the arrays.
        if self.size_occupancy[size_code(size)] == 0 {
            self.stats.record_miss();
            return None;
        }
        let tag = lookup_tag(va, size);
        let base = self.set_index(va, size) * self.ways;
        let cur = self.current_asid;
        // The tag compare runs as a branch-free mask build over one
        // contiguous `u64` run (see `match_mask`); the ASID lane is
        // consulted per matching way in ascending way order, preserving
        // first-match semantics.
        let mut mask = match_mask(&self.tags[base..base + self.active_ways], tag);
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            let slot = base + way;
            if asid_visible(self.asids[slot], cur) {
                let rank = self.recency[slot];
                self.touch(base, slot, rank);
                self.stats.record_hit();
                return Some(Hit {
                    translation: PageTranslation::new(
                        Vpn::new(tag >> 2),
                        Pfn::new((tag >> 2).wrapping_add(self.pfn_deltas[slot])),
                        size,
                    ),
                    rank,
                });
            }
            mask &= mask - 1;
        }
        self.stats.record_miss();
        None
    }

    /// Looks up `va` matching entries of *any* page size — only meaningful
    /// for fully associative structures, where no index bits depend on the
    /// page size (the SPARC/AMD-style mixed L1 TLB of the paper's §4.4).
    ///
    /// # Panics
    ///
    /// Panics when the structure has more than one set: a set-associative
    /// lookup cannot be size-agnostic (the index depends on the size).
    #[inline]
    pub fn lookup_any_size(&mut self, va: VirtAddr) -> Option<Hit> {
        assert_eq!(
            self.sets, 1,
            "size-agnostic lookup requires full associativity"
        );
        // Skip mask: an empty structure is a guaranteed miss.
        if self.valid == 0 {
            self.stats.record_miss();
            return None;
        }
        // An entry of size `s` covers `va` exactly when its tag equals the
        // size-`s` lookup tag, so three precomputed candidates cover every
        // page size in a single pass over the tag lane.
        let candidates = [
            lookup_tag(va, PageSize::Size4K),
            lookup_tag(va, PageSize::Size2M),
            lookup_tag(va, PageSize::Size1G),
        ];
        let mut mask = match_mask3(&self.tags[..self.active_ways], candidates);
        while mask != 0 {
            let way = mask.trailing_zeros() as usize;
            if asid_visible(self.asids[way], self.current_asid) {
                let tag = self.tags[way];
                let rank = self.recency[way];
                self.touch(0, way, rank);
                self.stats.record_hit();
                return Some(Hit {
                    translation: PageTranslation::new(
                        Vpn::new(tag >> 2),
                        Pfn::new((tag >> 2).wrapping_add(self.pfn_deltas[way])),
                        tag_size(tag),
                    ),
                    rank,
                });
            }
            mask &= mask - 1;
        }
        self.stats.record_miss();
        None
    }

    /// Probes for a matching entry without affecting LRU state or counters.
    #[inline]
    pub fn probe(&self, va: VirtAddr, size: PageSize) -> Option<PageTranslation> {
        if self.size_occupancy[size_code(size)] == 0 {
            return None;
        }
        let tag = lookup_tag(va, size);
        let base = self.set_index(va, size) * self.ways;
        (0..self.active_ways)
            .map(|way| base + way)
            .find(|&slot| {
                self.tags[slot] == tag && asid_visible(self.asids[slot], self.current_asid)
            })
            .map(|slot| {
                PageTranslation::new(
                    Vpn::new(tag >> 2),
                    Pfn::new((tag >> 2).wrapping_add(self.pfn_deltas[slot])),
                    size,
                )
            })
    }

    /// Inserts `translation` under the current ASID, evicting the set's LRU
    /// active entry if needed.
    ///
    /// If an entry with the same tag is already visible to this ASID it is
    /// overwritten in place (and promoted), so no lookup ever sees two
    /// matching entries. Entries of *other* ASIDs with the same tag are left
    /// alone — each address space owns its own copy.
    #[inline]
    pub fn insert(&mut self, translation: PageTranslation) {
        self.insert_tagged(translation, self.current_asid);
    }

    /// Inserts `translation` with the global bit set: the entry is visible
    /// to (and shadows the tag for) every ASID, like a kernel mapping with
    /// the PTE global flag.
    pub fn insert_global(&mut self, translation: PageTranslation) {
        self.insert_tagged(translation, self.current_asid | ASID_GLOBAL);
    }

    fn insert_tagged(&mut self, translation: PageTranslation, lane: u16) {
        let tag = encode_tag(translation.vpn(), translation.size());
        let va = translation.vpn().base_addr();
        let base = self.set_index(va, translation.size()) * self.ways;

        // Overwrite a shadowing duplicate or pick an invalid slot, else
        // evict true LRU. A global insert may shadow same-tag entries of
        // several ASIDs at once; the first is overwritten in place (the
        // single-context path, bit-identical to the pre-ASID structure) and
        // the rest are invalidated so at most one entry stays visible per
        // (tag, ASID).
        let mut dup = None;
        let mut invalid = None;
        let mut shadowed = 0u64;
        for way in 0..self.active_ways {
            let slot = base + way;
            if self.tags[slot] == tag && asid_overlaps(self.asids[slot], lane) {
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
            let lru_rank = (self.active_ways - 1) as u8;
            (base..base + self.active_ways)
                .find(|&s| self.recency[s] == lru_rank)
                .expect("one active slot always holds the LRU rank")
        });

        // Skip-mask bookkeeping: retire the outgoing entry's class (a dup
        // of the same tag nets out; an evicted victim may be of another
        // class) and count the incoming one.
        let old = self.tags[slot];
        if old == INVALID_TAG {
            self.valid += 1;
        } else {
            self.size_occupancy[(old & 3) as usize] -= 1;
        }
        self.size_occupancy[(tag & 3) as usize] += 1;

        self.tags[slot] = tag;
        self.pfn_deltas[slot] = translation
            .pfn()
            .raw()
            .wrapping_sub(translation.vpn().raw());
        self.asids[slot] = lane;
        let rank = self.recency[slot];
        self.touch(base, slot, rank);
        self.stats.record_fill();
    }

    /// Promotes `slot` (with pre-promotion `rank`) to MRU within its set.
    #[inline]
    fn touch(&mut self, base: usize, slot: usize, rank: u8) {
        let set = &mut self.recency[base..base + self.active_ways];
        for r in set.iter_mut() {
            *r += u8::from(*r < rank);
        }
        self.recency[slot] = 0;
    }

    /// Invalidates `slot`, demoting it to the LRU end of its set while the
    /// survivors close ranks (the rank permutation stays intact). Does not
    /// touch the stats.
    fn clear_slot(&mut self, base: usize, slot: usize) {
        let old = self.tags[slot];
        debug_assert!(old != INVALID_TAG, "clear_slot expects a valid entry");
        self.size_occupancy[(old & 3) as usize] -= 1;
        self.valid -= 1;
        self.tags[slot] = INVALID_TAG;
        let rank = self.recency[slot];
        for s in base..base + self.active_ways {
            if self.recency[s] > rank {
                self.recency[s] -= 1;
            }
        }
        self.recency[slot] = (self.active_ways - 1) as u8;
    }

    /// Resizes the structure to `ways` active ways (way-disabling /
    /// re-enabling).
    ///
    /// Downsizing invalidates the entries of the disabled ways and compacts
    /// the survivors' LRU ranks; re-enabled ways come back empty at the LRU
    /// end. No-op when `ways == active_ways()`.
    ///
    /// # Panics
    ///
    /// Panics unless `ways` is a power of two in `1..=self.ways()`.
    pub fn set_active_ways(&mut self, ways: usize) {
        assert!(
            ways.is_power_of_two() && ways >= 1 && ways <= self.ways,
            "active ways must be a power of two within the physical ways"
        );
        if ways == self.active_ways {
            return;
        }
        let old_active = self.active_ways;
        let mut invalidated = 0u64;

        for set in 0..self.sets {
            let base = set * self.ways;
            if ways < old_active {
                // Keep the `ways` most recently used survivors in physical
                // ways 0..ways (hardware would keep the enabled subarrays;
                // reordering slots is equivalent for a behavioural model).
                // Ranks are a permutation per set, so the unstable sort is
                // deterministic.
                let mut keep: Vec<(u8, u64, u64, u16)> = (0..old_active)
                    .map(|w| {
                        (
                            self.recency[base + w],
                            self.tags[base + w],
                            self.pfn_deltas[base + w],
                            self.asids[base + w],
                        )
                    })
                    .collect();
                keep.sort_unstable_by_key(|&(rank, _, _, _)| rank);
                for (w, &(_, tag, delta, lane)) in keep.iter().take(ways).enumerate() {
                    self.tags[base + w] = tag;
                    self.pfn_deltas[base + w] = delta;
                    self.asids[base + w] = lane;
                    self.recency[base + w] = w as u8;
                }
                invalidated += keep
                    .iter()
                    .skip(ways)
                    .filter(|&&(_, tag, _, _)| tag != INVALID_TAG)
                    .count() as u64;
                for w in ways..self.ways {
                    self.tags[base + w] = INVALID_TAG;
                    self.recency[base + w] = w as u8;
                }
            } else {
                // Re-enable: fresh ways join empty at the LRU end.
                for w in old_active..ways {
                    self.tags[base + w] = INVALID_TAG;
                    self.recency[base + w] = w as u8;
                }
            }
        }
        self.stats.record_invalidations(invalidated);
        self.active_ways = ways;
        // Resizes are rare (epoch boundaries): a full recount is simpler
        // than threading per-class decrements through the keep-sort.
        self.recount_occupancy();
    }

    /// Rebuilds the skip-mask counters from the tag lane — for the cold
    /// bulk-mutation paths where incremental maintenance isn't worth it.
    fn recount_occupancy(&mut self) {
        let mut size_occupancy = [0u32; 3];
        let mut valid = 0u32;
        for &tag in &self.tags {
            if tag != INVALID_TAG {
                size_occupancy[(tag & 3) as usize] += 1;
                valid += 1;
            }
        }
        self.size_occupancy = size_occupancy;
        self.valid = valid;
    }

    /// Removes the entries `scope` selects, of any page size, and returns
    /// how many went (counted as invalidations in the stats). A page scope
    /// takes every entry whose page contains the address, a range scope
    /// every entry whose page overlaps the range. Each vacated slot drops to
    /// the LRU end of its set while the survivors close ranks, so the ranks
    /// stay a permutation; [`Invalidate::All`] resets every set's ranks,
    /// active ways staying as configured.
    pub fn invalidate(&mut self, scope: Invalidate) -> u64 {
        if matches!(scope, Invalidate::All) {
            return self.flush();
        }
        let mut removed = 0u64;
        for set in 0..self.sets {
            let base = set * self.ways;
            for way in 0..self.active_ways {
                let slot = base + way;
                let Some(entry) = self.slot_translation(slot) else {
                    continue;
                };
                let start = entry.vpn().base_addr().raw();
                if scope.removes(self.asids[slot], start, entry.size().bytes()) {
                    self.clear_slot(base, slot);
                    removed += 1;
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
            self.asids[i] = 0;
        }
        self.size_occupancy = [0; 3];
        self.valid = 0;
        removed
    }

    /// Number of valid entries currently held (O(1): maintained as the
    /// skip-mask counters' total).
    pub fn occupancy(&self) -> usize {
        self.valid as usize
    }

    /// Checks internal invariants; meant for tests and debugging.
    ///
    /// # Panics
    ///
    /// Panics if the active ways of any set do not hold a permutation of the
    /// LRU ranks `0..active_ways`, an inactive way holds a valid entry, a
    /// valid slot fails to decode into an aligned translation, or the
    /// skip-mask occupancy counters disagree with the tag lane.
    pub fn assert_invariants(&self) {
        // Skip-mask counters must track the tag lane exactly: a stale
        // zero would turn real hits into guaranteed misses.
        let mut size_occupancy = [0u32; 3];
        for &tag in &self.tags {
            if tag != INVALID_TAG {
                size_occupancy[(tag & 3) as usize] += 1;
            }
        }
        assert_eq!(
            self.size_occupancy, size_occupancy,
            "size-class occupancy counters diverged from the tag lane"
        );
        assert_eq!(
            self.valid,
            size_occupancy.iter().sum::<u32>(),
            "total valid count diverged from the tag lane"
        );
        for set in 0..self.sets {
            let base = set * self.ways;
            let mut seen = vec![false; self.active_ways];
            for w in 0..self.active_ways {
                let rank = self.recency[base + w] as usize;
                assert!(rank < self.active_ways, "rank out of range in set {set}");
                assert!(!seen[rank], "duplicate rank in set {set}");
                seen[rank] = true;
                // PageTranslation::new re-checks VPN/PFN alignment.
                let _ = self.slot_translation(base + w);
            }
            for w in self.active_ways..self.ways {
                assert!(
                    self.tags[base + w] == INVALID_TAG,
                    "inactive way {w} of set {set} holds a valid entry"
                );
            }
            // No two valid entries of one set may shadow each other: a
            // lookup under any ASID must match at most one slot.
            for a in 0..self.active_ways {
                for b in a + 1..self.active_ways {
                    let (sa, sb) = (base + a, base + b);
                    assert!(
                        self.tags[sa] == INVALID_TAG
                            || self.tags[sa] != self.tags[sb]
                            || !asid_overlaps(self.asids[sa], self.asids[sb]),
                        "set {set}: ways {a} and {b} hold shadowing entries for one tag"
                    );
                }
            }
        }
    }
}

impl fmt::Display for SetAssocTlb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} entries, {}/{} ways active, {}",
            self.name,
            self.capacity(),
            self.active_ways,
            self.ways,
            self.stats
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eeat_types::{Pfn, VirtRange, Vpn};

    fn t4k(vpn: u64) -> PageTranslation {
        PageTranslation::new(Vpn::new(vpn), Pfn::new(vpn + 1000), PageSize::Size4K)
    }

    fn va4k(vpn: u64) -> VirtAddr {
        Vpn::new(vpn).base_addr()
    }

    #[test]
    fn miss_then_hit() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        assert!(tlb.lookup(va4k(5)).is_none());
        tlb.insert(t4k(5));
        let hit = tlb.lookup(va4k(5)).expect("hit after fill");
        assert_eq!(hit.translation, t4k(5));
        assert_eq!(tlb.stats().hits(), 1);
        assert_eq!(tlb.stats().misses(), 1);
        assert_eq!(tlb.stats().fills(), 1);
        tlb.assert_invariants();
    }

    #[test]
    fn lru_ranks_reported() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        // Four pages mapping to the same set (16 sets => stride 16 pages).
        for i in 0..4 {
            tlb.insert(t4k(16 * i));
        }
        // Most recent insert is MRU; the first one is LRU (rank 3).
        assert_eq!(tlb.lookup(va4k(48)).unwrap().rank, 0);
        assert_eq!(tlb.lookup(va4k(0)).unwrap().rank, 3);
        // After touching page 0 it becomes MRU.
        assert_eq!(tlb.lookup(va4k(0)).unwrap().rank, 0);
        tlb.assert_invariants();
    }

    #[test]
    fn true_lru_eviction() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        for i in 0..4 {
            tlb.insert(t4k(16 * i));
        }
        tlb.lookup(va4k(0)); // protect the oldest entry
        tlb.insert(t4k(16 * 4)); // evicts vpn 16 (now LRU)
        assert!(tlb.probe(va4k(0), PageSize::Size4K).is_some());
        assert!(tlb.probe(va4k(16), PageSize::Size4K).is_none());
        assert!(tlb.probe(va4k(64), PageSize::Size4K).is_some());
        tlb.assert_invariants();
    }

    #[test]
    fn duplicate_insert_overwrites() {
        let mut tlb = SetAssocTlb::new("t", 16, 4, PageSize::Size4K);
        tlb.insert(t4k(8));
        let newer = PageTranslation::new(Vpn::new(8), Pfn::new(99), PageSize::Size4K);
        tlb.insert(newer);
        assert_eq!(tlb.occupancy(), 1);
        assert_eq!(tlb.probe(va4k(8), PageSize::Size4K), Some(newer));
    }

    #[test]
    fn way_disabling_invalidates() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        for i in 0..4 {
            tlb.insert(t4k(16 * i));
        }
        tlb.set_active_ways(2);
        assert_eq!(tlb.active_ways(), 2);
        // The two MRU entries survive.
        assert!(tlb.probe(va4k(32), PageSize::Size4K).is_some());
        assert!(tlb.probe(va4k(48), PageSize::Size4K).is_some());
        assert!(tlb.probe(va4k(0), PageSize::Size4K).is_none());
        assert!(tlb.probe(va4k(16), PageSize::Size4K).is_none());
        assert_eq!(tlb.stats().invalidations(), 2);
        tlb.assert_invariants();
    }

    #[test]
    fn reenabling_comes_back_empty() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        for i in 0..4 {
            tlb.insert(t4k(16 * i));
        }
        tlb.set_active_ways(1);
        tlb.set_active_ways(4);
        // Only the single survivor of the 1-way period remains.
        assert_eq!(tlb.occupancy(), 1);
        assert!(tlb.probe(va4k(48), PageSize::Size4K).is_some());
        tlb.assert_invariants();
        // And the structure is fully usable again.
        for i in 0..4 {
            tlb.insert(t4k(16 * i));
        }
        assert_eq!(tlb.occupancy(), 4);
    }

    #[test]
    fn one_way_behaves_direct_mapped() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        tlb.set_active_ways(1);
        tlb.insert(t4k(0));
        tlb.insert(t4k(16)); // same set, conflicts
        assert!(tlb.probe(va4k(0), PageSize::Size4K).is_none());
        assert!(tlb.probe(va4k(16), PageSize::Size4K).is_some());
        assert_eq!(tlb.active_capacity(), 16);
    }

    #[test]
    fn mixed_sizes_coexist() {
        let mut tlb = SetAssocTlb::new("L2", 512, 4, PageSize::Size4K);
        tlb.insert(t4k(7));
        let huge = PageTranslation::new(Vpn::new(512), Pfn::new(1024), PageSize::Size2M);
        tlb.insert(huge);
        assert!(tlb.lookup_for_size(va4k(7), PageSize::Size4K).is_some());
        assert!(tlb
            .lookup_for_size(VirtAddr::new(512 * 4096 + 555), PageSize::Size2M)
            .is_some());
        // A 4 KiB-indexed lookup of the huge-page region misses: sizes differ.
        assert!(tlb
            .lookup_for_size(VirtAddr::new(512 * 4096), PageSize::Size4K)
            .is_none());
    }

    #[test]
    fn invalidate_removes_only_the_covering_entry() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        for i in 0..4 {
            tlb.insert(t4k(16 * i));
        }
        assert_eq!(tlb.invalidate(Invalidate::page(va4k(16))), 1);
        assert!(tlb.probe(va4k(16), PageSize::Size4K).is_none());
        for vpn in [0, 32, 48] {
            assert!(tlb.probe(va4k(vpn), PageSize::Size4K).is_some());
        }
        assert_eq!(tlb.stats().invalidations(), 1);
        tlb.assert_invariants();
        // The vacated slot is the next eviction victim: filling the set again
        // evicts nobody.
        tlb.insert(t4k(16 * 4));
        assert_eq!(tlb.occupancy(), 4);
        for vpn in [0, 32, 48, 64] {
            assert!(tlb.probe(va4k(vpn), PageSize::Size4K).is_some());
        }
    }

    #[test]
    fn invalidate_matches_any_page_size() {
        let mut tlb = SetAssocTlb::new("L2", 512, 4, PageSize::Size4K);
        tlb.insert(t4k(7));
        let huge = PageTranslation::new(Vpn::new(512), Pfn::new(1024), PageSize::Size2M);
        tlb.insert(huge);
        // An address in the middle of the 2 MiB page takes out the huge entry
        // but not the unrelated 4 KiB one.
        assert_eq!(
            tlb.invalidate(Invalidate::page(VirtAddr::new(512 * 4096 + 12345))),
            1
        );
        assert!(tlb
            .probe(VirtAddr::new(512 * 4096), PageSize::Size2M)
            .is_none());
        assert!(tlb.probe(va4k(7), PageSize::Size4K).is_some());
        tlb.assert_invariants();
    }

    #[test]
    fn range_scope_takes_overlapping_pages() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        for vpn in [3u64, 4, 5, 40] {
            tlb.insert(t4k(vpn));
        }
        // A range covering pages 4..6 removes vpn 4 and 5 only.
        let range = VirtRange::new(va4k(4), 2 * 4096);
        assert_eq!(tlb.invalidate(Invalidate::range(range)), 2);
        assert!(tlb.probe(va4k(3), PageSize::Size4K).is_some());
        assert!(tlb.probe(va4k(4), PageSize::Size4K).is_none());
        assert!(tlb.probe(va4k(5), PageSize::Size4K).is_none());
        assert!(tlb.probe(va4k(40), PageSize::Size4K).is_some());
        tlb.assert_invariants();
    }

    #[test]
    fn range_scope_handles_topmost_page() {
        // The last 4 KiB page of the address space: `base + 4096` wraps to
        // zero, which the inclusive overlap arithmetic must tolerate.
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        let top = (1u64 << 52) - 1;
        tlb.insert(t4k(top));
        tlb.insert(t4k(3));
        // [u64::MAX - 8191, u64::MAX): covers the top page, not vpn 3.
        let shot = VirtRange::new(VirtAddr::new(u64::MAX - 8191), 8191);
        assert_eq!(tlb.invalidate(Invalidate::range(shot)), 1);
        assert!(tlb.probe(va4k(top), PageSize::Size4K).is_none());
        assert!(tlb.probe(va4k(3), PageSize::Size4K).is_some());
        tlb.assert_invariants();
    }

    #[test]
    fn asid_range_scope_handles_topmost_page() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        let top = (1u64 << 52) - 1;
        tlb.set_current_asid(2);
        tlb.insert(t4k(top));
        tlb.set_current_asid(5);
        tlb.insert(t4k(top));
        let shot = VirtRange::new(VirtAddr::new(u64::MAX - 8191), 8191);
        // Only ASID 2's copy of the top page goes.
        assert_eq!(tlb.invalidate(Invalidate::range_of(2, shot)), 1);
        assert!(tlb.probe(va4k(top), PageSize::Size4K).is_some());
        tlb.set_current_asid(2);
        assert!(tlb.probe(va4k(top), PageSize::Size4K).is_none());
        tlb.assert_invariants();
    }

    #[test]
    fn invalidate_miss_is_a_no_op() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        tlb.insert(t4k(1));
        let stats_before = *tlb.stats();
        assert_eq!(tlb.invalidate(Invalidate::page(va4k(99))), 0);
        assert_eq!(tlb.stats().invalidations(), stats_before.invalidations());
        assert_eq!(tlb.occupancy(), 1);
        tlb.assert_invariants();
    }

    #[test]
    fn flush_empties() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        for i in 0..10 {
            tlb.insert(t4k(i));
        }
        assert_eq!(tlb.invalidate(Invalidate::All), 10);
        assert_eq!(tlb.occupancy(), 0);
        assert_eq!(tlb.stats().invalidations(), 10);
        tlb.assert_invariants();
    }

    #[test]
    fn geometry_accessors() {
        let tlb = SetAssocTlb::new("L1-4KB", 64, 4, PageSize::Size4K);
        assert_eq!(tlb.sets(), 16);
        assert_eq!(tlb.ways(), 4);
        assert_eq!(tlb.capacity(), 64);
        assert_eq!(tlb.name(), "L1-4KB");
        assert_eq!(tlb.default_size(), PageSize::Size4K);
        assert!(tlb.to_string().contains("4/4 ways"));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_geometry_rejected() {
        let _ = SetAssocTlb::new("t", 48, 3, PageSize::Size4K);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_resize_rejected() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        tlb.set_active_ways(3);
    }

    #[test]
    fn max_ways_boundary_accepted() {
        // Exactly MAX_WAYS ways is the documented ceiling and must work,
        // including LRU wraparound at the largest rank (MAX_WAYS - 1).
        let mut tlb = SetAssocTlb::new("t", MAX_WAYS, MAX_WAYS, PageSize::Size4K);
        for i in 0..MAX_WAYS as u64 {
            tlb.insert(t4k(i));
        }
        assert_eq!(tlb.occupancy(), MAX_WAYS);
        assert_eq!(
            tlb.lookup(va4k(0)).unwrap().rank,
            (MAX_WAYS - 1) as u8,
            "oldest entry sits at the LRU rank"
        );
        tlb.insert(t4k(MAX_WAYS as u64)); // evicts the new LRU (vpn 1)
        assert!(tlb.probe(va4k(1), PageSize::Size4K).is_none());
        tlb.assert_invariants();
    }

    #[test]
    #[should_panic(expected = "MAX_WAYS")]
    fn above_max_ways_rejected() {
        let _ = SetAssocTlb::new("t", 2 * MAX_WAYS, 2 * MAX_WAYS, PageSize::Size4K);
    }

    #[test]
    fn probe_does_not_disturb() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        tlb.insert(t4k(0));
        let before = *tlb.stats();
        tlb.probe(va4k(0), PageSize::Size4K);
        assert_eq!(*tlb.stats(), before);
    }

    #[test]
    fn asid_isolates_address_spaces() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        tlb.set_current_asid(1);
        tlb.insert(t4k(5));
        // ASID 2 does not see ASID 1's entry — and may hold its own copy of
        // the same VPN with a different frame.
        tlb.set_current_asid(2);
        assert!(tlb.lookup(va4k(5)).is_none());
        let other = PageTranslation::new(Vpn::new(5), Pfn::new(7777), PageSize::Size4K);
        tlb.insert(other);
        assert_eq!(tlb.lookup(va4k(5)).unwrap().translation, other);
        // Switching back, ASID 1 still sees its original mapping: the
        // context switch cost no flush.
        tlb.set_current_asid(1);
        assert_eq!(tlb.lookup(va4k(5)).unwrap().translation, t4k(5));
        assert_eq!(tlb.occupancy(), 2);
        tlb.assert_invariants();
    }

    #[test]
    fn global_entries_visible_to_every_asid() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        tlb.set_current_asid(1);
        tlb.insert_global(t4k(9));
        tlb.set_current_asid(2);
        assert!(
            tlb.lookup(va4k(9)).is_some(),
            "global entry survives switch"
        );
        // A global shootdown removes it; an ASID-targeted one does not.
        assert_eq!(tlb.invalidate(Invalidate::page_of(1, va4k(9))), 0);
        assert!(tlb.lookup(va4k(9)).is_some());
        assert_eq!(tlb.invalidate(Invalidate::page(va4k(9))), 1);
        assert!(tlb.lookup(va4k(9)).is_none());
        tlb.assert_invariants();
    }

    #[test]
    fn global_insert_shadows_per_asid_copies() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        tlb.set_current_asid(1);
        tlb.insert(t4k(3));
        tlb.set_current_asid(2);
        tlb.insert(PageTranslation::new(
            Vpn::new(3),
            Pfn::new(500),
            PageSize::Size4K,
        ));
        assert_eq!(tlb.occupancy(), 2);
        // A global insert of the same page replaces both per-ASID copies —
        // no lookup may ever match two slots.
        let global = PageTranslation::new(Vpn::new(3), Pfn::new(600), PageSize::Size4K);
        tlb.insert_global(global);
        assert_eq!(tlb.occupancy(), 1);
        for asid in [1u16, 2, 3] {
            tlb.set_current_asid(asid);
            assert_eq!(tlb.lookup(va4k(3)).unwrap().translation, global);
        }
        tlb.assert_invariants();
    }

    #[test]
    fn shootdown_of_va_present_under_two_asids() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        tlb.set_current_asid(1);
        tlb.insert(t4k(5));
        tlb.set_current_asid(2);
        tlb.insert(PageTranslation::new(
            Vpn::new(5),
            Pfn::new(7777),
            PageSize::Size4K,
        ));
        // The ASID-targeted shootdown removes exactly one copy.
        assert_eq!(tlb.invalidate(Invalidate::page_of(1, va4k(5))), 1);
        assert!(tlb.lookup(va4k(5)).is_some(), "ASID 2's copy survives");
        tlb.set_current_asid(1);
        assert!(tlb.lookup(va4k(5)).is_none());
        // The ASID-blind shootdown takes every remaining copy.
        assert_eq!(tlb.invalidate(Invalidate::page(va4k(5))), 1);
        assert_eq!(tlb.occupancy(), 0);
        tlb.assert_invariants();
    }

    #[test]
    fn asid_scope_spares_globals_and_other_asids() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        tlb.set_current_asid(1);
        tlb.insert(t4k(1));
        tlb.insert(t4k(2));
        tlb.insert_global(t4k(3));
        tlb.set_current_asid(2);
        tlb.insert(t4k(4));
        assert_eq!(tlb.invalidate(Invalidate::Asid(1)), 2);
        assert!(tlb.lookup(va4k(3)).is_some(), "global survives");
        assert!(tlb.lookup(va4k(4)).is_some(), "other ASID survives");
        tlb.set_current_asid(1);
        assert!(tlb.lookup(va4k(1)).is_none());
        assert!(tlb.lookup(va4k(2)).is_none());
        tlb.assert_invariants();
    }

    #[test]
    fn asid_range_scope_is_targeted() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        tlb.set_current_asid(1);
        for vpn in [3u64, 4, 5] {
            tlb.insert(t4k(vpn));
        }
        tlb.set_current_asid(2);
        tlb.insert(t4k(4));
        let range = VirtRange::new(va4k(4), 2 * 4096);
        assert_eq!(tlb.invalidate(Invalidate::range_of(1, range)), 2);
        assert!(tlb.lookup(va4k(4)).is_some(), "ASID 2's page 4 survives");
        tlb.set_current_asid(1);
        assert!(tlb.lookup(va4k(3)).is_some());
        assert!(tlb.lookup(va4k(4)).is_none());
        assert!(tlb.lookup(va4k(5)).is_none());
        tlb.assert_invariants();
    }

    #[test]
    fn default_asid_preserves_legacy_behaviour() {
        // With no ASID calls at all, the structure behaves exactly like the
        // pre-ASID version: everything lives under ASID 0, non-global.
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        assert_eq!(tlb.current_asid(), 0);
        tlb.insert(t4k(5));
        assert!(tlb.lookup(va4k(5)).is_some());
        assert_eq!(tlb.invalidate(Invalidate::Asid(0)), 1);
        assert_eq!(tlb.occupancy(), 0);
    }

    #[test]
    #[should_panic(expected = "ASID exceeds")]
    fn oversized_asid_rejected() {
        let mut tlb = SetAssocTlb::new("t", 64, 4, PageSize::Size4K);
        tlb.set_current_asid(ASID_GLOBAL);
    }
}
