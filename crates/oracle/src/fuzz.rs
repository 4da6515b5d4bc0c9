//! The deterministic differential fuzz driver.
//!
//! [`fuzz_seed`] (or [`fuzz_target`] for one structure) generates a
//! seed-addressable random operation sequence, applies it to a production
//! structure and its oracle side by side, and cross-checks every observable
//! after every step: hit/miss outcome, returned translation, reported LRU
//! rank, stats counters, occupancy, the full contents (via side-effect-free
//! probes over the operand universe), and the production structure's own
//! `assert_invariants`.
//!
//! On a divergence the failing sequence is [`minimize`]d to a (locally)
//! minimal repro and rendered as a textual replay with [`format_replay`].
//! Replays are self-contained — [`run_replay`] re-executes them against
//! freshly built structures — so a divergence found once can be checked in
//! under `replays/` as a permanent regression test.

use std::collections::VecDeque;
use std::fmt;

use eeat_core::{LiteController, LiteParams, ThresholdEpsilon, TranslationOrg};
use eeat_paging::{MmuCaches, NestedWalker, PageTable, PageWalker};
use eeat_tlb::{
    CoalescedTlb, FullyAssocTlb, Invalidate, PageTranslation, RangeTlb, SetAssocTlb, TlbStats,
};
use eeat_types::rng::{RngCore, RngExt, SeedableRng, SmallRng, SplitMix64};
use eeat_types::{PageSize, Pfn, PhysAddr, RangeTranslation, VirtAddr, VirtRange, Vpn};

use crate::lite::OracleLite;
use crate::model::{
    OracleColtTlb, OracleNestedWalker, OraclePageTlb, OracleRangeTlb, OracleWalker,
};

/// The production structure a fuzz run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Target {
    /// [`SetAssocTlb`], 256 entries × 4 ways, mixed 4 KiB / 2 MiB entries.
    SetAssoc,
    /// [`FullyAssocTlb`], 8 entries, mixed sizes, entry-count resizing.
    FullyAssoc,
    /// [`RangeTlb`], 4 entries over 8 disjoint ranges.
    Range,
    /// [`PageWalker`] + [`MmuCaches`] over a fixed page table.
    Mmu,
    /// [`LiteController`] versus the full-log [`OracleLite`].
    Lite,
    /// [`CoalescedTlb`], 16 entries × 2 ways over a 32-group universe.
    Colt,
    /// Two ASID-tagged [`SetAssocTlb`] "cores" behind a seq-numbered
    /// shootdown-IPI queue, versus per-core [`OraclePageTlb`] models:
    /// context switches, global entries, cross-core shootdowns, delivery
    /// ordering, and shootdown-vs-refill races.
    Multicore,
    /// [`NestedWalker`] over fixed guest + EPT tables versus
    /// [`OracleNestedWalker`]: per-dimension reference counts and cache
    /// refills, nested-TLB combined entries, guest/host shootdowns racing
    /// walks, and VM-switch flushes.
    Nested,
}

impl Target {
    /// Every target, in the order [`fuzz_seed`] drives them.
    pub const ALL: [Target; 8] = [
        Target::SetAssoc,
        Target::FullyAssoc,
        Target::Range,
        Target::Mmu,
        Target::Lite,
        Target::Colt,
        Target::Multicore,
        Target::Nested,
    ];

    /// The replay-file token naming this target.
    pub fn name(self) -> &'static str {
        match self {
            Target::SetAssoc => "set_assoc",
            Target::FullyAssoc => "fully_assoc",
            Target::Range => "range",
            Target::Mmu => "mmu",
            Target::Lite => "lite",
            Target::Colt => "colt",
            Target::Multicore => "multicore",
            Target::Nested => "nested",
        }
    }

    fn parse(token: &str) -> Option<Target> {
        Target::ALL.iter().copied().find(|t| t.name() == token)
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One fuzz operation. Each target accepts the subset that makes sense for
/// it; applying an inapplicable op is a harness bug and panics.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Op {
    /// Size-aware lookup of `va`.
    Lookup {
        /// Raw virtual address.
        va: u64,
        /// Page size assumed by the lookup (index bits depend on it).
        size: PageSize,
    },
    /// Size-agnostic lookup of `va` (fully associative and range targets).
    LookupAny {
        /// Raw virtual address.
        va: u64,
    },
    /// Insert the translation of the page of `size` starting at `vpn`
    /// (the frame is derived: `pfn = vpn + 2^20`).
    Insert {
        /// First virtual page number of the page.
        vpn: u64,
        /// Page size of the mapping.
        size: PageSize,
    },
    /// Insert range number `index` of the fixed range pool.
    InsertRange {
        /// Index into the 8-entry range pool.
        index: usize,
    },
    /// Insert a coalesced run into the CoLT target: `mask` bit `i` maps
    /// page `group + i` to the run's derived base frame plus `i`.
    InsertGroup {
        /// Group-aligned first VPN of the coalesced group.
        group: u64,
        /// Presence mask (non-zero).
        mask: u8,
        /// Derive the alternate base frame, exercising the
        /// same-group-different-base replacement path.
        alt_base: bool,
    },
    /// Resize to `ways` active ways (or entries, for fully associative).
    Resize {
        /// New power-of-two way/entry count.
        ways: usize,
    },
    /// Invalidate everything (context switch).
    Flush,
    /// Precise shootdown of the page(s) covering `va`.
    Invalidate {
        /// Raw virtual address.
        va: u64,
    },
    /// Shootdown of every entry overlapping `[start, start + len)`.
    InvalidateRange {
        /// Raw start address.
        start: u64,
        /// Length in bytes.
        len: u64,
    },
    /// Page-walk `va` through the MMU caches (for the nested target, `va`
    /// is a guest-virtual address and the walk spans both dimensions).
    Walk {
        /// Raw virtual address.
        va: u64,
    },
    /// Host-side shootdown of the guest-physical address `gpa` (an EPT
    /// change; nested target only).
    InvalidateHost {
        /// Raw guest-physical address.
        gpa: u64,
    },
    /// Record a hit at LRU `rank` in Lite monitor `monitor`.
    LiteHit {
        /// Monitor index.
        monitor: usize,
        /// Pre-promotion LRU rank of the hit.
        rank: u8,
    },
    /// Record an all-L1 miss with the Lite controller.
    LiteMiss,
    /// Advance the clock by one interval plus `extra` instructions and run
    /// the interval-end decision.
    EndInterval {
        /// Instructions past the interval boundary.
        extra: u64,
    },
    /// Context-switch core `core` to `asid` (multicore target).
    SwitchAsid {
        /// Core index.
        core: usize,
        /// The ASID subsequent lookups and fills on that core run under.
        asid: u16,
    },
    /// Insert the page of `size` at `vpn` on `core` under its current ASID
    /// (the frame is derived from both the VPN and the ASID, so a mix-up
    /// surfaces as a wrong translation, not just wrong bookkeeping).
    InsertAt {
        /// Core index.
        core: usize,
        /// First virtual page number of the page.
        vpn: u64,
        /// Page size of the mapping.
        size: PageSize,
        /// Insert with the global bit: visible to every ASID.
        global: bool,
    },
    /// Size-aware lookup of `va` on `core` under its current ASID.
    LookupAt {
        /// Core index.
        core: usize,
        /// Raw virtual address.
        va: u64,
        /// Page size assumed by the lookup.
        size: PageSize,
    },
    /// Resize core `core` to `ways` active ways.
    ResizeAt {
        /// Core index.
        core: usize,
        /// New power-of-two way count.
        ways: usize,
    },
    /// Shootdown of `va` under `core`'s current ASID: invalidate locally
    /// and enqueue a seq-numbered IPI against every other core.
    ShootdownVa {
        /// Initiating core index.
        core: usize,
        /// Raw virtual address being unmapped.
        va: u64,
    },
    /// Deliver the oldest pending IPI queued against `core` (no-op when
    /// the queue is empty).
    DeliverIpi {
        /// Receiving core index.
        core: usize,
    },
    /// Flush every non-global entry of `asid` on `core` (ASID recycling).
    FlushAsid {
        /// Core index.
        core: usize,
        /// The ASID being recycled.
        asid: u16,
    },
    /// ASID-targeted multi-page shootdown of `[start, start + len)` on
    /// `core` (an `munmap` of `asid`'s region observed by one core).
    InvalidateRangeAsid {
        /// Core index.
        core: usize,
        /// The owning ASID.
        asid: u16,
        /// Raw start address.
        start: u64,
        /// Length in bytes.
        len: u64,
    },
    /// (Re)build both Lite controllers with these parameters.
    LiteConfig {
        /// Relative (`true`) or absolute (`false`) ε threshold.
        relative: bool,
        /// The ε value.
        eps: f64,
        /// Random re-activation probability.
        prob: f64,
        /// Degradation floor in MPKI.
        floor: f64,
        /// Controller RNG seed.
        seed: u64,
    },
}

impl Op {
    /// The TLB invalidation a single-structure target performs for this
    /// op, or `None` when the op is not one.
    fn scope(self) -> Option<Invalidate> {
        match self {
            Op::Flush => Some(Invalidate::All),
            Op::Invalidate { va } => Some(Invalidate::Page {
                va: VirtAddr::new(va),
                asid: None,
            }),
            Op::InvalidateRange { start, len } => Some(Invalidate::Range {
                range: VirtRange::new(VirtAddr::new(start), len),
                asid: None,
            }),
            _ => None,
        }
    }
}

/// A step where production and oracle disagreed.
#[derive(Clone, Debug)]
pub struct Divergence {
    /// Index of the diverging op in the sequence.
    pub step: usize,
    /// What disagreed, with both sides' values.
    pub detail: String,
}

/// A reproduced, minimized fuzz failure.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The structure that diverged.
    pub target: Target,
    /// Seed of the generating run.
    pub seed: u64,
    /// Diverging step within the *minimized* sequence.
    pub step: usize,
    /// What disagreed.
    pub detail: String,
    /// Minimized replay text; feed to [`run_replay`] or check in under
    /// `replays/`.
    pub replay: String,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} diverged (seed {}) at step {} of the minimized replay: {}\n--- replay ---\n{}",
            self.target, self.seed, self.step, self.detail, self.replay
        )
    }
}

// ---------------------------------------------------------------------------
// Operand universes (fixed per target so replays are self-contained)
// ---------------------------------------------------------------------------

const KB4: u64 = 4096;
const MB2: u64 = 1 << 21;

/// The derived frame for an inserted page: far enough to never collide with
/// the virtual numbers, aligned for every page size used.
fn translation_for(vpn: u64, size: PageSize) -> PageTranslation {
    PageTranslation::new(Vpn::new(vpn), Pfn::new(vpn + (1 << 20)), size)
}

/// The fixed pool the range target inserts from: 8 disjoint 16 MiB ranges,
/// 32 MiB apart, mapped to distinct physical gigabytes.
fn range_pool(index: usize) -> RangeTranslation {
    assert!(index < 8, "range pool has 8 entries");
    let i = index as u64;
    RangeTranslation::new(
        VirtRange::new(VirtAddr::new(i * (32 << 20)), 16 << 20),
        PhysAddr::new((i + 1) << 30),
    )
}

/// Groups in the CoLT target's universe: 32 groups over a 16-entry 2-way
/// structure, so sets see eviction pressure and groups alias.
const COLT_GROUPS: u64 = 32;

/// The derived base frame of a CoLT group insert. The alternate base is a
/// different physical run for the same group, exercising the
/// replace-on-different-base path.
fn colt_base(group: u64, alt_base: bool) -> Pfn {
    Pfn::new(group + (1 << 20) + if alt_base { 1 << 22 } else { 0 })
}

/// The fixed page table of the MMU target: a 4 KiB cluster, pages one
/// gigabyte apart, a 2 MiB run, and a 1 GiB page — so walks exercise every
/// terminal level and every paging-structure cache.
fn mmu_mappings() -> Vec<PageTranslation> {
    let mut m = Vec::new();
    for vpn in 0..16 {
        m.push(translation_for(vpn, PageSize::Size4K));
    }
    for gb in 1..4u64 {
        m.push(translation_for(gb * 262_144, PageSize::Size4K));
    }
    for region in 8..16u64 {
        m.push(translation_for(region * 512, PageSize::Size2M));
    }
    m.push(translation_for(8 * 262_144, PageSize::Size1G));
    m
}

/// The fixed guest table of the nested target (gVA → gPA): a 4 KiB
/// cluster, 2 MiB runs, a 1 GiB page, and one page whose data frame has no
/// EPT backing — so walks exercise every guest terminal level plus the
/// host-fault path.
fn nested_guest_mappings() -> Vec<PageTranslation> {
    let mut m = Vec::new();
    // 4 KiB cluster: data gPAs in the 8 GiB region (EPT-backed at 2 MiB).
    for vpn in 0..16 {
        m.push(PageTranslation::new(
            Vpn::new(vpn),
            Pfn::new((1 << 21) + vpn),
            PageSize::Size4K,
        ));
    }
    // 2 MiB runs, gPA-contiguous after the cluster's EPT region.
    for region in 8..12u64 {
        m.push(PageTranslation::new(
            Vpn::new(region * 512),
            Pfn::new((1 << 21) + region * 512),
            PageSize::Size2M,
        ));
    }
    // A 1 GiB guest page backed by a 1 GiB EPT entry.
    m.push(PageTranslation::new(
        Vpn::new(8 * 262_144),
        Pfn::new(1 << 23),
        PageSize::Size1G,
    ));
    // Data frame outside every EPT entry: the host-fault path.
    m.push(PageTranslation::new(
        Vpn::new(64),
        Pfn::new(3 << 21),
        PageSize::Size4K,
    ));
    m
}

/// The fixed EPT of the nested target (gPA → hPA): a 2 MiB entry under the
/// 4 KiB cluster, 2 MiB entries under the guest runs, and a 1 GiB entry
/// under the guest's 1 GiB page. The `3 << 21` data region is deliberately
/// unmapped.
fn nested_ept_mappings() -> Vec<PageTranslation> {
    let mut m = vec![PageTranslation::new(
        Vpn::new(1 << 21),
        Pfn::new(1 << 22),
        PageSize::Size2M,
    )];
    for region in 8..12u64 {
        m.push(PageTranslation::new(
            Vpn::new((1 << 21) + region * 512),
            Pfn::new((1 << 22) + region * 512),
            PageSize::Size2M,
        ));
    }
    m.push(PageTranslation::new(
        Vpn::new(1 << 23),
        Pfn::new(1 << 24),
        PageSize::Size1G,
    ));
    m
}

// ---------------------------------------------------------------------------
// Sequence generation
// ---------------------------------------------------------------------------

fn gen_page_va(rng: &mut SmallRng) -> (u64, PageSize) {
    if rng.random_range(0..4u64) < 3 {
        let vpn = rng.random_range(0..128u64);
        (vpn * KB4 + rng.random_range(0..KB4), PageSize::Size4K)
    } else {
        let region = rng.random_range(8..20u64);
        (region * MB2 + rng.random_range(0..MB2), PageSize::Size2M)
    }
}

fn gen_set_assoc(rng: &mut SmallRng, steps: usize) -> Vec<Op> {
    (0..steps)
        .map(|_| match rng.random_range(0..100u64) {
            0..35 => {
                let (va, size) = gen_page_va(rng);
                Op::Lookup { va, size }
            }
            35..70 => {
                if rng.random_range(0..10u64) < 7 {
                    Op::Insert {
                        vpn: rng.random_range(0..96u64),
                        size: PageSize::Size4K,
                    }
                } else {
                    Op::Insert {
                        vpn: rng.random_range(8..16u64) * 512,
                        size: PageSize::Size2M,
                    }
                }
            }
            70..78 => Op::Invalidate {
                va: gen_page_va(rng).0,
            },
            78..84 => Op::InvalidateRange {
                start: rng.random_range(0..12_288u64) * KB4,
                len: (1 + rng.random_range(0..2048u64)) * KB4,
            },
            84..92 => Op::Resize {
                ways: 1 << rng.random_range(0..3u64),
            },
            92..96 => Op::Flush,
            _ => {
                let (va, size) = gen_page_va(rng);
                Op::Lookup { va, size }
            }
        })
        .collect()
}

fn gen_fa_va(rng: &mut SmallRng) -> (u64, PageSize) {
    if rng.random_range(0..4u64) < 3 {
        let vpn = rng.random_range(0..16u64);
        (vpn * KB4 + rng.random_range(0..KB4), PageSize::Size4K)
    } else {
        let region = rng.random_range(8..12u64);
        (region * MB2 + rng.random_range(0..MB2), PageSize::Size2M)
    }
}

fn gen_fully_assoc(rng: &mut SmallRng, steps: usize) -> Vec<Op> {
    (0..steps)
        .map(|_| match rng.random_range(0..100u64) {
            0..25 => Op::LookupAny {
                va: gen_fa_va(rng).0,
            },
            25..40 => {
                let (va, size) = gen_fa_va(rng);
                Op::Lookup { va, size }
            }
            40..70 => {
                if rng.random_range(0..10u64) < 7 {
                    Op::Insert {
                        vpn: rng.random_range(0..12u64),
                        size: PageSize::Size4K,
                    }
                } else {
                    Op::Insert {
                        vpn: rng.random_range(8..12u64) * 512,
                        size: PageSize::Size2M,
                    }
                }
            }
            70..78 => Op::Invalidate {
                va: gen_fa_va(rng).0,
            },
            78..83 => Op::InvalidateRange {
                start: rng.random_range(0..6144u64) * KB4,
                len: (1 + rng.random_range(0..1024u64)) * KB4,
            },
            83..91 => Op::Resize {
                ways: 1 << rng.random_range(0..4u64),
            },
            91..95 => Op::Flush,
            _ => Op::LookupAny {
                va: gen_fa_va(rng).0,
            },
        })
        .collect()
}

fn gen_range(rng: &mut SmallRng, steps: usize) -> Vec<Op> {
    let span = 256u64 << 20;
    (0..steps)
        .map(|_| match rng.random_range(0..100u64) {
            0..45 => Op::LookupAny {
                va: rng.random_range(0..span),
            },
            45..80 => Op::InsertRange {
                index: rng.random_range(0..8usize),
            },
            80..88 => Op::Invalidate {
                va: rng.random_range(0..span),
            },
            88..93 => Op::InvalidateRange {
                start: rng.random_range(0..span / KB4) * KB4,
                len: (1 + rng.random_range(0..8192u64)) * KB4,
            },
            93..97 => Op::Flush,
            _ => Op::LookupAny {
                va: rng.random_range(0..span),
            },
        })
        .collect()
}

fn gen_mmu_va(rng: &mut SmallRng) -> u64 {
    match rng.random_range(0..6u64) {
        // The 4 KiB cluster.
        0 => rng.random_range(0..16u64) * KB4 + rng.random_range(0..KB4),
        // The 2 MiB run.
        1 => (8 + rng.random_range(0..8u64)) * MB2 + rng.random_range(0..MB2),
        // Gigabyte-spaced 4 KiB pages.
        2 => (rng.random_range(1..4u64) << 30) + rng.random_range(0..KB4),
        // Inside the 1 GiB page at 8 GiB.
        3 => (8u64 << 30) + rng.random_range(0..(1u64 << 30)),
        // Unmapped: the 10–16 MiB hole and an untouched gigabyte.
        4 => (10u64 << 20) + rng.random_range(0..(6u64 << 20)),
        _ => (5u64 << 30) + rng.random_range(0..(1u64 << 30)),
    }
}

fn gen_mmu(rng: &mut SmallRng, steps: usize) -> Vec<Op> {
    (0..steps)
        .map(|_| match rng.random_range(0..100u64) {
            0..80 => Op::Walk {
                va: gen_mmu_va(rng),
            },
            80..95 => Op::Invalidate {
                va: gen_mmu_va(rng),
            },
            _ => Op::Flush,
        })
        .collect()
}

fn gen_nested_gva(rng: &mut SmallRng) -> u64 {
    match rng.random_range(0..7u64) {
        // The 4 KiB cluster.
        0 => rng.random_range(0..16u64) * KB4 + rng.random_range(0..KB4),
        // The 2 MiB runs.
        1 => (8 + rng.random_range(0..4u64)) * MB2 + rng.random_range(0..MB2),
        // Inside the 1 GiB page at 8 GiB.
        2 => (8u64 << 30) + rng.random_range(0..(1u64 << 30)),
        // The EPT-hole page.
        3 => 64 * KB4 + rng.random_range(0..KB4),
        // Unmapped guest holes.
        4 => (10u64 << 20) + rng.random_range(0..(6u64 << 20)),
        5 => (5u64 << 30) + rng.random_range(0..(1u64 << 30)),
        _ => rng.random_range(0..16u64) * KB4 + rng.random_range(0..KB4),
    }
}

fn gen_nested_gpa(rng: &mut SmallRng) -> u64 {
    match rng.random_range(0..4u64) {
        // Data gPAs of the 4 KiB cluster / 2 MiB runs.
        0 => ((1u64 << 21) + rng.random_range(0..16u64)) * KB4,
        1 => {
            ((1u64 << 21) + (8 + rng.random_range(0..4u64)) * 512) * KB4 + rng.random_range(0..MB2)
        }
        // Inside the 1 GiB host mapping.
        2 => (1u64 << 23) * KB4 + rng.random_range(0..(1u64 << 30)),
        // A synthesized structure-page gPA (combined-entry shootdown).
        _ => {
            let level = 1 + rng.random_range(0..4u64) as u32;
            let gva = VirtAddr::new(gen_nested_gva(rng));
            ((u64::from(level) << 45) | (gva.raw() >> (12 + 9 * level))) << 12
        }
    }
}

fn gen_nested(rng: &mut SmallRng, steps: usize) -> Vec<Op> {
    (0..steps)
        .map(|_| match rng.random_range(0..100u64) {
            0..70 => Op::Walk {
                va: gen_nested_gva(rng),
            },
            70..84 => Op::Invalidate {
                va: gen_nested_gva(rng),
            },
            84..96 => Op::InvalidateHost {
                gpa: gen_nested_gpa(rng),
            },
            _ => Op::Flush,
        })
        .collect()
}

fn gen_lite(rng: &mut SmallRng, steps: usize) -> Vec<Op> {
    let relative = rng.random_bool(0.5);
    let mut ops = vec![Op::LiteConfig {
        relative,
        eps: if relative { 0.125 } else { 0.1 },
        prob: [0.0, 0.25, 1.0][rng.random_range(0..3usize)],
        floor: [0.0, 0.5][rng.random_range(0..2usize)],
        seed: rng.next_u64(),
    }];
    ops.extend((0..steps).map(|_| match rng.random_range(0..100u64) {
        0..55 => Op::LiteHit {
            monitor: rng.random_range(0..2usize),
            rank: rng.random_range(0..4u64) as u8,
        },
        55..85 => Op::LiteMiss,
        _ => Op::EndInterval {
            extra: rng.random_range(0..500u64),
        },
    }));
    ops
}

fn gen_colt(rng: &mut SmallRng, steps: usize) -> Vec<Op> {
    let span = COLT_GROUPS * eeat_tlb::COLT_GROUP as u64 * KB4;
    (0..steps)
        .map(|_| match rng.random_range(0..100u64) {
            0..35 => Op::LookupAny {
                va: rng.random_range(0..span),
            },
            35..70 => Op::InsertGroup {
                group: rng.random_range(0..COLT_GROUPS) * eeat_tlb::COLT_GROUP as u64,
                mask: rng.random_range(1..256u64) as u8,
                alt_base: rng.random_range(0..6u64) == 0,
            },
            70..80 => Op::Invalidate {
                va: rng.random_range(0..span),
            },
            80..87 => Op::InvalidateRange {
                start: rng.random_range(0..span / KB4) * KB4,
                len: (1 + rng.random_range(0..64u64)) * KB4,
            },
            87..92 => Op::Flush,
            _ => Op::LookupAny {
                va: rng.random_range(0..span),
            },
        })
        .collect()
}

/// Cores in the multicore target's universe. Two is the smallest count
/// with a remote side to shoot down.
const MC_CORES: usize = 2;

/// ASIDs in play per core: three tenants sharing one virtual-address
/// universe, so the same VA is routinely cached under several lanes.
const MC_ASIDS: u16 = 3;

/// 4 KiB VPNs of the multicore universe (the 2 MiB regions are 8..12, as
/// in the fully associative target).
const MC_VPNS_4K: u64 = 48;

/// The derived frame of a multicore insert: distinct per (VPN, ASID), so
/// an ASID mix-up returns a visibly wrong frame instead of merely
/// corrupting lane bookkeeping.
fn mc_translation(vpn: u64, size: PageSize, asid: u16) -> PageTranslation {
    PageTranslation::new(
        Vpn::new(vpn),
        Pfn::new(vpn + (1 << 20) + ((asid as u64) << 24)),
        size,
    )
}

fn gen_mc_va(rng: &mut SmallRng) -> (u64, PageSize) {
    if rng.random_range(0..4u64) < 3 {
        let vpn = rng.random_range(0..MC_VPNS_4K);
        (vpn * KB4 + rng.random_range(0..KB4), PageSize::Size4K)
    } else {
        let region = rng.random_range(8..12u64);
        (region * MB2 + rng.random_range(0..MB2), PageSize::Size2M)
    }
}

fn gen_multicore(rng: &mut SmallRng, steps: usize) -> Vec<Op> {
    let core = |rng: &mut SmallRng| rng.random_range(0..MC_CORES as u64) as usize;
    let asid = |rng: &mut SmallRng| rng.random_range(0..MC_ASIDS as u64) as u16;
    (0..steps)
        .map(|_| match rng.random_range(0..100u64) {
            0..28 => {
                let (va, size) = gen_mc_va(rng);
                Op::LookupAt {
                    core: core(rng),
                    va,
                    size,
                }
            }
            28..52 => {
                let (vpn, size) = if rng.random_range(0..10u64) < 7 {
                    (rng.random_range(0..MC_VPNS_4K), PageSize::Size4K)
                } else {
                    (rng.random_range(8..12u64) * 512, PageSize::Size2M)
                };
                Op::InsertAt {
                    core: core(rng),
                    vpn,
                    size,
                    global: rng.random_range(0..8u64) == 0,
                }
            }
            52..60 => Op::SwitchAsid {
                core: core(rng),
                asid: asid(rng),
            },
            60..70 => Op::ShootdownVa {
                core: core(rng),
                va: gen_mc_va(rng).0,
            },
            70..80 => Op::DeliverIpi { core: core(rng) },
            80..85 => Op::FlushAsid {
                core: core(rng),
                asid: asid(rng),
            },
            85..90 => Op::InvalidateRangeAsid {
                core: core(rng),
                asid: asid(rng),
                start: rng.random_range(0..6144u64) * KB4,
                len: (1 + rng.random_range(0..2048u64)) * KB4,
            },
            90..95 => Op::ResizeAt {
                core: core(rng),
                ways: 1 << rng.random_range(0..3u64),
            },
            _ => {
                let (va, size) = gen_mc_va(rng);
                Op::LookupAt {
                    core: core(rng),
                    va,
                    size,
                }
            }
        })
        .collect()
}

fn gen_ops(target: Target, seed: u64, steps: usize) -> Vec<Op> {
    let mut rng = SmallRng::seed_from_u64(seed);
    match target {
        Target::SetAssoc => gen_set_assoc(&mut rng, steps),
        Target::FullyAssoc => gen_fully_assoc(&mut rng, steps),
        Target::Range => gen_range(&mut rng, steps),
        Target::Mmu => gen_mmu(&mut rng, steps),
        Target::Lite => gen_lite(&mut rng, steps),
        Target::Colt => gen_colt(&mut rng, steps),
        Target::Multicore => gen_multicore(&mut rng, steps),
        Target::Nested => gen_nested(&mut rng, steps),
    }
}

// ---------------------------------------------------------------------------
// Differential execution
// ---------------------------------------------------------------------------

fn check(cond: bool, detail: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(detail())
    }
}

fn check_stats(oracle: &TlbStats, prod: &TlbStats, what: &str) -> Result<(), String> {
    check(oracle == prod, || {
        format!("{what} stats diverged: oracle {oracle:?} vs production {prod:?}")
    })
}

/// The one check every invalidation op ends with: both sides removed the
/// same number of entries.
fn check_removed(prod: u64, oracle: u64, scope: Invalidate) -> Result<(), String> {
    check(prod == oracle, || {
        format!("{scope:?} removed prod {prod} vs oracle {oracle}")
    })
}

fn sa_probe_sweep(
    prod: &SetAssocTlb,
    oracle: &OraclePageTlb,
    vpns_4k: u64,
    regions_2m: std::ops::Range<u64>,
) -> Result<(), String> {
    for vpn in 0..vpns_4k {
        let va = VirtAddr::new(vpn * KB4);
        check(
            prod.probe(va, PageSize::Size4K) == oracle.probe(va, PageSize::Size4K),
            || format!("contents diverged at 4K vpn {vpn}"),
        )?;
    }
    for region in regions_2m.clone() {
        let va = VirtAddr::new(region * MB2);
        check(
            prod.probe(va, PageSize::Size2M) == oracle.probe(va, PageSize::Size2M),
            || format!("contents diverged at 2M region {region}"),
        )?;
    }
    // Page-size disjointness, checked in every build: the generators keep
    // the 4 KiB and 2 MiB insert universes address-disjoint, so no VA may
    // ever be covered by entries of both size classes — a double hit means
    // a lookup matched a tag of the wrong size class (the invariant the L1
    // probe stage's all-build asserts rely on).
    for va in (0..vpns_4k)
        .map(|vpn| vpn * KB4)
        .chain(regions_2m.map(|region| region * MB2))
    {
        let va = VirtAddr::new(va);
        check(
            prod.probe(va, PageSize::Size4K).is_none()
                || prod.probe(va, PageSize::Size2M).is_none(),
            || format!("size classes overlap at va {:#x}", va.raw()),
        )?;
    }
    Ok(())
}

fn occupancy_check(prod: usize, oracle: usize) -> Result<(), String> {
    check(prod == oracle, || {
        format!("occupancy diverged: prod {prod} vs oracle {oracle}")
    })
}

fn sa_step(prod: &mut SetAssocTlb, oracle: &mut OraclePageTlb, op: Op) -> Result<(), String> {
    match op {
        _ if let Some(scope) = op.scope() => {
            check_removed(prod.invalidate(scope), oracle.invalidate(scope), scope)?;
        }
        Op::Lookup { va, size } => {
            let va = VirtAddr::new(va);
            let p = prod
                .lookup_for_size(va, size)
                .map(|h| (h.translation, h.rank));
            let o = oracle.lookup_for_size(va, size);
            check(p == o, || {
                format!("lookup diverged: prod {p:?} vs oracle {o:?}")
            })?;
        }
        Op::Insert { vpn, size } => {
            let t = translation_for(vpn, size);
            prod.insert(t);
            oracle.insert(t);
        }
        Op::Resize { ways } => {
            prod.set_active_ways(ways);
            oracle.set_active_ways(ways);
        }
        other => panic!("op {other:?} not applicable to set_assoc"),
    }
    prod.assert_invariants();
    check_stats(&oracle.stats, prod.stats(), "set_assoc")?;
    occupancy_check(prod.occupancy(), oracle.occupancy())?;
    sa_probe_sweep(prod, oracle, 128, 8..20)
}

fn fa_step(prod: &mut FullyAssocTlb, oracle: &mut OraclePageTlb, op: Op) -> Result<(), String> {
    match op {
        _ if let Some(scope) = op.scope() => {
            check_removed(prod.invalidate(scope), oracle.invalidate(scope), scope)?;
        }
        Op::Lookup { va, size } => {
            let va = VirtAddr::new(va);
            let p = prod
                .lookup_for_size(va, size)
                .map(|h| (h.translation, h.rank));
            let o = oracle.lookup_for_size(va, size);
            check(p == o, || {
                format!("lookup diverged: prod {p:?} vs oracle {o:?}")
            })?;
        }
        Op::LookupAny { va } => {
            let va = VirtAddr::new(va);
            let p = prod.lookup_any_size(va).map(|h| (h.translation, h.rank));
            let o = oracle.lookup_any_size(va);
            check(p == o, || {
                format!("lookup_any diverged: prod {p:?} vs oracle {o:?}")
            })?;
        }
        Op::Insert { vpn, size } => {
            let t = translation_for(vpn, size);
            prod.insert(t);
            oracle.insert(t);
        }
        Op::Resize { ways } => {
            prod.set_active_entries(ways);
            oracle.set_active_ways(ways);
        }
        other => panic!("op {other:?} not applicable to fully_assoc"),
    }
    prod.assert_invariants();
    check_stats(&oracle.stats, prod.stats(), "fully_assoc")?;
    occupancy_check(prod.occupancy(), oracle.occupancy())?;
    for vpn in 0..16u64 {
        let va = VirtAddr::new(vpn * KB4);
        check(
            prod.probe(va, PageSize::Size4K) == oracle.probe(va, PageSize::Size4K),
            || format!("contents diverged at 4K vpn {vpn}"),
        )?;
    }
    for region in 8..12u64 {
        let va = VirtAddr::new(region * MB2);
        check(
            prod.probe(va, PageSize::Size2M) == oracle.probe(va, PageSize::Size2M),
            || format!("contents diverged at 2M region {region}"),
        )?;
    }
    Ok(())
}

fn range_step(prod: &mut RangeTlb, oracle: &mut OracleRangeTlb, op: Op) -> Result<(), String> {
    match op {
        _ if let Some(scope) = op.scope() => {
            check_removed(prod.invalidate(scope), oracle.invalidate(scope), scope)?;
        }
        Op::LookupAny { va } => {
            let va = VirtAddr::new(va);
            let p = prod.lookup(va);
            let o = oracle.lookup(va);
            check(p == o, || {
                format!("lookup diverged: prod {p:?} vs oracle {o:?}")
            })?;
        }
        Op::InsertRange { index } => {
            let rt = range_pool(index);
            prod.insert(rt);
            oracle.insert(rt);
        }
        other => panic!("op {other:?} not applicable to range"),
    }
    // Translation consistency: overlapping resident ranges must agree.
    oracle.assert_invariants();
    check_stats(&oracle.stats, prod.stats(), "range")?;
    occupancy_check(prod.occupancy(), oracle.occupancy())?;
    for i in 0..8u64 {
        for off in [0, 8 << 20, (16 << 20) - KB4, 24 << 20] {
            let va = VirtAddr::new(i * (32 << 20) + off);
            check(prod.probe(va) == oracle.probe(va), || {
                format!("contents diverged at range {i} offset {off:#x}")
            })?;
        }
    }
    Ok(())
}

fn colt_step(prod: &mut CoalescedTlb, oracle: &mut OracleColtTlb, op: Op) -> Result<(), String> {
    match op {
        _ if let Some(scope) = op.scope() => {
            check_removed(prod.invalidate(scope), oracle.invalidate(scope), scope)?;
        }
        Op::LookupAny { va } => {
            let va = VirtAddr::new(va);
            let p = prod.lookup(va).map(|h| (h.translation, h.rank));
            let o = oracle.lookup(va);
            check(p == o, || {
                format!("lookup diverged: prod {p:?} vs oracle {o:?}")
            })?;
        }
        Op::InsertGroup {
            group,
            mask,
            alt_base,
        } => {
            let base = colt_base(group, alt_base);
            prod.insert_group(Vpn::new(group), base, mask);
            oracle.insert_group(Vpn::new(group), base, mask);
        }
        other => panic!("op {other:?} not applicable to colt"),
    }
    // Both sides check that no VA is resident with two translations.
    prod.assert_invariants();
    oracle.assert_invariants();
    check_stats(&oracle.stats, prod.stats(), "colt")?;
    occupancy_check(prod.occupancy(), oracle.occupancy())?;
    check(prod.coverage_pages() == oracle.coverage_pages(), || {
        format!(
            "coverage diverged: prod {} vs oracle {}",
            prod.coverage_pages(),
            oracle.coverage_pages()
        )
    })?;
    for vpn in 0..COLT_GROUPS * eeat_tlb::COLT_GROUP as u64 {
        let va = VirtAddr::new(vpn * KB4);
        check(prod.probe(va) == oracle.probe(va), || {
            format!("contents diverged at vpn {vpn}")
        })?;
    }
    Ok(())
}

struct MmuHarness {
    table: PageTable,
    prod: PageWalker,
    oracle: OracleWalker,
}

impl MmuHarness {
    fn new() -> Self {
        let mut table = PageTable::new();
        for t in mmu_mappings() {
            table.map(t).expect("fixed mappings are disjoint");
        }
        Self {
            table,
            prod: PageWalker::new(MmuCaches::sandy_bridge()),
            oracle: OracleWalker::new(mmu_mappings()),
        }
    }

    fn step(&mut self, op: Op) -> Result<(), String> {
        match op {
            Op::Walk { va } => {
                let va = VirtAddr::new(va);
                let r = self.prod.walk(&self.table, va);
                let (ot, orefs) = self.oracle.walk(va);
                check(r.translation == ot, || {
                    format!(
                        "walk translation diverged: prod {:?} vs oracle {ot:?}",
                        r.translation
                    )
                })?;
                check(r.memory_refs == orefs, || {
                    format!(
                        "walk refs diverged: prod {} vs oracle {orefs}",
                        r.memory_refs
                    )
                })?;
            }
            Op::Invalidate { va } => {
                let va = VirtAddr::new(va);
                let p = self.prod.caches_mut().invalidate(va);
                let o = self.oracle.caches.invalidate(va);
                check(p == o, || {
                    format!("invalidate removed prod {p} vs oracle {o}")
                })?;
            }
            Op::Flush => {
                self.prod.caches_mut().flush();
                self.oracle.caches.flush();
            }
            other => panic!("op {other:?} not applicable to mmu"),
        }
        let prod = self.prod.caches();
        let oracle = &self.oracle.caches;
        let pairs = [
            ("pde", prod.pde(), &oracle.pde),
            ("pdpte", prod.pdpte(), &oracle.pdpte),
            ("pml4", prod.pml4(), &oracle.pml4),
        ];
        for (name, p, o) in pairs {
            check_stats(&o.stats, p.stats(), name)?;
            occupancy_check(p.occupancy(), o.occupancy())?;
        }
        Ok(())
    }
}

struct NestedHarness {
    guest_table: PageTable,
    ept: PageTable,
    prod: NestedWalker,
    oracle: OracleNestedWalker,
}

impl NestedHarness {
    fn new() -> Self {
        let mut guest_table = PageTable::new();
        for t in nested_guest_mappings() {
            guest_table
                .map(t)
                .expect("fixed guest mappings are disjoint");
        }
        let mut ept = PageTable::new();
        for t in nested_ept_mappings() {
            ept.map(t).expect("fixed EPT mappings are disjoint");
        }
        Self {
            guest_table,
            ept,
            prod: NestedWalker::sandy_bridge(),
            oracle: OracleNestedWalker::new(nested_guest_mappings(), nested_ept_mappings()),
        }
    }

    fn step(&mut self, op: Op) -> Result<(), String> {
        match op {
            Op::Walk { va } => {
                let gva = VirtAddr::new(va);
                let r = self.prod.walk(&self.guest_table, &self.ept, gva);
                let o = self.oracle.walk(gva);
                check(r.translation == o.translation, || {
                    format!(
                        "guest translation diverged: prod {:?} vs oracle {:?}",
                        r.translation, o.translation
                    )
                })?;
                check(r.host_translation == o.host_translation, || {
                    format!(
                        "host translation diverged: prod {:?} vs oracle {:?}",
                        r.host_translation, o.host_translation
                    )
                })?;
                check(
                    (r.memory_refs, r.guest_refs, r.host_refs)
                        == (o.memory_refs, o.guest_refs, o.host_refs),
                    || {
                        format!(
                            "refs diverged: prod {}={}g+{}h vs oracle {}={}g+{}h",
                            r.memory_refs,
                            r.guest_refs,
                            r.host_refs,
                            o.memory_refs,
                            o.guest_refs,
                            o.host_refs
                        )
                    },
                )?;
                check(r.guest_hit_level == o.guest_hit_level, || {
                    format!(
                        "guest hit level diverged: prod {:?} vs oracle {:?}",
                        r.guest_hit_level, o.guest_hit_level
                    )
                })?;
                check(r.nested_tlb_hits == o.nested_tlb_hits, || {
                    format!(
                        "nested-TLB hits diverged: prod {} vs oracle {}",
                        r.nested_tlb_hits, o.nested_tlb_hits
                    )
                })?;
            }
            Op::Invalidate { va } => {
                // A guest-side shootdown: the caller supplies the old data
                // gPN when it knows it, exactly as the simulator derives it
                // from the guest table before unmapping.
                let gva = VirtAddr::new(va);
                let data_gpn = self
                    .guest_table
                    .translate(gva)
                    .map(|t| t.translate(gva).raw() >> 12);
                let oracle_gpn = self
                    .oracle
                    .guest
                    .translate(gva)
                    .map(|t| t.translate(gva).raw() >> 12);
                check(data_gpn == oracle_gpn, || {
                    format!("data gPN diverged: prod {data_gpn:?} vs oracle {oracle_gpn:?}")
                })?;
                let p = self.prod.invalidate_guest(gva, data_gpn);
                let o = self.oracle.invalidate_guest(gva, oracle_gpn);
                check(p == o, || {
                    format!("guest invalidate removed prod {p} vs oracle {o}")
                })?;
            }
            Op::InvalidateHost { gpa } => {
                let gpa = VirtAddr::new(gpa);
                let p = self.prod.invalidate_host(gpa);
                let o = self.oracle.invalidate_host(gpa);
                check(p == o, || {
                    format!("host invalidate removed prod {p} vs oracle {o}")
                })?;
            }
            Op::Flush => {
                self.prod.flush();
                self.oracle.flush();
            }
            other => panic!("op {other:?} not applicable to nested"),
        }
        let pg = self.prod.guest_caches();
        let ph = self.prod.host_caches();
        let og = &self.oracle.guest.caches;
        let oh = &self.oracle.host.caches;
        let pairs = [
            ("guest pde", pg.pde(), &og.pde),
            ("guest pdpte", pg.pdpte(), &og.pdpte),
            ("guest pml4", pg.pml4(), &og.pml4),
            ("host pde", ph.pde(), &oh.pde),
            ("host pdpte", ph.pdpte(), &oh.pdpte),
            ("host pml4", ph.pml4(), &oh.pml4),
            (
                "nested tlb",
                self.prod.nested_tlb(),
                &self.oracle.nested_tlb,
            ),
        ];
        for (name, p, o) in pairs {
            check_stats(&o.stats, p.stats(), name)?;
            occupancy_check(p.occupancy(), o.occupancy())?;
        }
        Ok(())
    }
}

const LITE_MONITORS: [usize; 2] = [4, 4];

struct LiteHarness {
    prod: LiteController,
    oracle: OracleLite,
    interval: u64,
    clock: u64,
}

impl LiteHarness {
    fn new(params: LiteParams, seed: u64) -> Self {
        Self {
            prod: LiteController::new(params, &LITE_MONITORS, seed),
            oracle: OracleLite::new(params, &LITE_MONITORS, seed),
            interval: params.interval_instructions,
            clock: 0,
        }
    }

    fn default() -> Self {
        Self::new(
            LiteParams {
                interval_instructions: 1000,
                epsilon: ThresholdEpsilon::Relative(0.125),
                reactivation_prob: 0.0,
                degradation_floor_mpki: 0.0,
            },
            1,
        )
    }

    fn step(&mut self, op: Op) -> Result<(), String> {
        match op {
            Op::LiteConfig {
                relative,
                eps,
                prob,
                floor,
                seed,
            } => {
                let params = LiteParams {
                    interval_instructions: 1000,
                    epsilon: if relative {
                        ThresholdEpsilon::Relative(eps)
                    } else {
                        ThresholdEpsilon::Absolute(eps)
                    },
                    reactivation_prob: prob,
                    degradation_floor_mpki: floor,
                };
                *self = Self::new(params, seed);
            }
            Op::LiteHit { monitor, rank } => {
                self.prod.record_hit(monitor, rank);
                self.oracle.record_hit(monitor, rank);
            }
            Op::LiteMiss => {
                self.prod.record_l1_miss();
                self.oracle.record_l1_miss();
            }
            Op::EndInterval { extra } => {
                self.clock += self.interval + extra;
                let p = self.prod.end_interval(self.clock);
                let o = self.oracle.end_interval(self.clock);
                check(p == o, || {
                    format!("decision diverged: prod {p:?} vs oracle {o:?}")
                })?;
                for idx in 0..LITE_MONITORS.len() {
                    check(
                        self.prod.current_ways(idx) == self.oracle.current_ways(idx),
                        || {
                            format!(
                                "current_ways[{idx}] diverged: prod {} vs oracle {}",
                                self.prod.current_ways(idx),
                                self.oracle.current_ways(idx)
                            )
                        },
                    )?;
                }
                check(
                    self.prod.intervals() == self.oracle.intervals()
                        && self.prod.random_reactivations() == self.oracle.random_reactivations()
                        && self.prod.degradation_reactivations()
                            == self.oracle.degradation_reactivations(),
                    || {
                        format!(
                            "counters diverged: prod {}/{}/{} vs oracle {}/{}/{}",
                            self.prod.intervals(),
                            self.prod.random_reactivations(),
                            self.prod.degradation_reactivations(),
                            self.oracle.intervals(),
                            self.oracle.random_reactivations(),
                            self.oracle.degradation_reactivations()
                        )
                    },
                )?;
            }
            other => panic!("op {other:?} not applicable to lite"),
        }
        Ok(())
    }
}

/// One pending cross-core shootdown: a total-order sequence number plus
/// the (ASID, VA) to invalidate on delivery.
struct McIpi {
    seq: u64,
    asid: u16,
    va: u64,
}

/// The multicore harness: [`MC_CORES`] ASID-tagged production TLBs and
/// their oracle models, plus per-core FIFO queues of seq-numbered
/// shootdown IPIs. A shootdown invalidates the initiator immediately and
/// fans out to every other core's queue; `DeliverIpi` drains one message,
/// checking that deliveries observe the global sequence order and that
/// production and oracle agree on how many entries each delivery kills
/// (the shootdown-vs-refill race: a refill between send and delivery
/// resurrects the page, and the delivery must kill it again).
struct MulticoreHarness {
    prod: Vec<SetAssocTlb>,
    oracle: Vec<OraclePageTlb>,
    queues: Vec<VecDeque<McIpi>>,
    delivered_seq: Vec<u64>,
    next_seq: u64,
}

impl MulticoreHarness {
    fn new() -> Self {
        Self {
            prod: (0..MC_CORES)
                .map(|_| SetAssocTlb::new("fuzz-mc", 64, 4, PageSize::Size4K))
                .collect(),
            oracle: (0..MC_CORES).map(|_| OraclePageTlb::new(64, 4)).collect(),
            queues: (0..MC_CORES).map(|_| VecDeque::new()).collect(),
            delivered_seq: vec![0; MC_CORES],
            next_seq: 1,
        }
    }

    /// The core and scope an invalidation op reaches, after its IPI
    /// bookkeeping. A shootdown of `va` under the initiator's current ASID
    /// also queues a seq-numbered IPI against every other core; a delivery
    /// drains the oldest IPI queued against its core, checking that
    /// deliveries follow the global sequence order, and reaches nothing
    /// when that queue is empty.
    fn invalidation(&mut self, op: Op) -> Result<Option<(usize, Invalidate)>, String> {
        let page = |va, asid| Invalidate::Page {
            va: VirtAddr::new(va),
            asid: Some(asid),
        };
        Ok(Some(match op {
            Op::ShootdownVa { core, va } => {
                let asid = self.prod[core].current_asid();
                for other in (0..MC_CORES).filter(|&other| other != core) {
                    self.queues[other].push_back(McIpi {
                        seq: self.next_seq,
                        asid,
                        va,
                    });
                    self.next_seq += 1;
                }
                (core, page(va, asid))
            }
            Op::DeliverIpi { core } => {
                let Some(ipi) = self.queues[core].pop_front() else {
                    return Ok(None);
                };
                check(ipi.seq > self.delivered_seq[core], || {
                    format!(
                        "core {core} delivered IPI seq {} after seq {}",
                        ipi.seq, self.delivered_seq[core]
                    )
                })?;
                self.delivered_seq[core] = ipi.seq;
                (core, page(ipi.va, ipi.asid))
            }
            Op::FlushAsid { core, asid } => (core, Invalidate::Asid(asid)),
            Op::InvalidateRangeAsid {
                core,
                asid,
                start,
                len,
            } => (
                core,
                Invalidate::Range {
                    range: VirtRange::new(VirtAddr::new(start), len),
                    asid: Some(asid),
                },
            ),
            other => unreachable!("{other:?} is not a multicore invalidation"),
        }))
    }

    fn step(&mut self, op: Op) -> Result<(), String> {
        match op {
            Op::SwitchAsid { core, asid } => {
                self.prod[core].set_current_asid(asid);
                self.oracle[core].set_current_asid(asid);
            }
            Op::InsertAt {
                core,
                vpn,
                size,
                global,
            } => {
                let t = mc_translation(vpn, size, self.prod[core].current_asid());
                if global {
                    self.prod[core].insert_global(t);
                    self.oracle[core].insert_global(t);
                } else {
                    self.prod[core].insert(t);
                    self.oracle[core].insert(t);
                }
            }
            Op::LookupAt { core, va, size } => {
                let va = VirtAddr::new(va);
                let p = self.prod[core]
                    .lookup_for_size(va, size)
                    .map(|h| (h.translation, h.rank));
                let o = self.oracle[core].lookup_for_size(va, size);
                check(p == o, || {
                    format!("core {core} lookup diverged: prod {p:?} vs oracle {o:?}")
                })?;
            }
            Op::ResizeAt { core, ways } => {
                self.prod[core].set_active_ways(ways);
                self.oracle[core].set_active_ways(ways);
            }
            Op::ShootdownVa { .. }
            | Op::DeliverIpi { .. }
            | Op::FlushAsid { .. }
            | Op::InvalidateRangeAsid { .. } => {
                if let Some((core, scope)) = self.invalidation(op)? {
                    let p = self.prod[core].invalidate(scope);
                    let o = self.oracle[core].invalidate(scope);
                    check_removed(p, o, scope).map_err(|e| format!("core {core} {e}"))?;
                }
            }
            other => panic!("op {other:?} not applicable to multicore"),
        }
        // Full cross-check of every core after every op: invariants, stats,
        // occupancy, and the contents as seen by *every* ASID in play.
        for core in 0..MC_CORES {
            let prod = &mut self.prod[core];
            let oracle = &mut self.oracle[core];
            prod.assert_invariants();
            check_stats(&oracle.stats, prod.stats(), "multicore")
                .map_err(|e| format!("core {core} {e}"))?;
            occupancy_check(prod.occupancy(), oracle.occupancy())
                .map_err(|e| format!("core {core} {e}"))?;
            let resume = prod.current_asid();
            for asid in 0..MC_ASIDS {
                prod.set_current_asid(asid);
                oracle.set_current_asid(asid);
                for vpn in 0..MC_VPNS_4K {
                    let va = VirtAddr::new(vpn * KB4);
                    check(
                        prod.probe(va, PageSize::Size4K) == oracle.probe(va, PageSize::Size4K),
                        || format!("core {core} contents diverged at 4K vpn {vpn} (asid {asid})"),
                    )?;
                }
                for region in 8..12u64 {
                    let va = VirtAddr::new(region * MB2);
                    check(
                        prod.probe(va, PageSize::Size2M) == oracle.probe(va, PageSize::Size2M),
                        || {
                            format!(
                                "core {core} contents diverged at 2M region {region} (asid {asid})"
                            )
                        },
                    )?;
                }
            }
            prod.set_current_asid(resume);
            oracle.set_current_asid(resume);
        }
        Ok(())
    }
}

fn wrap(step: usize, op: Op, result: Result<(), String>) -> Result<(), Divergence> {
    result.map_err(|detail| Divergence {
        step,
        detail: format!("{detail} (after {op:?})"),
    })
}

/// Runs `ops` against freshly built production + oracle structures for
/// `target`, cross-checking after every step.
///
/// # Panics
///
/// Panics when an op is not applicable to the target — that is a harness
/// (or hand-written replay) bug, not a divergence.
pub fn run_ops(target: Target, ops: &[Op]) -> Result<(), Divergence> {
    match target {
        Target::SetAssoc => {
            let mut prod = SetAssocTlb::new("fuzz-sa", 256, 4, PageSize::Size4K);
            let mut oracle = OraclePageTlb::new(256, 4);
            for (step, &op) in ops.iter().enumerate() {
                wrap(step, op, sa_step(&mut prod, &mut oracle, op))?;
            }
        }
        Target::FullyAssoc => {
            let mut prod = FullyAssocTlb::new("fuzz-fa", 8, PageSize::Size4K);
            let mut oracle = OraclePageTlb::new(8, 8);
            for (step, &op) in ops.iter().enumerate() {
                wrap(step, op, fa_step(&mut prod, &mut oracle, op))?;
            }
        }
        Target::Range => {
            let mut prod = RangeTlb::new("fuzz-range", 4);
            let mut oracle = OracleRangeTlb::new(4);
            for (step, &op) in ops.iter().enumerate() {
                wrap(step, op, range_step(&mut prod, &mut oracle, op))?;
            }
        }
        Target::Mmu => {
            let mut h = MmuHarness::new();
            for (step, &op) in ops.iter().enumerate() {
                wrap(step, op, h.step(op))?;
            }
        }
        Target::Lite => {
            let mut h = LiteHarness::default();
            for (step, &op) in ops.iter().enumerate() {
                wrap(step, op, h.step(op))?;
            }
        }
        Target::Colt => {
            let mut prod = CoalescedTlb::new("fuzz-colt", 16, 2);
            let mut oracle = OracleColtTlb::new(16, 2);
            for (step, &op) in ops.iter().enumerate() {
                wrap(step, op, colt_step(&mut prod, &mut oracle, op))?;
            }
        }
        Target::Multicore => {
            let mut h = MulticoreHarness::new();
            for (step, &op) in ops.iter().enumerate() {
                wrap(step, op, h.step(op))?;
            }
        }
        Target::Nested => {
            let mut h = NestedHarness::new();
            for (step, &op) in ops.iter().enumerate() {
                wrap(step, op, h.step(op))?;
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

/// Greedily shrinks a failing sequence: repeatedly drops chunks (halving
/// the chunk size down to single ops) while the result still diverges,
/// until a fixed point. The result is locally minimal — removing any single
/// remaining op makes the divergence disappear.
pub fn minimize(target: Target, ops: &[Op]) -> Vec<Op> {
    let mut current = ops.to_vec();
    loop {
        let mut improved = false;
        let mut chunk = (current.len() / 2).max(1);
        loop {
            let mut i = 0;
            while i < current.len() {
                let end = (i + chunk).min(current.len());
                let mut candidate = current.clone();
                candidate.drain(i..end);
                if !candidate.is_empty() && run_ops(target, &candidate).is_err() {
                    current = candidate;
                    improved = true;
                } else {
                    i += chunk;
                }
            }
            if chunk == 1 {
                break;
            }
            chunk /= 2;
        }
        if !improved {
            break;
        }
    }
    current
}

// ---------------------------------------------------------------------------
// Replay files
// ---------------------------------------------------------------------------

fn size_token(size: PageSize) -> &'static str {
    match size {
        PageSize::Size4K => "4k",
        PageSize::Size2M => "2m",
        PageSize::Size1G => "1g",
    }
}

fn parse_size(token: &str) -> Result<PageSize, String> {
    match token {
        "4k" => Ok(PageSize::Size4K),
        "2m" => Ok(PageSize::Size2M),
        "1g" => Ok(PageSize::Size1G),
        other => Err(format!("unknown page size {other:?}")),
    }
}

/// Renders a sequence as a self-contained textual replay.
pub fn format_replay(target: Target, ops: &[Op]) -> String {
    let mut out = format!("target {}\n", target.name());
    for op in ops {
        let line = match *op {
            Op::Lookup { va, size } => format!("lookup {va:#x} {}", size_token(size)),
            Op::LookupAny { va } => format!("lookup_any {va:#x}"),
            Op::Insert { vpn, size } => format!("insert {vpn} {}", size_token(size)),
            Op::InsertRange { index } => format!("insert_range {index}"),
            Op::InsertGroup {
                group,
                mask,
                alt_base,
            } => format!("insert_group {group} {mask:#04x} {}", u8::from(alt_base)),
            Op::Resize { ways } => format!("resize {ways}"),
            Op::Flush => "flush".to_string(),
            Op::Invalidate { va } => format!("invalidate {va:#x}"),
            Op::InvalidateHost { gpa } => format!("invalidate_host {gpa:#x}"),
            Op::InvalidateRange { start, len } => {
                format!("invalidate_range {start:#x} {len:#x}")
            }
            Op::Walk { va } => format!("walk {va:#x}"),
            Op::SwitchAsid { core, asid } => format!("switch {core} {asid}"),
            Op::InsertAt {
                core,
                vpn,
                size,
                global,
            } => format!(
                "insert_at {core} {vpn} {} {}",
                size_token(size),
                u8::from(global)
            ),
            Op::LookupAt { core, va, size } => {
                format!("lookup_at {core} {va:#x} {}", size_token(size))
            }
            Op::ResizeAt { core, ways } => format!("resize_at {core} {ways}"),
            Op::ShootdownVa { core, va } => format!("shootdown {core} {va:#x}"),
            Op::DeliverIpi { core } => format!("deliver {core}"),
            Op::FlushAsid { core, asid } => format!("flush_asid {core} {asid}"),
            Op::InvalidateRangeAsid {
                core,
                asid,
                start,
                len,
            } => format!("invalidate_range_asid {core} {asid} {start:#x} {len:#x}"),
            Op::LiteHit { monitor, rank } => format!("lite_hit {monitor} {rank}"),
            Op::LiteMiss => "lite_miss".to_string(),
            Op::EndInterval { extra } => format!("end_interval {extra}"),
            Op::LiteConfig {
                relative,
                eps,
                prob,
                floor,
                seed,
            } => format!(
                "lite_config {} {eps} {prob} {floor} {seed}",
                if relative { "rel" } else { "abs" }
            ),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

fn parse_u64(token: &str) -> Result<u64, String> {
    let parsed = if let Some(hex) = token.strip_prefix("0x") {
        u64::from_str_radix(hex, 16)
    } else {
        token.parse()
    };
    parsed.map_err(|_| format!("bad number {token:?}"))
}

fn parse_f64(token: &str) -> Result<f64, String> {
    token.parse().map_err(|_| format!("bad float {token:?}"))
}

/// Parses a replay produced by [`format_replay`] (or written by hand).
/// Blank lines and `#` comments are ignored.
pub fn parse_replay(text: &str) -> Result<(Target, Vec<Op>), String> {
    let mut target = None;
    let mut ops = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let tokens: Vec<&str> = line.split_whitespace().collect();
        let head = tokens[0];
        let fail = |msg: String| format!("line {}: {msg}", lineno + 1);
        let arg = |i: usize| -> Result<&str, String> {
            tokens
                .get(i + 1)
                .copied()
                .ok_or_else(|| format!("line {}: missing operand {i}", lineno + 1))
        };
        if head == "target" {
            let name = arg(0)?;
            target =
                Some(Target::parse(name).ok_or_else(|| fail(format!("unknown target {name:?}")))?);
            continue;
        }
        let op = match head {
            "lookup" => Op::Lookup {
                va: parse_u64(arg(0)?).map_err(&fail)?,
                size: parse_size(arg(1)?).map_err(&fail)?,
            },
            "lookup_any" => Op::LookupAny {
                va: parse_u64(arg(0)?).map_err(&fail)?,
            },
            "insert" => Op::Insert {
                vpn: parse_u64(arg(0)?).map_err(&fail)?,
                size: parse_size(arg(1)?).map_err(&fail)?,
            },
            "insert_range" => Op::InsertRange {
                index: parse_u64(arg(0)?).map_err(&fail)? as usize,
            },
            "insert_group" => Op::InsertGroup {
                group: parse_u64(arg(0)?).map_err(&fail)?,
                mask: parse_u64(arg(1)?).map_err(&fail)? as u8,
                alt_base: parse_u64(arg(2)?).map_err(&fail)? != 0,
            },
            "resize" => Op::Resize {
                ways: parse_u64(arg(0)?).map_err(&fail)? as usize,
            },
            "flush" => Op::Flush,
            "invalidate" => Op::Invalidate {
                va: parse_u64(arg(0)?).map_err(&fail)?,
            },
            "invalidate_host" => Op::InvalidateHost {
                gpa: parse_u64(arg(0)?).map_err(&fail)?,
            },
            "invalidate_range" => Op::InvalidateRange {
                start: parse_u64(arg(0)?).map_err(&fail)?,
                len: parse_u64(arg(1)?).map_err(&fail)?,
            },
            "walk" => Op::Walk {
                va: parse_u64(arg(0)?).map_err(&fail)?,
            },
            "switch" => Op::SwitchAsid {
                core: parse_u64(arg(0)?).map_err(&fail)? as usize,
                asid: parse_u64(arg(1)?).map_err(&fail)? as u16,
            },
            "insert_at" => Op::InsertAt {
                core: parse_u64(arg(0)?).map_err(&fail)? as usize,
                vpn: parse_u64(arg(1)?).map_err(&fail)?,
                size: parse_size(arg(2)?).map_err(&fail)?,
                global: parse_u64(arg(3)?).map_err(&fail)? != 0,
            },
            "lookup_at" => Op::LookupAt {
                core: parse_u64(arg(0)?).map_err(&fail)? as usize,
                va: parse_u64(arg(1)?).map_err(&fail)?,
                size: parse_size(arg(2)?).map_err(&fail)?,
            },
            "resize_at" => Op::ResizeAt {
                core: parse_u64(arg(0)?).map_err(&fail)? as usize,
                ways: parse_u64(arg(1)?).map_err(&fail)? as usize,
            },
            "shootdown" => Op::ShootdownVa {
                core: parse_u64(arg(0)?).map_err(&fail)? as usize,
                va: parse_u64(arg(1)?).map_err(&fail)?,
            },
            "deliver" => Op::DeliverIpi {
                core: parse_u64(arg(0)?).map_err(&fail)? as usize,
            },
            "flush_asid" => Op::FlushAsid {
                core: parse_u64(arg(0)?).map_err(&fail)? as usize,
                asid: parse_u64(arg(1)?).map_err(&fail)? as u16,
            },
            "invalidate_range_asid" => Op::InvalidateRangeAsid {
                core: parse_u64(arg(0)?).map_err(&fail)? as usize,
                asid: parse_u64(arg(1)?).map_err(&fail)? as u16,
                start: parse_u64(arg(2)?).map_err(&fail)?,
                len: parse_u64(arg(3)?).map_err(&fail)?,
            },
            "lite_hit" => Op::LiteHit {
                monitor: parse_u64(arg(0)?).map_err(&fail)? as usize,
                rank: parse_u64(arg(1)?).map_err(&fail)? as u8,
            },
            "lite_miss" => Op::LiteMiss,
            "end_interval" => Op::EndInterval {
                extra: parse_u64(arg(0)?).map_err(&fail)?,
            },
            "lite_config" => Op::LiteConfig {
                relative: match arg(0)? {
                    "rel" => true,
                    "abs" => false,
                    other => return Err(fail(format!("bad epsilon kind {other:?}"))),
                },
                eps: parse_f64(arg(1)?).map_err(&fail)?,
                prob: parse_f64(arg(2)?).map_err(&fail)?,
                floor: parse_f64(arg(3)?).map_err(&fail)?,
                seed: parse_u64(arg(4)?).map_err(&fail)?,
            },
            other => return Err(fail(format!("unknown op {other:?}"))),
        };
        ops.push(op);
    }
    let target = target.ok_or("replay has no `target` line")?;
    Ok((target, ops))
}

/// Parses and runs a replay; `Err` carries either a parse error or the
/// divergence description.
pub fn run_replay(text: &str) -> Result<(), String> {
    let (target, ops) = parse_replay(text)?;
    run_ops(target, &ops)
        .map_err(|d| format!("{} diverged at step {}: {}", target, d.step, d.detail))
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

/// Fuzzes one target for `steps` operations derived from `seed`; on a
/// divergence returns the minimized, replayable failure.
pub fn fuzz_target(target: Target, seed: u64, steps: usize) -> Result<(), FuzzFailure> {
    let ops = gen_ops(target, seed, steps);
    let Err(first) = run_ops(target, &ops) else {
        return Ok(());
    };
    let minimal = minimize(target, &ops);
    let last = run_ops(target, &minimal).err().unwrap_or(first);
    Err(FuzzFailure {
        target,
        seed,
        step: last.step,
        detail: last.detail,
        replay: format_replay(target, &minimal),
    })
}

/// Fuzzes every target with sub-seeds derived from `seed`, `steps`
/// operations each. Stops at the first failure.
pub fn fuzz_seed(seed: u64, steps: usize) -> Result<(), FuzzFailure> {
    fuzz_seed_with(seed, steps, |_, _| ())
}

/// [`fuzz_seed`] with a progress callback: `progress(target, sub_seed)` is
/// invoked after each target completes cleanly, so long campaigns can emit
/// heartbeats without the harness guessing at sub-seed derivation.
pub fn fuzz_seed_with<F: FnMut(Target, u64)>(
    seed: u64,
    steps: usize,
    mut progress: F,
) -> Result<(), FuzzFailure> {
    let mut mix = SplitMix64::new(seed);
    for &target in &Target::ALL {
        let sub = mix.next_u64();
        fuzz_target(target, sub, steps)?;
        progress(target, sub);
    }
    Ok(())
}

/// The fuzz targets exercising the structures a registered organization
/// actually builds — the oracle-side counterpart of the
/// [`eeat_core::Org`] registry. Each target is derived from a structural
/// fact of the configuration: a unified L2 implies the set-associative
/// target, its ASID lanes the multicore target, and its miss path the MMU
/// walker; range, fully associative, coalesced, and Lite coverage follow
/// from the org's probe plan and configuration.
///
/// # Panics
///
/// Panics, naming the org, when none of its structures map to a fuzz
/// target — an org without differential coverage must not be registered
/// silently.
pub fn targets_for_org(org: &'static dyn TranslationOrg) -> Vec<Target> {
    let config = org.config();
    let plan = org.probe_plan();
    let mut targets = Vec::new();
    if config.l2_page.entries > 0 {
        targets.push(Target::SetAssoc);
        targets.push(Target::Multicore);
        targets.push(Target::Mmu);
    }
    if plan.fully_assoc_l1 {
        targets.push(Target::FullyAssoc);
    }
    if plan.uses_ranges {
        targets.push(Target::Range);
    }
    if config.lite.is_some() {
        targets.push(Target::Lite);
    }
    if plan.coalesced_l1 {
        targets.push(Target::Colt);
    }
    if config.depth.is_virtualized() {
        targets.push(Target::Nested);
    }
    assert!(
        !targets.is_empty(),
        "org {:?} has no oracle fuzz target: none of its structures map to \
         a Target — extend the oracle (and targets_for_org) before registering it",
        org.name()
    );
    targets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registered_org_is_fuzz_covered() {
        // The registry-to-oracle factory: each org names at least the
        // set-associative, multicore (ASID), and MMU targets, CoLT's org
        // names the coalesced target, and the registry as a whole
        // exercises every target.
        let mut covered = Vec::new();
        for org in eeat_core::Org::all() {
            let targets = targets_for_org(org);
            assert!(
                targets.contains(&Target::SetAssoc)
                    && targets.contains(&Target::Multicore)
                    && targets.contains(&Target::Mmu),
                "{} must cover the L2, its ASID lanes, and the walker",
                org.name()
            );
            covered.extend(targets);
        }
        for target in Target::ALL {
            // The fully associative L1 belongs to the §4.4 extension
            // configs (fa_thp / fa_lite), which ride outside the paper-org
            // registry; every other target must be owned by some org.
            if target == Target::FullyAssoc {
                assert!(!covered.contains(&target), "no registered org is FA");
                continue;
            }
            // Virtualized mode is a per-run depth switch layered over any
            // org, not a registry entry of its own; the nested target is
            // reached through `targets_for_org` only when a config opts in.
            if target == Target::Nested {
                assert!(
                    !covered.contains(&target),
                    "no registered org is virtualized"
                );
                continue;
            }
            assert!(covered.contains(&target), "{target} covered by no org");
        }
        let colt = eeat_core::Org::by_name("CoLT").unwrap();
        assert!(targets_for_org(colt).contains(&Target::Colt));
        let rmm_lite = eeat_core::Org::by_name("RMM_Lite").unwrap();
        let t = targets_for_org(rmm_lite);
        assert!(t.contains(&Target::Range) && t.contains(&Target::Lite));
    }

    /// An org whose configuration builds none of the fuzz-covered
    /// structures: no L1s, a zero-entry L2, no ranges, no Lite.
    struct UncoveredOrg;

    impl TranslationOrg for UncoveredOrg {
        fn description(&self) -> &'static str {
            "test-only: no fuzz-covered structures"
        }

        fn config(&self) -> eeat_core::Config {
            eeat_core::Config {
                name: "Uncovered",
                l1_4k: None,
                l2_page: eeat_core::TlbGeometry::new(0, 1),
                ..eeat_core::Config::four_k()
            }
        }
    }

    #[test]
    #[should_panic(expected = "org \"Uncovered\" has no oracle fuzz target")]
    fn org_without_oracle_target_fails_loudly() {
        static UNCOVERED: UncoveredOrg = UncoveredOrg;
        let _ = targets_for_org(&UNCOVERED);
    }

    #[test]
    fn replay_round_trips() {
        for &target in &Target::ALL {
            let ops = gen_ops(target, 42, 200);
            let text = format_replay(target, &ops);
            let (parsed_target, parsed_ops) = parse_replay(&text).expect("parses");
            assert_eq!(parsed_target, target);
            assert_eq!(parsed_ops, ops, "{target}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse_replay("target set_assoc\nfrobnicate 1").is_err());
        assert!(parse_replay("lookup 0x1000 4k").is_err(), "no target line");
        assert!(parse_replay("target set_assoc\nlookup 0x1000 3k").is_err());
        assert!(parse_replay("target set_assoc\nlookup").is_err());
    }

    #[test]
    fn comments_and_blanks_are_ignored() {
        let text = "# a comment\n\ntarget range\n  insert_range 3\nlookup_any 0x6000000\n";
        let (t, ops) = parse_replay(text).unwrap();
        assert_eq!(t, Target::Range);
        assert_eq!(ops.len(), 2);
    }

    #[test]
    fn quick_fuzz_is_clean() {
        // A short pass over every target; the real smoke lives in
        // tests/fuzz_smoke.rs and CI.
        for seed in [1u64, 2] {
            if let Err(f) = fuzz_seed(seed, 300) {
                panic!("unexpected divergence:\n{f}");
            }
        }
    }
}
