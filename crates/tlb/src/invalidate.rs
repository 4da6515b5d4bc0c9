//! Invalidation scopes: the one shootdown/flush surface of every structure.

use eeat_types::{VirtAddr, VirtRange};

use crate::set_assoc::{ASID_GLOBAL, ASID_MASK};

/// What an invalidation removes, after the x86 `invlpg` and INVPCID
/// scopes.
///
/// An `asid: Some(a)` scope reaches only ASID `a`'s non-global entries;
/// `None` reaches every entry the addresses select, globals included.
/// Every structure implements all four scopes through its single
/// `invalidate` method, which returns the number of entries removed (or,
/// for the CoLT TLB, removed or shrunk) and counts them as invalidations
/// in its stats.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Invalidate {
    /// Entries covering `va`, of any page size — `invlpg`, or the
    /// single-address INVPCID an IPI delivers when `asid` is set.
    Page {
        /// Any address inside the page being shot down.
        va: VirtAddr,
        /// The owning address space, or `None` for every ASID.
        asid: Option<u16>,
    },
    /// Entries overlapping `range` (the multi-page shootdown of an
    /// `munmap`).
    Range {
        /// The virtual range being shot down.
        range: VirtRange,
        /// The owning address space, or `None` for every ASID.
        asid: Option<u16>,
    },
    /// Every non-global entry of one ASID (single-context INVPCID: ASID
    /// recycling).
    Asid(u16),
    /// Every entry, globals included (a full flush).
    All,
}

impl Invalidate {
    /// `true` when the scope's ASID reaches an entry tagged `lane`.
    #[inline]
    pub(crate) fn reaches(self, lane: u16) -> bool {
        let asid = match self {
            Self::Page { asid, .. } | Self::Range { asid, .. } => asid,
            Self::Asid(asid) => Some(asid),
            Self::All => None,
        };
        asid.is_none_or(|asid| lane & ASID_GLOBAL == 0 && lane & ASID_MASK == asid)
    }

    /// `true` when the scope's addresses select an entry covering the `len`
    /// bytes from `start`. Addresses are compared as offsets from an
    /// interval's start, so the topmost page of the address space, whose end
    /// is 2^64, needs no overflow handling.
    #[inline]
    pub(crate) fn spans(self, start: u64, len: u64) -> bool {
        match self {
            Self::Page { va, .. } => va.raw().wrapping_sub(start) < len,
            // Two non-empty intervals overlap when one starts inside the other.
            Self::Range { range, .. } => {
                let from = range.start().raw();
                len != 0
                    && !range.is_empty()
                    && (start.wrapping_sub(from) < range.len() || from.wrapping_sub(start) < len)
            }
            Self::Asid(_) | Self::All => true,
        }
    }

    /// `true` when the scope removes an entry tagged `lane` covering the
    /// `len` bytes from `start`.
    #[inline]
    pub(crate) fn removes(self, lane: u16, start: u64, len: u64) -> bool {
        self.reaches(lane) && self.spans(start, len)
    }
}

/// The invalidation surface shared by every translation-caching structure,
/// so a hierarchy can walk its structures as one list.
pub trait TranslationCache {
    /// Removes the entries `scope` selects; returns how many went.
    fn invalidate(&mut self, scope: Invalidate) -> u64;

    /// Switches the ASID that subsequent lookups and inserts run under.
    fn set_current_asid(&mut self, asid: u16);
}

#[cfg(test)]
impl Invalidate {
    /// Test shorthand: every entry covering `va`.
    pub(crate) fn page(va: VirtAddr) -> Self {
        Self::Page { va, asid: None }
    }

    /// Test shorthand: `asid`'s non-global entries covering `va`.
    pub(crate) fn page_of(asid: u16, va: VirtAddr) -> Self {
        Self::Page {
            va,
            asid: Some(asid),
        }
    }

    /// Test shorthand: every entry overlapping `range`.
    pub(crate) fn range(range: VirtRange) -> Self {
        Self::Range { range, asid: None }
    }

    /// Test shorthand: `asid`'s non-global entries overlapping `range`.
    pub(crate) fn range_of(asid: u16, range: VirtRange) -> Self {
        Self::Range {
            range,
            asid: Some(asid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asid_scopes_reach_only_that_asids_non_global_lanes() {
        let va = VirtAddr::new(0);
        for scope in [Invalidate::page_of(3, va), Invalidate::Asid(3)] {
            assert!(scope.reaches(3));
            assert!(!scope.reaches(4));
            assert!(!scope.reaches(3 | ASID_GLOBAL));
        }
        for scope in [Invalidate::page(va), Invalidate::All] {
            assert!(scope.reaches(4) && scope.reaches(3 | ASID_GLOBAL));
        }
    }

    #[test]
    fn spans_are_half_open_and_survive_the_top_of_the_address_space() {
        let top = u64::MAX - 4095;
        assert!(Invalidate::page(VirtAddr::new(u64::MAX)).spans(top, 4096));
        assert!(!Invalidate::page(VirtAddr::new(top - 1)).spans(top, 4096));
        assert!(!Invalidate::page(VirtAddr::new(8192)).spans(4096, 4096));
        let shot =
            |start: u64, len: u64| Invalidate::range(VirtRange::new(VirtAddr::new(start), len));
        assert!(shot(top - 1, 2).spans(top, 4096));
        assert!(!shot(top - 1, 1).spans(top, 4096));
        assert!(shot(4096, 1).spans(0, 8192), "range inside the entry");
        assert!(
            !shot(4096, 0).spans(0, 8192),
            "an empty range selects nothing"
        );
        assert!(
            !shot(0, 8192).spans(4096, 0),
            "an empty entry is never selected"
        );
    }
}
