//! TLB hardware structures for the `eeat` simulator.
//!
//! This crate models the translation-caching structures of the paper's
//! Sandy Bridge baseline and of the proposed organizations:
//!
//! * [`SetAssocTlb`] — a set-associative page TLB with true per-set LRU and
//!   **way-disabling** (Albonesi's selective ways), the structure the Lite
//!   mechanism resizes. Lookups report the LRU-distance *rank* of each hit so
//!   Lite's `lru-distance-counters` can be maintained outside the structure.
//! * [`FullyAssocTlb`] — a fully associative page TLB (the 4-entry L1-1GB
//!   TLB of Table 1), resizable in powers of two as §4.4 of the paper
//!   describes for fully associative organizations.
//! * [`RangeTlb`] — a fully associative cache of RMM range translations,
//!   performing base/limit comparisons instead of tag equality (the L2-range
//!   TLB of RMM and the 4-entry L1-range TLB of RMM_Lite).
//! * [`CoalescedTlb`] — a CoLT-style set-associative TLB whose entries each
//!   cover up to [`COLT_GROUP`] contiguous 4 KiB mappings via a presence
//!   mask, trading a slightly wider entry for multiplied reach.
//! * [`TlbStats`] — lookup/hit/miss/fill accounting shared by all of them.
//! * [`Invalidate`] — the one shootdown/flush surface: every structure's
//!   `invalidate(scope)` removes a page, a range, an ASID or everything,
//!   and the [`TranslationCache`] trait lets a hierarchy walk its
//!   structures as one list.
//!
//! All structures are deterministic and allocation-free on the lookup path.
//!
//! Every structure carries an [`ASID_BITS`]-bit ASID lane per entry plus a
//! *global* bit ([`ASID_GLOBAL`]), so a multi-tenant simulation can switch
//! address spaces with `set_current_asid` instead of flushing, and
//! ASID-scoped invalidations (`Invalidate::Page { asid: Some(a), .. }`,
//! `Invalidate::Asid(a)`) spare unrelated tenants and global entries.
//! The default ASID is 0, making single-context use bit-identical to an
//! untagged TLB.
//!
//! # Examples
//!
//! ```
//! use eeat_tlb::{PageTranslation, SetAssocTlb};
//! use eeat_types::{PageSize, Pfn, VirtAddr, Vpn};
//!
//! // The Sandy Bridge L1-4KB TLB: 64 entries, 4-way.
//! let mut tlb = SetAssocTlb::new("L1-4KB", 64, 4, PageSize::Size4K);
//! let va = VirtAddr::new(0x1000);
//! assert!(tlb.lookup(va).is_none());
//! tlb.insert(PageTranslation::new(Vpn::new(1), Pfn::new(7), PageSize::Size4K));
//! let hit = tlb.lookup(va).expect("just inserted");
//! assert_eq!(hit.translation.translate(va).raw(), 7 * 4096);
//! assert_eq!(hit.rank, 0); // most recently used
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod coalesced;
mod entry;
mod fully_assoc;
mod invalidate;
mod range_tlb;
mod set_assoc;
mod stats;

pub use coalesced::{CoalescedTlb, COLT_GROUP};
pub use entry::{Hit, PageTranslation};
pub use fully_assoc::FullyAssocTlb;
pub use invalidate::{Invalidate, TranslationCache};
pub use range_tlb::RangeTlb;
pub use set_assoc::{SetAssocTlb, ASID_BITS, ASID_GLOBAL, ASID_MASK, MAX_WAYS};
pub use stats::TlbStats;

/// Forwards [`TranslationCache`] to each structure's inherent methods.
macro_rules! translation_cache {
    ($($tlb:ty),*) => {$(
        impl TranslationCache for $tlb {
            fn invalidate(&mut self, scope: Invalidate) -> u64 {
                <$tlb>::invalidate(self, scope)
            }

            fn set_current_asid(&mut self, asid: u16) {
                <$tlb>::set_current_asid(self, asid);
            }
        }
    )*};
}

translation_cache!(SetAssocTlb, FullyAssocTlb, RangeTlb, CoalescedTlb);
