//! Virtual and physical address newtypes.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

use crate::page::{PageSize, Pfn, Vpn};

/// A 64-bit virtual address.
///
/// The type holds any 64-bit value, but the simulated 4-level page table
/// maps only bits 47:0, so the addresses a simulation maps and touches lie
/// below 2^48 (trace replay rejects any other). Real x86-64 hardware also
/// requires bits 63:48 to copy bit 47; canonicality plays no role in TLB
/// energy or miss behaviour, so the type does not enforce it.
///
/// # Examples
///
/// ```
/// use eeat_types::{PageSize, VirtAddr};
///
/// let va = VirtAddr::new(0x2000_1234);
/// assert_eq!(va.align_down(PageSize::Size2M), VirtAddr::new(0x2000_0000));
/// assert!(va.is_aligned(PageSize::Size4K) == false);
/// ```
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(u64);

/// A 64-bit physical address.
///
/// Produced by address translation; never used as a TLB lookup key.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysAddr(u64);

macro_rules! addr_common {
    ($ty:ident, $page_num:ident, $page_num_method:ident) => {
        impl $ty {
            /// Creates an address from a raw 64-bit value.
            #[inline]
            pub const fn new(raw: u64) -> Self {
                Self(raw)
            }

            /// Returns the raw 64-bit value.
            #[inline]
            pub const fn raw(self) -> u64 {
                self.0
            }

            /// Returns the page number of this address in the 4 KiB granule.
            #[inline]
            pub const fn $page_num_method(self) -> $page_num {
                $page_num::new(self.0 >> crate::page::PAGE_SHIFT_4K)
            }

            /// Returns the offset of this address within a page of `size`.
            #[inline]
            pub const fn page_offset(self, size: PageSize) -> u64 {
                self.0 & (size.bytes() - 1)
            }

            /// Rounds the address down to the nearest `size` boundary.
            #[inline]
            pub const fn align_down(self, size: PageSize) -> Self {
                Self(self.0 & !(size.bytes() - 1))
            }

            /// Rounds the address up to the nearest `size` boundary.
            ///
            /// # Panics
            ///
            /// Panics if rounding up overflows a `u64`.
            #[inline]
            pub const fn align_up(self, size: PageSize) -> Self {
                let mask = size.bytes() - 1;
                match self.0.checked_add(mask) {
                    Some(v) => Self(v & !mask),
                    None => panic!("address align_up overflow"),
                }
            }

            /// Returns `true` when the address lies on a `size` boundary.
            #[inline]
            pub const fn is_aligned(self, size: PageSize) -> bool {
                self.0 & (size.bytes() - 1) == 0
            }

            /// Byte distance from `origin` to `self`.
            ///
            /// # Panics
            ///
            /// Panics in debug builds if `origin > self`.
            #[inline]
            pub fn offset_from(self, origin: Self) -> u64 {
                debug_assert!(origin.0 <= self.0, "offset_from with origin above self");
                self.0 - origin.0
            }

            /// Returns the address `bytes` above `self`, saturating at `u64::MAX`.
            #[inline]
            pub const fn saturating_add(self, bytes: u64) -> Self {
                Self(self.0.saturating_add(bytes))
            }

            /// Returns the address `bytes` above `self`, or `None` on overflow.
            #[inline]
            pub const fn checked_add(self, bytes: u64) -> Option<Self> {
                match self.0.checked_add(bytes) {
                    Some(v) => Some(Self(v)),
                    None => None,
                }
            }
        }

        impl fmt::Debug for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!(stringify!($ty), "({:#x})"), self.0)
            }
        }

        impl fmt::Display for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{:#x}", self.0)
            }
        }

        impl fmt::LowerHex for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::LowerHex::fmt(&self.0, f)
            }
        }

        impl fmt::UpperHex for $ty {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                fmt::UpperHex::fmt(&self.0, f)
            }
        }

        impl From<u64> for $ty {
            fn from(raw: u64) -> Self {
                Self(raw)
            }
        }

        impl From<$ty> for u64 {
            fn from(addr: $ty) -> u64 {
                addr.0
            }
        }

        impl Add<u64> for $ty {
            type Output = Self;

            fn add(self, rhs: u64) -> Self {
                Self(self.0 + rhs)
            }
        }

        impl AddAssign<u64> for $ty {
            fn add_assign(&mut self, rhs: u64) {
                self.0 += rhs;
            }
        }

        impl Sub<$ty> for $ty {
            type Output = u64;

            fn sub(self, rhs: Self) -> u64 {
                self.0 - rhs.0
            }
        }
    };
}

addr_common!(VirtAddr, Vpn, vpn);
addr_common!(PhysAddr, Pfn, pfn);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vpn_of_address() {
        let va = VirtAddr::new(0x1234_5678);
        assert_eq!(va.vpn().raw(), 0x1234_5678 >> 12);
    }

    #[test]
    fn page_offset_per_size() {
        let va = VirtAddr::new(0x4020_1abc);
        assert_eq!(va.page_offset(PageSize::Size4K), 0xabc);
        assert_eq!(va.page_offset(PageSize::Size2M), 0x1abc);
        assert_eq!(va.page_offset(PageSize::Size1G), 0x20_1abc);
    }

    #[test]
    fn align_down_and_up() {
        let va = VirtAddr::new(0x2000_1000);
        assert_eq!(va.align_down(PageSize::Size2M).raw(), 0x2000_0000);
        assert_eq!(va.align_up(PageSize::Size2M).raw(), 0x2020_0000);
        let aligned = VirtAddr::new(0x4000_0000);
        assert_eq!(aligned.align_up(PageSize::Size1G), aligned);
        assert_eq!(aligned.align_down(PageSize::Size1G), aligned);
    }

    #[test]
    fn alignment_checks() {
        assert!(VirtAddr::new(0).is_aligned(PageSize::Size1G));
        assert!(VirtAddr::new(0x20_0000).is_aligned(PageSize::Size2M));
        assert!(!VirtAddr::new(0x20_0800).is_aligned(PageSize::Size4K));
    }

    #[test]
    fn arithmetic() {
        let a = PhysAddr::new(0x1000);
        let b = a + 0x234;
        assert_eq!(b.raw(), 0x1234);
        assert_eq!(b - a, 0x234);
        assert_eq!(b.offset_from(a), 0x234);
        let mut c = a;
        c += 0x1000;
        assert_eq!(c.raw(), 0x2000);
    }

    #[test]
    fn saturating_and_checked() {
        let top = VirtAddr::new(u64::MAX - 1);
        assert_eq!(top.saturating_add(10).raw(), u64::MAX);
        assert_eq!(top.checked_add(10), None);
        assert_eq!(top.checked_add(1), Some(VirtAddr::new(u64::MAX)));
    }

    #[test]
    fn formatting() {
        let va = VirtAddr::new(0xdead_beef);
        assert_eq!(format!("{va}"), "0xdeadbeef");
        assert_eq!(format!("{va:?}"), "VirtAddr(0xdeadbeef)");
        assert_eq!(format!("{va:x}"), "deadbeef");
        assert_eq!(format!("{va:X}"), "DEADBEEF");
    }

    #[test]
    fn conversions() {
        let va: VirtAddr = 0x42u64.into();
        let raw: u64 = va.into();
        assert_eq!(raw, 0x42);
    }

    #[test]
    #[should_panic(expected = "overflow")]
    fn align_up_overflow_panics() {
        let _ = VirtAddr::new(u64::MAX).align_up(PageSize::Size2M);
    }
}
