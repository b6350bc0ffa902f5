//! Virtual address space: reservations, mappings, translation.
//!
//! Mirrors the CUDA VMM model: `cuMemAddressReserve` carves a contiguous VA
//! range out of a huge address space; `cuMemMap` binds sub-ranges of it to
//! physical handles; `cuMemSetAccess` enables access; reads and writes
//! translate through the mapping (and may cross chunk boundaries, which is
//! what makes stitched blocks look contiguous to tensors).

use std::collections::BTreeMap;

use gmlake_alloc_api::VirtAddr;

use crate::chunk::PhysHandle;
use crate::error::{DriverError, DriverResult};

/// Base of the simulated device VA space (arbitrary, recognizable).
const VA_BASE: u64 = 0x7000_0000_0000;

/// One mapping of a physical handle into a reservation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MapEntry {
    pub len: u64,
    pub handle: PhysHandle,
    pub handle_off: u64,
    pub access: bool,
}

/// A reserved VA range and its mappings (keyed by offset within the range).
#[derive(Debug, Default)]
pub(crate) struct Reservation {
    pub size: u64,
    pub maps: BTreeMap<u64, MapEntry>,
}

/// A translated extent of a VA range: `len` bytes at `handle_off` within
/// `handle`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ResolvedExtent {
    pub handle: PhysHandle,
    pub handle_off: u64,
    pub len: u64,
}

/// The device's virtual address space.
#[derive(Debug)]
pub(crate) struct VaSpace {
    next_va: u64,
    reservations: BTreeMap<u64, Reservation>,
    pub reserved_total: u64,
}

impl Default for VaSpace {
    fn default() -> Self {
        VaSpace {
            next_va: VA_BASE,
            reservations: BTreeMap::new(),
            reserved_total: 0,
        }
    }
}

impl VaSpace {
    pub fn new() -> Self {
        VaSpace::default()
    }

    /// Reserves `size` bytes of VA, aligned to `align` (a power of two).
    /// Addresses are never reused; the 64-bit space is effectively infinite
    /// for simulation purposes, and a reservation that would pass its end
    /// fails as `cuMemAddressReserve` does, with out-of-memory.
    pub fn reserve(&mut self, size: u64, align: u64) -> DriverResult<VirtAddr> {
        if size == 0 {
            return Err(DriverError::ZeroSize);
        }
        debug_assert!(align.is_power_of_two());
        let start = self
            .next_va
            .checked_add(align - 1)
            .map(|v| v & !(align - 1));
        let Some(end) = start.and_then(|s| s.checked_add(size)) else {
            return Err(DriverError::OutOfMemory {
                requested: size,
                in_use: self.reserved_total,
                capacity: u64::MAX,
            });
        };
        let start = end - size;
        self.next_va = end;
        self.reservations.insert(
            start,
            Reservation {
                size,
                maps: BTreeMap::new(),
            },
        );
        self.reserved_total += size;
        Ok(VirtAddr::new(start))
    }

    /// Frees a reservation. It must start exactly at `va`, have the given
    /// `size`, and hold no mappings.
    pub fn address_free(&mut self, va: VirtAddr, size: u64) -> DriverResult<()> {
        let start = va.as_u64();
        let res = self
            .reservations
            .get(&start)
            .ok_or(DriverError::InvalidAddress(va))?;
        if res.size != size {
            return Err(DriverError::InvalidAddress(va));
        }
        if !res.maps.is_empty() {
            return Err(DriverError::ReservationBusy(va));
        }
        self.reservations.remove(&start);
        self.reserved_total -= size;
        Ok(())
    }

    /// Finds the reservation containing `va`, returning `(start, &res)`.
    fn containing(&self, va: VirtAddr) -> DriverResult<(u64, &Reservation)> {
        let a = va.as_u64();
        let (start, res) = self
            .reservations
            .range(..=a)
            .next_back()
            .ok_or(DriverError::InvalidAddress(va))?;
        if a >= start + res.size {
            return Err(DriverError::InvalidAddress(va));
        }
        Ok((*start, res))
    }

    fn containing_mut(&mut self, va: VirtAddr) -> DriverResult<(u64, &mut Reservation)> {
        let a = va.as_u64();
        let (start, res) = self
            .reservations
            .range_mut(..=a)
            .next_back()
            .ok_or(DriverError::InvalidAddress(va))?;
        if a >= start + res.size {
            return Err(DriverError::InvalidAddress(va));
        }
        Ok((*start, res))
    }

    /// Maps `len` bytes of `handle` (starting at `handle_off`) at `va`.
    /// The range must lie inside one reservation and not overlap existing
    /// mappings. Access starts disabled, as in CUDA.
    pub fn map(
        &mut self,
        va: VirtAddr,
        len: u64,
        handle: PhysHandle,
        handle_off: u64,
    ) -> DriverResult<()> {
        if len == 0 {
            return Err(DriverError::ZeroSize);
        }
        let (start, res) = self.containing_mut(va)?;
        let off = va.as_u64() - start;
        if off + len > res.size {
            return Err(DriverError::InvalidAddress(va));
        }
        // Overlap with predecessor?
        if let Some((&poff, pentry)) = res.maps.range(..=off).next_back() {
            if poff + pentry.len > off {
                return Err(DriverError::AlreadyMapped(va));
            }
        }
        // Overlap with successor?
        if let Some((&soff, _)) = res.maps.range(off..).next() {
            if soff < off + len {
                return Err(DriverError::AlreadyMapped(VirtAddr::new(start + soff)));
            }
        }
        res.maps.insert(
            off,
            MapEntry {
                len,
                handle,
                handle_off,
                access: false,
            },
        );
        Ok(())
    }

    /// Checks that the map entries starting in `[va, va+len)` exactly tile
    /// it, and returns the range's offsets within the reservation.
    ///
    /// Errors with [`DriverError::NotMapped`] on gaps and
    /// [`DriverError::PartialUnmap`] if the range splits an entry.
    fn covering(start: u64, res: &Reservation, va: VirtAddr, len: u64) -> DriverResult<(u64, u64)> {
        let off = va.as_u64() - start;
        let end = off + len;
        // An entry straddling the left edge means a split.
        if let Some((&poff, pentry)) = res.maps.range(..off).next_back() {
            if poff + pentry.len > off {
                return Err(DriverError::PartialUnmap(va));
            }
        }
        let mut cursor = off;
        for (&eoff, entry) in res.maps.range(off..end) {
            if eoff != cursor {
                return Err(DriverError::NotMapped(VirtAddr::new(start + cursor)));
            }
            if eoff + entry.len > end {
                return Err(DriverError::PartialUnmap(VirtAddr::new(start + eoff)));
            }
            cursor = eoff + entry.len;
        }
        if cursor != end {
            return Err(DriverError::NotMapped(VirtAddr::new(start + cursor)));
        }
        Ok((off, end))
    }

    /// Unmaps `[va, va+len)`, which must exactly tile whole map entries.
    /// Returns the physical handles whose mappings were removed (with
    /// multiplicity), so the caller can decrement their map counts.
    pub fn unmap(&mut self, va: VirtAddr, len: u64) -> DriverResult<Vec<PhysHandle>> {
        if len == 0 {
            return Err(DriverError::ZeroSize);
        }
        let (start, res) = self.containing_mut(va)?;
        let (off, end) = Self::covering(start, res, va, len)?;
        let offsets: Vec<u64> = res.maps.range(off..end).map(|(&o, _)| o).collect();
        let mut handles = Vec::with_capacity(offsets.len());
        for off in offsets {
            let entry = res.maps.remove(&off).expect("offset collected above");
            handles.push(entry.handle);
        }
        Ok(handles)
    }

    /// Enables or disables access on `[va, va+len)`, which must be fully
    /// mapped. Returns the byte lengths of the entries touched (the driver
    /// charges `cuMemSetAccess` cost per entry, matching the paper's
    /// per-chunk accounting).
    pub fn set_access(&mut self, va: VirtAddr, len: u64, enabled: bool) -> DriverResult<Vec<u64>> {
        if len == 0 {
            return Err(DriverError::ZeroSize);
        }
        let (start, res) = self.containing_mut(va)?;
        let (off, end) = Self::covering(start, res, va, len)?;
        let mut lens = Vec::new();
        for (_, entry) in res.maps.range_mut(off..end) {
            entry.access = enabled;
            lens.push(entry.len);
        }
        Ok(lens)
    }

    /// Translates `[va, va+len)` into physical extents. The range must be
    /// fully mapped with access enabled.
    pub fn resolve(&self, va: VirtAddr, len: u64) -> DriverResult<Vec<ResolvedExtent>> {
        if len == 0 {
            return Err(DriverError::ZeroSize);
        }
        let (start, res) = self.containing(va)?;
        let off = va.as_u64() - start;
        let end = off + len;
        let mut cursor = off;
        let mut out = Vec::new();
        // The first entry may start before `off`.
        let mut iter_start = off;
        if let Some((&poff, pentry)) = res.maps.range(..=off).next_back() {
            if poff + pentry.len > off {
                iter_start = poff;
            }
        }
        for (&eoff, entry) in res.maps.range(iter_start..) {
            if eoff >= end {
                break;
            }
            if eoff > cursor {
                return Err(DriverError::NotMapped(VirtAddr::new(start + cursor)));
            }
            if !entry.access {
                return Err(DriverError::AccessDenied(VirtAddr::new(start + eoff)));
            }
            let take_from = cursor.max(eoff);
            let take_to = (eoff + entry.len).min(end);
            if take_to > take_from {
                out.push(ResolvedExtent {
                    handle: entry.handle,
                    handle_off: entry.handle_off + (take_from - eoff),
                    len: take_to - take_from,
                });
                cursor = take_to;
            }
        }
        if cursor != end {
            return Err(DriverError::NotMapped(VirtAddr::new(start + cursor)));
        }
        Ok(out)
    }

    /// Number of live reservations.
    pub fn reservation_count(&self) -> usize {
        self.reservations.len()
    }

    /// Total number of live mappings across all reservations.
    pub fn mapping_count(&self) -> usize {
        self.reservations.values().map(|r| r.maps.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn handle(n: u64) -> PhysHandle {
        PhysHandle(n)
    }

    #[test]
    fn reserve_is_aligned_and_disjoint() {
        let mut va = VaSpace::new();
        let a = va.reserve(100, 4096).unwrap();
        let b = va.reserve(100, 4096).unwrap();
        assert_eq!(a.as_u64() % 4096, 0);
        assert_eq!(b.as_u64() % 4096, 0);
        assert!(b.as_u64() >= a.as_u64() + 100);
        assert_eq!(va.reserved_total, 200);
        assert_eq!(va.reservation_count(), 2);
    }

    #[test]
    fn zero_reserve_rejected() {
        let mut va = VaSpace::new();
        assert_eq!(va.reserve(0, 4096).unwrap_err(), DriverError::ZeroSize);
    }

    #[test]
    fn map_then_resolve_across_chunks() {
        let mut va = VaSpace::new();
        let base = va.reserve(8, 2).unwrap();
        va.map(base, 4, handle(1), 0).unwrap();
        va.map(base.offset(4), 4, handle(2), 16).unwrap();
        va.set_access(base, 8, true).unwrap();
        let extents = va.resolve(base.offset(2), 4).unwrap();
        assert_eq!(
            extents,
            vec![
                ResolvedExtent {
                    handle: handle(1),
                    handle_off: 2,
                    len: 2
                },
                ResolvedExtent {
                    handle: handle(2),
                    handle_off: 16,
                    len: 2
                },
            ]
        );
    }

    #[test]
    fn overlapping_map_rejected() {
        let mut va = VaSpace::new();
        let base = va.reserve(16, 2).unwrap();
        va.map(base, 8, handle(1), 0).unwrap();
        assert!(matches!(
            va.map(base.offset(4), 4, handle(2), 0).unwrap_err(),
            DriverError::AlreadyMapped(_)
        ));
        assert!(matches!(
            va.map(base, 8, handle(2), 0).unwrap_err(),
            DriverError::AlreadyMapped(_)
        ));
        // Mapping beyond the reservation fails.
        assert!(matches!(
            va.map(base.offset(12), 8, handle(2), 0).unwrap_err(),
            DriverError::InvalidAddress(_)
        ));
    }

    #[test]
    fn resolve_requires_access() {
        let mut va = VaSpace::new();
        let base = va.reserve(4, 2).unwrap();
        va.map(base, 4, handle(1), 0).unwrap();
        assert!(matches!(
            va.resolve(base, 4).unwrap_err(),
            DriverError::AccessDenied(_)
        ));
        va.set_access(base, 4, true).unwrap();
        assert_eq!(va.resolve(base, 4).unwrap().len(), 1);
    }

    #[test]
    fn resolve_detects_gaps() {
        let mut va = VaSpace::new();
        let base = va.reserve(12, 2).unwrap();
        va.map(base, 4, handle(1), 0).unwrap();
        va.map(base.offset(8), 4, handle(2), 0).unwrap();
        va.set_access(base, 4, true).unwrap();
        va.set_access(base.offset(8), 4, true).unwrap();
        assert!(matches!(
            va.resolve(base, 12).unwrap_err(),
            DriverError::NotMapped(_)
        ));
    }

    #[test]
    fn unmap_must_cover_whole_entries() {
        let mut va = VaSpace::new();
        let base = va.reserve(8, 2).unwrap();
        va.map(base, 8, handle(1), 0).unwrap();
        assert!(matches!(
            va.unmap(base, 4).unwrap_err(),
            DriverError::PartialUnmap(_)
        ));
        assert!(matches!(
            va.unmap(base.offset(4), 4).unwrap_err(),
            DriverError::PartialUnmap(_)
        ));
        let handles = va.unmap(base, 8).unwrap();
        assert_eq!(handles, vec![handle(1)]);
        assert_eq!(va.mapping_count(), 0);
    }

    #[test]
    fn unmap_multiple_entries_returns_all_handles() {
        let mut va = VaSpace::new();
        let base = va.reserve(12, 2).unwrap();
        va.map(base, 4, handle(1), 0).unwrap();
        va.map(base.offset(4), 4, handle(2), 0).unwrap();
        va.map(base.offset(8), 4, handle(1), 4).unwrap();
        let handles = va.unmap(base, 12).unwrap();
        assert_eq!(handles, vec![handle(1), handle(2), handle(1)]);
    }

    #[test]
    fn unmap_gap_is_not_mapped() {
        let mut va = VaSpace::new();
        let base = va.reserve(12, 2).unwrap();
        va.map(base, 4, handle(1), 0).unwrap();
        va.map(base.offset(8), 4, handle(2), 0).unwrap();
        assert!(matches!(
            va.unmap(base, 12).unwrap_err(),
            DriverError::NotMapped(_)
        ));
    }

    #[test]
    fn address_free_requires_empty_and_exact() {
        let mut va = VaSpace::new();
        let base = va.reserve(8, 2).unwrap();
        va.map(base, 8, handle(1), 0).unwrap();
        assert!(matches!(
            va.address_free(base, 8).unwrap_err(),
            DriverError::ReservationBusy(_)
        ));
        va.unmap(base, 8).unwrap();
        assert!(matches!(
            va.address_free(base, 4).unwrap_err(),
            DriverError::InvalidAddress(_)
        ));
        va.address_free(base, 8).unwrap();
        assert_eq!(va.reservation_count(), 0);
        assert_eq!(va.reserved_total, 0);
    }

    #[test]
    fn set_access_reports_entry_lengths() {
        let mut va = VaSpace::new();
        let base = va.reserve(12, 2).unwrap();
        va.map(base, 4, handle(1), 0).unwrap();
        va.map(base.offset(4), 8, handle(2), 0).unwrap();
        let lens = va.set_access(base, 12, true).unwrap();
        assert_eq!(lens, vec![4, 8]);
    }

    #[test]
    fn addresses_outside_any_reservation_are_invalid() {
        let mut va = VaSpace::new();
        let base = va.reserve(8, 2).unwrap();
        let past = VirtAddr::new(base.as_u64() + 8);
        assert!(matches!(
            va.map(past, 2, handle(1), 0).unwrap_err(),
            DriverError::InvalidAddress(_)
        ));
        assert!(matches!(
            va.resolve(VirtAddr::new(1), 1).unwrap_err(),
            DriverError::InvalidAddress(_)
        ));
    }
}
