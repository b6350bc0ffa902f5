//! Physical memory handle table.
//!
//! `cuMemCreate` returns an opaque handle to physical memory; the handle can
//! be mapped at multiple virtual addresses simultaneously (that property is
//! exactly what GMLake's stitching exploits: an sBlock remaps the chunks of
//! its pBlocks without unmapping them). `cuMemRelease` only drops the
//! creation reference — physical memory is returned to the device when the
//! last mapping disappears.

use gmlake_alloc_api::IdMap;

use crate::error::{DriverError, DriverResult};

/// Opaque handle to a physical memory allocation, as returned by
/// [`CudaDriver::mem_create`](crate::CudaDriver::mem_create).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PhysHandle(pub(crate) u64);

impl PhysHandle {
    /// Raw numeric id (for diagnostics).
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for PhysHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "phys#{}", self.0)
    }
}

#[derive(Debug)]
pub(crate) struct PhysEntry {
    pub size: u64,
    /// Number of live VA mappings referencing this handle.
    pub map_count: u32,
    /// Whether `mem_release` was called (creation reference dropped).
    pub released: bool,
    /// Backing bytes when the device is configured with `backing = true`.
    pub bytes: Option<Box<[u8]>>,
}

/// Table of all live physical allocations plus capacity accounting. Handle
/// ids are sequential and never reused, so the table hashes them with the
/// cheap [`IdMap`] hasher.
#[derive(Debug, Default)]
pub(crate) struct PhysTable {
    next_id: u64,
    entries: IdMap<u64, PhysEntry>,
    pub in_use: u64,
    pub peak_in_use: u64,
    pub created_total: u64,
}

impl PhysTable {
    pub fn new() -> Self {
        PhysTable::default()
    }

    /// Creates a physical allocation of `size` bytes, enforcing `capacity`.
    pub fn create(&mut self, size: u64, capacity: u64, backing: bool) -> DriverResult<PhysHandle> {
        if size == 0 {
            return Err(DriverError::ZeroSize);
        }
        if size > capacity.saturating_sub(self.in_use) {
            return Err(DriverError::OutOfMemory {
                requested: size,
                in_use: self.in_use,
                capacity,
            });
        }
        self.next_id += 1;
        let bytes = if backing {
            Some(vec![0u8; size as usize].into_boxed_slice())
        } else {
            None
        };
        self.entries.insert(
            self.next_id,
            PhysEntry {
                size,
                map_count: 0,
                released: false,
                bytes,
            },
        );
        self.in_use += size;
        self.created_total += size;
        if self.in_use > self.peak_in_use {
            self.peak_in_use = self.in_use;
        }
        Ok(PhysHandle(self.next_id))
    }

    fn entry(&self, h: PhysHandle) -> DriverResult<&PhysEntry> {
        self.entries
            .get(&h.0)
            .ok_or(DriverError::InvalidHandle(h.0))
    }

    fn entry_mut(&mut self, h: PhysHandle) -> DriverResult<&mut PhysEntry> {
        self.entries
            .get_mut(&h.0)
            .ok_or(DriverError::InvalidHandle(h.0))
    }

    /// Checks that `[offset, offset + len)` of `h` may gain a mapping: the
    /// handle exists, holds the range, and was not released (CUDA forbids
    /// new mappings of released handles) — errors in that order.
    pub fn check_mappable(&self, h: PhysHandle, offset: u64, len: u64) -> DriverResult<()> {
        let e = self.entry(h)?;
        if offset + len > e.size {
            return Err(DriverError::HandleRangeOutOfBounds {
                handle: h.0,
                offset,
                len,
                size: e.size,
            });
        }
        if e.released {
            return Err(DriverError::HandleReleased(h.0));
        }
        Ok(())
    }

    /// Registers one more VA mapping on `h`. Fails if the handle was released
    /// (CUDA forbids new mappings of released handles).
    pub fn add_map(&mut self, h: PhysHandle) -> DriverResult<()> {
        let e = self.entry_mut(h)?;
        if e.released {
            return Err(DriverError::HandleReleased(h.0));
        }
        e.map_count += 1;
        Ok(())
    }

    /// Removes one VA mapping from `h`; frees the physical memory if the
    /// handle was released and this was the last mapping.
    pub fn remove_map(&mut self, h: PhysHandle) -> DriverResult<()> {
        let e = self.entry_mut(h)?;
        debug_assert!(e.map_count > 0, "map_count underflow on {h}");
        e.map_count -= 1;
        if e.map_count == 0 && e.released {
            self.destroy(h);
        }
        Ok(())
    }

    /// Drops the creation reference. Physical memory is freed immediately if
    /// no mapping remains, otherwise when the last mapping is removed.
    pub fn release(&mut self, h: PhysHandle) -> DriverResult<()> {
        let e = self.entry_mut(h)?;
        if e.released {
            return Err(DriverError::InvalidHandle(h.0));
        }
        e.released = true;
        if e.map_count == 0 {
            self.destroy(h);
        }
        Ok(())
    }

    fn destroy(&mut self, h: PhysHandle) {
        if let Some(e) = self.entries.remove(&h.0) {
            self.in_use -= e.size;
        }
    }

    /// Reads `buf.len()` bytes starting at `offset` within `h`.
    pub fn read(&self, h: PhysHandle, offset: u64, buf: &mut [u8]) -> DriverResult<()> {
        let e = self.entry(h)?;
        let bytes = e.bytes.as_ref().ok_or(DriverError::BackingDisabled)?;
        let start = offset as usize;
        buf.copy_from_slice(&bytes[start..start + buf.len()]);
        Ok(())
    }

    /// Writes `data` starting at `offset` within `h`.
    pub fn write(&mut self, h: PhysHandle, offset: u64, data: &[u8]) -> DriverResult<()> {
        let e = self.entry_mut(h)?;
        let bytes = e.bytes.as_mut().ok_or(DriverError::BackingDisabled)?;
        let start = offset as usize;
        bytes[start..start + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// Number of live handles (diagnostics / leak checks).
    pub fn handle_count(&self) -> usize {
        self.entries.len()
    }

    /// Current map count of a handle (diagnostics).
    #[allow(dead_code)]
    pub fn map_count(&self, h: PhysHandle) -> DriverResult<u32> {
        Ok(self.entry(h)?.map_count)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CAP: u64 = 1024;

    #[test]
    fn create_respects_capacity() {
        let mut t = PhysTable::new();
        let h = t.create(512, CAP, false).unwrap();
        assert_eq!(t.check_mappable(h, 0, 512), Ok(()));
        assert!(matches!(
            t.check_mappable(h, 256, 512).unwrap_err(),
            DriverError::HandleRangeOutOfBounds { size: 512, .. }
        ));
        assert_eq!(t.in_use, 512);
        let err = t.create(513, CAP, false).unwrap_err();
        assert!(matches!(
            err,
            DriverError::OutOfMemory { requested: 513, .. }
        ));
        // State unchanged after failure.
        assert_eq!(t.in_use, 512);
        assert_eq!(t.handle_count(), 1);
    }

    #[test]
    fn zero_size_rejected() {
        let mut t = PhysTable::new();
        assert_eq!(t.create(0, CAP, false).unwrap_err(), DriverError::ZeroSize);
    }

    #[test]
    fn release_without_maps_frees_immediately() {
        let mut t = PhysTable::new();
        let h = t.create(256, CAP, false).unwrap();
        t.release(h).unwrap();
        assert_eq!(t.in_use, 0);
        assert_eq!(t.handle_count(), 0);
        assert!(matches!(
            t.release(h).unwrap_err(),
            DriverError::InvalidHandle(_)
        ));
    }

    #[test]
    fn release_with_live_maps_defers_free() {
        let mut t = PhysTable::new();
        let h = t.create(256, CAP, false).unwrap();
        t.add_map(h).unwrap();
        t.add_map(h).unwrap(); // second VA (stitched view)
        t.release(h).unwrap();
        assert_eq!(t.in_use, 256, "still mapped: memory must survive");
        t.remove_map(h).unwrap();
        assert_eq!(t.in_use, 256);
        t.remove_map(h).unwrap();
        assert_eq!(t.in_use, 0, "last unmap frees the released handle");
        assert_eq!(t.handle_count(), 0);
    }

    #[test]
    fn released_handle_cannot_gain_new_maps() {
        let mut t = PhysTable::new();
        let h = t.create(128, CAP, false).unwrap();
        t.add_map(h).unwrap();
        t.release(h).unwrap();
        assert_eq!(t.add_map(h).unwrap_err(), DriverError::HandleReleased(h.0));
        assert_eq!(
            t.check_mappable(h, 0, 128).unwrap_err(),
            DriverError::HandleReleased(h.0)
        );
    }

    #[test]
    fn destroyed_handle_ids_stay_invalid() {
        // Ids are never reused, so a destroyed handle's id must keep
        // missing the table however many handles are created after it.
        let mut t = PhysTable::new();
        let dead = t.create(64, CAP, false).unwrap();
        t.release(dead).unwrap();
        let live: Vec<_> = (0..8).map(|_| t.create(64, CAP, false).unwrap()).collect();
        assert!(live.iter().all(|&h| h != dead));
        let invalid = DriverError::InvalidHandle(dead.0);
        assert_eq!(t.check_mappable(dead, 0, 64).unwrap_err(), invalid);
        assert_eq!(t.add_map(dead).unwrap_err(), invalid);
        assert_eq!(t.release(dead).unwrap_err(), invalid);
        assert_eq!(t.handle_count(), 8);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut t = PhysTable::new();
        let a = t.create(300, CAP, false).unwrap();
        let _b = t.create(300, CAP, false).unwrap();
        t.release(a).unwrap();
        assert_eq!(t.in_use, 300);
        assert_eq!(t.peak_in_use, 600);
        assert_eq!(t.created_total, 600);
    }

    #[test]
    fn backing_read_write_roundtrip() {
        let mut t = PhysTable::new();
        let h = t.create(64, CAP, true).unwrap();
        t.write(h, 8, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 4];
        t.read(h, 8, &mut buf).unwrap();
        assert_eq!(buf, [1, 2, 3, 4]);
        // Fresh memory is zeroed.
        let mut head = [9u8; 8];
        t.read(h, 0, &mut head).unwrap();
        assert_eq!(head, [0u8; 8]);
    }

    #[test]
    fn data_path_requires_backing() {
        let mut t = PhysTable::new();
        let h = t.create(64, CAP, false).unwrap();
        assert_eq!(
            t.write(h, 0, &[1]).unwrap_err(),
            DriverError::BackingDisabled
        );
        let mut buf = [0u8; 1];
        assert_eq!(
            t.read(h, 0, &mut buf).unwrap_err(),
            DriverError::BackingDisabled
        );
    }
}
