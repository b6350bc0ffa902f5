//! Memory statistics, matching the metrics defined in the paper (§5.1).
//!
//! * **active memory** — bytes currently allocated to live tensors;
//! * **reserved memory** — bytes of physical GPU memory the allocator holds
//!   (active + cached);
//! * **utilization ratio** — peak active / peak reserved;
//! * **fragmentation ratio** — `1 − utilization` (the paper's definition for
//!   arbitrary-size blocks, replacing page-based FMFI).

use std::fmt;

/// Counters exposed by every allocator through
/// [`AllocatorCore::stats`](crate::AllocatorCore::stats).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Bytes currently allocated to live tensors.
    pub active_bytes: u64,
    /// Physical bytes this allocator currently holds on the device.
    pub reserved_bytes: u64,
    /// High-water mark of `active_bytes`.
    pub peak_active_bytes: u64,
    /// High-water mark of `reserved_bytes`.
    pub peak_reserved_bytes: u64,
    /// Number of `allocate` calls that succeeded.
    pub alloc_count: u64,
    /// Number of `deallocate` calls that succeeded.
    pub free_count: u64,
    /// Number of `allocate` calls that returned `OutOfMemory`.
    pub oom_count: u64,
    /// Bytes requested across all successful allocations (pre-rounding).
    pub requested_bytes_total: u64,
}

impl MemStats {
    /// Peak utilization ratio: peak active / peak reserved, in `[0, 1]`.
    ///
    /// Returns 1.0 when nothing was ever reserved (an empty run wastes
    /// nothing).
    pub fn utilization(&self) -> f64 {
        if self.peak_reserved_bytes == 0 {
            1.0
        } else {
            self.peak_active_bytes as f64 / self.peak_reserved_bytes as f64
        }
    }

    /// Fragmentation ratio as defined by the paper: `1 − utilization`.
    pub fn fragmentation(&self) -> f64 {
        1.0 - self.utilization()
    }

    /// Instantaneous fragmentation of the currently reserved memory:
    /// `1 − active/reserved`, in `[0, 1]`; 0 when nothing is reserved.
    ///
    /// Unlike [`MemStats::fragmentation`], which is computed over the
    /// *peak* watermarks (the paper's reporting metric), this reflects the
    /// pool right now — the signal a defrag policy triggers on.
    pub fn current_fragmentation(&self) -> f64 {
        if self.reserved_bytes == 0 {
            0.0
        } else {
            1.0 - self.active_bytes as f64 / self.reserved_bytes as f64
        }
    }

    /// Number of allocations currently live.
    pub fn live_allocations(&self) -> u64 {
        self.alloc_count - self.free_count
    }

    /// Records a successful allocation of `size` bytes requested as
    /// `requested` bytes. Intended for allocator implementations.
    pub fn on_alloc(&mut self, requested: u64, size: u64) {
        self.alloc_count += 1;
        self.requested_bytes_total += requested;
        self.active_bytes += size;
        if self.active_bytes > self.peak_active_bytes {
            self.peak_active_bytes = self.active_bytes;
        }
    }

    /// Records a successful deallocation of `size` bytes.
    pub fn on_free(&mut self, size: u64) {
        debug_assert!(self.active_bytes >= size, "active accounting underflow");
        self.free_count += 1;
        self.active_bytes -= size;
    }

    /// Updates reserved bytes (cached + active physical memory).
    pub fn set_reserved(&mut self, reserved: u64) {
        self.reserved_bytes = reserved;
        if reserved > self.peak_reserved_bytes {
            self.peak_reserved_bytes = reserved;
        }
    }
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "active {:.2} GiB (peak {:.2}), reserved {:.2} GiB (peak {:.2}), util {:.1}%",
            self.active_bytes as f64 / (1u64 << 30) as f64,
            self.peak_active_bytes as f64 / (1u64 << 30) as f64,
            self.reserved_bytes as f64 / (1u64 << 30) as f64,
            self.peak_reserved_bytes as f64 / (1u64 << 30) as f64,
            self.utilization() * 100.0
        )
    }
}

/// Post-rollback driver-fault residue counters: the fault journal GMLake's
/// transactional recovery keeps, in the implementation-neutral API so
/// profilers and snapshots can surface orphan accounting without
/// downcasting the core.
///
/// All counters are cumulative over the allocator's lifetime. A leak-free
/// allocator reports zero orphans; `failed_ops` alone merely counts faults
/// that were rolled back cleanly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultJournalStats {
    /// Driver operations that faulted and were rolled back.
    pub failed_ops: u64,
    /// Virtual-address reservations the rollback could not return.
    pub orphan_vas: u64,
    /// Bytes of virtual address space held by orphaned reservations.
    pub orphan_va_bytes: u64,
    /// Physical chunks the rollback could not return to the device.
    pub orphan_chunks: u64,
}

impl FaultJournalStats {
    /// `true` when no rollback left residue behind (orphan counters zero).
    pub fn is_leak_free(&self) -> bool {
        self.orphan_vas == 0 && self.orphan_va_bytes == 0 && self.orphan_chunks == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utilization_of_empty_stats_is_one() {
        let s = MemStats::default();
        assert_eq!(s.utilization(), 1.0);
        assert_eq!(s.fragmentation(), 0.0);
        assert_eq!(s.current_fragmentation(), 0.0);
    }

    #[test]
    fn peaks_track_high_water_marks() {
        let mut s = MemStats::default();
        s.on_alloc(100, 128);
        s.set_reserved(256);
        s.on_alloc(50, 64);
        s.set_reserved(512);
        s.on_free(128);
        s.set_reserved(384);
        assert_eq!(s.active_bytes, 64);
        assert_eq!(s.peak_active_bytes, 192);
        assert_eq!(s.reserved_bytes, 384);
        assert_eq!(s.peak_reserved_bytes, 512);
        assert!((s.utilization() - 192.0 / 512.0).abs() < 1e-12);
    }

    #[test]
    fn live_allocation_count() {
        let mut s = MemStats::default();
        s.on_alloc(1, 1);
        s.on_alloc(1, 1);
        s.on_free(1);
        assert_eq!(s.live_allocations(), 1);
    }

    #[test]
    fn display_mentions_utilization() {
        let mut s = MemStats::default();
        s.on_alloc(1 << 30, 1 << 30);
        s.set_reserved(2 << 30);
        assert!(s.to_string().contains("util 50.0%"));
    }
}
