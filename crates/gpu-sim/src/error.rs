//! Driver error type, mirroring the failure modes of the CUDA driver API.

use std::error::Error;
use std::fmt;

use gmlake_alloc_api::VirtAddr;

/// Errors returned by the simulated CUDA driver.
///
/// Every operation validates its arguments (C-VALIDATE) and fails without
/// mutating device state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverError {
    /// Physical memory, or for a VA reservation the address space,
    /// exhausted (`CUDA_ERROR_OUT_OF_MEMORY`).
    OutOfMemory {
        /// Bytes requested by the failing call.
        requested: u64,
        /// Physical bytes currently in use on the device.
        in_use: u64,
        /// Device capacity in bytes.
        capacity: u64,
    },
    /// A handle that was never created, or was already released and fully
    /// unmapped (`CUDA_ERROR_INVALID_HANDLE`).
    InvalidHandle(u64),
    /// A handle was released and can no longer be mapped.
    HandleReleased(u64),
    /// An address outside any reservation, or a range crossing reservation
    /// boundaries (`CUDA_ERROR_INVALID_VALUE`).
    InvalidAddress(VirtAddr),
    /// A size/offset/address not aligned to the allocation granularity.
    Misaligned {
        /// The offending value.
        value: u64,
        /// Required alignment in bytes.
        granularity: u64,
    },
    /// A zero-size operation was requested.
    ZeroSize,
    /// The target VA range overlaps an existing mapping.
    AlreadyMapped(VirtAddr),
    /// The VA range is not (fully) mapped.
    NotMapped(VirtAddr),
    /// The mapping exists but access was never enabled via `mem_set_access`
    /// (reads/writes through it fault, as on real hardware).
    AccessDenied(VirtAddr),
    /// `mem_address_free` on a reservation that still has live mappings.
    ReservationBusy(VirtAddr),
    /// An `unmap` range that splits a mapping entry instead of covering it.
    PartialUnmap(VirtAddr),
    /// `mem_map` with a non-zero offset into the handle, which `cuMemMap`
    /// rejects (`CUDA_ERROR_INVALID_VALUE`).
    MapOffset(u64),
    /// A map would extend past the end of the physical allocation.
    HandleRangeOutOfBounds {
        /// Handle's raw id.
        handle: u64,
        /// Requested offset within the handle.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Handle size.
        size: u64,
    },
    /// Data-path operation on a device configured without byte backing.
    BackingDisabled,
    /// A fault injected by an installed
    /// [`FaultPlan`](crate::FaultPlan) — no real-hardware analog. The
    /// failing call left the device untouched, exactly like every other
    /// rejection.
    Injected {
        /// Driver entry point the fault was injected at (see
        /// [`FaultOp::as_str`](crate::FaultOp::as_str)).
        op: &'static str,
    },
}

impl fmt::Display for DriverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriverError::OutOfMemory {
                requested,
                in_use,
                capacity,
            } => write!(
                f,
                "device out of memory: requested {requested} bytes with {in_use}/{capacity} in use"
            ),
            DriverError::InvalidHandle(h) => write!(f, "invalid physical handle {h}"),
            DriverError::HandleReleased(h) => {
                write!(f, "physical handle {h} was released and cannot be mapped")
            }
            DriverError::InvalidAddress(va) => write!(f, "invalid device address {va}"),
            DriverError::Misaligned { value, granularity } => write!(
                f,
                "value {value} is not aligned to the {granularity}-byte granularity"
            ),
            DriverError::ZeroSize => write!(f, "zero-size operation"),
            DriverError::AlreadyMapped(va) => write!(f, "address {va} is already mapped"),
            DriverError::NotMapped(va) => write!(f, "address {va} is not mapped"),
            DriverError::AccessDenied(va) => {
                write!(f, "access to {va} was not enabled via mem_set_access")
            }
            DriverError::ReservationBusy(va) => {
                write!(f, "reservation at {va} still has live mappings")
            }
            DriverError::PartialUnmap(va) => {
                write!(
                    f,
                    "unmap range at {va} splits a mapping instead of covering it"
                )
            }
            DriverError::MapOffset(offset) => {
                write!(f, "cuMemMap requires offset 0, got {offset}")
            }
            DriverError::HandleRangeOutOfBounds {
                handle,
                offset,
                len,
                size,
            } => write!(
                f,
                "map of {len} bytes at offset {offset} exceeds handle {handle} of size {size}"
            ),
            DriverError::BackingDisabled => write!(
                f,
                "data-path operation on a device configured without byte backing"
            ),
            DriverError::Injected { op } => write!(f, "injected fault at {op}"),
        }
    }
}

impl Error for DriverError {}

/// Convenience alias used across the driver.
pub type DriverResult<T> = Result<T, DriverError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_for_all_variants() {
        let variants: Vec<DriverError> = vec![
            DriverError::OutOfMemory {
                requested: 1,
                in_use: 2,
                capacity: 3,
            },
            DriverError::InvalidHandle(7),
            DriverError::HandleReleased(7),
            DriverError::InvalidAddress(VirtAddr::new(0x10)),
            DriverError::Misaligned {
                value: 3,
                granularity: 2,
            },
            DriverError::ZeroSize,
            DriverError::AlreadyMapped(VirtAddr::new(1)),
            DriverError::NotMapped(VirtAddr::new(1)),
            DriverError::AccessDenied(VirtAddr::new(1)),
            DriverError::ReservationBusy(VirtAddr::new(1)),
            DriverError::PartialUnmap(VirtAddr::new(1)),
            DriverError::MapOffset(2),
            DriverError::HandleRangeOutOfBounds {
                handle: 1,
                offset: 2,
                len: 3,
                size: 4,
            },
            DriverError::BackingDisabled,
            DriverError::Injected { op: "mem_create" },
        ];
        for v in variants {
            assert!(!v.to_string().is_empty());
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<DriverError>();
    }
}
