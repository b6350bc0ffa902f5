//! Errors of the pool service registry.

use std::error::Error;
use std::fmt;

use gmlake_alloc_api::AllocError;

use crate::service::DeviceId;

/// Errors returned by [`PoolService`](crate::PoolService) registry
/// operations. [`PoolHandle`] allocation methods surface
/// [`gmlake_alloc_api::AllocError`] unchanged so callers keep the exact
/// allocator semantics; the [`RuntimeError::Allocation`] variant exists for
/// service-level call sites that mix registry and allocation failures into
/// one error path (it preserves the full [`Error::source`] chain down to
/// the original driver error for `DriverFault`s).
///
/// [`PoolHandle`]: crate::PoolHandle
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// A pool is already registered for this device.
    DuplicateDevice(DeviceId),
    /// No pool is registered for this device.
    UnknownDevice(DeviceId),
    /// An allocation failed after the service's bounded fault retry.
    /// Recoverable driver faults keep their source chain:
    /// `err.source()` is the [`AllocError`], whose own source is the
    /// driver error that was rolled back.
    Allocation(AllocError),
}

impl From<AllocError> for RuntimeError {
    fn from(e: AllocError) -> Self {
        RuntimeError::Allocation(e)
    }
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::DuplicateDevice(d) => {
                write!(f, "a memory pool is already registered for {d}")
            }
            RuntimeError::UnknownDevice(d) => {
                write!(f, "no memory pool is registered for {d}")
            }
            RuntimeError::Allocation(e) => write!(f, "allocation failed: {e}"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Allocation(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_device() {
        assert!(RuntimeError::DuplicateDevice(DeviceId(3))
            .to_string()
            .contains("gpu3"));
        assert!(RuntimeError::UnknownDevice(DeviceId(7))
            .to_string()
            .contains("gpu7"));
    }

    #[test]
    fn allocation_variant_chains_to_the_driver_fault() {
        #[derive(Debug)]
        struct Fake;
        impl fmt::Display for Fake {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "injected fault at mem_map")
            }
        }
        impl Error for Fake {}

        let e: RuntimeError = AllocError::driver_fault("stitch", Fake).into();
        assert!(e.to_string().contains("stitch"));
        let alloc_err = e.source().expect("allocation source");
        let driver_err = alloc_err.source().expect("driver source");
        assert_eq!(driver_err.to_string(), "injected fault at mem_map");
    }
}
