//! Error type shared by all allocators.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use crate::types::AllocationId;

/// Errors returned by [`AllocatorCore`](crate::AllocatorCore) implementations.
///
/// Allocators must provide *strong exception safety*: a failed call leaves the
/// allocator and the device in the state they had before the call.
#[derive(Debug, Clone)]
pub enum AllocError {
    /// The device cannot satisfy the request, even after the allocator
    /// released every cached block it could (the PyTorch `empty_cache` retry
    /// and GMLake's `StitchFree` fallback have already been attempted).
    OutOfMemory {
        /// Bytes the caller asked for.
        requested: u64,
        /// Bytes currently reserved by this allocator (cached + active).
        reserved: u64,
        /// Total device capacity in bytes.
        capacity: u64,
    },
    /// A zero-byte allocation was requested.
    ZeroSize,
    /// `deallocate` was called with an identifier that is not live.
    UnknownAllocation(AllocationId),
    /// An allocator was constructed from an invalid configuration (e.g. a
    /// [`DeviceAllocatorConfig`](crate::DeviceAllocatorConfig) with zero
    /// streams). Carries a human-readable description of the offending knob.
    InvalidConfig(String),
    /// The underlying driver rejected an operation; carries the driver's
    /// rendered message. This indicates a bug in the allocator, not a
    /// recoverable condition.
    Driver(String),
    /// A tenant-scoped allocation would push the tenant past its byte
    /// quota. Emitted by multi-tenant front-ends (the `gmlake-serving`
    /// crate) *before* the device is consulted, so one tenant exhausting
    /// its budget never manifests as a device-level
    /// [`AllocError::OutOfMemory`] for everyone else. Recoverable: the
    /// tenant can free memory and retry, or the caller can shed load.
    QuotaExceeded {
        /// Opaque tenant identifier (the serving layer's `TenantId`).
        tenant: u64,
        /// Bytes the tenant asked for.
        requested: u64,
        /// Bytes the tenant currently has live.
        used: u64,
        /// The tenant's byte quota.
        quota: u64,
    },
    /// A driver call failed mid-operation and the allocator rolled the
    /// operation back transactionally: partial create/map work was
    /// unwound, the allocator's invariants hold, and the request simply
    /// was not served. Unlike [`AllocError::Driver`], this is a
    /// *recoverable* condition — a retry (possibly after backoff, a cache
    /// flush, or with stitching disabled) is legitimate. The original
    /// driver error is preserved for [`Error::source`] chains.
    DriverFault {
        /// The allocator operation that failed (e.g. `"stitch"`,
        /// `"alloc_new_pblock"`).
        op: &'static str,
        /// The underlying driver error.
        source: Arc<dyn Error + Send + Sync>,
    },
}

impl AllocError {
    /// Builds a [`AllocError::DriverFault`] from any driver error type.
    pub fn driver_fault(op: &'static str, source: impl Error + Send + Sync + 'static) -> Self {
        AllocError::DriverFault {
            op,
            source: Arc::new(source),
        }
    }
}

/// Equality compares [`AllocError::DriverFault`] sources by rendered
/// message — the source is a type-erased trait object, and tests want
/// structural comparison of the rest of the enum to keep working.
impl PartialEq for AllocError {
    fn eq(&self, other: &Self) -> bool {
        use AllocError::*;
        match (self, other) {
            (
                OutOfMemory {
                    requested: r1,
                    reserved: v1,
                    capacity: c1,
                },
                OutOfMemory {
                    requested: r2,
                    reserved: v2,
                    capacity: c2,
                },
            ) => r1 == r2 && v1 == v2 && c1 == c2,
            (ZeroSize, ZeroSize) => true,
            (UnknownAllocation(a), UnknownAllocation(b)) => a == b,
            (InvalidConfig(a), InvalidConfig(b)) => a == b,
            (Driver(a), Driver(b)) => a == b,
            (
                QuotaExceeded {
                    tenant: t1,
                    requested: r1,
                    used: u1,
                    quota: q1,
                },
                QuotaExceeded {
                    tenant: t2,
                    requested: r2,
                    used: u2,
                    quota: q2,
                },
            ) => t1 == t2 && r1 == r2 && u1 == u2 && q1 == q2,
            (DriverFault { op: o1, source: s1 }, DriverFault { op: o2, source: s2 }) => {
                o1 == o2 && s1.to_string() == s2.to_string()
            }
            _ => false,
        }
    }
}

impl Eq for AllocError {}

impl fmt::Display for AllocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocError::OutOfMemory {
                requested,
                reserved,
                capacity,
            } => write!(
                f,
                "out of memory: requested {} bytes, reserved {} of {} capacity",
                requested, reserved, capacity
            ),
            AllocError::ZeroSize => write!(f, "zero-size allocation is not allowed"),
            AllocError::UnknownAllocation(id) => {
                write!(f, "unknown or already-freed allocation {id}")
            }
            AllocError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            AllocError::Driver(msg) => write!(f, "driver error: {msg}"),
            AllocError::QuotaExceeded {
                tenant,
                requested,
                used,
                quota,
            } => write!(
                f,
                "tenant {} quota exceeded: requested {} bytes with {} of {} already used",
                tenant, requested, used, quota
            ),
            AllocError::DriverFault { op, source } => {
                write!(f, "driver fault during {op} (rolled back): {source}")
            }
        }
    }
}

impl Error for AllocError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AllocError::DriverFault { source, .. } => {
                Some(source.as_ref() as &(dyn Error + 'static))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = AllocError::OutOfMemory {
            requested: 100,
            reserved: 50,
            capacity: 120,
        };
        let s = e.to_string();
        assert!(s.contains("100"));
        assert!(s.contains("50"));
        assert!(s.contains("120"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<AllocError>();
    }

    #[test]
    fn unknown_allocation_names_the_id() {
        let e = AllocError::UnknownAllocation(AllocationId::new(9));
        assert!(e.to_string().contains("alloc#9"));
    }

    #[test]
    fn invalid_config_carries_the_description() {
        let e = AllocError::InvalidConfig("streams must be >= 1".to_owned());
        assert!(e.to_string().contains("invalid configuration"));
        assert!(e.to_string().contains("streams"));
    }

    #[test]
    fn quota_exceeded_names_tenant_and_budget() {
        let e = AllocError::QuotaExceeded {
            tenant: 7,
            requested: 64,
            used: 90,
            quota: 128,
        };
        let s = e.to_string();
        assert!(s.contains("tenant 7"));
        assert!(s.contains("64"));
        assert!(s.contains("90"));
        assert!(s.contains("128"));
        assert_eq!(e.clone(), e);
        assert_ne!(
            e,
            AllocError::QuotaExceeded {
                tenant: 8,
                requested: 64,
                used: 90,
                quota: 128,
            }
        );
        assert_ne!(e, AllocError::ZeroSize);
    }

    #[test]
    fn implements_std_error() {
        let e: Box<dyn Error> = Box::new(AllocError::ZeroSize);
        assert!(e.source().is_none());
    }

    #[derive(Debug, PartialEq)]
    struct FakeDriverError(&'static str);

    impl fmt::Display for FakeDriverError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "fake driver says: {}", self.0)
        }
    }

    impl Error for FakeDriverError {}

    #[test]
    fn driver_fault_chains_its_source() {
        let e = AllocError::driver_fault("stitch", FakeDriverError("map failed"));
        assert!(e.to_string().contains("stitch"));
        assert!(e.to_string().contains("map failed"));
        let src = e.source().expect("fault carries a source");
        assert_eq!(src.to_string(), "fake driver says: map failed");
        assert!(src.downcast_ref::<FakeDriverError>().is_some());
    }

    #[test]
    fn driver_fault_equality_compares_op_and_message() {
        let a = AllocError::driver_fault("stitch", FakeDriverError("x"));
        let b = AllocError::driver_fault("stitch", FakeDriverError("x"));
        let c = AllocError::driver_fault("split", FakeDriverError("x"));
        let d = AllocError::driver_fault("stitch", FakeDriverError("y"));
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
        assert_ne!(a, AllocError::ZeroSize);
        // Clone shares the Arc'd source.
        assert_eq!(a.clone(), a);
    }
}
