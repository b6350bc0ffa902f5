//! Allocation requests and the handle returned for a live allocation.

use crate::types::{AllocTag, AllocationId, VirtAddr};

/// A request for device memory.
///
/// ```
/// use gmlake_alloc_api::{AllocRequest, AllocTag, mib};
///
/// let req = AllocRequest::new(mib(20)).with_tag(AllocTag::Gradient);
/// assert_eq!(req.tag, AllocTag::Gradient);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AllocRequest {
    /// Requested size in bytes (the tensor's logical size, before any
    /// allocator-internal rounding).
    pub size: u64,
    /// Telemetry tag; does not affect placement.
    pub tag: AllocTag,
}

impl AllocRequest {
    /// Creates a request for `size` bytes with the default tag.
    pub fn new(size: u64) -> Self {
        AllocRequest {
            size,
            tag: AllocTag::Unspecified,
        }
    }

    /// Sets the telemetry tag.
    #[must_use]
    pub fn with_tag(mut self, tag: AllocTag) -> Self {
        self.tag = tag;
        self
    }
}

impl From<u64> for AllocRequest {
    fn from(size: u64) -> Self {
        AllocRequest::new(size)
    }
}

/// A live allocation: the handle an allocator returns to the tensor layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Allocation {
    /// Identifier to pass to [`AllocatorCore::deallocate`](crate::AllocatorCore::deallocate).
    pub id: AllocationId,
    /// Device virtual address of the first byte. The full `size` bytes behind
    /// it are contiguous in the virtual address space (that is GMLake's whole
    /// point: physical backing may be stitched from non-contiguous chunks).
    pub va: VirtAddr,
    /// Usable size in bytes (≥ the requested size after rounding).
    pub size: u64,
    /// The size originally requested, before rounding.
    pub requested: u64,
}

impl Allocation {
    /// Returns bytes lost to size rounding for this allocation.
    pub fn rounding_waste(&self) -> u64 {
        self.size - self.requested
    }

    /// Returns the one-past-the-end virtual address.
    pub fn end(&self) -> VirtAddr {
        self.va.offset(self.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::mib;

    #[test]
    fn request_builder_sets_fields() {
        let r = AllocRequest::new(123).with_tag(AllocTag::Weight);
        assert_eq!(r.size, 123);
        assert_eq!(r.tag, AllocTag::Weight);
    }

    #[test]
    fn request_from_size() {
        let r: AllocRequest = mib(1).into();
        assert_eq!(r.size, mib(1));
        assert_eq!(r.tag, AllocTag::Unspecified);
    }

    #[test]
    fn allocation_waste_and_end() {
        let a = Allocation {
            id: AllocationId::new(1),
            va: VirtAddr::new(0x1000),
            size: 2048,
            requested: 2000,
        };
        assert_eq!(a.rounding_waste(), 48);
        assert_eq!(a.end(), VirtAddr::new(0x1000 + 2048));
    }
}
