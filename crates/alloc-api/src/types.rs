//! Fundamental value types: byte-size helpers, addresses, identifiers, tags.

use std::fmt;

/// Number of bytes in one KiB.
pub const BYTES_PER_KIB: u64 = 1024;
/// Number of bytes in one MiB.
pub const BYTES_PER_MIB: u64 = 1024 * 1024;
/// Number of bytes in one GiB.
pub const BYTES_PER_GIB: u64 = 1024 * 1024 * 1024;

/// Converts a KiB count to bytes.
///
/// ```
/// assert_eq!(gmlake_alloc_api::kib(4), 4096);
/// ```
#[inline]
pub const fn kib(n: u64) -> u64 {
    n * BYTES_PER_KIB
}

/// Converts a MiB count to bytes.
///
/// ```
/// assert_eq!(gmlake_alloc_api::mib(2), 2 * 1024 * 1024);
/// ```
#[inline]
pub const fn mib(n: u64) -> u64 {
    n * BYTES_PER_MIB
}

/// Converts a GiB count to bytes.
///
/// ```
/// assert_eq!(gmlake_alloc_api::gib(80), 80 * 1024 * 1024 * 1024);
/// ```
#[inline]
pub const fn gib(n: u64) -> u64 {
    n * BYTES_PER_GIB
}

/// A device virtual address, as handed to tensors.
///
/// Addresses are opaque: arithmetic is deliberately limited to offsetting,
/// which is what a framework needs to address into a tensor.
///
/// ```
/// use gmlake_alloc_api::VirtAddr;
/// let va = VirtAddr::new(0x7000_0000_0000);
/// assert_eq!(va.offset(16).as_u64(), 0x7000_0000_0010);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VirtAddr(u64);

impl VirtAddr {
    /// A null (unmapped) address.
    pub const NULL: VirtAddr = VirtAddr(0);

    /// Creates an address from a raw value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        VirtAddr(raw)
    }

    /// Returns the raw numeric address.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the address advanced by `bytes`.
    #[inline]
    pub const fn offset(self, bytes: u64) -> Self {
        VirtAddr(self.0 + bytes)
    }

    /// Returns `true` if this is the null address.
    #[inline]
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:012x}", self.0)
    }
}

impl fmt::LowerHex for VirtAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl From<u64> for VirtAddr {
    fn from(raw: u64) -> Self {
        VirtAddr(raw)
    }
}

/// Identifier of a live allocation, unique within one allocator instance.
///
/// Returned by [`AllocatorCore::allocate`](crate::AllocatorCore::allocate) and
/// consumed by [`AllocatorCore::deallocate`](crate::AllocatorCore::deallocate).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AllocationId(u64);

impl AllocationId {
    /// Creates an identifier from a raw value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        AllocationId(raw)
    }

    /// Returns the raw numeric identifier.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for AllocationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "alloc#{}", self.0)
    }
}

/// A `HashMap` keyed by ids — [`AllocationId`]s, front-end ids, size
/// classes, physical handle numbers, stream numbers: anything that hashes
/// as one `u64` or `u32`.
///
/// Its [`IdHasher`] is a multiply + xor-shift, which beats the default
/// SipHash by a wide margin on the hot path. It is deterministic and not
/// DoS-resistant: only for keys the program mints itself.
///
/// ```
/// use gmlake_alloc_api::{AllocationId, IdMap};
/// let mut live: IdMap<AllocationId, u64> = IdMap::default();
/// live.insert(AllocationId::new(7), 4096);
/// assert_eq!(live[&AllocationId::new(7)], 4096);
/// ```
pub type IdMap<K, V> = std::collections::HashMap<K, V, std::hash::BuildHasherDefault<IdHasher>>;

/// The hasher of [`IdMap`].
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        let mut h = (self.0 ^ x).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        self.0 = h;
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(x.into());
    }

    fn write(&mut self, bytes: &[u8]) {
        // Fallback for keys that are not one `u64` (off the hot path).
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Identifies one logical GPU stream (execution queue) within a device.
///
/// Streams order the kernels that *use* memory: a block freed and
/// reallocated on the same stream is safe to reuse immediately (stream
/// order guarantees the old user finished before the new one starts), while
/// handing a block to a *different* stream requires synchronization.
/// PyTorch's caching allocator encodes this as per-stream pools with
/// event-guarded cross-stream reuse; the
/// [`DeviceAllocator`](crate::DeviceAllocator) front-end mirrors the rule
/// with per-stream cache partitions and a conservative
/// free-through-the-core path for cross-stream frees.
///
/// `StreamId(0)` is the default stream; every stream-oblivious entry point
/// (`allocate` / `deallocate`) runs on it.
///
/// ```
/// use gmlake_alloc_api::StreamId;
/// assert_eq!(StreamId::DEFAULT, StreamId(0));
/// assert_eq!(format!("{}", StreamId(3)), "stream3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StreamId(pub u32);

impl StreamId {
    /// The default stream, used by every stream-oblivious call.
    pub const DEFAULT: StreamId = StreamId(0);

    /// Creates a stream identifier from a raw index.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        StreamId(raw)
    }

    /// Returns the raw stream index.
    #[inline]
    pub const fn as_u32(self) -> u32 {
        self.0
    }

    /// `true` for the default stream.
    #[inline]
    pub const fn is_default(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream{}", self.0)
    }
}

impl From<u32> for StreamId {
    fn from(raw: u32) -> Self {
        StreamId(raw)
    }
}

/// Identifier of a recorded stream event, unique within one
/// [`EventSource`](crate::EventSource) instance.
///
/// An event is a marker dropped into a stream's work queue by
/// [`EventSource::record`](crate::EventSource::record): it *completes* once
/// every operation enqueued on that stream before the record has finished.
/// Identifiers are minted in record order and never reused, so they also
/// give a global happens-before timeline: within one stream, a later event
/// can only complete after an earlier one.
///
/// ```
/// use gmlake_alloc_api::EventId;
/// let ev = EventId::new(7);
/// assert_eq!(ev.as_u64(), 7);
/// assert_eq!(format!("{ev}"), "event#7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(u64);

impl EventId {
    /// Creates an identifier from a raw value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        EventId(raw)
    }

    /// Returns the raw numeric identifier.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "event#{}", self.0)
    }
}

/// Semantic label of an allocation, used by the workload generator so that
/// traces stay interpretable and by tests to assert per-category accounting.
///
/// Tags never change allocator behaviour; they are telemetry only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum AllocTag {
    /// No specific label.
    #[default]
    Unspecified,
    /// Model weights (parameters).
    Weight,
    /// Gradients of weights.
    Gradient,
    /// Optimizer state (e.g. Adam moments, master weights).
    OptimizerState,
    /// Forward activations.
    Activation,
    /// LoRA adapter matrices (low-rank A/B factors).
    LoraAdapter,
    /// Communication / ZeRO gather-scatter transients.
    Communication,
    /// Host-offload staging buffers.
    Staging,
    /// Scratch space for kernels (workspace).
    Workspace,
}

impl AllocTag {
    /// All tag values, useful for exhaustive per-tag accounting.
    pub const ALL: [AllocTag; 9] = [
        AllocTag::Unspecified,
        AllocTag::Weight,
        AllocTag::Gradient,
        AllocTag::OptimizerState,
        AllocTag::Activation,
        AllocTag::LoraAdapter,
        AllocTag::Communication,
        AllocTag::Staging,
        AllocTag::Workspace,
    ];

    /// Short human-readable name (fixed width friendly).
    pub fn name(self) -> &'static str {
        match self {
            AllocTag::Unspecified => "unspec",
            AllocTag::Weight => "weight",
            AllocTag::Gradient => "grad",
            AllocTag::OptimizerState => "optim",
            AllocTag::Activation => "activ",
            AllocTag::LoraAdapter => "lora",
            AllocTag::Communication => "comm",
            AllocTag::Staging => "stage",
            AllocTag::Workspace => "work",
        }
    }
}

impl fmt::Display for AllocTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_helpers_compose() {
        assert_eq!(kib(1), 1024);
        assert_eq!(mib(1), 1024 * kib(1));
        assert_eq!(gib(1), 1024 * mib(1));
        assert_eq!(gib(80), 80 * BYTES_PER_GIB);
    }

    #[test]
    fn virt_addr_offset_and_display() {
        let va = VirtAddr::new(0x1000);
        assert_eq!(va.offset(0x20).as_u64(), 0x1020);
        assert_eq!(format!("{va}"), "0x000000001000");
        assert!(!va.is_null());
        assert!(VirtAddr::NULL.is_null());
    }

    #[test]
    fn virt_addr_orders_numerically() {
        assert!(VirtAddr::new(1) < VirtAddr::new(2));
        assert_eq!(VirtAddr::from(7u64), VirtAddr::new(7));
    }

    #[test]
    fn allocation_id_roundtrip() {
        let id = AllocationId::new(42);
        assert_eq!(id.as_u64(), 42);
        assert_eq!(format!("{id}"), "alloc#42");
    }

    #[test]
    fn tags_have_unique_names() {
        let mut names: Vec<&str> = AllocTag::ALL.iter().map(|t| t.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), AllocTag::ALL.len());
    }

    #[test]
    fn tag_default_is_unspecified() {
        assert_eq!(AllocTag::default(), AllocTag::Unspecified);
    }

    #[test]
    fn stream_id_default_and_display() {
        assert_eq!(StreamId::default(), StreamId::DEFAULT);
        assert!(StreamId::DEFAULT.is_default());
        assert!(!StreamId::new(2).is_default());
        assert_eq!(StreamId::from(7u32).as_u32(), 7);
        assert_eq!(format!("{}", StreamId(1)), "stream1");
        assert!(StreamId(1) < StreamId(2));
    }
}
