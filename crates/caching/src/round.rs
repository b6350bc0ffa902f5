//! Size-rounding and segment-sizing policy, mirroring PyTorch's
//! `CUDACachingAllocator` constants.

use gmlake_alloc_api::mib;

/// Granularity every request is rounded up to (512 B in PyTorch).
const ROUND: u64 = 512;
/// Requests up to this size use the small pool (1 MiB).
const SMALL_SIZE: u64 = mib(1);
/// Segment size of the small pool (2 MiB).
const SMALL_BUFFER: u64 = mib(2);
/// Requests up to this size get `LARGE_BUFFER`-sized segments (10 MiB).
const MEDIUM_SIZE: u64 = mib(10);
/// Minimum large-pool segment size (20 MiB).
const LARGE_BUFFER: u64 = mib(20);
/// Segment sizes above `MEDIUM_SIZE` round to this multiple (2 MiB).
const SEGMENT_ROUND: u64 = mib(2);
/// Remainder below which a small-pool block is not split (512 B).
const SMALL_SPLIT_REMAINDER: u64 = 512;
/// Remainder below which a large-pool block is not split (1 MiB).
const LARGE_SPLIT_REMAINDER: u64 = mib(1);

/// Configuration of the BFC caching allocator.
///
/// The sizing policy is PyTorch's `CUDACachingAllocator`, fixed:
/// * requests are rounded up to 512 B;
/// * requests ≤ 1 MiB are served from 2 MiB "small" segments;
/// * requests ≤ 10 MiB are served from 20 MiB "large" segments;
/// * larger requests get a dedicated segment rounded to 2 MiB;
/// * a free block is split when the remainder is ≥ 512 B (small pool) or
///   ≥ 1 MiB (large pool).
///
/// The one setting is PyTorch's `max_split_size_mb`, which
/// `repro ablation-max-split` sweeps.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BfcConfig {
    /// Blocks larger than this are never split (PyTorch's
    /// `max_split_size_mb`); `None` means unlimited.
    pub max_split_size: Option<u64>,
}

/// Which pool a block/segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoolKind {
    /// ≤ 1 MiB requests, 2 MiB segments.
    Small,
    /// > 1 MiB requests.
    Large,
}

impl BfcConfig {
    /// Rounds a request up to the allocation granularity; `None` when the
    /// rounded size would pass `u64::MAX`.
    ///
    /// ```
    /// use gmlake_caching::BfcConfig;
    /// let c = BfcConfig::default();
    /// assert_eq!(c.round_size(1), Some(512));
    /// assert_eq!(c.round_size(512), Some(512));
    /// assert_eq!(c.round_size(513), Some(1024));
    /// assert_eq!(c.round_size(u64::MAX - 100), None);
    /// ```
    pub fn round_size(&self, size: u64) -> Option<u64> {
        debug_assert!(size > 0);
        size.div_ceil(ROUND).checked_mul(ROUND)
    }

    /// Pool serving a (rounded) request of `size` bytes.
    pub fn pool_for(&self, size: u64) -> PoolKind {
        if size <= SMALL_SIZE {
            PoolKind::Small
        } else {
            PoolKind::Large
        }
    }

    /// Size of the fresh segment to `cudaMalloc` for a rounded request;
    /// `None` when it would pass `u64::MAX`.
    pub fn segment_size(&self, rounded: u64) -> Option<u64> {
        if rounded <= SMALL_SIZE {
            Some(SMALL_BUFFER)
        } else if rounded < MEDIUM_SIZE {
            Some(LARGE_BUFFER)
        } else {
            rounded.div_ceil(SEGMENT_ROUND).checked_mul(SEGMENT_ROUND)
        }
    }

    /// Whether a free block of `block_size` may be split after serving a
    /// request of `rounded` bytes from pool `pool`.
    pub fn should_split(&self, pool: PoolKind, block_size: u64, rounded: u64) -> bool {
        if let Some(max) = self.max_split_size {
            if block_size > max {
                return false;
            }
        }
        let remainder = block_size - rounded;
        match pool {
            PoolKind::Small => remainder >= SMALL_SPLIT_REMAINDER,
            PoolKind::Large => remainder >= LARGE_SPLIT_REMAINDER,
        }
    }

    /// Smallest request a cached block of `block_size` in `pool` may serve.
    ///
    /// PyTorch refuses to serve a small request from an oversized cached
    /// block when the block is marked unsplittable (`max_split_size`), since
    /// that would waste the entire remainder.
    pub fn can_serve(&self, pool: PoolKind, block_size: u64, rounded: u64) -> bool {
        if block_size < rounded {
            return false;
        }
        if let Some(max) = self.max_split_size {
            // An unsplittable block must not be grossly oversized for the
            // request (PyTorch allows up to `kLargeBuffer` of slack).
            if block_size > max && rounded <= max && block_size - rounded >= LARGE_BUFFER {
                return false;
            }
        }
        let _ = pool;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gmlake_alloc_api::kib;

    #[test]
    fn rounding_is_multiple_of_512() {
        let c = BfcConfig::default();
        for s in [1, 511, 512, 513, 1000, 4096, 1_000_000] {
            let r = c.round_size(s).unwrap();
            assert!(r >= s);
            assert_eq!(r % 512, 0);
            assert!(r - s < 512);
        }
    }

    #[test]
    fn pool_selection_threshold() {
        let c = BfcConfig::default();
        assert_eq!(c.pool_for(kib(4)), PoolKind::Small);
        assert_eq!(c.pool_for(mib(1)), PoolKind::Small);
        assert_eq!(c.pool_for(mib(1) + 512), PoolKind::Large);
    }

    #[test]
    fn segment_sizes_match_pytorch_policy() {
        let c = BfcConfig::default();
        assert_eq!(c.segment_size(kib(64)), Some(mib(2))); // small buffer
        assert_eq!(c.segment_size(mib(2)), Some(mib(20))); // large buffer
        assert_eq!(c.segment_size(mib(9)), Some(mib(20)));
        assert_eq!(c.segment_size(mib(10)), Some(mib(10))); // exact multiple of 2 MiB
        assert_eq!(c.segment_size(mib(21)), Some(mib(22))); // rounded to 2 MiB
        assert_eq!(c.segment_size(u64::MAX - 511), None); // past u64::MAX
    }

    #[test]
    fn split_policy_by_pool() {
        let c = BfcConfig::default();
        assert!(c.should_split(PoolKind::Small, kib(2), kib(1)));
        assert!(!c.should_split(PoolKind::Small, kib(1) + 256, kib(1)));
        assert!(c.should_split(PoolKind::Large, mib(22), mib(20)));
        assert!(!c.should_split(PoolKind::Large, mib(20) + kib(512), mib(20)));
    }

    #[test]
    fn max_split_size_disables_splitting() {
        let c = BfcConfig {
            max_split_size: Some(mib(64)),
        };
        assert!(!c.should_split(PoolKind::Large, mib(128), mib(20)));
        assert!(c.should_split(PoolKind::Large, mib(64), mib(20)));
    }

    #[test]
    fn oversized_unsplittable_blocks_do_not_serve_small_requests() {
        let c = BfcConfig {
            max_split_size: Some(mib(64)),
        };
        // 512 MiB cached block, 2 MiB request: refused (would waste 510 MiB).
        assert!(!c.can_serve(PoolKind::Large, mib(512), mib(2)));
        // But a 65 MiB request may take it.
        assert!(c.can_serve(PoolKind::Large, mib(512), mib(500)));
        // Without the knob everything oversized can serve.
        let d = BfcConfig::default();
        assert!(d.can_serve(PoolKind::Large, mib(512), mib(2)));
    }
}
