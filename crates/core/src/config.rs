//! GMLake configuration and allocation-state telemetry.

use gmlake_alloc_api::mib;

/// Tuning knobs of the GMLake allocator.
///
/// The defaults follow the paper: a *fragmentation limit* below which
/// blocks are neither split nor used as stitching candidates (§4.2.3), and
/// an sBlock cache sized above one iteration's working set (§3.3.2).
/// Requests below [`gmlake_alloc_api::SMALL_THRESHOLD`] (the 2 MiB chunk
/// size) always go to the embedded splitting allocator (§3.1: "allocation
/// < 2 MB is rare in LLM training").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GmLakeConfig {
    /// Blocks smaller than this are never split off as remainders nor used
    /// as multi-block stitching candidates. A block whose split would leave
    /// a smaller remainder is used whole: an S2 hands it out as it is, and
    /// an S3 stitches it in as its last part, so the view maps more than
    /// the request, by less than `frag_limit`. Such a view is still filed
    /// under the request, which finds it again as an exact match. The paper quotes 128 MiB as an example for real hardware,
    /// where every part costs a mapping and its access call; we default
    /// low (4 MiB) to minimize whole-block internal waste, and sweep the
    /// knob in `repro ablation-frag-limit` to show the trade-off the paper
    /// describes (§4.2.3).
    pub frag_limit: u64,
    /// Maximum number of cached sBlock structures before the LRU
    /// `StitchFree` pass evicts inactive ones (§3.3.2). The paper notes
    /// that "as long as we maintain enough sPool instances, all allocations
    /// only search for its best-fit sBlock without creating a new sBlock" —
    /// an undersized sPool causes perpetual evict/re-stitch churn, so the
    /// default is sized above one steady-state iteration's working set.
    pub max_sblocks: usize,
}

impl Default for GmLakeConfig {
    fn default() -> Self {
        GmLakeConfig {
            frag_limit: mib(4),
            max_sblocks: 8192,
        }
    }
}

impl GmLakeConfig {
    /// Sets the fragmentation limit.
    #[must_use]
    pub fn with_frag_limit(mut self, frag_limit: u64) -> Self {
        self.frag_limit = frag_limit;
        self
    }

    /// Sets the sBlock cache capacity.
    #[must_use]
    pub fn with_max_sblocks(mut self, max_sblocks: usize) -> Self {
        self.max_sblocks = max_sblocks;
        self
    }
}

/// Which of the paper's allocation states (Figure 9) served each request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocState {
    /// S1 — exact match of an inactive sBlock or pBlock.
    ExactMatch,
    /// S2 — a single larger pBlock was found (split or used whole).
    SingleBlock,
    /// S3 — multiple pBlocks were stitched.
    MultiBlock,
    /// S4 — new physical memory was allocated (possibly stitched with
    /// leftovers).
    Insufficient,
    /// S5 — out of memory.
    Oom,
}

/// Cumulative counters of allocation-state transitions; the paper's
/// convergence claim (§4.2.2) is that after a few iterations only S1 fires.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateCounters {
    /// S1 count.
    pub exact: u64,
    /// S2 count.
    pub single: u64,
    /// S3 count.
    pub multi: u64,
    /// S4 count.
    pub insufficient: u64,
    /// S5 count.
    pub oom: u64,
    /// Number of `Stitch` executions (sBlock creations).
    pub stitches: u64,
    /// Number of `Split` executions.
    pub splits: u64,
    /// Number of sBlocks destroyed while unassigned: evicted by
    /// `StitchFree` at the sPool capacity, or collected as blocked views by
    /// the sPool GC of `compact`.
    pub evictions: u64,
}

impl StateCounters {
    /// Transitions that indicate the allocator is still adapting
    /// (everything except exact matches).
    pub fn non_exact(&self) -> u64 {
        self.single + self.multi + self.insufficient + self.oom
    }

    pub(crate) fn record(&mut self, state: AllocState) {
        match state {
            AllocState::ExactMatch => self.exact += 1,
            AllocState::SingleBlock => self.single += 1,
            AllocState::MultiBlock => self.multi += 1,
            AllocState::Insufficient => self.insufficient += 1,
            AllocState::Oom => self.oom += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = GmLakeConfig::default();
        assert!(c.frag_limit >= mib(2));
        assert!(c.max_sblocks > 0);
    }

    #[test]
    fn builders_chain() {
        let c = GmLakeConfig::default()
            .with_frag_limit(mib(128))
            .with_max_sblocks(7);
        assert_eq!(c.frag_limit, mib(128));
        assert_eq!(c.max_sblocks, 7);
    }

    #[test]
    fn counters_record_states() {
        let mut s = StateCounters::default();
        s.record(AllocState::ExactMatch);
        s.record(AllocState::SingleBlock);
        s.record(AllocState::MultiBlock);
        s.record(AllocState::Insufficient);
        s.record(AllocState::Oom);
        assert_eq!(s.exact, 1);
        assert_eq!(s.non_exact(), 4);
    }
}
