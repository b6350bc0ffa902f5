//! The `BestFit` function — the paper's Algorithm 1 over the inactive pool
//! indexes, in two interchangeable implementations:
//!
//! * [`best_fit_indexed`] — the production hot path. It runs over a
//!   [`TieredPIndex`] — pBlocks keyed `(size, id)`, split by whether any
//!   cached view references them — and the id-sorted views of the
//!   requested size. Whether a view is *available* (unassigned, every
//!   part inactive) is not stored anywhere: the two steps that need it ask
//!   the allocator, through `view_available` for the exact-match
//!   candidates and through `available_parts` once per S3/S4 walk that
//!   reaches referenced blocks.
//!   Everything else is a handful of `O(log n)` range probes, which skip
//!   the active entries of the referenced tier.
//! * [`best_fit_reference`] — the original transcription over a single
//!   `(size, id)` set with a per-block cost closure. It makes up to three
//!   full passes over the pool and calls the closure (which chases
//!   `referenced_by` edges) per visited block, so it is `O(n)` per
//!   allocation on converged pools. It is compiled for tests only, as the
//!   differential oracle the unit and property tests hold the indexed
//!   path to.
//!
//! Both implementations must agree bit-for-bit on every input — S1–S5
//! classification, tier preference, candidate order — which the unit tests
//! here and the property tests in `tests.rs` enforce.
//!
//! One refinement beyond the paper's pseudocode: when choosing *non-exact*
//! candidates (S2/S3), pBlocks that are not referenced by any cached sBlock
//! are preferred. Splitting or re-stitching a block that participates in a
//! cached stitched view invalidates that view's availability and forces the
//! next identical request to stitch again — preferring unreferenced blocks
//! keeps the "tape" of cached sBlocks intact, which is what lets the
//! allocator converge to the S1-only steady state the paper describes
//! (§4.2.2).
//!
//! A second one closes an S3 walk. Algorithm 1 (lines 11-13) adds blocks
//! from largest to smallest until they cover the request and splits the
//! last one. In the unreferenced tier, the walk first probes for the
//! smallest block that covers the rest with a remainder below the
//! caller's keep-whole threshold, and closes with it, unsplit, if there is
//! one. The larger block it would have split stays whole for a later S2
//! or S1, with no driver call. The referenced tiers keep the plain
//! descending walk.

use std::collections::btree_set::Range;
use std::collections::BTreeSet;

use crate::block::{PBlockId, SBlockId};

/// Outcome of `BestFit` (the paper's states S1–S4).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum BestFit {
    /// S1 with an sBlock: exact size match.
    ExactS(SBlockId),
    /// S1 with a pBlock: exact size match.
    ExactP(PBlockId),
    /// S2: the smallest single pBlock strictly larger than the request.
    Single(PBlockId),
    /// S3: multiple pBlocks, each smaller than the request, whose total
    /// size covers it. Ordered by descending size; the last entry is the
    /// one a split may apply to. `sum` is their total size. When the walk
    /// closes in the unreferenced tier, the last entry is the smallest
    /// unreferenced candidate that covers the rest with a remainder below
    /// the keep-whole threshold, so that it needs no split; only if none
    /// does is it the next candidate in descending order, as in Algorithm 1.
    Multiple { ids: Vec<PBlockId>, sum: u64 },
    /// S4: all eligible inactive pBlocks together are too small. `ids` is
    /// the candidate list (possibly empty), `sum` their total size.
    Insufficient { ids: Vec<PBlockId>, sum: u64 },
}

/// How expensive it is to consume a pBlock, from the point of view of the
/// cached-sBlock "tape" (see module docs). Lower ranks are consumed first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum StitchCost {
    /// Not referenced by any cached sBlock: free to consume.
    Unreferenced = 0,
    /// Referenced only by sBlocks that are unavailable right now anyway
    /// (assigned, or blocked by other busy parts): consuming it costs
    /// little extra.
    ReferencedBlocked = 1,
    /// Part of at least one fully-inactive unassigned sBlock — a cached
    /// view that is *ready to exact-match* a future request. Consuming it
    /// poisons that view and forces a re-stitch next iteration, so these
    /// are taken only as a last resort.
    ReferencedAvailable = 2,
}

/// The pBlock index: two `(size, id)` sets. The *unreferenced* tier holds
/// the inactive blocks no cached view references; the *referenced* tier
/// holds every block some view references, active or not. That split is
/// all S1 and S2 need, and it is an index of structure: a block joins the
/// referenced tier at its first stitch and leaves at its last view's
/// teardown, a split or its removal. Only an unreferenced block enters and
/// leaves on an activity flip, so flipping a view's parts touches no entry;
/// the readers of the referenced tier skip its active entries instead. The
/// finer blocked/available split of [`StitchCost`] depends on the activity
/// of *other* blocks, so it is queried when an S3/S4 walk needs it instead
/// of being maintained.
#[derive(Debug, Default, Clone)]
pub(crate) struct TieredPIndex {
    /// `[unreferenced, referenced]`.
    tiers: [BTreeSet<(u64, PBlockId)>; 2],
    /// Inserts and removes so far (a work counter).
    ops: u64,
}

impl TieredPIndex {
    pub fn new() -> Self {
        TieredPIndex::default()
    }

    pub fn insert(&mut self, referenced: bool, size: u64, pid: PBlockId) {
        self.ops += 1;
        self.tiers[referenced as usize].insert((size, pid));
    }

    pub fn remove(&mut self, referenced: bool, size: u64, pid: PBlockId) -> bool {
        self.ops += 1;
        self.tiers[referenced as usize].remove(&(size, pid))
    }

    /// Inserts and removes so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Total entries across both tiers.
    pub fn len(&self) -> usize {
        self.tiers.iter().map(|t| t.len()).sum()
    }

    /// All pBlocks of exactly `size` bytes within one tier, in id order —
    /// in the referenced tier, active ones included.
    ///
    /// Exact-match candidates of the same size *and* stitch cost are
    /// equivalent to Algorithm 1 — the allocator uses this to apply
    /// per-stream affinity to an exact pBlock match (prefer the block last
    /// used by the requesting stream) *after* [`best_fit_indexed`] has
    /// chosen a state, without perturbing the classification the reference
    /// implementation must agree with.
    pub fn equal_size(&self, referenced: bool, size: u64) -> impl Iterator<Item = PBlockId> + '_ {
        sized(&self.tiers[referenced as usize], size).map(|&(_, pid)| pid)
    }

    /// Whether a pid of `size` is indexed as referenced, if it is indexed
    /// at all (validation).
    pub fn placement_of(&self, size: u64, pid: PBlockId) -> Option<bool> {
        [false, true]
            .into_iter()
            .find(|&r| self.tiers[r as usize].contains(&(size, pid)))
    }
}

/// Runs Algorithm 1 over the incremental indexes — the production hot path.
///
/// `views` are the views of size `bsize` in id order and `view_available`
/// says whether one is unassigned with every part inactive;
/// `p_index` holds the pBlocks, and `is_active` says whether an entry of its
/// referenced tier is active — every reader of that tier skips those.
/// `available_parts` is called at most once, and only when an S3/S4 walk
/// runs out of unreferenced blocks and finds an inactive referenced one: it
/// returns, indexed by pBlock id, whether the block is part of an available
/// view ([`StitchCost::ReferencedAvailable`]). `limits` is
/// `(frag_limit, keep_whole)`. Blocks smaller than `frag_limit` are skipped
/// as *stitching candidates* (the robustness rule of §4.2.3) but still
/// serve exact matches. `keep_whole` is the remainder below which the
/// caller keeps a stitch's last part whole instead of splitting it; an S3
/// closed in the unreferenced tier takes the smallest block that stays
/// whole under it (see [`BestFit::Multiple`]).
pub(crate) fn best_fit_indexed<M: std::ops::Deref<Target = [bool]>>(
    bsize: u64,
    views: &[SBlockId],
    p_index: &TieredPIndex,
    (frag_limit, keep_whole): (u64, u64),
    view_available: impl Fn(SBlockId) -> bool,
    is_active: impl Fn(PBlockId) -> bool,
    available_parts: impl FnOnce() -> M,
) -> BestFit {
    debug_assert!(bsize > 0);
    let [unref, referenced] = &p_index.tiers;
    let idle = |&&(_, pid): &&(u64, PBlockId)| !is_active(pid);
    // S1: exact match. sBlocks are checked first: reusing a cached stitched
    // block is the paper's steady-state fast path — the lowest-id view of
    // the size that is available right now. Among equal-size exact pBlocks,
    // unreferenced ones are preferred so that blocks woven into cached
    // sBlocks stay available to those sBlocks; ties break on the lowest id,
    // as in the reference scan.
    if let Some(&sid) = views.iter().find(|&&sid| view_available(sid)) {
        return BestFit::ExactS(sid);
    }
    let exact = sized(unref, bsize).next();
    if let Some(&(_, pid)) = exact.or_else(|| sized(referenced, bsize).find(idle)) {
        return BestFit::ExactP(pid);
    }
    // S2: single pBlock larger than the request — the smallest unreferenced
    // one if any exists within a reasonable window, else the smallest
    // overall. The window (4× the request) avoids shredding a huge
    // unreferenced block when a snug referenced one exists.
    let above = larger(unref, bsize).next();
    if let Some(&(size, pid)) = above {
        if size <= bsize.saturating_mul(4) {
            return BestFit::Single(pid);
        }
    }
    if let Some(&(_, pid)) = [above, larger(referenced, bsize).find(idle)]
        .into_iter()
        .flatten()
        .min()
    {
        return BestFit::Single(pid);
    }
    // S3/S4: accumulate candidates in descending size order until they cover
    // the request (greedy, as in Algorithm 1 lines 11-13) — in increasing
    // [`StitchCost`] order: unreferenced blocks first, then blocks whose
    // cached views are blocked anyway, and only as a last resort blocks
    // belonging to a fully-inactive cached view (consuming those poisons a
    // ready exact-match candidate and is what sustains re-stitch limit
    // cycles on periodic workloads). Lines 11-13 would `Split` the
    // unreferenced candidate that covers the rest; a smaller unreferenced
    // block that covers it whole closes the stitch instead, so the larger
    // one stays for a later S2. The inactive referenced blocks are walked
    // once, in plain descending order: blocked ones are taken as they come,
    // available ones are set aside and follow in the same order — the
    // reference's second and third pass.
    let mut ids = Vec::new();
    let mut sum = 0u64;
    for &(size, pid) in eligible(unref, frag_limit) {
        let need = bsize - sum;
        if size >= need {
            let (size, pid) = whole_fit(unref, need, frag_limit, keep_whole).unwrap_or((size, pid));
            ids.push(pid);
            sum += size;
            return BestFit::Multiple { ids, sum };
        }
        ids.push(pid);
        sum += size;
    }
    let mut take = |pid: PBlockId, size: u64| {
        ids.push(pid);
        sum += size;
        sum >= bsize
    };
    let mut referenced = eligible(referenced, frag_limit).filter(idle).peekable();
    if referenced.peek().is_some() {
        let available = available_parts();
        let mut last_resort = Vec::new();
        for &(size, pid) in referenced {
            if available[pid as usize] {
                last_resort.push((pid, size));
            } else if take(pid, size) {
                return BestFit::Multiple { ids, sum };
            }
        }
        for (pid, size) in last_resort {
            if take(pid, size) {
                return BestFit::Multiple { ids, sum };
            }
        }
    }
    BestFit::Insufficient { ids, sum }
}

/// A tier's blocks of exactly `size` bytes, in id order.
fn sized(tier: &BTreeSet<(u64, PBlockId)>, size: u64) -> Range<'_, (u64, PBlockId)> {
    tier.range((size, 0)..=(size, u64::MAX))
}

/// A tier's blocks larger than `size`, smallest first.
fn larger(tier: &BTreeSet<(u64, PBlockId)>, size: u64) -> Range<'_, (u64, PBlockId)> {
    tier.range((size, u64::MAX)..)
}

/// The smallest stitching candidate of `tier` that covers `need`, if it
/// exceeds `need` by less than `keep_whole`, so that the stitch keeps it
/// whole. A descending walk has taken only blocks above the candidate that
/// covers `need`, so this one is never among them.
fn whole_fit(
    tier: &BTreeSet<(u64, PBlockId)>,
    need: u64,
    frag_limit: u64,
    keep_whole: u64,
) -> Option<(u64, PBlockId)> {
    let &(size, pid) = tier.range((need.max(frag_limit), 0)..).next()?;
    (size - need < keep_whole).then_some((size, pid))
}

/// A tier's stitching candidates, largest first. Below `frag_limit` a block
/// is too small to be worth stitching — and in descending order so are all
/// behind it.
fn eligible(
    tier: &BTreeSet<(u64, PBlockId)>,
    frag_limit: u64,
) -> impl Iterator<Item = &(u64, PBlockId)> {
    (tier.iter().rev()).take_while(move |&&(size, _)| size >= frag_limit)
}

/// The pre-index transcription of Algorithm 1: a single flat `(size, id)`
/// set plus a per-block `stitch_cost` closure, making up to three full
/// passes over the pool. Retained as the differential oracle: property
/// tests assert it agrees with [`best_fit_indexed`] on every case.
#[cfg(test)]
pub(crate) fn best_fit_reference(
    bsize: u64,
    s_inactive: &BTreeSet<(u64, SBlockId)>,
    p_inactive: &BTreeSet<(u64, PBlockId)>,
    frag_limit: u64,
    keep_whole: u64,
    stitch_cost: impl Fn(PBlockId) -> StitchCost,
) -> BestFit {
    debug_assert!(bsize > 0);
    // S1: exact match, sBlocks first; unreferenced exact pBlocks preferred.
    if let Some(&(_, sid)) = s_inactive.range((bsize, 0)..=(bsize, u64::MAX)).next() {
        return BestFit::ExactS(sid);
    }
    let mut exact_any: Option<PBlockId> = None;
    for &(_, pid) in p_inactive.range((bsize, 0)..=(bsize, u64::MAX)) {
        if exact_any.is_none() {
            exact_any = Some(pid);
        }
        if stitch_cost(pid) == StitchCost::Unreferenced {
            return BestFit::ExactP(pid);
        }
    }
    if let Some(pid) = exact_any {
        return BestFit::ExactP(pid);
    }
    // S2: smallest larger block, preferring unreferenced within a 4× window.
    let mut smallest_any: Option<PBlockId> = None;
    for &(size, pid) in p_inactive.range((bsize, u64::MAX)..) {
        if smallest_any.is_none() {
            smallest_any = Some(pid);
        }
        if size > bsize.saturating_mul(4) {
            break;
        }
        if stitch_cost(pid) == StitchCost::Unreferenced {
            return BestFit::Single(pid);
        }
    }
    if let Some(pid) = smallest_any {
        return BestFit::Single(pid);
    }
    // S3/S4: greedy accumulation in descending size order, one full pass per
    // cost tier. In the unreferenced pass, the candidate that covers the
    // rest gives way to the smallest untaken unreferenced candidate that
    // covers it with a remainder below `keep_whole`, if there is one.
    let mut ids = Vec::new();
    let mut sum = 0u64;
    let passes = [
        StitchCost::Unreferenced,
        StitchCost::ReferencedBlocked,
        StitchCost::ReferencedAvailable,
    ];
    for pass in passes {
        for &(size, pid) in p_inactive.iter().rev() {
            debug_assert!(size < bsize, "larger blocks were handled above");
            if size < frag_limit {
                continue; // too small to be worth stitching
            }
            if stitch_cost(pid) != pass {
                continue;
            }
            let need = bsize - sum;
            let (size, pid) = if pass == StitchCost::Unreferenced && size >= need {
                let whole = p_inactive.iter().find(|&&(s, p)| {
                    s >= need.max(frag_limit)
                        && stitch_cost(p) == StitchCost::Unreferenced
                        && !ids.contains(&p)
                });
                match whole {
                    Some(&(s, p)) if s - need < keep_whole => (s, p),
                    _ => (size, pid),
                }
            } else {
                (size, pid)
            };
            ids.push(pid);
            sum += size;
            if sum >= bsize {
                return BestFit::Multiple { ids, sum };
            }
        }
    }
    BestFit::Insufficient { ids, sum }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(entries: &[(u64, u64)]) -> BTreeSet<(u64, u64)> {
        entries.iter().copied().collect()
    }

    const NO_LIMIT: u64 = 0;

    /// The remainder below which the caller keeps a stitch's last part
    /// whole (the allocator's `frag_limit.max(chunk)`).
    const KEEP_WHOLE: u64 = 32;

    /// `(frag_limit, keep_whole)` with no limit.
    const LIMITS: (u64, u64) = (NO_LIMIT, KEEP_WHOLE);

    /// No pBlock referenced by an sBlock.
    fn unreferenced(_: PBlockId) -> StitchCost {
        StitchCost::Unreferenced
    }

    /// Marks `referenced` ids as belonging to an available cached view.
    fn available(referenced: &[PBlockId]) -> impl Fn(PBlockId) -> StitchCost + '_ {
        move |pid| {
            if referenced.contains(&pid) {
                StitchCost::ReferencedAvailable
            } else {
                StitchCost::Unreferenced
            }
        }
    }

    /// Runs both implementations on the same input and asserts they agree;
    /// every test below therefore doubles as a reference/indexed oracle.
    fn best_fit(
        bsize: u64,
        s_inactive: &BTreeSet<(u64, SBlockId)>,
        p_inactive: &BTreeSet<(u64, PBlockId)>,
        frag_limit: u64,
        stitch_cost: impl Fn(PBlockId) -> StitchCost,
    ) -> BestFit {
        with_active(bsize, s_inactive, p_inactive, frag_limit, stitch_cost, &[]).0
    }

    /// [`best_fit`] with `active` blocks in the referenced tier too, where
    /// the indexed path must skip them and the reference never sees them.
    /// Also returns how many active entries the indexed path passed over.
    fn with_active(
        bsize: u64,
        s_inactive: &BTreeSet<(u64, SBlockId)>,
        p_inactive: &BTreeSet<(u64, PBlockId)>,
        frag_limit: u64,
        stitch_cost: impl Fn(PBlockId) -> StitchCost,
        active: &[(u64, PBlockId)],
    ) -> (BestFit, u64) {
        // Every listed view is available; a block's cost is the closure's.
        let mut index = TieredPIndex::new();
        let mut available = vec![false; 16];
        for &(size, pid) in p_inactive {
            index.insert(stitch_cost(pid) != StitchCost::Unreferenced, size, pid);
            available[pid as usize] = stitch_cost(pid) == StitchCost::ReferencedAvailable;
        }
        for &(size, pid) in active {
            index.insert(true, size, pid);
        }
        let skips = std::cell::Cell::new(0);
        let is_active = |pid| {
            let hit = active.iter().any(|&(_, a)| a == pid);
            skips.set(skips.get() + hit as u64);
            hit
        };
        let reference = best_fit_reference(
            bsize,
            s_inactive,
            p_inactive,
            frag_limit,
            KEEP_WHOLE,
            stitch_cost,
        );
        let sized = s_inactive.range((bsize, 0)..=(bsize, u64::MAX));
        let views: Vec<SBlockId> = sized.map(|&(_, sid)| sid).collect();
        let indexed = best_fit_indexed(
            bsize,
            &views,
            &index,
            (frag_limit, KEEP_WHOLE),
            |_| true,
            is_active,
            || available,
        );
        assert_eq!(
            reference, indexed,
            "indexed best_fit diverged from the reference for bsize={bsize}"
        );
        (indexed, skips.get())
    }

    #[test]
    fn exact_sblock_wins_over_everything() {
        let s = set(&[(100, 1)]);
        let p = set(&[(100, 2), (200, 3)]);
        assert_eq!(
            best_fit(100, &s, &p, NO_LIMIT, unreferenced),
            BestFit::ExactS(1)
        );
    }

    #[test]
    fn exact_pblock_when_no_sblock() {
        let s = set(&[(50, 1)]);
        let p = set(&[(100, 2)]);
        assert_eq!(
            best_fit(100, &s, &p, NO_LIMIT, unreferenced),
            BestFit::ExactP(2)
        );
    }

    #[test]
    fn exact_pblock_prefers_unreferenced_then_lowest_id() {
        let s = BTreeSet::new();
        let p = set(&[(100, 1), (100, 2), (100, 3)]);
        // 1 and 2 belong to available views; 3 is free-standing.
        assert_eq!(
            best_fit(100, &s, &p, NO_LIMIT, available(&[1, 2])),
            BestFit::ExactP(3)
        );
        // All referenced: fall back to the lowest id.
        assert_eq!(
            best_fit(100, &s, &p, NO_LIMIT, available(&[1, 2, 3])),
            BestFit::ExactP(1)
        );
    }

    #[test]
    fn single_picks_smallest_larger_block() {
        let s = BTreeSet::new();
        let p = set(&[(120, 1), (150, 2), (300, 3)]);
        assert_eq!(
            best_fit(100, &s, &p, NO_LIMIT, unreferenced),
            BestFit::Single(1)
        );
    }

    #[test]
    fn single_prefers_unreferenced_within_window() {
        let s = BTreeSet::new();
        let p = set(&[(120, 1), (150, 2)]);
        // Block 1 is referenced by a cached sBlock; block 2 is free-standing
        // and within the 4x window: prefer it.
        assert_eq!(
            best_fit(100, &s, &p, NO_LIMIT, available(&[1])),
            BestFit::Single(2)
        );
        // If the only unreferenced block is grotesquely oversized, fall back
        // to the snug referenced one.
        let p2 = set(&[(120, 1), (1000, 2)]);
        assert_eq!(
            best_fit(100, &s, &p2, NO_LIMIT, available(&[1])),
            BestFit::Single(1)
        );
    }

    #[test]
    fn multiple_accumulates_descending() {
        let s = BTreeSet::new();
        let p = set(&[(60, 1), (50, 2), (40, 3), (30, 4)]);
        // 60 first; the 50 would cover the last 40, but the 40 covers it
        // whole, so 60 + 40 = 100 closes the stitch and the 50 stays.
        assert_eq!(
            best_fit(100, &s, &p, NO_LIMIT, unreferenced),
            BestFit::Multiple {
                ids: vec![1, 3],
                sum: 100
            }
        );
    }

    #[test]
    fn multiple_prefers_unreferenced_candidates() {
        let s = BTreeSet::new();
        let p = set(&[(60, 1), (50, 2), (40, 3)]);
        // Block 1 (the largest) belongs to a cached sBlock; 50+40 covers the
        // request without touching it.
        assert_eq!(
            best_fit(90, &s, &p, NO_LIMIT, available(&[1])),
            BestFit::Multiple {
                ids: vec![2, 3],
                sum: 90
            }
        );
        // When unreferenced blocks are insufficient, referenced ones join.
        assert_eq!(
            best_fit(120, &s, &p, NO_LIMIT, available(&[1])),
            BestFit::Multiple {
                ids: vec![2, 3, 1],
                sum: 150
            }
        );
    }

    #[test]
    fn multiple_exact_sum() {
        let s = BTreeSet::new();
        let p = set(&[(60, 1), (40, 2)]);
        assert_eq!(
            best_fit(100, &s, &p, NO_LIMIT, unreferenced),
            BestFit::Multiple {
                ids: vec![1, 2],
                sum: 100
            }
        );
    }

    #[test]
    fn insufficient_returns_all_candidates() {
        let s = BTreeSet::new();
        let p = set(&[(30, 1), (20, 2)]);
        assert_eq!(
            best_fit(100, &s, &p, NO_LIMIT, unreferenced),
            BestFit::Insufficient {
                ids: vec![1, 2],
                sum: 50
            }
        );
    }

    #[test]
    fn empty_pools_are_insufficient() {
        let s = BTreeSet::new();
        let p = BTreeSet::new();
        assert_eq!(
            best_fit(100, &s, &p, NO_LIMIT, unreferenced),
            BestFit::Insufficient {
                ids: vec![],
                sum: 0
            }
        );
    }

    #[test]
    fn frag_limit_excludes_small_candidates_from_stitching() {
        let s = BTreeSet::new();
        let p = set(&[(60, 1), (10, 2), (50, 3)]);
        // With limit 20 the 10-byte block cannot participate.
        assert_eq!(
            best_fit(100, &s, &p, 20, unreferenced),
            BestFit::Multiple {
                ids: vec![1, 3],
                sum: 110
            }
        );
        // Raising the limit to 60 leaves only block 1 eligible: insufficient.
        assert_eq!(
            best_fit(100, &s, &p, 60, unreferenced),
            BestFit::Insufficient {
                ids: vec![1],
                sum: 60
            }
        );
    }

    #[test]
    fn frag_limit_does_not_block_exact_or_single() {
        let s = BTreeSet::new();
        let p = set(&[(10, 1)]);
        assert_eq!(best_fit(10, &s, &p, 1000, unreferenced), BestFit::ExactP(1));
        let p2 = set(&[(15, 1)]);
        assert_eq!(
            best_fit(10, &s, &p2, 1000, unreferenced),
            BestFit::Single(1)
        );
    }

    #[test]
    fn greedy_prefers_largest_blocks_first() {
        // Greedy takes 90 first even though 60 + 40 would waste less.
        // Linear-time greediness is the paper's efficiency argument
        // (§4.2.2). The last 10 closes with the 40, which a stitch keeps
        // whole (30 to spare, below `KEEP_WHOLE`), not with a split of the
        // 80: one range probe per S3.
        let s = BTreeSet::new();
        let p = set(&[(90, 1), (80, 2), (60, 3), (40, 4)]);
        assert_eq!(
            best_fit(100, &s, &p, NO_LIMIT, unreferenced),
            BestFit::Multiple {
                ids: vec![1, 4],
                sum: 130
            }
        );
    }

    #[test]
    fn a_stitch_closes_with_the_smallest_block_that_fits_whole() {
        let s = BTreeSet::new();
        let p = set(&[(64, 1), (40, 2), (30, 3), (24, 4), (20, 5)]);
        // 64 first; 24 is left, which the 24 covers exactly.
        assert_eq!(
            best_fit(88, &s, &p, NO_LIMIT, unreferenced),
            BestFit::Multiple {
                ids: vec![1, 4],
                sum: 88
            }
        );
        // Below `frag_limit` a block is no candidate, however well it fits:
        // 64 + 30 = 94 closes it instead.
        assert_eq!(
            best_fit(88, &s, &p, 25, unreferenced),
            BestFit::Multiple {
                ids: vec![1, 3],
                sum: 94
            }
        );
    }

    #[test]
    fn without_a_whole_fit_the_next_largest_block_is_split() {
        let s = BTreeSet::new();
        let p = set(&[(90, 1), (80, 2), (60, 3)]);
        // The smallest block covering the last 10 is the 60, which would
        // leave 50, not below `KEEP_WHOLE`: close with the 80, as
        // Algorithm 1 does, for the caller to split.
        assert_eq!(
            best_fit(100, &s, &p, NO_LIMIT, unreferenced),
            BestFit::Multiple {
                ids: vec![1, 2],
                sum: 170
            }
        );
    }

    #[test]
    fn a_referenced_tier_close_stays_in_descending_order() {
        let s = BTreeSet::new();
        let p = set(&[(60, 1), (50, 2), (30, 3)]);
        let cost = |pid: PBlockId| match pid {
            3 => StitchCost::Unreferenced,
            _ => StitchCost::ReferencedBlocked,
        };
        // The unreferenced 30 leaves 50, which the referenced 50 would fit
        // whole; the referenced walk takes the 60 all the same.
        assert_eq!(
            best_fit(80, &s, &p, NO_LIMIT, cost),
            BestFit::Multiple {
                ids: vec![3, 1],
                sum: 90
            }
        );
    }

    #[test]
    fn oversized_unreferenced_block_outside_window_still_serves_single() {
        // The only block is unreferenced but beyond the 4x window: the
        // reference breaks out before the cost check and falls back to it.
        let s = BTreeSet::new();
        let p = set(&[(1000, 1)]);
        assert_eq!(
            best_fit(100, &s, &p, NO_LIMIT, unreferenced),
            BestFit::Single(1)
        );
    }

    #[test]
    fn blocked_tier_is_consumed_before_available_tier() {
        let s = BTreeSet::new();
        let p = set(&[(60, 1), (50, 2), (40, 3)]);
        let cost = |pid: PBlockId| match pid {
            1 => StitchCost::ReferencedAvailable,
            2 => StitchCost::ReferencedBlocked,
            _ => StitchCost::ReferencedBlocked,
        };
        // Blocked blocks 2+3 cover 90 without poisoning the available view.
        assert_eq!(
            best_fit(90, &s, &p, NO_LIMIT, cost),
            BestFit::Multiple {
                ids: vec![2, 3],
                sum: 90
            }
        );
    }

    #[test]
    fn exact_sblock_skips_blocked_views() {
        let empty = TieredPIndex::new();
        let fit = |available: &[SBlockId]| {
            let none = || -> Vec<bool> { unreachable!("S1 and S4 on an empty pool ask nothing") };
            let ask = |sid| available.contains(&sid);
            best_fit_indexed(100, &[1, 2, 3], &empty, LIMITS, ask, |_| false, none)
        };
        assert_eq!(fit(&[2, 3, 4]), BestFit::ExactS(2), "lowest available id");
        let nothing = BestFit::Insufficient {
            ids: vec![],
            sum: 0,
        };
        assert_eq!(fit(&[4]), nothing, "no view of the size is available");
    }

    #[test]
    fn tiered_index_roundtrips_and_reports_tiers() {
        let mut idx = TieredPIndex::new();
        idx.insert(false, 10, 1);
        idx.insert(true, 20, 2);
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.placement_of(10, 1), Some(false));
        assert_eq!(idx.placement_of(20, 2), Some(true));
        assert_eq!(idx.placement_of(10, 2), None);
        assert!(idx.remove(false, 10, 1));
        assert!(!idx.remove(false, 10, 1));
        assert_eq!(idx.len(), 1);
        assert_eq!(idx.ops(), 4, "every insert and remove counts");
    }

    // Referenced blocks stay indexed while active (no index operation on an
    // activity flip), so each reader of the referenced tier must skip them;
    // the reference path never sees them.

    /// Every pBlock is referenced, by views that are blocked anyway.
    fn referenced_blocked(_: PBlockId) -> StitchCost {
        StitchCost::ReferencedBlocked
    }

    #[test]
    fn exact_pblock_skips_an_active_referenced_block() {
        let s = BTreeSet::new();
        let p = set(&[(100, 3)]);
        assert_eq!(
            with_active(100, &s, &p, NO_LIMIT, referenced_blocked, &[(100, 1)]),
            (BestFit::ExactP(3), 1)
        );
    }

    #[test]
    fn single_skips_an_active_referenced_block() {
        let s = BTreeSet::new();
        let p = set(&[(150, 3)]);
        assert_eq!(
            with_active(100, &s, &p, NO_LIMIT, referenced_blocked, &[(120, 1)]),
            (BestFit::Single(3), 1)
        );
    }

    #[test]
    fn stitch_walk_skips_active_referenced_blocks() {
        let s = BTreeSet::new();
        let p = set(&[(50, 2), (40, 3)]);
        let cost = |pid: PBlockId| match pid {
            3 => StitchCost::ReferencedAvailable,
            _ => StitchCost::ReferencedBlocked,
        };
        // The active 60 would be the walk's first pick.
        assert_eq!(
            with_active(90, &s, &p, NO_LIMIT, cost, &[(60, 1)]),
            (
                BestFit::Multiple {
                    ids: vec![2, 3],
                    sum: 90
                },
                1
            )
        );
        // A referenced tier of active blocks only: nothing to classify.
        let mut index = TieredPIndex::new();
        index.insert(false, 30, 4);
        index.insert(true, 60, 1);
        let none = || -> Vec<bool> { unreachable!("no inactive referenced block") };
        let indexed = best_fit_indexed(90, &[], &index, LIMITS, |_| true, |pid| pid == 1, none);
        let p = set(&[(30, 4)]);
        let reference = best_fit_reference(90, &s, &p, NO_LIMIT, KEEP_WHOLE, unreferenced);
        assert_eq!(indexed, reference);
        assert_eq!(
            indexed,
            BestFit::Insufficient {
                ids: vec![4],
                sum: 30
            }
        );
    }

    #[test]
    fn referenced_blocks_of_a_size_walk_in_id_order() {
        let mut idx = TieredPIndex::new();
        for pid in [9, 2, 6, 1] {
            idx.insert(true, 10, pid);
        }
        idx.insert(false, 10, 3);
        idx.insert(true, 20, 4);
        let same_size: Vec<_> = idx.equal_size(true, 10).collect();
        assert_eq!(same_size, vec![1, 2, 6, 9]);
        assert_eq!(idx.equal_size(false, 10).collect::<Vec<_>>(), vec![3]);
        assert_eq!(idx.equal_size(true, 30).count(), 0);
    }
}
