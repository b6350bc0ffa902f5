//! The eviction index: an intrusive doubly linked list of sBlocks through
//! their `prev` / `next` links, `0` meaning none (slab ids start at 1).
//!
//! The list is kept in `lru_tick` order, oldest at the head. Ticks come from
//! one counter that only grows and no two views share one, so appending a
//! view that was just given a fresh tick keeps the order in `O(1)`; only a
//! view returning under an *old* tick (an unpark) has to find its place.

use crate::block::{SBlock, SBlockId};
use crate::slab::Slab;

#[derive(Debug, Default)]
pub(crate) struct LruList {
    head: SBlockId,
    tail: SBlockId,
    /// `O(1)` appends and unlinks so far (a work counter).
    pub splices: u64,
}

impl LruList {
    /// Appends `sid`, whose tick is the newest, at the tail: `O(1)`.
    pub fn push_back(&mut self, views: &mut Slab<SBlock>, sid: SBlockId) {
        debug_assert!(self.tail == 0 || views[self.tail].lru_tick < views[sid].lru_tick);
        self.splices += 1;
        self.join(views, self.tail, sid);
        self.join(views, sid, 0);
    }

    /// Inserts `sid` at its tick's place, walking from the head: `O(k)` for
    /// the `k` older entries.
    pub fn insert_by_tick(&mut self, views: &mut Slab<SBlock>, sid: SBlockId) {
        let (mut prev, mut next) = (0, self.head);
        while next != 0 && views[next].lru_tick < views[sid].lru_tick {
            (prev, next) = (next, views[next].next);
        }
        self.join(views, prev, sid);
        self.join(views, sid, next);
    }

    /// Makes `next` follow `prev`; a `0` end stands for the head or tail.
    fn join(&mut self, views: &mut Slab<SBlock>, prev: SBlockId, next: SBlockId) {
        match prev {
            0 => self.head = next,
            p => views[p].next = next,
        }
        match next {
            0 => self.tail = prev,
            n => views[n].prev = prev,
        }
    }

    /// Unlinks `sid`, which must be a member: `O(1)`.
    pub fn unlink(&mut self, views: &mut Slab<SBlock>, sid: SBlockId) {
        let s = &mut views[sid];
        let (prev, next) = (std::mem::take(&mut s.prev), std::mem::take(&mut s.next));
        debug_assert!(prev != 0 || self.head == sid, "unlinking a non-member");
        self.splices += 1;
        self.join(views, prev, next);
    }

    /// The members, oldest first.
    pub fn iter<'a>(&self, views: &'a Slab<SBlock>) -> impl Iterator<Item = SBlockId> + 'a {
        let first = (self.head != 0).then_some(self.head);
        std::iter::successors(first, move |&sid| Some(views[sid].next).filter(|&n| n != 0))
    }

    /// Walks the list from the head, checking that each member is a live
    /// view whose `prev` is the one before it and whose tick is newer, and
    /// that the last is the tail. Returns the members in order.
    pub fn validate(&self, views: &Slab<SBlock>) -> Result<Vec<SBlockId>, String> {
        let (mut members, mut prev, mut sid) = (Vec::new(), 0, self.head);
        while sid != 0 {
            let newer = |s: &&SBlock| prev == 0 || views[prev].lru_tick < s.lru_tick;
            let linked = |s: &&SBlock| s.prev == prev && members.len() < views.len();
            let Some(s) = views.get(sid).filter(newer).filter(linked) else {
                return Err(format!("LRU list: bad link or tick at sblock {sid}"));
            };
            members.push(sid);
            (prev, sid) = (sid, s.next);
        }
        if self.tail != prev {
            return Err(format!("LRU list ends at {prev}, tail is {}", self.tail));
        }
        Ok(members)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use gmlake_alloc_api::VirtAddr;
    use proptest::prelude::*;

    use super::*;

    /// Takes the `n`-th (mod length) entry of `from`, if any.
    fn pick(from: &mut Vec<SBlockId>, n: usize) -> Option<SBlockId> {
        (!from.is_empty()).then(|| from.swap_remove(n % from.len()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The list against the `BTreeSet<(tick, id)>` it replaced, under a
        /// random program of what the allocator does to it: a stitch or a
        /// free appends under a fresh tick, an assignment or a teardown
        /// unlinks, a victim scan parks (unlinks, keeping the tick) and a
        /// deactivation unparks (re-inserts under the kept tick). Both must
        /// iterate in the same order after every step.
        #[test]
        fn lru_list_iterates_like_the_ordered_set_it_replaced(
            ops in proptest::collection::vec((0u32..6, any::<usize>()), 1..300)
        ) {
            let mut views = Slab::new();
            let (mut list, mut model) = (LruList::default(), BTreeSet::new());
            let (mut linked, mut held, mut parked) = (Vec::new(), Vec::new(), Vec::new());
            let mut tick = 0;
            for (op, n) in ops {
                let fresh = match op {
                    0 => Some(views.insert(SBlock::new(VirtAddr::new(0), 1, 1, vec![], 0))),
                    1 => pick(&mut held, n),
                    _ => None,
                };
                if let Some(sid) = fresh {
                    tick += 1;
                    views[sid].lru_tick = tick;
                    list.push_back(&mut views, sid);
                    model.insert((tick, sid));
                    linked.push(sid);
                } else if op == 5 {
                    if let Some(sid) = pick(&mut parked, n) {
                        list.insert_by_tick(&mut views, sid);
                        model.insert((views[sid].lru_tick, sid));
                        linked.push(sid);
                    }
                } else if let Some(sid) = (op >= 2).then(|| pick(&mut linked, n)).flatten() {
                    list.unlink(&mut views, sid);
                    model.remove(&(views[sid].lru_tick, sid));
                    match op {
                        2 => held.push(sid),
                        3 => parked.push(sid),
                        _ => drop(views.remove(sid)),
                    }
                }
                let expected: Vec<SBlockId> = model.iter().map(|&(_, sid)| sid).collect();
                prop_assert_eq!(list.iter(&views).collect::<Vec<_>>(), expected.clone());
                prop_assert_eq!(list.validate(&views), Ok(expected));
            }
        }
    }
}
