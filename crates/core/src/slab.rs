//! Dense slab arena for pBlock/sBlock storage.
//!
//! The allocator's block ids were always sequential `u64`s handed out by the
//! allocator itself, so there is no reason to pay `HashMap` hashing and
//! cache-hostile bucket chasing on the hot path: a slab stores blocks in a
//! flat `Vec`, keyed by `id - 1`, and recycles the slots of destroyed blocks
//! through a free list. Lookups are a bounds check plus one indexed load.
//!
//! Ids are 1-based (`0` is never a valid id, matching the previous
//! `next_p += 1; let pid = next_p;` convention) and are *reused* after
//! `remove` — safe here because the allocator only destroys blocks that
//! nothing references anymore, and [`Slab::validate`] checks the free-list
//! invariants that reuse relies on.

/// A slot-recycling arena keyed by 1-based sequential `u64` ids.
#[derive(Debug)]
pub(crate) struct Slab<T> {
    slots: Vec<Option<T>>,
    /// Indices (0-based) of vacant slots, popped LIFO on insert.
    free: Vec<usize>,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
        }
    }
}

impl<T> Slab<T> {
    pub fn new() -> Self {
        Slab::default()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// Inserts `value`, reusing a vacant slot when one exists, and returns
    /// its id.
    pub fn insert(&mut self, value: T) -> u64 {
        match self.free.pop() {
            Some(idx) => {
                debug_assert!(self.slots[idx].is_none(), "free slot was occupied");
                self.slots[idx] = Some(value);
                idx as u64 + 1
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() as u64
            }
        }
    }

    /// Removes and returns the entry with `id`, recycling its slot.
    pub fn remove(&mut self, id: u64) -> Option<T> {
        let idx = id.checked_sub(1)? as usize;
        let value = self.slots.get_mut(idx)?.take()?;
        self.free.push(idx);
        Some(value)
    }

    pub fn get(&self, id: u64) -> Option<&T> {
        self.slots.get(id.checked_sub(1)? as usize)?.as_ref()
    }

    pub fn get_mut(&mut self, id: u64) -> Option<&mut T> {
        self.slots.get_mut(id.checked_sub(1)? as usize)?.as_mut()
    }

    /// Iterates live `(id, &entry)` pairs in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|v| (i as u64 + 1, v)))
    }

    /// Iterates live `(id, &mut entry)` pairs in id order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (u64, &mut T)> {
        self.slots
            .iter_mut()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_mut().map(|v| (i as u64 + 1, v)))
    }

    /// Live ids in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = u64> + '_ {
        self.iter().map(|(id, _)| id)
    }

    /// Checks the reuse-after-destroy invariants: every free-list index is
    /// in bounds, points at a vacant slot, and appears exactly once; the
    /// live count is consistent with the free list.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.slots.len()];
        for &idx in &self.free {
            if idx >= self.slots.len() {
                return Err(format!("slab free-list index {idx} out of bounds"));
            }
            if self.slots[idx].is_some() {
                return Err(format!("slab free-list index {idx} is occupied"));
            }
            if seen[idx] {
                return Err(format!("slab free-list index {idx} duplicated"));
            }
            seen[idx] = true;
        }
        let vacant = self.slots.iter().filter(|s| s.is_none()).count();
        if vacant != self.free.len() {
            return Err(format!(
                "slab has {vacant} vacant slots but {} free-list entries",
                self.free.len()
            ));
        }
        Ok(())
    }
}

impl<T> std::ops::Index<u64> for Slab<T> {
    type Output = T;

    fn index(&self, id: u64) -> &T {
        self.get(id).expect("slab id is live")
    }
}

impl<T> std::ops::IndexMut<u64> for Slab<T> {
    fn index_mut(&mut self, id: u64) -> &mut T {
        self.get_mut(id).expect("slab id is live")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_one_based_and_sequential() {
        let mut s = Slab::new();
        assert_eq!(s.insert("a"), 1);
        assert_eq!(s.insert("b"), 2);
        assert_eq!(s.insert("c"), 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s[2], "b");
        s.validate().unwrap();
    }

    #[test]
    fn remove_recycles_slots_lifo() {
        let mut s = Slab::new();
        for v in 0..4 {
            s.insert(v);
        }
        assert_eq!(s.remove(2), Some(1));
        assert_eq!(s.remove(4), Some(3));
        s.validate().unwrap();
        // LIFO reuse: the most recently freed slot is handed out first.
        assert_eq!(s.insert(40), 4);
        assert_eq!(s.insert(20), 2);
        assert_eq!(s.insert(50), 5);
        assert_eq!(s.len(), 5);
        s.validate().unwrap();
    }

    #[test]
    fn dead_and_invalid_ids_resolve_to_none() {
        let mut s = Slab::new();
        let id = s.insert(7);
        assert_eq!(s.get(0), None, "0 is never a valid id");
        assert_eq!(s.get(99), None);
        s.remove(id);
        assert_eq!(s.get(id), None);
        assert_eq!(s.remove(id), None, "double remove is a no-op");
        s.validate().unwrap();
    }

    #[test]
    fn iter_visits_live_entries_in_id_order() {
        let mut s = Slab::new();
        for v in 0..5 {
            s.insert(v);
        }
        s.remove(3);
        let pairs: Vec<(u64, i32)> = s.iter().map(|(id, &v)| (id, v)).collect();
        assert_eq!(pairs, vec![(1, 0), (2, 1), (4, 3), (5, 4)]);
        assert_eq!(s.keys().collect::<Vec<_>>(), vec![1, 2, 4, 5]);
    }

    #[test]
    fn validate_catches_corruption() {
        let mut s = Slab::new();
        s.insert(1);
        s.insert(2);
        s.remove(1);
        // Simulate a double-push of the same free index.
        s.free.push(0);
        assert!(s.validate().unwrap_err().contains("duplicated"));
    }
}
