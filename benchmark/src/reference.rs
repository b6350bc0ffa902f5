//! The machine-speed reference: a fixed kernel of the benchmark's own code,
//! run between laps, whose wall time tells how fast the machine is *right
//! now*.
//!
//! The build host is a 2-core virtual machine on a shared processor. Its
//! speed moves by up to 60 % for minutes at a time (a neighbour on the other
//! hardware thread, on the shared cache) without any steal time showing in
//! the guest, and it moves every lap of a run together, so no statistic over
//! the laps of one run removes it. The end-to-end host times are therefore
//! divided by the **speed factor** measured around each lap: the kernel's
//! wall time over [`NOMINAL_NS`], its usual time on the build host. A factor
//! of 1.25 says the machine ran a quarter slower than nominal while that lap
//! was measured.
//!
//! The kernel calls nothing in the repository, so a change to the program
//! cannot move it. It does what an allocator's bookkeeping does, on memory
//! of its own: a dependent pointer chase through 8 MiB (cache misses) and
//! removals and insertions on a 65 536-entry `BTreeMap` (branches, node
//! walks, the heap).

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The kernel's usual wall time on the 2-core build host: the median over
/// forty runs (ten of each workload) of the run's median sample. Only a
/// unit: it makes a scaled time read like a wall time on that host.
pub const NOMINAL_NS: f64 = 52.5e6;

const CHASE_SLOTS: usize = 1 << 21;
const CHASE_STEPS: usize = 400_000;
const TREE_KEYS: usize = 1 << 16;
const TREE_SWAPS: usize = 80_000;

/// A sample older than this is not taken for the speed before a piece of
/// work: the kernel runs again.
const FRESH: Duration = Duration::from_millis(20);

pub struct Reference {
    /// One cycle through all slots: `chase[i]` is the slot after `i`.
    chase: Vec<u32>,
    at: u32,
    tree: BTreeMap<u64, u64>,
    keys: Vec<u64>,
    rng: u64,
    /// The last sample and when it ended.
    last: (f64, Instant),
}

/// SplitMix64.
fn next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Reference {
    /// Builds the kernel's tables (the same on every run) and runs it once
    /// untimed, so the first sample is not a cold one.
    pub fn new() -> Reference {
        let mut rng = crate::inputs::DEFAULT_SEED;
        // Sattolo's shuffle: a permutation that is a single cycle.
        let mut chase: Vec<u32> = (0..CHASE_SLOTS as u32).collect();
        for i in (1..CHASE_SLOTS).rev() {
            let j = (next(&mut rng) % i as u64) as usize;
            chase.swap(i, j);
        }
        let keys: Vec<u64> = (0..TREE_KEYS).map(|_| next(&mut rng)).collect();
        let tree = keys.iter().map(|&k| (k, k)).collect();
        let mut reference = Reference {
            chase,
            at: 0,
            tree,
            keys,
            rng,
            last: (1.0, Instant::now()),
        };
        reference.sample();
        reference.sample();
        reference
    }

    /// `steps` hops of the chase, then `swaps` remove/insert pairs on the tree.
    fn kernel(&mut self, steps: usize, swaps: usize) {
        let mut at = self.at;
        for _ in 0..steps {
            at = self.chase[at as usize];
        }
        self.at = std::hint::black_box(at);
        for _ in 0..swaps {
            let i = (next(&mut self.rng) % TREE_KEYS as u64) as usize;
            let new = next(&mut self.rng);
            let old = std::mem::replace(&mut self.keys[i], new);
            self.tree.remove(&old);
            self.tree.insert(new, old);
        }
    }

    /// Runs the kernel once; its speed factor (wall time / nominal). An
    /// untimed eighth of the kernel comes first, so the timed part starts
    /// from the kernel's own cache state whatever ran before it: what a lap
    /// leaves in the caches must not reach the reference.
    pub fn sample(&mut self) -> f64 {
        self.kernel(CHASE_STEPS / 8, TREE_SWAPS / 8);
        let start = Instant::now();
        self.kernel(CHASE_STEPS, TREE_SWAPS);
        let end = Instant::now();
        let factor = (end - start).as_nanos() as f64 / NOMINAL_NS;
        self.last = (factor, end);
        factor
    }

    /// Runs `work` between two samples and returns what it returned with the
    /// mean of the two speed factors. The sample after one piece of work is
    /// the sample before the next when they follow each other directly.
    pub fn around<R>(&mut self, work: impl FnOnce() -> R) -> (R, f64) {
        let before = match self.last {
            (factor, at) if at.elapsed() < FRESH => factor,
            _ => self.sample(),
        };
        let out = work();
        let after = self.sample();
        (out, (before + after) / 2.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_is_one_cycle_and_the_tree_keeps_its_size() {
        let mut reference = Reference::new();
        let mut at = 0u32;
        let mut steps = 0usize;
        loop {
            at = reference.chase[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, CHASE_SLOTS);
        reference.sample();
        assert_eq!(reference.tree.len(), TREE_KEYS);
    }

    #[test]
    fn around_returns_the_work_and_a_positive_factor() {
        let mut reference = Reference::new();
        let (out, factor) = reference.around(|| 7);
        assert_eq!(out, 7);
        assert!(factor > 0.0 && factor.is_finite());
    }
}
