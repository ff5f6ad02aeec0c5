//! Sense-reversing team barrier.
//!
//! Barriers are deterministic synchronization (all-to-all), so they need no
//! record-and-replay gate; they do, however, establish happens-before edges
//! that the race detector must see, which is why [`crate::Worker::barrier`]
//! emits arrive/depart events around the wait.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};

/// A reusable barrier for a fixed-size team.
#[derive(Debug)]
pub struct TeamBarrier {
    n: u32,
    count: AtomicU32,
    sense: AtomicBool,
    generation: AtomicU64,
}

impl TeamBarrier {
    /// Barrier for `n` threads.
    #[must_use]
    pub fn new(n: u32) -> Self {
        assert!(n > 0);
        TeamBarrier {
            n,
            count: AtomicU32::new(0),
            sense: AtomicBool::new(false),
            generation: AtomicU64::new(0),
        }
    }

    /// Number of completed barrier episodes.
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// Wait until all `n` threads arrive. `local_sense` is the caller's
    /// per-thread sense flag, flipped on every use; returns the generation
    /// number of the barrier episode that completed.
    pub fn wait(&self, local_sense: &mut bool) -> u64 {
        let target = !*local_sense;
        *local_sense = target;
        let gen = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            // Last arriver: reset and release everyone.
            self.count.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::AcqRel);
            self.sense.store(target, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.sense.load(Ordering::Acquire) != target {
                spins = spins.wrapping_add(1);
                if spins.is_multiple_of(64) {
                    std::thread::yield_now();
                } else {
                    std::hint::spin_loop();
                }
            }
        }
        gen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn single_thread_barrier_never_blocks() {
        let b = TeamBarrier::new(1);
        let mut sense = false;
        assert_eq!(b.wait(&mut sense), 0);
        assert_eq!(b.wait(&mut sense), 1);
        assert_eq!(b.generation(), 2);
    }

    #[test]
    fn barrier_separates_phases() {
        const N: u32 = 4;
        const ROUNDS: usize = 50;
        let b = TeamBarrier::new(N);
        let phase_counts: Vec<AtomicUsize> = (0..ROUNDS).map(|_| AtomicUsize::new(0)).collect();
        std::thread::scope(|s| {
            for _ in 0..N {
                s.spawn(|| {
                    let mut sense = false;
                    for (round, count) in phase_counts.iter().enumerate() {
                        count.fetch_add(1, Ordering::SeqCst);
                        b.wait(&mut sense);
                        // After the barrier, every thread must observe the
                        // full count for this phase.
                        assert_eq!(count.load(Ordering::SeqCst), N as usize, "round {round}");
                        b.wait(&mut sense);
                    }
                });
            }
        });
        assert_eq!(b.generation(), 2 * ROUNDS as u64);
    }

    #[test]
    fn generations_are_monotone() {
        let b = TeamBarrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    let mut sense = false;
                    let mut last = None;
                    for _ in 0..100 {
                        let g = b.wait(&mut sense);
                        if let Some(prev) = last {
                            assert!(g > prev);
                        }
                        last = Some(g);
                    }
                });
            }
        });
    }
}
