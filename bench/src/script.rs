//! Seed-drawn inputs: the PRNG, the thread schedule a scripted recording
//! follows, and the cursor that drives a recording in exactly that order.
//!
//! Replay cost depends on the interleaving being replayed (how often the
//! turn changes hands), and a free-running recording produces a different
//! interleaving every time. So the trace a replay timing uses is *scripted*:
//! the order of thread ids is a pure function of `--seed`, and a record
//! session is stepped through it one gated access at a time.

use std::sync::atomic::{AtomicUsize, Ordering};

/// splitmix64 — the whole benchmark's only source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[must_use]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n` ≥ 1; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Draw the order in which threads take their gated accesses: thread
/// `t` appears exactly `counts[t]` times, in runs whose length is
/// geometric with mean 2 (a fair coin decides after every access whether
/// the same thread goes again) until one side runs out.
#[must_use]
pub fn draw_schedule(seed: u64, counts: &[usize]) -> Vec<u8> {
    assert!(counts.len() <= usize::from(u8::MAX), "thread ids are u8");
    let mut rng = Rng::new(seed);
    let mut left = counts.to_vec();
    let total: usize = counts.iter().sum();
    let mut order = Vec::with_capacity(total);
    let mut cur = rng.below(counts.len().max(1) as u64) as usize;
    while order.len() < total {
        if left[cur] == 0 {
            cur = (cur + 1) % left.len();
            continue;
        }
        order.push(cur as u8);
        left[cur] -= 1;
        if rng.next_u64() & 1 == 0 {
            cur = (cur + 1) % left.len();
        }
    }
    order
}

/// Steps threads through a schedule: [`Cursor::turn`] blocks the caller
/// until the next entry of the order is its own id, runs one access, and
/// hands the turn on.
#[derive(Debug)]
pub struct Cursor<'a> {
    order: &'a [u8],
    pos: AtomicUsize,
}

impl<'a> Cursor<'a> {
    #[must_use]
    pub fn new(order: &'a [u8]) -> Cursor<'a> {
        Cursor {
            order,
            pos: AtomicUsize::new(0),
        }
    }

    /// Run `f` as thread `tid`'s next scheduled access. Every thread must
    /// call this exactly as often as the order names it.
    pub fn turn<R>(&self, tid: u32, f: impl FnOnce() -> R) -> R {
        let mut spins = 0u32;
        let pos = loop {
            // Acquire pairs with the previous holder's Release store below:
            // its access (and everything it wrote) happened before ours.
            let pos = self.pos.load(Ordering::Acquire);
            if u32::from(self.order[pos]) == tid {
                break pos;
            }
            spins += 1;
            if spins.is_multiple_of(256) {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        };
        let out = f();
        self.pos.store(pos + 1, Ordering::Release);
        out
    }
}

/// How a workload's worker threads take their accesses.
#[derive(Debug, Clone, Copy)]
pub enum Pace<'a> {
    /// Every thread runs as fast as the gates let it.
    Free,
    /// Accesses happen in exactly the cursor's order.
    Scripted(&'a Cursor<'a>),
}

impl Pace<'_> {
    /// Run one gated access under this pacing.
    #[inline]
    pub fn step<R>(&self, tid: u32, f: impl FnOnce() -> R) -> R {
        match self {
            Pace::Free => f(),
            Pace::Scripted(cursor) => cursor.turn(tid, f),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_a_pure_function_of_the_seed() {
        let a = draw_schedule(7, &[500, 501]);
        assert_eq!(a, draw_schedule(7, &[500, 501]));
        assert_ne!(a, draw_schedule(8, &[500, 501]));
    }

    #[test]
    fn schedule_gives_each_thread_exactly_its_count() {
        for seed in 0..20 {
            let counts = [300usize, 200, 1];
            let order = draw_schedule(seed, &counts);
            assert_eq!(order.len(), 501);
            for (tid, &n) in counts.iter().enumerate() {
                assert_eq!(order.iter().filter(|&&t| usize::from(t) == tid).count(), n);
            }
        }
    }

    #[test]
    fn schedule_runs_have_mean_length_two() {
        let order = draw_schedule(3, &[100_000, 100_000]);
        // Ignore the tail, where one thread has run out.
        let body = &order[..150_000];
        let runs = 1 + body.windows(2).filter(|w| w[0] != w[1]).count();
        let mean = body.len() as f64 / runs as f64;
        assert!((1.9..2.1).contains(&mean), "mean run length {mean}");
    }

    #[test]
    fn cursor_enforces_the_order() {
        let order = draw_schedule(11, &[2_000, 2_000]);
        let cursor = Cursor::new(&order);
        let seen = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for tid in 0..2u32 {
                let (cursor, seen) = (&cursor, &seen);
                s.spawn(move || {
                    for _ in 0..2_000 {
                        cursor.turn(tid, || seen.lock().unwrap().push(tid as u8));
                    }
                });
            }
        });
        assert_eq!(*seen.lock().unwrap(), order);
    }
}
