//! Atomic shared variables (`#pragma omp atomic`).
//!
//! Clang lowers `omp atomic` to `atomicrmw`/`cmpxchg` instructions, which
//! the paper instruments directly with `gate_in`/`gate_out` (§V). Here the
//! gated update lives in [`crate::Worker::atomic_add_f64`] and friends;
//! this module supplies the missing primitive: an atomic `f64` built on
//! `AtomicU64` bit transmutation with a compare-exchange loop.

use std::sync::atomic::{AtomicU64, Ordering};

/// An atomic `f64` (OpenMP-style `atomic` reductions on floating point).
#[derive(Debug, Default)]
pub struct AtomicF64 {
    bits: AtomicU64,
}

impl AtomicF64 {
    /// New cell holding `v`.
    #[must_use]
    pub fn new(v: f64) -> Self {
        AtomicF64 {
            bits: AtomicU64::new(v.to_bits()),
        }
    }

    /// Atomic load.
    #[inline]
    #[must_use]
    pub fn load(&self, order: Ordering) -> f64 {
        f64::from_bits(self.bits.load(order))
    }

    /// Atomic store.
    #[inline]
    pub fn store(&self, v: f64, order: Ordering) {
        self.bits.store(v.to_bits(), order);
    }

    /// Atomic `+=` via compare-exchange loop; returns the previous value.
    #[inline]
    pub fn fetch_add(&self, v: f64, order: Ordering) -> f64 {
        self.fetch_update(order, |x| x + v)
    }

    /// Atomic read-modify-write with an arbitrary pure function; returns
    /// the previous value.
    pub fn fetch_update(&self, order: Ordering, f: impl Fn(f64) -> f64) -> f64 {
        // ORDERING: standard CAS-loop idiom — the Relaxed initial load and
        // Relaxed CAS-failure load are mere hints for the next attempt (a
        // stale value just retries); all synchronization is carried by the
        // caller-chosen `order` on the successful exchange.
        let mut cur = self.bits.load(Ordering::Relaxed);
        loop {
            let next = f(f64::from_bits(cur)).to_bits();
            match self
                .bits
                .compare_exchange_weak(cur, next, order, Ordering::Relaxed)
            {
                Ok(prev) => return f64::from_bits(prev),
                Err(observed) => cur = observed,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn load_store_roundtrip() {
        let a = AtomicF64::new(1.5);
        assert_eq!(a.load(Ordering::Relaxed), 1.5);
        a.store(-0.25, Ordering::Relaxed);
        assert_eq!(a.load(Ordering::Relaxed), -0.25);
    }

    #[test]
    fn fetch_add_returns_previous() {
        let a = AtomicF64::new(10.0);
        assert_eq!(a.fetch_add(2.5, Ordering::Relaxed), 10.0);
        assert_eq!(a.load(Ordering::Relaxed), 12.5);
    }

    #[test]
    fn concurrent_adds_do_not_lose_updates() {
        let a = AtomicF64::new(0.0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        a.fetch_add(1.0, Ordering::Relaxed);
                    }
                });
            }
        });
        assert_eq!(a.load(Ordering::Relaxed), 40_000.0);
    }

    #[test]
    fn special_values_roundtrip_bits() {
        let a = AtomicF64::new(f64::NEG_INFINITY);
        assert_eq!(a.load(Ordering::Relaxed), f64::NEG_INFINITY);
        a.store(f64::NAN, Ordering::Relaxed);
        assert!(a.load(Ordering::Relaxed).is_nan());
    }
}
