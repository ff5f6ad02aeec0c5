//! Reductions (`reduction(+:var)` and friends).
//!
//! OpenMP reductions compute thread-local partials and combine them once
//! per thread at the end of the loop, which is why the paper measures
//! negligible record-and-replay overhead for `omp_reduction` (§VI-A1): only
//! one gated access per thread. The combine order still affects
//! floating-point results — that is precisely the non-determinism the
//! scientists in §II-A suffered from — so the combine is gated with
//! [`reomp_core::AccessKind::Reduction`] and replays in recorded order.

// ORDERING(file): the relaxed atomics here are thread-private partials
// and diagnostic counters. Partials are only combined inside a gated
// region (the reomp gate's lock provides the ordering); counters are read
// after the parallel region's join barrier.
use crate::atomic::AtomicF64;
use reomp_core::SiteId;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// The combining operation of a reduction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// `+`
    Sum,
    /// `max`
    Max,
    /// `min`
    Min,
}

enum Cell {
    F64(AtomicF64),
    U64(AtomicU64),
    I64(AtomicI64),
}

/// A shared reduction target.
pub struct Reduction {
    site: SiteId,
    op: ReduceOp,
    cell: Cell,
}

impl Reduction {
    /// `reduction(+ : f64)` starting at 0.
    #[must_use]
    pub fn sum_f64(label: &str) -> Self {
        Reduction {
            site: SiteId::from_label(label),
            op: ReduceOp::Sum,
            cell: Cell::F64(AtomicF64::new(0.0)),
        }
    }

    /// `reduction(max : f64)` starting at `-inf`.
    #[must_use]
    pub fn max_f64(label: &str) -> Self {
        Reduction {
            site: SiteId::from_label(label),
            op: ReduceOp::Max,
            cell: Cell::F64(AtomicF64::new(f64::NEG_INFINITY)),
        }
    }

    /// `reduction(min : f64)` starting at `+inf`.
    #[must_use]
    pub fn min_f64(label: &str) -> Self {
        Reduction {
            site: SiteId::from_label(label),
            op: ReduceOp::Min,
            cell: Cell::F64(AtomicF64::new(f64::INFINITY)),
        }
    }

    /// `reduction(+ : u64)` starting at 0.
    #[must_use]
    pub fn sum_u64(label: &str) -> Self {
        Reduction {
            site: SiteId::from_label(label),
            op: ReduceOp::Sum,
            cell: Cell::U64(AtomicU64::new(0)),
        }
    }

    /// `reduction(+ : i64)` starting at 0.
    #[must_use]
    pub fn sum_i64(label: &str) -> Self {
        Reduction {
            site: SiteId::from_label(label),
            op: ReduceOp::Sum,
            cell: Cell::I64(AtomicI64::new(0)),
        }
    }

    /// Gate site of the combine.
    #[must_use]
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// The combining operation.
    #[must_use]
    pub fn op(&self) -> ReduceOp {
        self.op
    }

    /// Current f64 value (panics for integer reductions).
    #[must_use]
    pub fn load(&self) -> f64 {
        match &self.cell {
            Cell::F64(c) => c.load(Ordering::Acquire),
            _ => panic!("not an f64 reduction"),
        }
    }

    /// Current u64 value (panics for other reductions).
    #[must_use]
    pub fn load_u64(&self) -> u64 {
        match &self.cell {
            Cell::U64(c) => c.load(Ordering::Acquire),
            _ => panic!("not a u64 reduction"),
        }
    }

    /// Current i64 value (panics for other reductions).
    #[must_use]
    pub fn load_i64(&self) -> i64 {
        match &self.cell {
            Cell::I64(c) => c.load(Ordering::Acquire),
            _ => panic!("not an i64 reduction"),
        }
    }

    /// Reset to the identity element (for reuse across steps).
    pub fn reset(&self) {
        match (&self.cell, self.op) {
            (Cell::F64(c), ReduceOp::Sum) => c.store(0.0, Ordering::Release),
            (Cell::F64(c), ReduceOp::Max) => c.store(f64::NEG_INFINITY, Ordering::Release),
            (Cell::F64(c), ReduceOp::Min) => c.store(f64::INFINITY, Ordering::Release),
            (Cell::U64(c), _) => c.store(0, Ordering::Release),
            (Cell::I64(c), _) => c.store(0, Ordering::Release),
        }
    }

    /// Raw (ungated) combine of an f64 partial — called by the worker
    /// inside the gate.
    pub(crate) fn combine_f64(&self, partial: f64) {
        match (&self.cell, self.op) {
            // Each update is one atomic RMW. Under a record or replay gate
            // the combine is already serialized, so the CAS never retries
            // and the f64 additions happen in the order the recorded order
            // dictates; a passthrough gate serializes nothing, and a plain
            // load-then-store here would lose concurrent partials.
            (Cell::F64(c), ReduceOp::Sum) => {
                c.fetch_add(partial, Ordering::Relaxed);
            }
            (Cell::F64(c), ReduceOp::Max) => {
                c.fetch_max(partial, Ordering::Relaxed);
            }
            (Cell::F64(c), ReduceOp::Min) => {
                c.fetch_update(Ordering::Relaxed, |cur| cur.min(partial));
            }
            _ => panic!("combine_f64 on integer reduction"),
        }
    }

    /// Raw (ungated) combine of a u64 partial.
    pub(crate) fn combine_u64(&self, partial: u64) {
        match (&self.cell, self.op) {
            (Cell::U64(c), ReduceOp::Sum) => {
                c.fetch_add(partial, Ordering::Relaxed);
            }
            (Cell::U64(c), ReduceOp::Max) => {
                c.fetch_max(partial, Ordering::Relaxed);
            }
            (Cell::U64(c), ReduceOp::Min) => {
                c.fetch_min(partial, Ordering::Relaxed);
            }
            _ => panic!("combine_u64 on non-u64 reduction"),
        }
    }

    /// Raw (ungated) combine of an i64 partial.
    pub(crate) fn combine_i64(&self, partial: i64) {
        match (&self.cell, self.op) {
            (Cell::I64(c), ReduceOp::Sum) => {
                c.fetch_add(partial, Ordering::Relaxed);
            }
            (Cell::I64(c), ReduceOp::Max) => {
                c.fetch_max(partial, Ordering::Relaxed);
            }
            (Cell::I64(c), ReduceOp::Min) => {
                c.fetch_min(partial, Ordering::Relaxed);
            }
            _ => panic!("combine_i64 on non-i64 reduction"),
        }
    }
}

impl std::fmt::Debug for Reduction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reduction")
            .field("site", &self.site)
            .field("op", &self.op)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_f64_combines_and_resets() {
        let r = Reduction::sum_f64("s");
        r.combine_f64(1.5);
        r.combine_f64(2.5);
        assert_eq!(r.load(), 4.0);
        r.reset();
        assert_eq!(r.load(), 0.0);
    }

    #[test]
    fn max_min_identities() {
        let mx = Reduction::max_f64("mx");
        assert_eq!(mx.load(), f64::NEG_INFINITY);
        mx.combine_f64(-3.0);
        mx.combine_f64(-9.0);
        assert_eq!(mx.load(), -3.0);

        let mn = Reduction::min_f64("mn");
        mn.combine_f64(5.0);
        mn.combine_f64(2.0);
        assert_eq!(mn.load(), 2.0);
        mn.reset();
        assert_eq!(mn.load(), f64::INFINITY);
    }

    #[test]
    fn concurrent_f64_combines_lose_no_partial() {
        // What a passthrough session does to a reduction: no gate orders
        // the combines, so the update itself has to be atomic.
        let red = Reduction::sum_f64("racing");
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..10_000 {
                        red.combine_f64(1.0);
                    }
                });
            }
        });
        assert_eq!(red.load(), 40_000.0);
    }

    #[test]
    fn integer_reductions() {
        let u = Reduction::sum_u64("u");
        u.combine_u64(3);
        u.combine_u64(4);
        assert_eq!(u.load_u64(), 7);

        let i = Reduction::sum_i64("i");
        i.combine_i64(-3);
        i.combine_i64(10);
        assert_eq!(i.load_i64(), 7);
    }

    #[test]
    #[should_panic(expected = "not an f64 reduction")]
    fn type_confusion_panics() {
        let u = Reduction::sum_u64("u");
        let _ = u.load();
    }

    #[test]
    fn combine_order_changes_f64_result() {
        // The raison d'être of gating reductions: float addition order
        // matters. Pick values where (a+b)+c != (a+c)+b.
        let a = 1e16f64;
        let b = 1.0f64;
        let c = -1e16f64;
        let r1 = ((a + b) + c).to_bits();
        let r2 = ((a + c) + b).to_bits();
        assert_ne!(r1, r2, "test values must be order-sensitive");

        let red = Reduction::sum_f64("ord");
        red.combine_f64(a);
        red.combine_f64(b);
        red.combine_f64(c);
        let first = red.load();
        red.reset();
        red.combine_f64(a);
        red.combine_f64(c);
        red.combine_f64(b);
        assert_ne!(first.to_bits(), red.load().to_bits());
    }
}
