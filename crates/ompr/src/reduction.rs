//! Reductions (`reduction(+:var)`).
//!
//! OpenMP reductions compute thread-local partials and combine them once
//! per thread at the end of the loop, which is why the paper measures
//! negligible record-and-replay overhead for `omp_reduction` (§VI-A1): only
//! one gated access per thread. The combine order still affects
//! floating-point results — that is precisely the non-determinism the
//! scientists in §II-A suffered from — so the combine is gated with
//! [`reomp_core::AccessKind::Reduction`] and replays in recorded order.

// ORDERING(file): the relaxed combine is a thread's partial added inside
// a gated region (the reomp gate provides the ordering); the value is read
// after the parallel region's join barrier.
use crate::atomic::AtomicF64;
use reomp_core::SiteId;
use std::sync::atomic::Ordering;

/// A shared `reduction(+ : f64)` target.
pub struct Reduction {
    site: SiteId,
    cell: AtomicF64,
}

impl Reduction {
    /// `reduction(+ : f64)` starting at 0.
    #[must_use]
    pub fn sum_f64(label: &str) -> Self {
        Reduction {
            site: SiteId::from_label(label),
            cell: AtomicF64::new(0.0),
        }
    }

    /// Gate site of the combine.
    #[must_use]
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Current value.
    #[must_use]
    pub fn load(&self) -> f64 {
        self.cell.load(Ordering::Acquire)
    }

    /// Reset to the identity element (for reuse across steps).
    pub fn reset(&self) {
        self.cell.store(0.0, Ordering::Release);
    }

    /// Raw (ungated) combine of a partial — called by the worker inside
    /// the gate. One atomic RMW: under a record or replay gate the combine
    /// is already serialized, so the CAS never retries and the additions
    /// happen in the order the recorded order dictates; a passthrough gate
    /// serializes nothing, and a plain load-then-store here would lose
    /// concurrent partials.
    pub(crate) fn combine_f64(&self, partial: f64) {
        self.cell.fetch_add(partial, Ordering::Relaxed);
    }
}

impl std::fmt::Debug for Reduction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reduction")
            .field("site", &self.site)
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
