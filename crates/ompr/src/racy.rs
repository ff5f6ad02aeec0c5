//! Benign data races, expressible in safe Rust.
//!
//! The paper's motivating workloads contain *intended* data races: producer
//! threads store to shared variables while consumers poll them, avoiding
//! lock overhead (§IV-D). A C data race is undefined behaviour in Rust, so
//! [`RacyCell`] stores the value in a relaxed `AtomicU64`. Relaxed atomics
//! preserve exactly the property record-and-replay relies on — every
//! interleaving of the individual load/store *instructions* is a legal
//! execution with well-defined per-access values — without UB. The gated
//! accessors live on [`crate::Worker`] (`racy_load`/`racy_store`), which
//! instrument each instruction with `AccessKind::Load`/`Store`, the only
//! kinds eligible for DE epoch sharing (Condition 1). Under DC/DE a racy
//! access records through the domain's lock-free ticket gate — one
//! `fetch_add` on its ticket dispenser rather than a mutex bracket — which is
//! exactly the hot path these polling workloads hammer.

// ORDERING(file): deliberately-relaxed cells — this module *is* the
// benign-racy test subject. The record/replay gate around each access is
// what constrains the interleaving; the atomics only exist to make the C
// idiom expressible without UB, and any added ordering would mask the
// very reorderings the recorder must capture.
use reomp_core::SiteId;
use std::sync::atomic::{AtomicU64, Ordering};

/// Values storable in a racy cell (bit-packable into 64 bits).
pub trait RacyValue: Copy + Send + Sync + 'static {
    /// Pack into the cell's 64-bit payload.
    fn to_bits(self) -> u64;
    /// Unpack from the cell's 64-bit payload.
    fn from_bits(bits: u64) -> Self;
}

macro_rules! racy_int {
    ($($t:ty),*) => {$(
        impl RacyValue for $t {
            #[inline]
            fn to_bits(self) -> u64 {
                self as u64
            }
            #[inline]
            fn from_bits(bits: u64) -> Self {
                bits as $t
            }
        }
    )*};
}
racy_int!(u8, u16, u32, u64, usize);

impl RacyValue for i64 {
    #[inline]
    fn to_bits(self) -> u64 {
        self as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits as i64
    }
}

impl RacyValue for i32 {
    #[inline]
    fn to_bits(self) -> u64 {
        (self as i64) as u64
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        (bits as i64) as i32
    }
}

impl RacyValue for f64 {
    #[inline]
    fn to_bits(self) -> u64 {
        f64::to_bits(self)
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f64::from_bits(bits)
    }
}

impl RacyValue for f32 {
    #[inline]
    fn to_bits(self) -> u64 {
        u64::from(f32::to_bits(self))
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        f32::from_bits(bits as u32)
    }
}

impl RacyValue for bool {
    #[inline]
    fn to_bits(self) -> u64 {
        u64::from(self)
    }
    #[inline]
    fn from_bits(bits: u64) -> Self {
        bits != 0
    }
}

static NEXT_ADDR: AtomicU64 = AtomicU64::new(1);

fn fresh_addr() -> u64 {
    NEXT_ADDR.fetch_add(1, Ordering::Relaxed)
}

/// A shared cell accessed by intentional data races.
#[derive(Debug)]
pub struct RacyCell<T: RacyValue> {
    bits: AtomicU64,
    site: SiteId,
    addr: u64,
    _marker: std::marker::PhantomData<T>,
}

impl<T: RacyValue> RacyCell<T> {
    /// New cell whose accesses are instrumented under the site derived from
    /// `label`.
    #[must_use]
    pub fn new(label: &str, initial: T) -> Self {
        RacyCell {
            bits: AtomicU64::new(initial.to_bits()),
            site: SiteId::from_label(label),
            addr: fresh_addr(),
            _marker: std::marker::PhantomData,
        }
    }

    /// The instrumentation site of this cell.
    #[must_use]
    pub fn site(&self) -> SiteId {
        self.site
    }

    /// Unique cell identity for race detection.
    #[must_use]
    pub fn addr(&self) -> u64 {
        self.addr
    }

    /// Ungated raw load (used by the worker inside the gate and by
    /// sequential validation code).
    #[inline]
    #[must_use]
    pub fn raw_load(&self) -> T {
        T::from_bits(self.bits.load(Ordering::Relaxed))
    }

    /// Ungated raw store.
    #[inline]
    pub fn raw_store(&self, v: T) {
        self.bits.store(v.to_bits(), Ordering::Relaxed);
    }
}

/// A shared array of racy cells (e.g. a grid updated by scatter writes).
///
/// Each element is a distinct *address* for race detection, but elements
/// share gate sites in `site_groups` buckets: real instrumentation is
/// per-instruction, not per-element, and bucketing keeps the trace's site
/// table meaningful while letting hot elements form epoch runs.
#[derive(Debug)]
pub struct RacyArray<T: RacyValue> {
    cells: Vec<AtomicU64>,
    sites: Vec<SiteId>,
    base_addr: u64,
    _marker: std::marker::PhantomData<T>,
}

impl<T: RacyValue> RacyArray<T> {
    /// Array of `len` cells initialized to `initial`, gated under
    /// `site_groups` distinct sites derived from `label`.
    #[must_use]
    pub fn new(label: &str, len: usize, site_groups: usize, initial: T) -> Self {
        let groups = site_groups.clamp(1, len.max(1));
        let sites = (0..groups)
            .map(|g| SiteId::from_label_indexed(label, g as u64))
            .collect();
        let base_addr = NEXT_ADDR.fetch_add(len.max(1) as u64, Ordering::Relaxed);
        RacyArray {
            cells: (0..len)
                .map(|_| AtomicU64::new(initial.to_bits()))
                .collect(),
            sites,
            base_addr,
            _marker: std::marker::PhantomData,
        }
    }

    /// Number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the array is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The gate site covering element `i`.
    #[must_use]
    pub fn site_of(&self, i: usize) -> SiteId {
        self.sites[i % self.sites.len()]
    }

    /// All distinct gate sites of the array (for instrumentation plans).
    #[must_use]
    pub fn sites(&self) -> &[SiteId] {
        &self.sites
    }

    /// Race-detection address of element `i`.
    #[must_use]
    pub fn addr_of(&self, i: usize) -> u64 {
        self.base_addr + i as u64
    }

    /// Ungated raw load of element `i`.
    #[inline]
    #[must_use]
    pub fn raw_load(&self, i: usize) -> T {
        T::from_bits(self.cells[i].load(Ordering::Relaxed))
    }

    /// Ungated raw store to element `i`.
    #[inline]
    pub fn raw_store(&self, i: usize, v: T) {
        self.cells[i].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Snapshot all elements (sequential epilogue code).
    #[must_use]
    pub fn to_vec(&self) -> Vec<T> {
        (0..self.len()).map(|i| self.raw_load(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_roundtrips_value_types() {
        let f = RacyCell::new("f", -2.5f64);
        assert_eq!(f.raw_load(), -2.5);
        f.raw_store(7.25);
        assert_eq!(f.raw_load(), 7.25);

        let b = RacyCell::new("b", false);
        b.raw_store(true);
        assert!(b.raw_load());

        let i = RacyCell::new("i", -7i32);
        assert_eq!(i.raw_load(), -7);

        let x = RacyCell::new("x", u64::MAX);
        assert_eq!(x.raw_load(), u64::MAX);

        let g = RacyCell::new("g", -1.5f32);
        assert_eq!(g.raw_load(), -1.5f32);
    }

    #[test]
    fn cells_have_distinct_addrs_but_label_stable_sites() {
        let a = RacyCell::new("same", 0u64);
        let b = RacyCell::new("same", 0u64);
        assert_eq!(a.site(), b.site());
        assert_ne!(a.addr(), b.addr());
    }

    #[test]
    fn array_sites_bucket_elements() {
        let arr: RacyArray<f64> = RacyArray::new("grid", 100, 4, 0.0);
        assert_eq!(arr.len(), 100);
        assert_eq!(arr.sites().len(), 4);
        assert_eq!(arr.site_of(0), arr.site_of(4));
        assert_ne!(arr.site_of(0), arr.site_of(1));
        assert_ne!(arr.addr_of(0), arr.addr_of(4));
    }

    #[test]
    fn array_clamps_site_groups() {
        let arr: RacyArray<u64> = RacyArray::new("small", 3, 100, 1);
        assert_eq!(arr.sites().len(), 3);
        let arr: RacyArray<u64> = RacyArray::new("zero-groups", 3, 0, 1);
        assert_eq!(arr.sites().len(), 1);
    }

    #[test]
    fn array_roundtrip_and_snapshot() {
        let arr: RacyArray<i64> = RacyArray::new("v", 5, 2, -1);
        arr.raw_store(3, 42);
        assert_eq!(arr.raw_load(3), 42);
        assert_eq!(arr.to_vec(), vec![-1, -1, -1, 42, -1]);
    }
}
