//! Low-level synchronization primitives used by the gate engines.
//!
//! Two pieces here are deliberately *not* ordinary mutexes:
//!
//! * [`BatonLock`] — the lock `L` of the paper's ST replay (Fig. 4). It is
//!   acquired by whichever thread reads the next record from the shared
//!   trace (`test_lock`, line 12) but released by the thread that was
//!   *replayed* (`unset_lock`, line 17), which is in general a different
//!   thread. Standard mutexes forbid cross-thread release, so this is a
//!   plain test-and-test-and-set flag with acquire/release ordering — the
//!   hand-off is exactly the extra inter-thread communication the paper
//!   charges to ST replay (§IV-C2, events ST-3/ST-4 in Fig. 6).
//! * `RawLocked` (crate-private) — a mutex whose critical section *spans* `gate_in` →
//!   `gate_out`, i.e. lock and unlock happen in different function calls
//!   with arbitrary user code in between (the `set_lock(L)` … `unset_lock(L)`
//!   bracket of Figs. 4/5 record modes). It wraps `parking_lot::RawMutex`
//!   plus an `UnsafeCell` for the guarded state.

use crate::error::ReplayError;
use crate::shim::atomic::{AtomicBool, Ordering};
use crate::shim::Instant;
use crate::site::SiteId;
use parking_lot::lock_api::RawMutex as _;
use parking_lot::RawMutex;
use std::cell::UnsafeCell;
use std::time::Duration;

/// A test-and-test-and-set lock that may be released by a thread other than
/// the one that acquired it.
///
/// This models the paper's ST-replay lock hand-off: the *reader* thread
/// acquires the lock to fetch the next thread ID from the record file, and
/// the *replayed* thread releases it after executing the shared-memory
/// access region.
#[derive(Debug, Default)]
pub struct BatonLock {
    locked: AtomicBool,
}

impl BatonLock {
    /// New, unlocked baton.
    #[must_use]
    pub const fn new() -> Self {
        BatonLock {
            locked: AtomicBool::new(false),
        }
    }

    /// Try to take the baton; returns `true` on success. Never blocks —
    /// this is the paper's `test_lock(L)`.
    #[inline]
    pub fn try_acquire(&self) -> bool {
        // Test-and-test-and-set: avoid hammering the cache line with RMWs.
        // ORDERING: the Relaxed pre-check is a pure contention filter — a
        // stale `false` only means we attempt the CAS and lose it; a stale
        // `true` only delays this acquirer by one retry. All
        // synchronization (pairing with the releasing thread's Release
        // swap) rides on the CAS's Acquire success ordering. The CAS
        // failure load is Relaxed for the same reason: a failed acquire
        // publishes nothing and reads nothing protected.
        !self.locked.load(Ordering::Relaxed)
            && self
                .locked
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
    }

    /// Release the baton. May be called by any thread (that is the point of
    /// a baton), but the baton must actually be held.
    ///
    /// # Panics
    /// Panics — in **all** build profiles — when the baton is already free.
    /// A double release would silently corrupt the ST replay hand-off (two
    /// threads could both win `try_acquire` and publish conflicting
    /// `next_tid` values), so it is a protocol violation, not a recoverable
    /// condition. The check is a `swap`, not a load-then-store, so two
    /// racing releases cannot both observe "held".
    #[inline]
    pub fn release(&self) {
        assert!(
            self.locked.swap(false, Ordering::Release),
            "BatonLock::release called on a baton that is not held (double release)"
        );
    }

    /// Whether the baton is currently held.
    ///
    /// Diagnostic only: the answer may be stale by the time the caller
    /// looks at it, so no protocol decision may be based on it.
    #[inline]
    #[must_use]
    pub fn is_locked(&self) -> bool {
        // ORDERING: Relaxed is sufficient for a point-in-time diagnostic
        // read; it orders nothing and the gate engines never branch their
        // hand-off protocol on it (they use `try_acquire`'s CAS).
        self.locked.load(Ordering::Relaxed)
    }
}

/// Bytes every [`CachePadded`] value is aligned and padded to: two 64-byte
/// lines, because x86's adjacent-line prefetcher pulls lines in pairs and
/// some aarch64 parts have 128-byte lines outright.
pub(crate) const CACHE_LINE: usize = 128;

/// `T` on cache lines of its own: aligned to and padded out to
/// [`CACHE_LINE`] bytes, so that neighbouring elements of a `Vec` (or
/// neighbouring heap allocations) written by different threads never
/// share a line. The gate hot path keeps every word it writes in one of
/// these, owned by the writing thread or by the domain it is in.
#[derive(Debug, Default)]
#[repr(align(128))]
pub(crate) struct CachePadded<T>(pub T);

// `repr(align)` takes a literal; keep it and the constant in step.
const _: () = assert!(std::mem::align_of::<CachePadded<u8>>() == CACHE_LINE);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Spin-wait policy for replay gates.
///
/// Replay waits (`while (tid != next_tid)` / `while (clock != next_clock)`)
/// are busy loops in the paper. On machines with fewer cores than replayed
/// threads a pure busy loop livelocks, so waits spin briefly with
/// [`std::hint::spin_loop`] and then yield to the scheduler. A watchdog
/// timeout converts a stuck wait into a structured [`ReplayError::Timeout`]
/// instead of a hang.
#[derive(Debug, Clone, Copy)]
pub struct SpinConfig {
    /// Number of `spin_loop` hints between yields.
    pub spin_hints: u32,
    /// Maximum total wait before declaring the replay stuck. `None`
    /// disables the watchdog.
    pub timeout: Option<Duration>,
}

impl Default for SpinConfig {
    fn default() -> Self {
        SpinConfig {
            spin_hints: 64,
            timeout: Some(Duration::from_secs(30)),
        }
    }
}

/// An in-progress spin wait; tracks iterations and enforces the watchdog.
#[derive(Debug)]
pub struct SpinWait<'a> {
    cfg: &'a SpinConfig,
    iters: u64,
    started: Option<Instant>,
}

impl<'a> SpinWait<'a> {
    /// Begin a wait governed by `cfg`.
    #[must_use]
    pub fn new(cfg: &'a SpinConfig) -> Self {
        SpinWait {
            cfg,
            iters: 0,
            started: None,
        }
    }

    /// Total loop iterations performed so far.
    #[must_use]
    pub fn iterations(&self) -> u64 {
        self.iters
    }

    /// One wait step. Returns an error once the watchdog expires;
    /// `thread`, `site`, `waiting_for` and `observed` feed the diagnostic.
    ///
    /// The yield/watchdog cadence is `spin_hints` clamped to `1..=4096`:
    /// an over-large hint count must degrade throughput, never disable the
    /// watchdog (a `spin_hints: u32::MAX` config used to spin ~4 billion
    /// iterations before the *first* timeout check — and because the
    /// timeout clock also started at the first yield, the watchdog was
    /// effectively unreachable).
    #[inline]
    pub fn step(
        &mut self,
        thread: u32,
        site: SiteId,
        waiting_for: u64,
        observed: impl Fn() -> u64,
    ) -> Result<(), ReplayError> {
        // Start the clock at the first step, not the first yield, so the
        // watchdog measures the whole wait.
        let started = *self.started.get_or_insert_with(Instant::now);
        self.iters += 1;
        if self
            .iters
            .is_multiple_of(u64::from(self.cfg.spin_hints.clamp(1, 4096)))
        {
            crate::shim::yield_now();
            if let Some(limit) = self.cfg.timeout {
                if started.elapsed() > limit {
                    return Err(ReplayError::Timeout {
                        thread,
                        site,
                        waiting_for,
                        observed: observed(),
                    });
                }
            }
        } else {
            crate::shim::spin_loop();
        }
        Ok(())
    }
}

/// Record-side spin policy for the lock-free ticket gate: spin briefly,
/// then yield.
///
/// Unlike replay's [`SpinWait`] this carries **no watchdog** — a record-mode
/// wait ends as soon as the predecessor's region finishes (there is no
/// recorded order to diverge from, hence nothing to time out on), exactly
/// like blocking on the gate mutex has no timeout today. The exponential
/// spin phase keeps the short waits (a neighbor's few-instruction region)
/// off the scheduler; the yield phase keeps oversubscribed hosts live.
#[derive(Debug, Default)]
pub(crate) struct Backoff {
    step: u32,
}

impl Backoff {
    /// Yield to the scheduler once the spin phase exceeds 2^6 hints.
    const YIELD_THRESHOLD: u32 = 6;

    pub(crate) const fn new() -> Self {
        Backoff { step: 0 }
    }

    /// One wait step: `2^step` spin hints while short, a scheduler yield
    /// once the wait is long enough that burning the core stops paying.
    #[inline]
    pub(crate) fn snooze(&mut self) {
        if self.step <= Self::YIELD_THRESHOLD {
            for _ in 0..(1u32 << self.step) {
                crate::shim::spin_loop();
            }
            self.step += 1;
        } else {
            crate::shim::yield_now();
        }
    }
}

/// State guarded by a raw mutex whose lock/unlock calls are split across
/// `gate_in`/`gate_out`.
///
/// # Safety contract
///
/// [`RawLocked::lock`] must be paired with exactly one [`RawLocked::unlock`]
/// on the same thread, and [`RawLocked::get`] may only be called between
/// them — **or**, equivalently, the calling thread is the unique holder of
/// an external exclusion protocol layered over this state. The gate engines
/// uphold this two ways: the locked paths lock at `gate_in` and access +
/// unlock at `gate_out`; the lock-free fast path of
/// [`TicketGate`](crate::clock::TicketGate) sessions instead holds the
/// domain's currently-served ticket (every accessor — fast, slow, or
/// out-of-band pauser — holds a served ticket there, so at most one thread
/// touches the state at a time; see `DomainRecord` in `session.rs`).
pub(crate) struct RawLocked<T> {
    raw: RawMutex,
    /// Model-checker seam: when the lock is created inside a
    /// `shuttle::check` execution, acquire/release route through the model
    /// scheduler (so the gate bracket is explored as a scheduling point)
    /// and `raw` is never touched. Outside a model, `acquire`/`release`
    /// return `false` and the `RawMutex` does its usual job.
    #[cfg(any(reomp_model, feature = "model"))]
    model: shuttle::sync::RawLock,
    cell: UnsafeCell<T>,
}

// SAFETY: access to `cell` is serialized through `raw`, so shared
// references never touch the interior concurrently.
unsafe impl<T: Send> Sync for RawLocked<T> {}
// SAFETY: moving the container moves the `T` with it; `T: Send` is all
// that transfer needs (the raw mutex holds no thread affinity).
unsafe impl<T: Send> Send for RawLocked<T> {}

impl<T> RawLocked<T> {
    pub(crate) fn new(value: T) -> Self {
        RawLocked {
            raw: RawMutex::INIT,
            #[cfg(any(reomp_model, feature = "model"))]
            model: shuttle::sync::RawLock::new(),
            cell: UnsafeCell::new(value),
        }
    }

    /// Acquire the lock (blocking). This is `set_lock(L)` of Figs. 4/5.
    pub(crate) fn lock(&self) {
        #[cfg(any(reomp_model, feature = "model"))]
        if self.model.acquire() {
            return;
        }
        self.raw.lock();
    }

    /// Release the lock. This is `unset_lock(L)`.
    ///
    /// # Safety
    /// The calling thread must currently hold the lock via [`Self::lock`].
    pub(crate) unsafe fn unlock(&self) {
        #[cfg(any(reomp_model, feature = "model"))]
        if self.model.release() {
            return;
        }
        // SAFETY: forwarded contract — caller holds the lock.
        unsafe { self.raw.unlock() }
    }

    /// Access the guarded state.
    ///
    /// # Safety
    /// The calling thread must currently hold the lock.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get(&self) -> &mut T {
        // SAFETY: exclusive access is guaranteed by the held lock.
        unsafe { &mut *self.cell.get() }
    }

    /// Run `f` under the lock (convenience for non-split critical sections).
    ///
    /// Session-level pausers go through `DomainRecord::pause` instead,
    /// which also queues a ghost ticket when a ticket gate is present;
    /// this raw bracket remains for states with no layered protocol.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        self.lock();
        // SAFETY: lock is held for the duration of `f`.
        let out = f(unsafe { self.get() });
        // SAFETY: we locked above on this thread.
        unsafe { self.unlock() };
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    #[test]
    fn baton_basic_acquire_release() {
        let b = BatonLock::new();
        assert!(!b.is_locked());
        assert!(b.try_acquire());
        assert!(b.is_locked());
        assert!(!b.try_acquire(), "baton is not reentrant");
        b.release();
        assert!(!b.is_locked());
        assert!(b.try_acquire());
        b.release();
    }

    #[test]
    fn baton_double_release_panics_in_all_builds() {
        // Regression: this used to be a `debug_assert!` on a separate load,
        // so release builds silently cleared an already-free baton and ST
        // replay could hand the baton to two readers at once.
        let b = BatonLock::new();
        assert!(b.try_acquire());
        b.release();
        let err = std::panic::catch_unwind(|| b.release());
        assert!(err.is_err(), "double release must panic, not corrupt state");
        // The poisoned release did not re-lock the baton.
        assert!(!b.is_locked());
        assert!(b.try_acquire(), "baton still usable after the panic");
        b.release();
    }

    #[test]
    fn baton_cross_thread_release() {
        let b = Arc::new(BatonLock::new());
        assert!(b.try_acquire());
        let b2 = Arc::clone(&b);
        std::thread::spawn(move || b2.release()).join().unwrap();
        assert!(!b.is_locked());
    }

    #[test]
    fn baton_mutual_exclusion_under_contention() {
        let b = Arc::new(BatonLock::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b = Arc::clone(&b);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..5_000 {
                    while !b.try_acquire() {
                        std::hint::spin_loop();
                    }
                    // Non-atomic-looking increment under the lock.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    b.release();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4 * 5_000);
    }

    #[test]
    fn spin_wait_times_out_with_diagnostics() {
        let cfg = SpinConfig {
            spin_hints: 4,
            timeout: Some(Duration::from_millis(20)),
        };
        let mut w = SpinWait::new(&cfg);
        let site = SiteId(0xbeef);
        let err = loop {
            match w.step(7, site, 99, || 3) {
                Ok(()) => continue,
                Err(e) => break e,
            }
        };
        match err {
            ReplayError::Timeout {
                thread,
                waiting_for,
                observed,
                ..
            } => {
                assert_eq!(thread, 7);
                assert_eq!(waiting_for, 99);
                assert_eq!(observed, 3);
            }
            other => panic!("expected timeout, got {other}"),
        }
        assert!(w.iterations() > 0);
    }

    #[test]
    fn spin_wait_watchdog_survives_huge_spin_hints() {
        // Regression: the yield/watchdog cadence used to be the raw
        // `spin_hints`, so `u32::MAX` postponed the first timeout check by
        // ~4 billion iterations — and the timeout clock, started lazily at
        // the first yield, never started at all. The wait below must time
        // out promptly instead of hanging.
        let cfg = SpinConfig {
            spin_hints: u32::MAX,
            timeout: Some(Duration::from_millis(20)),
        };
        let mut w = SpinWait::new(&cfg);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        let err = loop {
            assert!(
                std::time::Instant::now() < deadline,
                "watchdog never fired with huge spin_hints"
            );
            match w.step(1, SiteId(2), 7, || 0) {
                Ok(()) => continue,
                Err(e) => break e,
            }
        };
        assert!(matches!(err, ReplayError::Timeout { .. }));
    }

    #[test]
    fn spin_wait_no_timeout_when_disabled() {
        let cfg = SpinConfig {
            spin_hints: 2,
            timeout: None,
        };
        let mut w = SpinWait::new(&cfg);
        for _ in 0..10_000 {
            w.step(0, SiteId(1), 0, || 0).unwrap();
        }
    }

    #[test]
    fn raw_locked_with_serializes() {
        let l = Arc::new(RawLocked::new(0u64));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let l = Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    l.with(|v| *v += 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(l.with(|v| *v), 40_000);
    }

    #[test]
    fn raw_locked_split_lock_unlock() {
        let l = RawLocked::new(String::from("a"));
        l.lock();
        // SAFETY: locked above.
        unsafe { l.get().push('b') };
        // SAFETY: pairs with the `lock` above; `get` is not used after.
        unsafe { l.unlock() };
        assert_eq!(l.with(|s| s.clone()), "ab");
    }
}
