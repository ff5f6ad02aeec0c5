//! The global logical clock (record side) and the `next_clock` turnstile
//! (replay side) of DC/DE recording (paper Fig. 5), plus the lock-free
//! [`TicketGate`] that admits DC/DE record gates in place of the mutex.

use crate::error::ReplayError;
use crate::shim::atomic::{AtomicBool, AtomicU64, Ordering};
use crate::site::SiteId;
use crate::stats::Stats;
use crate::sync::{Backoff, SpinConfig, SpinWait};

/// The record-side `global_clock` of Fig. 5 line 22.
///
/// The clock is only ever advanced while the gate lock is held, so a plain
/// `fetch_add` with relaxed ordering would suffice; `AcqRel` is used so the
/// value is also safely readable by diagnostics outside the lock.
#[derive(Debug, Default)]
pub struct GlobalClock {
    value: AtomicU64,
}

impl GlobalClock {
    /// A clock starting at zero.
    #[must_use]
    pub const fn new() -> Self {
        GlobalClock {
            value: AtomicU64::new(0),
        }
    }

    /// `clock = global_clock++` — returns the pre-increment value.
    #[inline]
    pub fn tick(&self) -> u64 {
        self.value.fetch_add(1, Ordering::AcqRel)
    }

    /// Current value (number of clock assignments so far).
    #[inline]
    #[must_use]
    pub fn now(&self) -> u64 {
        self.value.load(Ordering::Acquire)
    }
}

/// A lock-free FIFO ticket gate: the record-side admission of a DC/DE gate
/// domain (the record mode's counterpart of the replay [`Turnstile`]).
///
/// The paper serializes every gated region under the gate mutex `L`
/// (Fig. 5 lines 20–24). A DC/DE session admits **every** record gate —
/// plain, critical, edge-anchoring — and every out-of-band pause through
/// this gate instead, and never takes `L`; ST sessions keep `L` and never
/// build one. This gate keeps the *serialization* — regions
/// still execute one at a time, in ticket order, which is what makes the
/// recorded clocks a faithful execution order — but replaces the mutex
/// with two words of atomics on one line: `enter` is one `fetch_add` plus
/// one load when the gate is idle (the common, uncontended case), `exit`
/// one load and one store. One locked instruction per access, no parking,
/// no lock-owner bookkeeping, no `RawLocked` bracket.
///
/// # Protocol
///
/// `next` is the ticket dispenser, bumped by `enter`; `serving` is the
/// ticket now admitted, written only by the thread that holds it. A thread
/// enters by taking the next ticket; it holds the gate when `serving`
/// equals its ticket, and releases it by storing `ticket + 1` into
/// `serving`. Because no other thread writes `serving` while it is held,
/// the release needs no RMW: a load of the holder's own value and a
/// Release store. The Acquire load of `serving` that admits the next
/// holder pairs with that store and carries the gate-state hand-off.
///
/// Both counters are 64-bit, so no run exhausts them.
#[derive(Debug, Default)]
#[repr(C, align(16))]
pub struct TicketGate {
    /// The next ticket to issue (bumped by every `enter`).
    next: AtomicU64,
    /// The ticket being served (written only by its holder).
    serving: AtomicU64,
}

impl TicketGate {
    /// An idle gate: next ticket 0, serving 0.
    #[must_use]
    pub const fn new() -> Self {
        TicketGate {
            next: AtomicU64::new(0),
            serving: AtomicU64::new(0),
        }
    }

    /// Take the next ticket and wait until it is served; returns the
    /// ticket (its low 32 bits) for the matching [`TicketGate::exit`].
    ///
    /// The `serving` load's `Acquire` is load-bearing, also on the
    /// **immediate-entry** path: observing `serving == ticket` reads the
    /// previous holder's `Release` exit, and that acquire/release pairing
    /// is what publishes the predecessor's gate state (clock, tracker) to
    /// us. Weakening it to `Relaxed` would let this thread enter on a
    /// stale view — the exact mutant the model sweep proves caught.
    #[inline]
    pub fn enter(&self) -> u32 {
        // ORDERING: the dispenser publishes nothing — the RMW's atomicity
        // alone makes tickets unique and FIFO; the hand-off rides on the
        // `serving` Acquire load below.
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        // ORDERING: Acquire pairs with the predecessor's Release `exit`,
        // publishing the gate state it wrote before leaving.
        if self.serving.load(Ordering::Acquire) == ticket {
            return ticket as u32;
        }
        let mut backoff = Backoff::new();
        loop {
            backoff.snooze();
            // ORDERING: as above.
            if self.serving.load(Ordering::Acquire) == ticket {
                return ticket as u32;
            }
        }
    }

    /// Release the gate to the next ticket holder. `ticket` names the
    /// matching [`TicketGate::enter`]'s value; the gate does not read it
    /// (the served slot is implicit), so a release path that did not keep
    /// the ticket may pass any value.
    #[inline]
    pub fn exit(&self, ticket: u32) {
        let _ = ticket;
        // ORDERING: only the holder writes `serving`, and this thread's
        // entry read the value it holds, so a Relaxed load returns it.
        let served = self.serving.load(Ordering::Relaxed);
        // ORDERING: Release publishes everything written inside the served
        // section to the successor's Acquire entry load.
        self.serving.store(served + 1, Ordering::Release);
    }
}

/// The replay-side `next_clock` counter of Fig. 5 lines 30–34.
///
/// * DC replay: a thread whose next recorded clock is `c` waits until the
///   turnstile equals `c` exactly ([`Turnstile::wait_exact`]).
/// * DE replay: a thread whose next recorded epoch is `e` waits until the
///   turnstile is **at least** `e` ([`Turnstile::wait_at_least`]) — all
///   accesses sharing an epoch are admitted together, which is precisely the
///   concurrency DE recording buys (§IV-D).
///
/// Every gate-out advances the turnstile by one, so its value always equals
/// the number of *completed* gated accesses. Under the contiguous-run epoch
/// policy the admission rule is safe; see `epoch.rs` for the argument.
///
/// # Who writes `next`
///
/// DC admits exactly one thread at each value — a domain's clocks are a
/// permutation, which `TraceBundle::validate` checks before any replay —
/// and ST's multi-domain mirror is written only by the baton's current
/// holder. Both gate-outs therefore have the counter to themselves, and
/// advance it as [`TicketGate::exit`] releases `serving`: a load of their
/// own value and a Release store ([`Turnstile::complete`]). DE admits a
/// whole epoch group at once, whose members complete concurrently, so its
/// gate-out keeps the `fetch_add` ([`Turnstile::advance`]).
#[derive(Debug, Default)]
pub struct Turnstile {
    next: AtomicU64,
    aborted: AtomicBool,
}

impl Turnstile {
    /// A turnstile starting at zero completed accesses.
    #[must_use]
    pub const fn new() -> Self {
        Turnstile::starting_at(0)
    }

    /// A turnstile that starts as if `base` accesses had already
    /// completed — the replay entry point for flight-recorder windows,
    /// whose checkpoint records how many accesses each domain completed
    /// before the retained history begins.
    #[must_use]
    pub const fn starting_at(base: u64) -> Self {
        Turnstile {
            next: AtomicU64::new(base),
            aborted: AtomicBool::new(false),
        }
    }

    /// Current number of completed accesses.
    #[inline]
    #[must_use]
    pub fn current(&self) -> u64 {
        self.next.load(Ordering::Acquire)
    }

    /// Mark the whole replay as failed, releasing all waiters with
    /// [`ReplayError::Aborted`]. Idempotent.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
    }

    /// Whether [`Turnstile::abort`] has been called.
    #[must_use]
    pub fn is_aborted(&self) -> bool {
        self.aborted.load(Ordering::Acquire)
    }

    /// DC wait: block until the turnstile equals `clock`.
    ///
    /// Returns the number of spin iterations (a proxy for the wait cost
    /// reported in §VI-A). Inline, the admitted case is one Acquire load
    /// and a compare; waiting is `Turnstile::wait_slow`'s.
    #[inline]
    pub fn wait_exact(
        &self,
        clock: u64,
        thread: u32,
        site: SiteId,
        cfg: &SpinConfig,
        stats: &Stats,
    ) -> Result<u64, ReplayError> {
        if self.next.load(Ordering::Acquire) == clock {
            return Ok(0);
        }
        self.wait_slow(clock, true, thread, site, cfg, stats)
    }

    /// DE wait: block until the turnstile is at least `epoch`.
    #[inline]
    pub fn wait_at_least(
        &self,
        epoch: u64,
        thread: u32,
        site: SiteId,
        cfg: &SpinConfig,
        stats: &Stats,
    ) -> Result<u64, ReplayError> {
        if self.next.load(Ordering::Acquire) >= epoch {
            return Ok(0);
        }
        self.wait_slow(epoch, false, thread, site, cfg, stats)
    }

    /// The spin behind a wait that was not admitted at once: until the
    /// turnstile equals `target` (`exact`) or reaches it, the session
    /// aborts, or the watchdog expires.
    #[cold]
    #[inline(never)]
    fn wait_slow(
        &self,
        target: u64,
        exact: bool,
        thread: u32,
        site: SiteId,
        cfg: &SpinConfig,
        stats: &Stats,
    ) -> Result<u64, ReplayError> {
        stats.bump_waits();
        let mut spin = SpinWait::new(cfg);
        loop {
            if self.is_aborted() {
                return Err(ReplayError::Aborted);
            }
            let cur = self.next.load(Ordering::Acquire);
            if cur == target || (!exact && cur > target) {
                stats.add_spin_iters(spin.iterations());
                return Ok(spin.iterations());
            }
            spin.step(thread, site, target, || self.next.load(Ordering::Acquire))?;
        }
    }

    /// `next_clock++` at gate-out (Fig. 5 line 34) when other threads may
    /// advance concurrently — DE's epoch groups. This is the one
    /// inter-thread communication of a DC/DE replay gate, the new value
    /// being what wakes the next waiter; a session counts it from its
    /// replay cursors, so `_stats` is left untouched.
    #[inline]
    pub fn advance(&self, _stats: &Stats) -> u64 {
        self.next.fetch_add(1, Ordering::AcqRel) + 1
    }

    /// Advance the completed-access count as its sole writer (see "Who
    /// writes `next`"). A DC gate-out is the one thread the turnstile
    /// admitted at its current value: this is its `next_clock++`, the one
    /// inter-thread communication of a DC replay gate (DC-1 in Fig. 7),
    /// counted as for [`Turnstile::advance`]. ST replay uses it in
    /// multi-domain sessions, where it is no paper communication: the
    /// baton hand-off is ST's real communication; the turnstile only
    /// mirrors the completion count so other domains' cross-domain edges
    /// have something to wait on, and only the baton's holder calls it.
    #[inline]
    pub fn complete(&self) -> u64 {
        // ORDERING: the caller is the counter's only writer and its
        // admission (an Acquire load of this value, or the baton chain
        // that ordered the previous holder's store before it) already
        // observed the current value, so a Relaxed load returns it.
        let done = self.next.load(Ordering::Relaxed) + 1;
        // ORDERING: Release publishes the completed access to the waiter
        // this value admits, pairing with its Acquire load.
        self.next.store(done, Ordering::Release);
        done
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn clock_ticks_sequentially() {
        let c = GlobalClock::new();
        assert_eq!(c.tick(), 0);
        assert_eq!(c.tick(), 1);
        assert_eq!(c.now(), 2);
    }

    #[test]
    fn turnstile_exact_admits_in_order() {
        let t = Arc::new(Turnstile::new());
        let cfg = SpinConfig::default();
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));

        std::thread::scope(|s| {
            // Three waiters with clocks 2, 1, 0 — they must complete 0,1,2.
            // Each counts into a `Stats` of its own: a slot has one writer.
            for clock in [2u64, 1, 0] {
                let t = Arc::clone(&t);
                let order = Arc::clone(&order);
                s.spawn(move || {
                    let stats = Stats::new();
                    t.wait_exact(clock, clock as u32, SiteId(1), &cfg, &stats)
                        .unwrap();
                    order.lock().push(clock);
                    t.complete();
                });
            }
        });
        assert_eq!(*order.lock(), vec![0, 1, 2]);
        assert_eq!(t.current(), 3);
    }

    #[test]
    fn turnstile_at_least_admits_epoch_group_concurrently() {
        let t = Arc::new(Turnstile::new());
        let cfg = SpinConfig::default();
        // Epochs 0,0,0 then 3: first three admitted immediately in any order.
        let concurrent = Arc::new(AtomicU64::new(0));
        let peak = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for tid in 0..3u32 {
                let t = Arc::clone(&t);
                let concurrent = Arc::clone(&concurrent);
                let peak = Arc::clone(&peak);
                s.spawn(move || {
                    let stats = Stats::new();
                    t.wait_at_least(0, tid, SiteId(1), &cfg, &stats).unwrap();
                    let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    // Linger long enough for overlap to be observable.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    concurrent.fetch_sub(1, Ordering::SeqCst);
                    t.advance(&stats);
                });
            }
        });
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "same-epoch accesses should overlap (peak {})",
            peak.load(Ordering::SeqCst)
        );
        // The epoch-3 access is admitted only after all three completed.
        t.wait_at_least(3, 9, SiteId(1), &cfg, &Stats::new())
            .unwrap();
    }

    #[test]
    fn abort_releases_waiters() {
        let t = Arc::new(Turnstile::new());
        let cfg = SpinConfig {
            spin_hints: 4,
            timeout: None,
        };
        std::thread::scope(|s| {
            let t2 = Arc::clone(&t);
            let waiter = s.spawn(move || t2.wait_exact(100, 0, SiteId(1), &cfg, &Stats::new()));
            std::thread::sleep(std::time::Duration::from_millis(10));
            t.abort();
            match waiter.join().unwrap() {
                Err(ReplayError::Aborted) => {}
                other => panic!("expected abort, got {other:?}"),
            }
        });
    }

    #[test]
    fn ticket_gate_single_thread_is_sequential() {
        let g = TicketGate::new();
        for expect in 0..100u32 {
            let t = g.enter();
            assert_eq!(t, expect, "tickets are issued in order");
            g.exit(t);
        }
    }

    #[test]
    fn ticket_gate_mutual_exclusion_under_contention() {
        let g = Arc::new(TicketGate::new());
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let g = Arc::clone(&g);
            let counter = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    let t = g.enter();
                    // Non-atomic-looking increment inside the served section:
                    // lost updates would betray broken exclusion.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    g.exit(t);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 4 * 10_000);
    }

    #[test]
    fn ticket_gate_serves_in_fifo_order() {
        // One holder parks the gate; two queued threads must be admitted
        // in the order they entered, not by who spins hardest.
        let g = Arc::new(TicketGate::new());
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let t0 = g.enter();
        std::thread::scope(|s| {
            let mut waiters = Vec::new();
            for _ in 0..2 {
                let g = Arc::clone(&g);
                let order = Arc::clone(&order);
                waiters.push(s.spawn(move || {
                    let t = g.enter();
                    order.lock().push(t);
                    g.exit(t);
                }));
                // Let each waiter take its ticket before the next spawns.
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            g.exit(t0);
        });
        assert_eq!(*order.lock(), vec![1, 2], "FIFO admission by ticket");
    }

    /// An idle gate whose next ticket is `ticket`, as if `ticket`
    /// accesses had passed through it.
    fn ticket_gate_at(ticket: u64) -> TicketGate {
        TicketGate {
            next: AtomicU64::new(ticket),
            serving: AtomicU64::new(ticket),
        }
    }

    #[test]
    fn ticket_gate_crosses_the_32_bit_boundary() {
        // A gate 2^32 − 2 tickets in: the next four accesses cross where
        // a 32-bit ticket half would have wrapped into the serving half.
        let g = Arc::new(ticket_gate_at((1 << 32) - 2));
        for _ in 0..4 {
            let t = g.enter();
            g.exit(t);
        }
        assert_eq!(g.next.load(Ordering::Relaxed), (1 << 32) + 2);
        assert_eq!(g.serving.load(Ordering::Relaxed), (1 << 32) + 2);
        // Still exclusive and live under contention past the boundary.
        let counter = Arc::new(AtomicU64::new(0));
        std::thread::scope(|s| {
            for _ in 0..2 {
                let (g, counter) = (Arc::clone(&g), Arc::clone(&counter));
                s.spawn(move || {
                    for _ in 0..1_000 {
                        let t = g.enter();
                        let v = counter.load(Ordering::Relaxed);
                        counter.store(v + 1, Ordering::Relaxed);
                        g.exit(t);
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 2_000);
    }

    #[test]
    fn timeout_reports_observed_value() {
        let t = Turnstile::new();
        let stats = Stats::new();
        let cfg = SpinConfig {
            spin_hints: 4,
            timeout: Some(std::time::Duration::from_millis(15)),
        };
        match t.wait_exact(5, 2, SiteId(9), &cfg, &stats) {
            Err(ReplayError::Timeout {
                observed, thread, ..
            }) => {
                assert_eq!(observed, 0);
                assert_eq!(thread, 2);
            }
            other => panic!("expected timeout, got {other:?}"),
        }
    }
}
