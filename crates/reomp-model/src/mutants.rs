//! Seeded defects: deliberately broken variants of the primitives.
//!
//! Each mutant mirrors a line of the real implementation with one change a
//! careless refactor could plausibly make — a flipped `Ordering`, a
//! `store` where a `swap` was load-bearing, a snapshot taken on the wrong
//! side of a publish, a lock scope narrowed "for concurrency". The
//! mutation sweep in `tests/model_check.rs` runs every mutant through the
//! harness that guards the corresponding invariant and asserts the model
//! checker reports a violation — proving the harnesses would catch a real
//! regression of the same shape.
//!
//! The mutated copies live here, not behind `cfg` flags in `reomp-core`:
//! the production crate carries no intentionally-wrong code paths.

use crate::harness::{BatonApi, TicketApi, TurnstileApi};
use shuttle::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use shuttle::sync::Mutex;
use shuttle::{Config, Report};
use std::sync::Arc;

/// A `BatonLock` copy with its orderings and release check parameterized.
/// `faithful()` reproduces the real implementation (the sweep's sanity
/// control); the named constructors each seed one defect.
pub struct MutBaton {
    locked: AtomicBool,
    cas_success: Ordering,
    release_order: Ordering,
    /// `true` = the real swap-and-assert; `false` = the reverted
    /// load-free `store(false)` that silently accepts double releases.
    release_swaps: bool,
}

impl MutBaton {
    /// The real protocol: Acquire CAS, Release swap with the held check.
    #[must_use]
    pub fn faithful() -> Self {
        MutBaton {
            locked: AtomicBool::new(false),
            cas_success: Ordering::Acquire,
            release_order: Ordering::Release,
            release_swaps: true,
        }
    }

    /// Flipped `Ordering`: the acquire CAS succeeds with `Relaxed`, so
    /// the winner no longer synchronizes with the previous release.
    #[must_use]
    pub fn relaxed_acquire() -> Self {
        MutBaton {
            cas_success: Ordering::Relaxed,
            ..MutBaton::faithful()
        }
    }

    /// Flipped `Ordering`: the release swap is `Relaxed`, publishing
    /// nothing to the next acquirer.
    #[must_use]
    pub fn relaxed_release() -> Self {
        MutBaton {
            release_order: Ordering::Relaxed,
            ..MutBaton::faithful()
        }
    }

    /// Reverted swap-on-release: a plain `store(false)` loses the
    /// double-release detection (and lets two racing releases both
    /// "succeed").
    #[must_use]
    pub fn store_release() -> Self {
        MutBaton {
            release_swaps: false,
            ..MutBaton::faithful()
        }
    }
}

impl BatonApi for MutBaton {
    fn try_acquire(&self) -> bool {
        !self.locked.load(Ordering::Relaxed)
            && self
                .locked
                .compare_exchange(false, true, self.cas_success, Ordering::Relaxed)
                .is_ok()
    }

    fn release(&self) {
        if self.release_swaps {
            assert!(
                self.locked.swap(false, self.release_order),
                "MutBaton::release called on a baton that is not held"
            );
        } else {
            self.locked.store(false, self.release_order);
        }
    }
}

/// A turnstile copy with parameterized orderings on the completed-access
/// counter — the mutation target is the AcqRel `advance` / Acquire wait
/// pairing that publishes the admitted thread's data.
pub struct MutTurnstile {
    next: AtomicU64,
    advance_order: Ordering,
    wait_order: Ordering,
}

impl MutTurnstile {
    /// The real orderings (AcqRel advance, Acquire wait loads).
    #[must_use]
    pub fn faithful() -> Self {
        MutTurnstile {
            next: AtomicU64::new(0),
            advance_order: Ordering::AcqRel,
            wait_order: Ordering::Acquire,
        }
    }

    /// Flipped `Ordering`: fully relaxed counter traffic — admission
    /// order survives (values are coherent) but the hand-off no longer
    /// publishes the previous thread's writes.
    #[must_use]
    pub fn relaxed() -> Self {
        MutTurnstile {
            next: AtomicU64::new(0),
            advance_order: Ordering::Relaxed,
            wait_order: Ordering::Relaxed,
        }
    }
}

impl TurnstileApi for MutTurnstile {
    fn wait_exact(&self, clock: u64) {
        while self.next.load(self.wait_order) != clock {
            shuttle::thread::yield_now();
        }
    }
    fn wait_at_least(&self, epoch: u64) {
        while self.next.load(self.wait_order) < epoch {
            shuttle::thread::yield_now();
        }
    }
    fn advance(&self) {
        self.next.fetch_add(1, self.advance_order);
    }
}

/// A `TicketGate` copy with the orderings on its packed ticket word
/// parameterized — the mutation target is the Acquire `enter` (both the
/// ticket-grab RMW and the spin load) / Release `exit` pairing that
/// publishes the predecessor's gate state to the next holder.
pub struct MutTicket {
    /// `ticket` (high 32 bits) | `serving` (low 32 bits), as in the real
    /// gate.
    word: AtomicU64,
    enter_order: Ordering,
    exit_order: Ordering,
}

const TICKET_ONE: u64 = 1 << 32;

impl MutTicket {
    /// The real orderings: Acquire entry, Release exit.
    #[must_use]
    pub fn faithful() -> Self {
        MutTicket {
            word: AtomicU64::new(0),
            enter_order: Ordering::Acquire,
            exit_order: Ordering::Release,
        }
    }

    /// Flipped `Ordering`: a `Relaxed` ticket `fetch_add` (and spin
    /// load). FIFO admission survives — RMWs always read the latest word
    /// — but the immediate-entry path no longer synchronizes with the
    /// predecessor's exit, so the new holder can enter on a stale view of
    /// the gated state.
    #[must_use]
    pub fn relaxed_enter() -> Self {
        MutTicket {
            enter_order: Ordering::Relaxed,
            ..MutTicket::faithful()
        }
    }

    /// Flipped `Ordering`: a `Relaxed` exit publishes nothing to the
    /// successor's Acquire entry.
    #[must_use]
    pub fn relaxed_exit() -> Self {
        MutTicket {
            exit_order: Ordering::Relaxed,
            ..MutTicket::faithful()
        }
    }
}

impl TicketApi for MutTicket {
    fn enter(&self) -> u32 {
        let w = self.word.fetch_add(TICKET_ONE, self.enter_order);
        let ticket = (w >> 32) as u32;
        if w as u32 == ticket {
            return ticket;
        }
        loop {
            shuttle::thread::yield_now();
            if self.word.load(self.enter_order) as u32 == ticket {
                return ticket;
            }
        }
    }
    fn exit(&self, _ticket: u32) {
        self.word.fetch_add(1, self.exit_order);
    }
}

/// Mini-model of `stamp_clocked`'s cross-domain edge protocol: two
/// domains, each with a `published` completion stamp; the thread in
/// domain `i` snapshots the *other* domain's stamp for its edge and then
/// publishes its own. Snapshot-strictly-before-publish makes a mutual
/// observation (a cycle in the recorded waits) impossible.
///
/// With `snapshot_after_publish` the order flips — the "dropped edge
/// snapshot" defect — and some schedule records a cycle, which the
/// harness assertion catches.
pub fn edge_stamp_mini(snapshot_after_publish: bool, cfg: &Config) -> Report {
    shuttle::check(cfg.clone(), move || {
        let published = Arc::new([AtomicU64::new(0), AtomicU64::new(0)]);
        let handles: Vec<_> = (0..2usize)
            .map(|dom| {
                let published = Arc::clone(&published);
                shuttle::thread::spawn(move || {
                    let other = 1 - dom;
                    if snapshot_after_publish {
                        published[dom].store(1, Ordering::Release);
                        published[other].load(Ordering::Acquire)
                    } else {
                        let snap = published[other].load(Ordering::Acquire);
                        published[dom].store(1, Ordering::Release);
                        snap
                    }
                })
            })
            .collect();
        let waits: Vec<u64> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert!(
            !(waits[0] > 0 && waits[1] > 0),
            "cyclic cross-domain edges: both accesses observed each other's \
             completion ({waits:?}) — replaying these waits deadlocks"
        );
    })
}

/// Mini-model of flight-ring evict-vs-dump atomicity: an appender pushes
/// clocks through a window-2 ring (evicting and advancing `base`); a
/// dumper materializes `(base, retained)`. Holding the ring lock across
/// the whole materialization makes the dump a consistent window. With
/// `chunked_dump` the dumper re-locks per item — the defect — and an
/// eviction can slip between its reads, so the dumped window no longer
/// starts at the dumped base.
pub fn flight_mini(chunked_dump: bool, cfg: &Config) -> Report {
    #[derive(Default)]
    struct Ring {
        retained: Vec<u64>,
        base: u64,
    }
    shuttle::check(cfg.clone(), move || {
        let ring = Arc::new(Mutex::new(Ring::default()));
        let appender = {
            let ring = Arc::clone(&ring);
            shuttle::thread::spawn(move || {
                for c in 0..4u64 {
                    let mut g = ring.lock();
                    g.retained.push(c);
                    while g.retained.len() > 2 {
                        g.retained.remove(0);
                        g.base += 1;
                    }
                }
            })
        };
        let dumper = {
            let ring = Arc::clone(&ring);
            shuttle::thread::spawn(move || {
                if chunked_dump {
                    let base = ring.lock().base;
                    let retained = ring.lock().retained.clone();
                    (base, retained)
                } else {
                    let g = ring.lock();
                    (g.base, g.retained.clone())
                }
            })
        };
        appender.join().unwrap();
        let (base, retained) = dumper.join().unwrap();
        let expect: Vec<u64> = (base..base + retained.len() as u64).collect();
        assert_eq!(
            retained, expect,
            "dump snapshot inconsistent with its base {base}"
        );
    })
}
