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
/// counter — the mutation targets are the Release owner store / AcqRel
/// `advance` / Acquire wait pairing that publishes the admitted thread's
/// data, and which advance DE uses.
pub struct MutTurnstile {
    next: AtomicU64,
    store_order: Ordering,
    rmw_order: Ordering,
    wait_order: Ordering,
    /// `true` = DE advances with the owner store, as DC does.
    de_owner_store: bool,
}

impl MutTurnstile {
    /// The real protocol: Release owner store, AcqRel `fetch_add`,
    /// Acquire wait loads.
    #[must_use]
    pub fn faithful() -> Self {
        MutTurnstile {
            next: AtomicU64::new(0),
            store_order: Ordering::Release,
            rmw_order: Ordering::AcqRel,
            wait_order: Ordering::Acquire,
            de_owner_store: false,
        }
    }

    /// Flipped `Ordering`: fully relaxed counter traffic — admission
    /// order survives (values are coherent) but the hand-off no longer
    /// publishes the previous thread's writes.
    #[must_use]
    pub fn relaxed() -> Self {
        MutTurnstile {
            store_order: Ordering::Relaxed,
            rmw_order: Ordering::Relaxed,
            wait_order: Ordering::Relaxed,
            ..MutTurnstile::faithful()
        }
    }

    /// DE's gate-out takes DC's owner store "to save the locked
    /// instruction": two same-epoch threads both load `e` and both store
    /// `e + 1`, losing a completion, and the next epoch never opens.
    #[must_use]
    pub fn de_owner_store() -> Self {
        MutTurnstile {
            de_owner_store: true,
            ..MutTurnstile::faithful()
        }
    }
}

impl TurnstileApi for MutTurnstile {
    fn wait_exact(&self, _tid: usize, clock: u64) {
        while self.next.load(self.wait_order) != clock {
            shuttle::thread::yield_now();
        }
    }
    fn wait_at_least(&self, _tid: usize, epoch: u64) {
        while self.next.load(self.wait_order) < epoch {
            shuttle::thread::yield_now();
        }
    }
    fn advance_exclusive(&self, _tid: usize) {
        let done = self.next.load(Ordering::Relaxed);
        self.next.store(done + 1, self.store_order);
    }
    fn advance(&self, tid: usize) {
        if self.de_owner_store {
            self.advance_exclusive(tid);
        } else {
            self.next.fetch_add(1, self.rmw_order);
        }
    }
}

/// A `TicketGate` copy with the orderings on its `serving` word
/// parameterized — the mutation target is the Acquire `serving` load of
/// `enter` / Release `serving` store of `exit` pairing that publishes the
/// predecessor's gate state to the next holder — plus the exit the split
/// layout retired: a `fetch_add` on `serving`.
pub struct MutTicket {
    /// The next ticket to issue, as in the real gate.
    next: AtomicU64,
    /// The ticket being served, as in the real gate.
    serving: AtomicU64,
    enter_order: Ordering,
    exit_order: Ordering,
    /// `true` = exit with a `fetch_add` (an RMW) instead of a load and a
    /// store.
    exit_rmw: bool,
}

impl MutTicket {
    /// The real protocol: Acquire `serving` load on entry, Release store
    /// on exit.
    #[must_use]
    pub fn faithful() -> Self {
        MutTicket {
            next: AtomicU64::new(0),
            serving: AtomicU64::new(0),
            enter_order: Ordering::Acquire,
            exit_order: Ordering::Release,
            exit_rmw: false,
        }
    }

    /// Flipped `Ordering`: a `Relaxed` `serving` load (immediate and spin).
    /// FIFO admission survives — tickets are still unique — but entry no
    /// longer synchronizes with the predecessor's exit, so the new holder
    /// can enter on a stale view of the gated state.
    #[must_use]
    pub fn relaxed_enter() -> Self {
        MutTicket {
            enter_order: Ordering::Relaxed,
            ..MutTicket::faithful()
        }
    }

    /// Flipped `Ordering`: a `Relaxed` `serving` store publishes nothing
    /// to the successor's Acquire entry.
    #[must_use]
    pub fn relaxed_exit() -> Self {
        MutTicket {
            exit_order: Ordering::Relaxed,
            ..MutTicket::faithful()
        }
    }

    /// The packed-word habit: `exit` bumps `serving` with a `fetch_add`.
    /// Still correct, but a second locked instruction on every gate — what
    /// the locked-instruction budget must catch.
    #[must_use]
    pub fn rmw_exit() -> Self {
        MutTicket {
            exit_rmw: true,
            ..MutTicket::faithful()
        }
    }
}

impl TicketApi for MutTicket {
    fn enter(&self) -> u32 {
        let ticket = self.next.fetch_add(1, Ordering::Relaxed);
        while self.serving.load(self.enter_order) != ticket {
            shuttle::thread::yield_now();
        }
        ticket as u32
    }
    fn exit(&self, _ticket: u32) {
        if self.exit_rmw {
            self.serving.fetch_add(1, self.exit_order);
        } else {
            let served = self.serving.load(Ordering::Relaxed);
            self.serving.store(served + 1, self.exit_order);
        }
    }
}

/// Mini-model of the owner-written record lane: the owner writes a slot
/// and then publishes the lane length with a Release store; a drain
/// holding the lane's cold lock reads the length with Acquire, takes the
/// published slots and advances its `taken` mark. Every appended entry
/// must be drained exactly once, in order.
///
/// With `publish_first` the owner publishes the length before it writes
/// the slot — the defect — and a drain scheduled in between takes a slot
/// that was never written.
pub fn lane_mini(publish_first: bool, cfg: &Config) -> Report {
    const ENTRIES: u64 = 3;
    struct Lane {
        slots: [AtomicU64; ENTRIES as usize],
        len: AtomicU64,
        taken: Mutex<u64>,
    }
    fn drain(lane: &Lane, out: &mut Vec<u64>) {
        let mut taken = lane.taken.lock();
        let len = lane.len.load(Ordering::Acquire);
        for slot in &lane.slots[*taken as usize..len as usize] {
            out.push(slot.load(Ordering::Relaxed));
        }
        *taken = len;
    }
    shuttle::check(cfg.clone(), move || {
        let lane = Arc::new(Lane {
            slots: Default::default(),
            len: AtomicU64::new(0),
            taken: Mutex::new(0),
        });
        let owner = {
            let lane = Arc::clone(&lane);
            shuttle::thread::spawn(move || {
                for n in 0..ENTRIES {
                    let slot = &lane.slots[n as usize];
                    if publish_first {
                        lane.len.store(n + 1, Ordering::Release);
                        slot.store(n + 1, Ordering::Relaxed);
                    } else {
                        slot.store(n + 1, Ordering::Relaxed);
                        lane.len.store(n + 1, Ordering::Release);
                    }
                }
            })
        };
        let drainer = {
            let lane = Arc::clone(&lane);
            shuttle::thread::spawn(move || {
                let mut out = Vec::new();
                drain(&lane, &mut out);
                out
            })
        };
        owner.join().unwrap();
        let mut drained = drainer.join().unwrap();
        drain(&lane, &mut drained);
        assert_eq!(
            drained,
            (1..=ENTRIES).collect::<Vec<_>>(),
            "a drain took an unwritten slot, or an entry twice"
        );
    })
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
