//! Model-checking harnesses over the real gate primitives.
//!
//! Every harness is a pure function `Config -> Report`: it runs
//! [`shuttle::check`] over a small closed scenario and returns the
//! exploration report. A correct primitive yields `report.violation ==
//! None`; a violation carries a replayable witness and the granted-op
//! trace of the failing schedule.
//!
//! The scenarios are deliberately tiny (2–3 threads, a handful of
//! operations each): the point is not load, it is *coverage* — DFS visits
//! every interleaving the dependence relation distinguishes, including
//! stale `Relaxed` reads from shuttle's per-location store buffers.

use reomp_core::clock::{TicketGate, Turnstile};
use reomp_core::stats::Stats;
use reomp_core::sync::{BatonLock, SpinConfig};
use reomp_core::{
    AccessKind, DumpTrigger, FlightRecorder, FlightSink, MemStore, RecordOptions, RecordSink,
    Scheme, Session, SessionConfig, SiteId, TraceStore,
};
use shuttle::sync::atomic::{AtomicU64, Ordering};
use shuttle::sync::Mutex;
use shuttle::{Config, Report};
use std::sync::Arc;
use std::time::Duration;

/// Baton-like hand-off surface, so the same harness checks the real
/// [`BatonLock`] and the seeded mutants in [`crate::mutants`].
pub trait BatonApi: Send + Sync + 'static {
    /// Non-blocking acquire; `true` on success.
    fn try_acquire(&self) -> bool;
    /// Release (any thread may call it; must panic on double release).
    fn release(&self);
}

impl BatonApi for BatonLock {
    fn try_acquire(&self) -> bool {
        BatonLock::try_acquire(self)
    }
    fn release(&self) {
        BatonLock::release(self);
    }
}

/// Turnstile-like admission surface for the real [`Turnstile`] and its
/// mutants. Waits are infallible here: harness configs keep the watchdog
/// generous enough that a timeout would itself be a bug.
pub trait TurnstileApi: Send + Sync + 'static {
    /// Block until exactly `clock` accesses completed (DC admission).
    fn wait_exact(&self, clock: u64);
    /// Block until at least `epoch` accesses completed (DE admission).
    fn wait_at_least(&self, epoch: u64);
    /// Complete one access.
    fn advance(&self);
}

/// The real turnstile plus the spin policy and stats its waits need.
pub struct RealTurnstile {
    turnstile: Turnstile,
    spin: SpinConfig,
    stats: Stats,
}

impl RealTurnstile {
    /// A turnstile with a model-friendly spin policy: tight yield cadence
    /// (every parked step advances virtual time) and a watchdog far above
    /// any legal wait in these scenarios.
    #[must_use]
    pub fn new() -> Self {
        RealTurnstile {
            turnstile: Turnstile::new(),
            spin: SpinConfig {
                spin_hints: 1,
                timeout: Some(Duration::from_millis(200)),
            },
            stats: Stats::new(),
        }
    }
}

impl Default for RealTurnstile {
    fn default() -> Self {
        RealTurnstile::new()
    }
}

impl TurnstileApi for RealTurnstile {
    fn wait_exact(&self, clock: u64) {
        self.turnstile
            .wait_exact(clock, 0, SiteId(1), &self.spin, &self.stats)
            .expect("turnstile wait failed");
    }
    fn wait_at_least(&self, epoch: u64) {
        self.turnstile
            .wait_at_least(epoch, 0, SiteId(1), &self.spin, &self.stats)
            .expect("turnstile wait failed");
    }
    fn advance(&self) {
        self.turnstile.advance(&self.stats);
    }
}

/// Ticket-gate admission surface for the real [`TicketGate`] and its
/// mutants.
pub trait TicketApi: Send + Sync + 'static {
    /// Take the next ticket and block until it is served.
    fn enter(&self) -> u32;
    /// Release the gate to the next ticket holder.
    fn exit(&self, ticket: u32);
}

impl TicketApi for TicketGate {
    fn enter(&self) -> u32 {
        TicketGate::enter(self)
    }
    fn exit(&self, ticket: u32) {
        TicketGate::exit(self, ticket);
    }
}

/// Ticket-gate hand-off purity — the lock-free analogue of
/// [`baton_handoff`]: two threads funnel a benign-racy (`Relaxed`
/// load-then-store) increment through the gate. Exclusion comes from FIFO
/// ticket service; *visibility* comes from the Acquire `enter` (RMW and
/// spin load) pairing with the predecessor's Release `exit` — exactly the
/// pairing the RecCore hand-off rides on the record fast path. A relaxed
/// mutant on either side loses an update in some schedule.
pub fn ticket_handoff<T: TicketApi>(
    make: impl Fn() -> T + Send + Sync + 'static,
    cfg: &Config,
) -> Report {
    shuttle::check(cfg.clone(), move || {
        let gate = Arc::new(make());
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let gate = Arc::clone(&gate);
                let counter = Arc::clone(&counter);
                shuttle::thread::spawn(move || {
                    let t = gate.enter();
                    // The gated region: correct only if entry published the
                    // predecessor's writes.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    gate.exit(t);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            counter.load(Ordering::Relaxed),
            2,
            "lost update through the ticket-gate hand-off"
        );
    })
}

/// ST hand-off purity: two threads funnel increments of a deliberately
/// non-atomic (load-then-store, `Relaxed`) counter through the baton. The
/// baton's Acquire CAS / Release swap must make every critical section
/// see its predecessor's writes — any weakening loses an update.
pub fn baton_handoff<B: BatonApi>(
    make: impl Fn() -> B + Send + Sync + 'static,
    cfg: &Config,
) -> Report {
    shuttle::check(cfg.clone(), move || {
        let baton = Arc::new(make());
        let counter = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let baton = Arc::clone(&baton);
                let counter = Arc::clone(&counter);
                shuttle::thread::spawn(move || {
                    while !baton.try_acquire() {
                        shuttle::hint::spin_loop();
                    }
                    // The paper's gated region: a benign-racy increment
                    // that is only correct because the baton orders it.
                    let v = counter.load(Ordering::Relaxed);
                    counter.store(v + 1, Ordering::Relaxed);
                    baton.release();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            counter.load(Ordering::Relaxed),
            2,
            "lost update through the baton hand-off"
        );
    })
}

/// Double-release detection: releasing a free baton must panic in every
/// schedule (the protocol-violation guard ST replay depends on), and the
/// panic must not corrupt the baton.
pub fn baton_double_release<B: BatonApi>(
    make: impl Fn() -> B + Send + Sync + 'static,
    cfg: &Config,
) -> Report {
    shuttle::check(cfg.clone(), move || {
        let baton = Arc::new(make());
        assert!(baton.try_acquire());
        baton.release();
        let b = Arc::clone(&baton);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || b.release()));
        assert!(
            caught.is_err(),
            "double release must panic, not silently clear the baton"
        );
        assert!(baton.try_acquire(), "baton unusable after double release");
        baton.release();
    })
}

/// Racing releases: with the baton held once, two concurrent `release`
/// calls must resolve to exactly one success and one panic in **every**
/// interleaving — the reason the check is a `swap`, not load-then-store.
pub fn baton_racing_releases<B: BatonApi>(
    make: impl Fn() -> B + Send + Sync + 'static,
    cfg: &Config,
) -> Report {
    shuttle::check(cfg.clone(), move || {
        let baton = Arc::new(make());
        assert!(baton.try_acquire());
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let b = Arc::clone(&baton);
                shuttle::thread::spawn(move || {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.release())).is_ok()
                })
            })
            .collect();
        let successes = handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .filter(|&ok| ok)
            .count();
        assert_eq!(
            successes, 1,
            "exactly one of two racing releases may succeed"
        );
    })
}

/// DC admission order ≡ recorded clocks: three waiters with clocks 2, 1, 0
/// must complete in clock order no matter how they are scheduled.
pub fn turnstile_admit_order<T: TurnstileApi>(
    make: impl Fn() -> T + Send + Sync + 'static,
    cfg: &Config,
) -> Report {
    shuttle::check(cfg.clone(), move || {
        let t = Arc::new(make());
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = [2u64, 1, 0]
            .into_iter()
            .map(|clock| {
                let t = Arc::clone(&t);
                let order = Arc::clone(&order);
                shuttle::thread::spawn(move || {
                    t.wait_exact(clock);
                    order.lock().push(clock);
                    t.advance();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            *order.lock(),
            vec![0, 1, 2],
            "DC turnstile admitted out of clock order"
        );
    })
}

/// DE epoch-group admission: two epoch-0 accesses are admitted in either
/// order, but the epoch-2 access only after both completed.
pub fn turnstile_epoch_group<T: TurnstileApi>(
    make: impl Fn() -> T + Send + Sync + 'static,
    cfg: &Config,
) -> Report {
    shuttle::check(cfg.clone(), move || {
        let t = Arc::new(make());
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = [(0u64, 'a'), (0, 'b'), (2, 'c')]
            .into_iter()
            .map(|(epoch, tag)| {
                let t = Arc::clone(&t);
                let order = Arc::clone(&order);
                shuttle::thread::spawn(move || {
                    t.wait_at_least(epoch);
                    order.lock().push(tag);
                    t.advance();
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let order: Vec<char> = order.lock().clone();
        assert_eq!(order.len(), 3);
        assert_eq!(
            order[2], 'c',
            "epoch-2 access admitted before its group completed: {order:?}"
        );
    })
}

/// Turnstile hand-off visibility: data written (Relaxed) before `advance`
/// must be visible to the waiter it admits. The AcqRel `fetch_add` in
/// `advance` paired with the Acquire load in the wait loop is what carries
/// the edge — a relaxed mutant lets the waiter read stale data.
pub fn turnstile_handoff_visibility<T: TurnstileApi>(
    make: impl Fn() -> T + Send + Sync + 'static,
    cfg: &Config,
) -> Report {
    shuttle::check(cfg.clone(), move || {
        let t = Arc::new(make());
        let data = Arc::new(AtomicU64::new(0));
        let writer = {
            let t = Arc::clone(&t);
            let data = Arc::clone(&data);
            shuttle::thread::spawn(move || {
                data.store(42, Ordering::Relaxed);
                t.advance();
            })
        };
        let reader = {
            let t = Arc::clone(&t);
            let data = Arc::clone(&data);
            shuttle::thread::spawn(move || {
                t.wait_at_least(1);
                assert_eq!(
                    data.load(Ordering::Relaxed),
                    42,
                    "turnstile admission did not publish the writer's data"
                );
            })
        };
        writer.join().unwrap();
        reader.join().unwrap();
    })
}

/// Model-friendly session spin policy (see [`RealTurnstile::new`]).
fn model_spin() -> SpinConfig {
    SpinConfig {
        spin_hints: 1,
        timeout: Some(Duration::from_millis(200)),
    }
}

/// DE epoch-floor publication: a streaming DE record run with a one-record
/// flush threshold, so every gate-out races the owner's flush against the
/// other threads' gates. Each of `threads` threads runs `program` on one
/// site: with three threads storing, the run has middle stores whose
/// fix-ups are posted by a *different* thread than the one about to flush
/// them. The
/// floor protocol — fix-up posted, then the floor raised with `Release`,
/// both under the gate exclusion; the owner `Acquire`-loads the floor,
/// then drains its mailbox, then flushes — must leave the committed store
/// with every record exactly once and every epoch what the clock order
/// dictates: a run of `n` same-site stores records `n − 1` times its
/// first clock and once its last.
///
/// The session takes the mutex bracket (`ticket_gate: false`): the
/// protocol under test sits inside the exclusion whichever admission
/// grants it, and the blocking lock keeps the space enumerable
/// ([`ticket_gate_equivalence`] covers streaming DE through the ticket).
pub fn epoch_floor_publication(
    threads: u32,
    program: &'static [AccessKind],
    cfg: &Config,
) -> Report {
    shuttle::check(cfg.clone(), move || {
        let store = Arc::new(MemStore::default());
        let session = Session::record_streaming_with(
            Scheme::De,
            threads,
            SessionConfig {
                flush_records: 1,
                ticket_gate: false,
                spin: model_spin(),
                ..SessionConfig::default()
            },
            store.as_ref(),
        )
        .unwrap();
        let site = SiteId(7);
        let handles: Vec<_> = (0..threads)
            .map(|tid| {
                let session = Arc::clone(&session);
                shuttle::thread::spawn(move || {
                    let ctx = session.register_thread(tid);
                    for &kind in program {
                        ctx.gate(site, kind, || ());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        session.finish().expect("streaming DE finish");
        let (bundle, _) = store.load().expect("committed store loads");
        bundle.validate().expect("windowless DE bundle validates");
        let total = u64::from(threads) * program.len() as u64;
        assert_eq!(
            bundle.total_records(),
            total,
            "floor protocol lost or duplicated records"
        );
        if program.iter().all(|&k| k == AccessKind::Store) {
            // One store run covering every clock: all but the last store
            // end at the run's start, whoever posted or applied the fix-up.
            let mut epochs: Vec<u64> = (0..threads)
                .flat_map(|t| bundle.thread(0, t).values.clone())
                .collect();
            epochs.sort_unstable();
            let mut expect = vec![0; total as usize - 1];
            expect.push(total - 1);
            assert_eq!(epochs, expect, "a fix-up was lost or flushed around");
        }
    })
}

/// Cross-domain edge soundness on the real engines: a two-domain DC
/// record run followed by its replay, all inside the model. The
/// snapshot-strictly-before-publish rule in `stamp_clocked` keeps the
/// recorded edge set acyclic, so replay must terminate in every schedule;
/// a cyclic edge set would park both replay threads forever and surface
/// as a timeout panic or livelock.
pub fn cross_domain_record_replay(cfg: &Config) -> Report {
    shuttle::check(cfg.clone(), move || {
        // SiteId(2) % 2 = domain 0, SiteId(3) % 2 = domain 1.
        let sites = [SiteId(2), SiteId(3)];
        let session = Session::record_with(
            Scheme::Dc,
            2,
            SessionConfig {
                domains: 2,
                spin: model_spin(),
                ..SessionConfig::default()
            },
        );
        let handles: Vec<_> = (0..2u32)
            .map(|tid| {
                let session = Arc::clone(&session);
                shuttle::thread::spawn(move || {
                    let ctx = session.register_thread(tid);
                    // Opposite domain orders per thread: the schedule where
                    // both threads sit in different domains concurrently is
                    // exactly where a cyclic snapshot would be recorded.
                    ctx.gate(sites[tid as usize], AccessKind::Store, || ());
                    ctx.gate(sites[1 - tid as usize], AccessKind::Store, || ());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let report = session.finish().expect("record finish");
        let bundle = report.bundle.expect("in-memory record bundle");
        bundle.validate().expect("recorded bundle validates");

        let replay = Session::replay_with(
            bundle,
            SessionConfig {
                spin: model_spin(),
                ..SessionConfig::default()
            },
        )
        .expect("replay session");
        let handles: Vec<_> = (0..2u32)
            .map(|tid| {
                let replay = Arc::clone(&replay);
                shuttle::thread::spawn(move || {
                    let ctx = replay.register_thread(tid);
                    ctx.gate(sites[tid as usize], AccessKind::Store, || ());
                    ctx.gate(sites[1 - tid as usize], AccessKind::Store, || ());
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        replay.finish().expect("replay finish");
    })
}

/// Flight-ring evict-vs-dump atomicity: one thread floods a
/// `window = 2` recorder with single-record chunks (clocks 0..6, evicting
/// continuously); another dumps mid-stream. The dump holds the state lock
/// across materialization, so the resulting bundle must always be a
/// *consistent* window: the retained clocks are exactly
/// `base .. base + len` for the checkpointed base.
pub fn flight_evict_vs_dump(cfg: &Config) -> Report {
    shuttle::check(cfg.clone(), move || {
        let rec = Arc::new(FlightRecorder::new(
            RecordOptions::new(Scheme::Dc, 1, 1, false),
            2,
        ));
        let store = Arc::new(MemStore::default());
        let appender = {
            let sink = FlightSink::new(Arc::clone(&rec));
            shuttle::thread::spawn(move || {
                for c in 0..6u64 {
                    sink.append_thread_chunk(0, 0, &[c], None, None)
                        .expect("append");
                }
            })
        };
        let dumper = {
            let rec = Arc::clone(&rec);
            let store = Arc::clone(&store);
            shuttle::thread::spawn(move || {
                rec.dump_into(store.as_ref(), DumpTrigger::Manual, None, &[], Vec::new())
                    .expect("dump");
            })
        };
        appender.join().unwrap();
        dumper.join().unwrap();
        let (bundle, _) = store.load().expect("dumped store loads");
        let base = bundle.checkpoint.as_ref().expect("checkpoint").base[0];
        let values = &bundle.thread(0, 0).values;
        let expect: Vec<u64> = (base..base + values.len() as u64).collect();
        assert_eq!(
            *values, expect,
            "dump interleaved with eviction: window not contiguous at base {base}"
        );
    })
}

/// Tentpole equivalence harness: the lock-free ticket fast path must be
/// observationally equivalent to the locked gate. A two-thread
/// benign-racy workload records through the ticket gate (D = 1 — every
/// access takes the fast path, no mutex bracket); in every schedule the
/// bundle must validate and its replay must reproduce both the
/// per-access values and the final state of the racy cell — the same
/// contract the locked gate's scheme tests pin outside the model. With
/// `streaming_de` the recording is a DE run streamed with a one-record
/// flush threshold, so the floor store and every owner-side flush happen
/// under (or right after) a served ticket rather than the mutex.
/// (Byte-identity of deterministic traces across the two gates is pinned
/// separately by `ticket_gate_traces_identical_to_locked_gate` in
/// `reomp-core`; replay is gate-agnostic, so reproducing a ticket-recorded
/// trace through the same turnstiles *is* the equivalence statement.)
pub fn ticket_gate_equivalence(streaming_de: bool, cfg: &Config) -> Report {
    shuttle::check(cfg.clone(), move || {
        let site = SiteId(5);
        // One benign-racy increment per thread: gated load, gated store.
        let run = |session: &Arc<Session>| -> (u64, Vec<u64>) {
            let shared = Arc::new(AtomicU64::new(0));
            let handles: Vec<_> = (0..2u32)
                .map(|tid| {
                    let session = Arc::clone(session);
                    let shared = Arc::clone(&shared);
                    shuttle::thread::spawn(move || {
                        let ctx = session.register_thread(tid);
                        let v = ctx.gate(site, AccessKind::Load, || shared.load(Ordering::Relaxed));
                        ctx.gate(site, AccessKind::Store, || {
                            shared.store(v + 1, Ordering::Relaxed);
                        });
                        v
                    })
                })
                .collect();
            let observed = handles.into_iter().map(|h| h.join().unwrap()).collect();
            (shared.load(Ordering::Relaxed), observed)
        };
        let record_cfg = SessionConfig {
            flush_records: 1,
            spin: model_spin(),
            ..SessionConfig::default()
        };
        let store = MemStore::default();
        let record = if streaming_de {
            Session::record_streaming_with(Scheme::De, 2, record_cfg, &store)
                .expect("streaming session")
        } else {
            Session::record_with(Scheme::Dc, 2, record_cfg)
        };
        let (final_rec, observed_rec) = run(&record);
        let report = record.finish().expect("record finish");
        assert_eq!(
            report.stats.lock_acquires, 0,
            "every access must take the lock-free path"
        );
        let bundle = match report.bundle {
            Some(bundle) => bundle,
            None => store.load().expect("committed store loads").0,
        };
        bundle.validate().expect("ticket-gate bundle validates");
        let replay = Session::replay_with(
            bundle,
            SessionConfig {
                spin: model_spin(),
                ..SessionConfig::default()
            },
        )
        .expect("replay session");
        let (final_rep, observed_rep) = run(&replay);
        replay.finish().expect("replay finish");
        assert_eq!(
            observed_rep, observed_rec,
            "replay diverged from the ticket-gate recording"
        );
        assert_eq!(
            final_rep, final_rec,
            "replay reached a different final state than the recording"
        );
    })
}

/// Batched DE publication composed with the two admission protocols, on
/// the real engines: a two-domain DE record run with `publish_batch = 4`
/// (plain accesses skip most `published` stores) where each thread makes
/// one plain fast-path access and one critical slow-path access (lock +
/// ghost ticket) that anchors a cross-domain edge. Lagged publication may
/// only *weaken* the edge snapshots — acyclicity and replayability must
/// survive, so replay terminates in every schedule.
pub fn batched_cross_domain_record_replay(cfg: &Config) -> Report {
    shuttle::check(cfg.clone(), move || {
        // SiteId(2) % 2 = domain 0, SiteId(3) % 2 = domain 1.
        let sites = [SiteId(2), SiteId(3)];
        let workload = |session: &Arc<Session>| {
            let handles: Vec<_> = (0..2u32)
                .map(|tid| {
                    let session = Arc::clone(session);
                    shuttle::thread::spawn(move || {
                        let ctx = session.register_thread(tid);
                        ctx.gate(sites[tid as usize], AccessKind::Store, || ());
                        ctx.gate(sites[1 - tid as usize], AccessKind::Critical, || ());
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        };
        let session = Session::record_with(
            Scheme::De,
            2,
            SessionConfig {
                domains: 2,
                publish_batch: 4,
                spin: model_spin(),
                ..SessionConfig::default()
            },
        );
        workload(&session);
        let report = session.finish().expect("record finish");
        let bundle = report.bundle.expect("in-memory bundle");
        bundle.validate().expect("batched bundle validates");

        let replay = Session::replay_with(
            bundle,
            SessionConfig {
                spin: model_spin(),
                ..SessionConfig::default()
            },
        )
        .expect("replay session");
        workload(&replay);
        replay.finish().expect("replay finish");
    })
}

/// SpinWait watchdog liveness: a wait that can never be satisfied must
/// resolve into a structured `ReplayError::Timeout` — never a livelock —
/// under the model's virtual clock. Passing `None` for the timeout is the
/// watchdog-disabled mutant: the checker then reports a livelock.
pub fn spinwait_watchdog(timeout: Option<Duration>, cfg: &Config) -> Report {
    shuttle::check(cfg.clone(), move || {
        let t = Turnstile::new();
        let spin = SpinConfig {
            spin_hints: 1,
            timeout,
        };
        let stats = Stats::new();
        // Nothing ever advances the turnstile: the wait is unsatisfiable.
        let res = t.wait_exact(1, 0, SiteId(3), &spin, &stats);
        assert!(
            matches!(res, Err(reomp_core::ReplayError::Timeout { .. })),
            "unsatisfiable wait must trip the watchdog, got {res:?}"
        );
    })
}
