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
    AccessKind, DomainPlan, DumpTrigger, FlightRecorder, FlightSink, IoReport, MemStore,
    RecordOptions, RecordSink, Scheme, Session, SessionConfig, SiteId, StreamingTraceStore,
    TraceBundle, TraceError, TraceStore,
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
/// generous enough that a timeout would itself be a bug. `tid` (below
/// [`TURNSTILE_THREADS`]) names the calling harness thread.
pub trait TurnstileApi: Send + Sync + 'static {
    /// Block until exactly `clock` accesses completed (DC admission).
    fn wait_exact(&self, tid: usize, clock: u64);
    /// Block until at least `epoch` accesses completed (DE admission).
    fn wait_at_least(&self, tid: usize, epoch: u64);
    /// Complete one access as the counter's only writer (DC's gate-out,
    /// ST's mirror): a load and a store.
    fn advance_exclusive(&self, tid: usize);
    /// Complete one access while others may complete too (DE's epoch
    /// groups): a read-modify-write.
    fn advance(&self, tid: usize);
}

/// How many threads the turnstile harnesses run.
pub const TURNSTILE_THREADS: usize = 3;

/// The real turnstile plus the spin policy and the stats its waits need —
/// one [`Stats`] per harness thread, as a session keeps one slot per
/// thread: a slot has one writer at a time.
pub struct RealTurnstile {
    turnstile: Turnstile,
    spin: SpinConfig,
    stats: [Stats; TURNSTILE_THREADS],
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
            stats: Default::default(),
        }
    }
}

impl Default for RealTurnstile {
    fn default() -> Self {
        RealTurnstile::new()
    }
}

impl TurnstileApi for RealTurnstile {
    fn wait_exact(&self, tid: usize, clock: u64) {
        self.turnstile
            .wait_exact(clock, tid as u32, SiteId(1), &self.spin, &self.stats[tid])
            .expect("turnstile wait failed");
    }
    fn wait_at_least(&self, tid: usize, epoch: u64) {
        self.turnstile
            .wait_at_least(epoch, tid as u32, SiteId(1), &self.spin, &self.stats[tid])
            .expect("turnstile wait failed");
    }
    fn advance_exclusive(&self, _tid: usize) {
        self.turnstile.complete();
    }
    fn advance(&self, tid: usize) {
        self.turnstile.advance(&self.stats[tid]);
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
/// pairing the RecCore hand-off rides on DC/DE record gates. A relaxed
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
/// must complete in clock order no matter how they are scheduled. Each
/// completes with DC's owner store.
pub fn turnstile_admit_order<T: TurnstileApi>(
    make: impl Fn() -> T + Send + Sync + 'static,
    cfg: &Config,
) -> Report {
    shuttle::check(cfg.clone(), move || {
        let t = Arc::new(make());
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = [2u64, 1, 0]
            .into_iter()
            .enumerate()
            .map(|(tid, clock)| {
                let t = Arc::clone(&t);
                let order = Arc::clone(&order);
                shuttle::thread::spawn(move || {
                    t.wait_exact(tid, clock);
                    order.lock().push(clock);
                    t.advance_exclusive(tid);
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
/// order, but the epoch-2 access only after both completed. The two
/// complete concurrently, so a lost update strands the epoch-2 access.
pub fn turnstile_epoch_group<T: TurnstileApi>(
    make: impl Fn() -> T + Send + Sync + 'static,
    cfg: &Config,
) -> Report {
    shuttle::check(cfg.clone(), move || {
        let t = Arc::new(make());
        let order = Arc::new(Mutex::new(Vec::new()));
        let handles: Vec<_> = [(0u64, 'a'), (0, 'b'), (2, 'c')]
            .into_iter()
            .enumerate()
            .map(|(tid, (epoch, tag))| {
                let t = Arc::clone(&t);
                let order = Arc::clone(&order);
                shuttle::thread::spawn(move || {
                    t.wait_at_least(tid, epoch);
                    order.lock().push(tag);
                    t.advance(tid);
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

/// Turnstile hand-off visibility: data written (Relaxed) before an
/// advance must be visible to the waiter it admits, through both advances.
/// Thread 0 writes and hands clock 1 to thread 1 with the owner store
/// (DC), which reads, writes back and hands clock 2 to thread 0 with the
/// RMW (DE). The Release store and the AcqRel `fetch_add`, paired with
/// the Acquire load in the wait loop, carry the edges — a relaxed mutant
/// lets a waiter read stale data.
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
                t.advance_exclusive(0);
                t.wait_at_least(0, 2);
                assert_eq!(
                    data.load(Ordering::Relaxed),
                    43,
                    "the RMW advance did not publish the second writer's data"
                );
            })
        };
        let reader = {
            let t = Arc::clone(&t);
            let data = Arc::clone(&data);
            shuttle::thread::spawn(move || {
                t.wait_at_least(1, 1);
                assert_eq!(
                    data.load(Ordering::Relaxed),
                    42,
                    "the owner-store advance did not publish the writer's data"
                );
                data.store(43, Ordering::Relaxed);
                t.advance(1);
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
/// them.
///
/// The floor is read under admission: each gate posts its fix-up (if any)
/// and then reads the tracker's oldest pending store — both inside its
/// served ticket — and its owner flushes only the lane entries below that
/// floor, after draining its mailbox. An entry below the floor was
/// resolved under that ticket or an earlier one, and the ticket hand-off
/// (plus the mailbox mutex) orders its fix-up before the drain. The
/// committed store must hold every record exactly once and every epoch
/// the clock order dictates: a run of `n` same-site stores records `n − 1`
/// times its first clock and once its last.
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
        // Site 2 is pinned to domain 0, site 3 to domain 1.
        let sites = [SiteId(2), SiteId(3)];
        let plan = DomainPlan::with_assignments(2, [(sites[0], 0), (sites[1], 1)]);
        let session = Session::record_with(
            Scheme::Dc,
            2,
            SessionConfig {
                plan: Some(plan),
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

/// Ticket-gate record → replay equivalence: a two-thread benign-racy
/// workload records through the ticket gate (no mutex anywhere); in every
/// schedule the bundle must validate and its replay must reproduce both
/// the per-access values and the final state of the racy cell. With
/// `streaming_de` the recording is a DE run streamed with a one-record
/// flush threshold, so the floor read and every owner-side flush happen
/// under (or right after) a served ticket. (D = 1 trace bytes are pinned
/// outside the model by `tests/golden_corpus.rs` and the fixture
/// regeneration.)
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
        assert_eq!(report.stats.lock_acquires, 0, "DC/DE never take the lock");
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

/// Critical-anchored cross-domain edges through the ticket, on the real
/// engines: a two-domain DE record run where each thread makes one plain
/// store in its own domain and then one critical section in the other,
/// which snapshots the other domain's completion count and anchors an
/// edge — both admitted by the ticket gate alone. The snapshot is taken
/// inside the served ticket, before the access publishes its own
/// completion, so the edge set stays acyclic and replay terminates in
/// every schedule.
pub fn ticket_critical_edge_record_replay(cfg: &Config) -> Report {
    shuttle::check(cfg.clone(), move || {
        // Site 2 is pinned to domain 0, site 3 to domain 1.
        let sites = [SiteId(2), SiteId(3)];
        let plan = DomainPlan::with_assignments(2, [(sites[0], 0), (sites[1], 1)]);
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
                plan: Some(plan),
                spin: model_spin(),
                ..SessionConfig::default()
            },
        );
        workload(&session);
        let report = session.finish().expect("record finish");
        let bundle = report.bundle.expect("in-memory bundle");
        bundle.validate().expect("recorded bundle validates");

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

/// A [`MemStore`] a flight session can own while the harness keeps a
/// handle to load what the session's dumps wrote.
struct SharedMem(Arc<MemStore>);

impl TraceStore for SharedMem {
    fn save(&self, bundle: &TraceBundle) -> Result<IoReport, TraceError> {
        self.0.save(bundle)
    }
    fn load(&self) -> Result<(TraceBundle, IoReport), TraceError> {
        self.0.load()
    }
}

impl StreamingTraceStore for SharedMem {
    fn begin_record(&self, opts: RecordOptions) -> Result<Box<dyn RecordSink>, TraceError> {
        self.0.begin_record(opts)
    }
}

/// Foreign drain vs the owner-written record lane, on the real engines:
/// thread 0 gates five DC loads into a flight session with a two-record
/// flush threshold — so its appends, its threshold flushes and its lane's
/// first allocation all race — while another thread runs
/// [`Session::dump`], whose residue flush drains thread 0's lane from
/// outside. The final dump must hold every record exactly once, in clock
/// order: a drain that lost the owner's unpublished slot, took an entry
/// twice, or let a compaction move entries under it breaks the sequence.
pub fn lane_owner_vs_drain(cfg: &Config) -> Report {
    const GATES: u64 = 5;
    shuttle::check(cfg.clone(), move || {
        let store = Arc::new(MemStore::default());
        let session = Session::record_flight(
            Scheme::Dc,
            1,
            SessionConfig {
                flush_records: 2,
                flight: Some(64),
                spin: model_spin(),
                ..SessionConfig::default()
            },
            SharedMem(Arc::clone(&store)),
        )
        .expect("flight session");
        let owner = {
            let session = Arc::clone(&session);
            shuttle::thread::spawn(move || {
                let ctx = session.register_thread(0);
                for _ in 0..GATES {
                    ctx.gate(SiteId(9), AccessKind::Load, || ());
                }
            })
        };
        let dumper = {
            let session = Arc::clone(&session);
            shuttle::thread::spawn(move || {
                session.dump(DumpTrigger::Manual).expect("mid-run dump");
            })
        };
        owner.join().unwrap();
        dumper.join().unwrap();
        session.dump(DumpTrigger::Manual).expect("final dump");
        session.finish().expect("flight finish");
        let (bundle, _) = store.load().expect("dumped store loads");
        assert_eq!(
            bundle.thread(0, 0).values,
            (0..GATES).collect::<Vec<_>>(),
            "a record was lost, duplicated or reordered between owner and drain"
        );
    })
}

/// A mid-run dump vs a stealing ST gate, or two stealing ST gates. With
/// `gaters == 1`, thread 0 gates ST stores at sites 0, 1, … into a flight
/// session with a two-record flush threshold (every second gate steals the
/// builder and appends it after releasing `L`) while another thread's
/// [`Session::dump`] flushes the builder's residue. With `gaters == 2`,
/// threads 0 and 1 gate sites `100 · tid + i` and each steals the batches
/// its own gates fill, so two stolen batches race to the stream. Every
/// append must happen under the chunk-order lock taken before `L` is
/// released: the final dump holds the sites in the order the gates
/// admitted them (which the gated regions log), each record counted once.
pub fn st_dump_vs_steal(cfg: &Config, gaters: u32) -> Report {
    let gates: u64 = if gaters == 1 { 5 } else { 3 };
    shuttle::check(cfg.clone(), move || {
        let store = Arc::new(MemStore::default());
        let session = Session::record_flight(
            Scheme::St,
            gaters,
            SessionConfig {
                flush_records: 2,
                flight: Some(64),
                spin: model_spin(),
                ..SessionConfig::default()
            },
            SharedMem(Arc::clone(&store)),
        )
        .expect("flight session");
        let admitted = Arc::new(Mutex::new(Vec::new()));
        let mut threads: Vec<_> = (0..gaters)
            .map(|tid| {
                let (session, admitted) = (Arc::clone(&session), Arc::clone(&admitted));
                shuttle::thread::spawn(move || {
                    let ctx = session.register_thread(tid);
                    for i in 0..gates {
                        let site = 100 * u64::from(tid) + i;
                        ctx.gate(SiteId(site), AccessKind::Store, || {
                            admitted.lock().push(site);
                        });
                    }
                })
            })
            .collect();
        if gaters == 1 {
            let session = Arc::clone(&session);
            threads.push(shuttle::thread::spawn(move || {
                session.dump(DumpTrigger::Manual).expect("mid-run dump");
            }));
        }
        threads.into_iter().for_each(|t| t.join().unwrap());
        session.dump(DumpTrigger::Manual).expect("final dump");
        let report = session.finish().expect("flight finish");
        let (bundle, _) = store.load().expect("dumped store loads");
        let admitted = admitted.lock().clone();
        assert_eq!(
            bundle.st_stream(0).expect("an ST stream").sites,
            Some(admitted),
            "a batch reached the stream out of admission order"
        );
        assert_eq!(
            report.stats.records_written,
            gates * u64::from(gaters),
            "each record counted once"
        );
    })
}

/// Run `body` once as a single model thread and return what it returns:
/// the one-schedule execution the locked-instruction counts are taken in.
fn run_once<T: Send + 'static>(body: impl Fn() -> T + Send + Sync + 'static) -> T {
    let out = Arc::new(std::sync::Mutex::new(None));
    let slot = Arc::clone(&out);
    let report = shuttle::check(
        Config {
            max_schedules: Some(1),
            ..Config::default()
        },
        move || {
            *slot.lock().unwrap() = Some(body());
        },
    );
    if let Some(v) = report.violation {
        panic!("counting run failed:\n{v}");
    }
    let value = out.lock().unwrap().take();
    value.expect("the body ran")
}

/// Locked instructions executed by `f`, which must not spawn.
fn locked_in(f: impl FnOnce()) -> u64 {
    let before = shuttle::locked_instructions().expect("inside a model execution");
    f();
    shuttle::locked_instructions().expect("inside a model execution") - before
}

/// The locked instructions — RMWs, compare-exchanges and mutex
/// acquisitions, as [`shuttle::locked_instructions`] counts them — that one
/// warm gate of `scheme` executes, recording (`replay == false`) or
/// replaying, in a one-thread session over `domains` gate domains.
/// `program` is the thread's whole access sequence on one site: every
/// access but the last warms the session (lane storage, cursors), the
/// last is counted. A replay replays the recording of the same program.
/// [`crate::shuttle`] counts only shimmed primitives; `stats.rs` is
/// plain `std` and is held to plain loads and stores by a source guard.
#[must_use]
pub fn gate_locked_instructions(
    scheme: Scheme,
    replay: bool,
    domains: u32,
    program: &'static [AccessKind],
) -> u64 {
    run_once(move || {
        let site = SiteId(11);
        let config = || SessionConfig {
            plan: (domains > 1).then(|| DomainPlan::new(domains)),
            spin: model_spin(),
            ..SessionConfig::default()
        };
        let drive = |session: &Arc<Session>| -> u64 {
            let ctx = session.register_thread(0);
            let (last, warm) = program.split_last().expect("a non-empty program");
            for &kind in warm {
                ctx.gate(site, kind, || ());
            }
            locked_in(|| ctx.gate(site, *last, || ()))
        };
        let record = Session::record_with(scheme, 1, config());
        let recorded = drive(&record);
        let bundle = record
            .finish()
            .expect("record finish")
            .bundle
            .expect("bundle");
        if !replay {
            return recorded;
        }
        let session = Session::replay_with(bundle, config()).expect("replay session");
        let replayed = drive(&session);
        session.finish().expect("replay finish");
        replayed
    })
}

/// The locked instructions one warm `enter` + `exit` pair of a ticket
/// gate executes.
#[must_use]
pub fn ticket_locked_instructions<T: TicketApi>(
    make: impl Fn() -> T + Send + Sync + 'static,
) -> u64 {
    run_once(move || {
        let gate = make();
        let t = gate.enter();
        gate.exit(t);
        locked_in(|| {
            let t = gate.enter();
            gate.exit(t);
        })
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
