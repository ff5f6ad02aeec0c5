//! The per-thread [`Worker`] handle: every OpenMP-like construct, with its
//! `gate_in`/`gate_out` instrumentation, lives here.
//!
//! | construct | gate kind | paper instrumentation point (§V) |
//! |-----------|-----------|----------------------------------|
//! | `critical` | `Critical` | around `__kmpc_critical` pairs |
//! | `atomic_*` | `AtomicRmw` | around `atomicrmw`/`cmpxchg` |
//! | `reduce` | `Reduction` | around the `__kmpc_reduce` combine |
//! | `racy_load`/`racy_store` | `Load`/`Store` | TSan-reported racy instructions |
//! | `single`, dynamic/guided chunk claims | `Ordered` | `__kmpc_single` / dispatch (extension) |
//! | `barrier`, `master`, static loops | *ungated* (deterministic) | — |

use crate::atomic::AtomicF64;
use crate::critical::Critical;
use crate::events::Event;
use crate::racy::{RacyArray, RacyCell, RacyValue};
use crate::reduction::Reduction;
use crate::runtime::TeamShared;
use crate::schedule::{guided_chunk, static_block, static_chunks};
use reomp_core::{AccessKind, SiteId, ThreadCtx};
use std::cell::Cell;
use std::ops::Range;
use std::sync::atomic::Ordering;

/// A team thread inside a parallel region.
pub struct Worker<'t> {
    tid: u32,
    nthreads: u32,
    ctx: ThreadCtx,
    team: &'t TeamShared,
    local_sense: Cell<bool>,
    barrier_count: Cell<u64>,
    construct_seq: Cell<u64>,
}

impl<'t> Worker<'t> {
    pub(crate) fn new(tid: u32, nthreads: u32, ctx: ThreadCtx, team: &'t TeamShared) -> Self {
        Worker {
            tid,
            nthreads,
            ctx,
            team,
            local_sense: Cell::new(false),
            barrier_count: Cell::new(0),
            construct_seq: Cell::new(0),
        }
    }

    /// This thread's 0-based team rank (`omp_get_thread_num`).
    #[must_use]
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// Team size (`omp_get_num_threads`).
    #[must_use]
    pub fn nthreads(&self) -> u32 {
        self.nthreads
    }

    /// The underlying record-and-replay context (for custom gated regions).
    #[must_use]
    pub fn ctx(&self) -> &ThreadCtx {
        &self.ctx
    }

    fn next_construct(&self) -> u64 {
        let seq = self.construct_seq.get();
        self.construct_seq.set(seq + 1);
        seq
    }

    // ------------------------------------------------------------------
    // Synchronization constructs
    // ------------------------------------------------------------------

    /// Team barrier (`#pragma omp barrier`). Deterministic, hence ungated;
    /// emits happens-before events for the race detector, and — in
    /// multi-domain record runs — notes a cross-domain synchronization
    /// point so the order the barrier establishes between gate domains is
    /// stamped into the trace and restored on replay.
    pub fn barrier(&self) {
        let episode = self.barrier_count.get();
        self.barrier_count.set(episode + 1);
        self.team.emit(Event::BarrierArrive {
            tid: self.tid,
            generation: episode,
        });
        let mut sense = self.local_sense.get();
        self.team.barrier.wait(&mut sense);
        self.local_sense.set(sense);
        self.team.emit(Event::BarrierDepart {
            tid: self.tid,
            generation: episode,
        });
        // After everyone arrived: every pre-barrier access in every domain
        // is complete, so the snapshot taken here is the strongest sound
        // edge for this thread's next gated access.
        self.ctx.sync_point();
    }

    /// Named critical section: the gate wraps lock + region, so the
    /// recorded order is the order threads entered the section.
    pub fn critical<R>(&self, cs: &Critical, f: impl FnOnce() -> R) -> R {
        self.ctx.gate(cs.site(), AccessKind::Critical, || {
            let guard = cs.mutex.lock();
            self.team.emit(Event::Acquire {
                tid: self.tid,
                lock: cs.site().raw(),
            });
            let out = f();
            self.team.emit(Event::Release {
                tid: self.tid,
                lock: cs.site().raw(),
            });
            drop(guard);
            out
        })
    }

    /// `#pragma omp single` (nowait): exactly one thread — the first to
    /// arrive in record mode, the recorded one in replay — executes `f`.
    /// The claim itself is gated, so the winner is reproducible.
    pub fn single<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        let seq = self.next_construct();
        let state = self.team.construct(seq);
        let site = SiteId::from_label_indexed("ompr:single", seq);
        let won = self.ctx.gate(site, AccessKind::Ordered, || {
            !state.claimed.swap(true, Ordering::AcqRel)
        });
        won.then(f)
    }

    /// `#pragma omp master`: only the team's rank 0 executes `f`.
    /// Deterministic, hence ungated.
    pub fn master<R>(&self, f: impl FnOnce() -> R) -> Option<R> {
        (self.tid == 0).then(f)
    }

    // ------------------------------------------------------------------
    // Atomics and reductions
    // ------------------------------------------------------------------

    /// Gated atomic `f64 +=` (`#pragma omp atomic`).
    pub fn atomic_add_f64(&self, site: SiteId, cell: &AtomicF64, v: f64) {
        self.atomic_region(site, || {
            cell.fetch_add(v, Ordering::AcqRel);
        });
    }

    /// Gated atomic `u64 +=`.
    pub fn atomic_add_u64(&self, site: SiteId, cell: &std::sync::atomic::AtomicU64, v: u64) {
        self.atomic_region(site, || {
            cell.fetch_add(v, Ordering::AcqRel);
        });
    }

    /// A custom gated atomic region (an arbitrary `atomicrmw`).
    pub fn atomic_region<R>(&self, site: SiteId, f: impl FnOnce() -> R) -> R {
        self.ctx.gate(site, AccessKind::AtomicRmw, || {
            self.team.emit(Event::Acquire {
                tid: self.tid,
                lock: site.raw(),
            });
            let out = f();
            self.team.emit(Event::Release {
                tid: self.tid,
                lock: site.raw(),
            });
            out
        })
    }

    /// Combine an `f64` partial into a reduction (`reduction(+:x)` etc.).
    /// One gate per thread per reduction — the reason `omp_reduction`
    /// record-and-replay overhead is negligible (§VI-A1).
    pub fn reduce(&self, red: &Reduction, partial: f64) {
        self.reduce_region(red, || red.combine_f64(partial));
    }

    fn reduce_region(&self, red: &Reduction, f: impl FnOnce()) {
        self.ctx.gate(red.site(), AccessKind::Reduction, || {
            self.team.emit(Event::Acquire {
                tid: self.tid,
                lock: red.site().raw(),
            });
            f();
            self.team.emit(Event::Release {
                tid: self.tid,
                lock: red.site().raw(),
            });
        });
    }

    // ------------------------------------------------------------------
    // Benign data races (the DE-recording sweet spot)
    // ------------------------------------------------------------------

    /// Gated racy load of a shared cell.
    #[must_use]
    pub fn racy_load<T: RacyValue>(&self, cell: &RacyCell<T>) -> T {
        self.ctx
            .gate_at(cell.site(), cell.addr(), AccessKind::Load, || {
                self.team.emit(Event::Read {
                    tid: self.tid,
                    addr: cell.addr(),
                    site: cell.site(),
                });
                cell.raw_load()
            })
    }

    /// Gated racy store to a shared cell.
    pub fn racy_store<T: RacyValue>(&self, cell: &RacyCell<T>, v: T) {
        self.ctx
            .gate_at(cell.site(), cell.addr(), AccessKind::Store, || {
                self.team.emit(Event::Write {
                    tid: self.tid,
                    addr: cell.addr(),
                    site: cell.site(),
                });
                cell.raw_store(v);
            });
    }

    /// Racy read-modify-write (`sum += x` as it compiles: a gated load
    /// followed by a gated store — two instructions, two gates).
    pub fn racy_update<T: RacyValue>(&self, cell: &RacyCell<T>, f: impl FnOnce(T) -> T) {
        let v = self.racy_load(cell);
        self.racy_store(cell, f(v));
    }

    /// Gated racy load of an array element.
    #[must_use]
    pub fn racy_load_at<T: RacyValue>(&self, arr: &RacyArray<T>, i: usize) -> T {
        self.ctx
            .gate_at(arr.site_of(i), arr.addr_of(i), AccessKind::Load, || {
                self.team.emit(Event::Read {
                    tid: self.tid,
                    addr: arr.addr_of(i),
                    site: arr.site_of(i),
                });
                arr.raw_load(i)
            })
    }

    /// Gated racy store to an array element.
    pub fn racy_store_at<T: RacyValue>(&self, arr: &RacyArray<T>, i: usize, v: T) {
        self.ctx
            .gate_at(arr.site_of(i), arr.addr_of(i), AccessKind::Store, || {
                self.team.emit(Event::Write {
                    tid: self.tid,
                    addr: arr.addr_of(i),
                    site: arr.site_of(i),
                });
                arr.raw_store(i, v);
            });
    }

    /// Racy read-modify-write of an array element.
    pub fn racy_update_at<T: RacyValue>(
        &self,
        arr: &RacyArray<T>,
        i: usize,
        f: impl FnOnce(T) -> T,
    ) {
        let v = self.racy_load_at(arr, i);
        self.racy_store_at(arr, i, f(v));
    }

    // ------------------------------------------------------------------
    // Worksharing loops
    // ------------------------------------------------------------------

    /// `schedule(static)`: this thread's contiguous block of `range`.
    /// Deterministic partition — ungated.
    pub fn for_static(&self, range: Range<usize>, mut f: impl FnMut(usize)) {
        for i in static_block(&range, self.tid, self.nthreads) {
            f(i);
        }
    }

    /// `schedule(static, chunk)`: round-robin chunks. Ungated.
    pub fn for_static_chunk(&self, range: Range<usize>, chunk: usize, mut f: impl FnMut(usize)) {
        for i in static_chunks(range, chunk, self.tid, self.nthreads) {
            f(i);
        }
    }

    /// `schedule(dynamic, chunk)`: first-come-first-served chunks. The
    /// chunk *claim* is gated (`Ordered`), so the iteration→thread
    /// assignment — a real source of non-determinism the paper defers to
    /// future work — is itself recorded and replayed.
    pub fn for_dynamic(&self, range: Range<usize>, chunk: usize, mut f: impl FnMut(usize)) {
        let chunk = chunk.max(1);
        let seq = self.next_construct();
        let state = self.team.construct(seq);
        let site = SiteId::from_label_indexed("ompr:dynamic", seq);
        loop {
            let start = self.ctx.gate(site, AccessKind::Ordered, || {
                state.cursor.fetch_add(chunk, Ordering::AcqRel)
            });
            let begin = range.start + start;
            if begin >= range.end {
                break;
            }
            for i in begin..(begin + chunk).min(range.end) {
                f(i);
            }
        }
    }

    /// `schedule(guided, min_chunk)`: exponentially shrinking chunks,
    /// claims gated like [`Worker::for_dynamic`].
    pub fn for_guided(&self, range: Range<usize>, min_chunk: usize, mut f: impl FnMut(usize)) {
        let len = range.end.saturating_sub(range.start);
        let seq = self.next_construct();
        let state = self.team.construct(seq);
        let site = SiteId::from_label_indexed("ompr:guided", seq);
        let n = self.nthreads;
        loop {
            let claim = self.ctx.gate(site, AccessKind::Ordered, || {
                state
                    .cursor
                    .fetch_update(Ordering::AcqRel, Ordering::Acquire, |done| {
                        if done >= len {
                            None
                        } else {
                            Some(done + guided_chunk(len - done, n, min_chunk))
                        }
                    })
                    .ok()
                    .map(|done| {
                        let size = guided_chunk(len - done, n, min_chunk);
                        (done, size)
                    })
            });
            let Some((done, size)) = claim else { break };
            let begin = range.start + done;
            for i in begin..(begin + size).min(range.end) {
                f(i);
            }
        }
    }
}

impl std::fmt::Debug for Worker<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Worker")
            .field("tid", &self.tid)
            .field("nthreads", &self.nthreads)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use parking_lot::Mutex;
    use reomp_core::{Scheme, Session, TraceBundle};
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn record_then_replay<F>(scheme: Scheme, nthreads: u32, run: F) -> (u64, u64)
    where
        F: Fn(&Runtime) -> u64,
    {
        let session = Session::record(scheme, nthreads);
        let rt = Runtime::new(session.clone());
        let recorded = run(&rt);
        let bundle = session.finish().unwrap().bundle.unwrap();

        let session = Session::replay(bundle).unwrap();
        let rt = Runtime::new(session.clone());
        let replayed = run(&rt);
        let report = session.finish().unwrap();
        assert_eq!(report.failure, None);
        (recorded, replayed)
    }

    #[test]
    fn critical_is_mutually_exclusive_and_replayable() {
        let cs = Critical::new("worker:critical");
        let run = |rt: &Runtime| {
            let shared = Mutex::new(Vec::new());
            rt.parallel(|w| {
                for _ in 0..10 {
                    w.critical(&cs, || shared.lock().push(u64::from(w.tid())));
                }
            });
            // Encode the entry order as a number to compare runs.
            let order = shared.into_inner();
            order
                .iter()
                .fold(0u64, |acc, &t| acc.wrapping_mul(31).wrapping_add(t + 1))
        };
        for scheme in Scheme::ALL {
            let (rec, rep) = record_then_replay(scheme, 4, run);
            assert_eq!(rec, rep, "{scheme:?}: critical entry order must replay");
        }
    }

    #[test]
    fn reduction_replays_float_combine_order() {
        // Order-sensitive partials: replay must reproduce the exact bits.
        let run = |rt: &Runtime| {
            let red = Reduction::sum_f64("worker:red");
            rt.parallel(|w| {
                let partial = match w.tid() {
                    0 => 1e16,
                    1 => 1.0,
                    2 => -1e16,
                    _ => 3.0,
                };
                w.reduce(&red, partial);
            });
            red.load().to_bits()
        };
        for scheme in Scheme::ALL {
            let (rec, rep) = record_then_replay(scheme, 4, run);
            assert_eq!(rec, rep, "{scheme:?}: reduction bits must replay");
        }
    }

    #[test]
    fn racy_counter_replays_final_value() {
        let run = |rt: &Runtime| {
            let cell = RacyCell::new("worker:sum", 0u64);
            rt.parallel(|w| {
                for _ in 0..50 {
                    w.racy_update(&cell, |v| v + 1);
                }
            });
            cell.raw_load()
        };
        for scheme in Scheme::ALL {
            let (rec, rep) = record_then_replay(scheme, 4, run);
            // The racy counter loses updates non-deterministically; replay
            // must reproduce the recorded (possibly "wrong") value exactly.
            assert_eq!(rec, rep, "{scheme:?}");
            assert!(rep <= 200);
        }
    }

    #[test]
    fn single_picks_one_thread_and_replays_the_same_one() {
        let run = |rt: &Runtime| {
            let winner = AtomicU64::new(u64::MAX);
            rt.parallel(|w| {
                w.single(|| winner.store(u64::from(w.tid()), Ordering::SeqCst));
            });
            winner.load(Ordering::SeqCst)
        };
        for scheme in Scheme::ALL {
            let (rec, rep) = record_then_replay(scheme, 4, run);
            assert!(rec < 4, "someone won");
            assert_eq!(rec, rep, "{scheme:?}: same single winner under replay");
        }
    }

    #[test]
    fn dynamic_schedule_assignment_replays() {
        let run = |rt: &Runtime| {
            let assignment: Vec<AtomicU64> = (0..64).map(|_| AtomicU64::new(0)).collect();
            rt.parallel(|w| {
                let tid = u64::from(w.tid());
                w.for_dynamic(0..64, 4, |i| {
                    assignment[i].store(tid + 1, Ordering::SeqCst);
                });
            });
            assignment.iter().fold(0u64, |acc, a| {
                acc.wrapping_mul(7).wrapping_add(a.load(Ordering::SeqCst))
            })
        };
        for scheme in Scheme::ALL {
            let (rec, rep) = record_then_replay(scheme, 3, run);
            assert_eq!(rec, rep, "{scheme:?}: dynamic chunks must replay");
        }
    }

    #[test]
    fn guided_schedule_covers_range_and_replays() {
        let run = |rt: &Runtime| {
            let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
            let owner: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
            rt.parallel(|w| {
                let tid = u64::from(w.tid());
                w.for_guided(0..100, 2, |i| {
                    hits[i].fetch_add(1, Ordering::SeqCst);
                    owner[i].store(tid + 1, Ordering::SeqCst);
                });
            });
            assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
            owner.iter().fold(0u64, |acc, a| {
                acc.wrapping_mul(7).wrapping_add(a.load(Ordering::SeqCst))
            })
        };
        for scheme in [Scheme::Dc, Scheme::De] {
            let (rec, rep) = record_then_replay(scheme, 3, run);
            assert_eq!(rec, rep, "{scheme:?}: guided chunks must replay");
        }
    }

    #[test]
    fn barrier_phases_inside_region() {
        let session = Session::passthrough(4);
        let rt = Runtime::new(session);
        let phase: AtomicU64 = AtomicU64::new(0);
        rt.parallel(|w| {
            phase.fetch_add(1, Ordering::SeqCst);
            w.barrier();
            assert_eq!(phase.load(Ordering::SeqCst), 4);
            w.barrier();
            w.master(|| phase.store(99, Ordering::SeqCst));
            w.barrier();
            assert_eq!(phase.load(Ordering::SeqCst), 99);
        });
    }

    #[test]
    fn racy_array_updates_replay() {
        let run = |rt: &Runtime| {
            let arr: Arc<RacyArray<u64>> = Arc::new(RacyArray::new("worker:arr", 8, 2, 0));
            rt.parallel(|w| {
                for round in 0..10usize {
                    let i = (round + w.tid() as usize) % 8;
                    w.racy_update_at(&arr, i, |v| v + 1);
                }
            });
            arr.to_vec()
                .iter()
                .fold(0u64, |acc, &v| acc.wrapping_mul(131).wrapping_add(v))
        };
        for scheme in Scheme::ALL {
            let (rec, rep) = record_then_replay(scheme, 4, run);
            assert_eq!(rec, rep, "{scheme:?}");
        }
    }

    #[test]
    fn de_epochs_group_racy_loads_across_workers() {
        let session = Session::record(Scheme::De, 4);
        let rt = Runtime::new(session.clone());
        let flag = RacyCell::new("worker:flag", 0u64);
        rt.parallel(|w| {
            for _ in 0..20 {
                let _ = w.racy_load(&flag);
            }
        });
        let report = session.finish().unwrap();
        let hist = report.epoch_histogram().unwrap();
        assert!(hist.max_size() > 1, "{hist}");
    }

    #[test]
    fn trace_roundtrip_through_bundle_replays_in_runtime() {
        // Full path: record via runtime -> bundle -> encode/decode -> replay.
        let session = Session::record(Scheme::De, 2);
        let rt = Runtime::new(session.clone());
        let cell = RacyCell::new("worker:rt", 0u64);
        rt.parallel(|w| {
            for _ in 0..10 {
                w.racy_update(&cell, |v| v + 3);
            }
        });
        let recorded = cell.raw_load();
        let bundle = session.finish().unwrap().bundle.unwrap();
        let store = reomp_core::MemStore::new();
        use reomp_core::TraceStore as _;
        store.save(&bundle).unwrap();
        let (bundle2, _): (TraceBundle, _) = store.load().unwrap();

        let session = Session::replay(bundle2).unwrap();
        let rt = Runtime::new(session.clone());
        let cell2 = RacyCell::new("worker:rt", 0u64);
        rt.parallel(|w| {
            for _ in 0..10 {
                w.racy_update(&cell2, |v| v + 3);
            }
        });
        assert_eq!(session.finish().unwrap().failure, None);
        assert_eq!(cell2.raw_load(), recorded);
    }
}
