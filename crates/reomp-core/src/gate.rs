//! The `gate_in`/`gate_out` engines for every scheme × mode pair.
//!
//! Each function body is annotated with the pseudo-code lines of the
//! paper's Figure 4 (ST) and Figure 5 (DC/DE) it implements.
//!
//! Every engine operates on one **gate domain** (see
//! [`SessionConfig::plan`](crate::session::SessionConfig::plan)):
//! the caller resolves the site to its domain once, and all state below —
//! lock `L`, `global_clock`, the epoch tracker, the replay turnstile and
//! baton — is that domain's instance. With the default single domain this
//! is exactly the paper's global gate.
//!
//! Record-mode summary. Every scheme serializes the region, and the scheme
//! alone chooses how: ST under the domain's lock `L`, as in the paper;
//! DC/DE through the domain's lock-free
//! [`TicketGate`](crate::clock::TicketGate), for every access — plain,
//! critical, or anchoring a cross-domain edge:
//!
//! ```text
//! ST  (Fig. 4 l.1-8):  lock; <region>; append tid to shared log; unlock
//! DC  (Fig. 5 l.20-24, X=0):   enter; <region>; clock=global_clock++;
//!                              exit; write clock to own file
//! DE  (Fig. 5 l.20-24, X=X_C): enter; <region>; clock=global_clock++;
//!                              epoch=clock-X_C (a store provisionally gets
//!                              its clock; if this access proves the
//!                              previous store wrong, post a fix-up to
//!                              its owner); exit; write epoch to own file
//! ```
//!
//! One protocol per session: out-of-band pausers take the same admission
//! (a ghost ticket, or `L`), never a second one. `exit_after` runs the
//! region and exits the gate even when the region unwinds, so a panicking
//! region still releases its domain — on record, after recording the
//! access it did run.
//!
//! Replay-mode summary:
//!
//! ```text
//! ST  (Fig. 4 l.10-17): spin on next_tid; the thread that wins the baton
//!                       reads the next record and publishes it; the
//!                       matching thread runs the region and releases the
//!                       baton (possibly acquired by another thread).
//! DC  (Fig. 5 l.30-34): clock = own-file next; spin while clock != next_clock;
//!                       <region>; next_clock++
//! DE  (same, §IV-D):    epoch = own-file next; spin while next_clock < epoch;
//!                       <region>; next_clock++   — same-epoch accesses overlap
//! ```

use crate::error::{Divergence, ReplayError};
use crate::session::{DomainRecord, OrderTurn, RecEntry, Session, TID_EXHAUSTED, TID_NONE};
use crate::shim::atomic::Ordering;
use crate::site::{AccessKind, SiteId};
use crate::sync::SpinWait;
use crate::Scheme;

/// Run an admitted gate's region `f`, then `exit` the gate (`gate_out`) —
/// also when `f` unwinds, after which the panic resumes: the region did
/// run under the exclusion, so on record the access is recorded, and on
/// replay its successors are not left waiting for the watchdog.
///
/// Not a `Drop` guard: the landing pad a guard puts into every gate call
/// measured +25 % `dc.record_ns_per_op` on `synth_contended`, where this
/// catch costs nothing (EXPERIMENTS.md "Record admission per scheme").
#[inline]
pub(crate) fn exit_after<R>(f: impl FnOnce() -> R, exit: impl FnOnce()) -> R {
    let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    exit();
    out.unwrap_or_else(|payload| std::panic::resume_unwind(payload))
}

/// Record-mode `gate_in` (`set_lock(L)`, Fig. 4 line 1 / Fig. 5 line 20):
/// take domain `dom`'s one admission — `L` for ST, a served ticket for
/// DC/DE (one `fetch_add` and one load when the gate is idle) — and note this thread as
/// its holder while the region runs (see `DomainRecord::pause`). Returns
/// the holder note replaced, which the matching [`record_out`] restores: a
/// gate nested inside another domain's region hands that note back.
pub(crate) fn record_in(session: &Session, dom: u32, tid: u32) -> usize {
    let rec = session.rec.as_ref().expect("record mode");
    let drec = &rec.domains[dom as usize];
    if drec.admit() {
        session.thread_stats(tid).bump_lock();
    }
    drec.note_held()
}

/// Record-mode `gate_out`. `addr` is the memory location used for DE run
/// grouping (Condition 1 is per-address); `outer` is what the matching
/// [`record_in`] returned.
pub(crate) fn record_out(
    session: &Session,
    dom: u32,
    tid: u32,
    site: SiteId,
    addr: u64,
    kind: AccessKind,
    outer: usize,
) {
    // The region is over: from here this call borrows the core itself, so
    // nothing else on this thread may.
    DomainRecord::restore_note(outer);
    let rec = session.rec.as_ref().expect("record mode");
    let drec = &rec.domains[dom as usize];
    let lane = &drec.lanes[tid as usize];
    let stats = session.thread_stats(tid);
    let multi = session.domains() > 1;
    // Release the admission `record_in` granted. After this call the gate
    // core must not be touched.
    // SAFETY: `record_in` admitted this thread, and only this call
    // releases it.
    let release = || unsafe { drec.release() };
    // Cross-domain edge sources: a pending barrier snapshot taken at this
    // thread's last sync point, or — for critical-section gates — a fresh
    // snapshot taken below. The snapshot MUST be read before this access
    // publishes its own completion (see `edge_waits` below): two accesses
    // in different domains can then never both observe each other, which
    // is what makes replaying the edges deadlock-free.
    let pending = if multi {
        session.take_pending_sync(tid)
    } else {
        None
    };
    let wants_edge = multi && (kind == AccessKind::Critical || pending.is_some());
    // `Some((seq, counts))` once the anchor position is known: the edge is
    // appended after the domain's admission is released.
    let mut edge: Option<(u64, Vec<u64>)> = None;
    // Resolve the wait set now for critical gates (a fresh snapshot
    // dominates any pending one — counts are monotone), else the barrier
    // snapshot.
    let edge_counts = |session: &Session| -> Option<Vec<u64>> {
        if kind == AccessKind::Critical {
            session.snapshot_domain_counts()
        } else {
            pending.clone()
        }
    };
    // DC/DE shared completion bookkeeping, run under the domain's gate
    // exclusion right after the clock assignment. The snapshot is read
    // strictly BEFORE `published` advances past this access: two accesses
    // in different domains can then never both observe each other's
    // completion, which keeps the recorded edge set acyclic — the
    // invariant that makes replaying the edges deadlock-free. Returns the
    // pending edge as `(anchor seq, wait snapshot)`.
    let stamp_clocked = |clock: u64| -> Option<(u64, Vec<u64>)> {
        let counts = wants_edge.then(|| edge_counts(session)).flatten();
        // ORDERING: the lane's `seq` is only ever advanced by its owning
        // thread (it is that thread's record count), so a load and a store
        // advance it without a locked instruction; cross-thread readers
        // observe it through the `published` Release store below.
        let seq = lane.seq.load(Ordering::Relaxed);
        lane.seq.store(seq + 1, Ordering::Relaxed);
        drec.published.store(clock + 1, Ordering::Release);
        counts.map(|c| (seq, c))
    };
    match session.scheme() {
        Scheme::St => {
            // Fig. 4 lines 6-8: record the thread ID to the domain's shared
            // log *before* releasing the lock, so the logged order is the
            // execution order.
            // SAFETY: `record_in` admitted this thread — for ST, locked
            // `L` — and `release` below has not run yet.
            let core = unsafe { drec.gate.get() };
            let builder = core.st.as_mut().expect("st builder");
            builder.push(tid, site, kind);
            if multi {
                // Snapshot (for the edge) strictly before self-publish.
                let counts = wants_edge.then(|| edge_counts(session)).flatten();
                // ORDERING: only `L`'s holder writes `published`, and `L`'s
                // acquire ordered the previous holder's store before this
                // load; the Release store publishes to other domains'
                // edge snapshots, which read it with Acquire.
                let count = drec.published.load(Ordering::Relaxed) + 1;
                drec.published.store(count, Ordering::Release);
                if let Some(counts) = counts {
                    // ST anchors at the access's shared-stream index.
                    edge = Some((count - 1, counts));
                }
            }
            // Steal a full shared log under the lock (the order is
            // already captured); hand it to the sink after unlock.
            // `flush_records` is clamped to >= 1 once in `Session::build`.
            let n = builder.tids.len();
            let stolen = (n >= session.cfg.flush_records).then(|| {
                // Leave the builder as much room as it had, so it does not
                // regrow from empty after every steal.
                let batch = (
                    std::mem::replace(&mut builder.tids, Vec::with_capacity(n)),
                    std::mem::replace(&mut builder.sites, Vec::with_capacity(n)),
                    std::mem::replace(&mut builder.kinds, Vec::with_capacity(n)),
                );
                // Acquire the chunk-order lock *before* releasing the gate
                // lock: steal order is execution order, and holding
                // st_order across the append keeps two stolen batches from
                // reaching the domain's stream file out of order.
                (OrderTurn::take(&rec.st_order[dom as usize]), batch)
            });
            release();
            if let Some((mut turn, (tids, sites, kinds))) = stolen {
                turn.count(&tids, &kinds);
                if let Err(e) = session.append_st_chunk(dom, &tids, &sites, &kinds, tid) {
                    rec.record_failure(e);
                }
            }
        }
        Scheme::Dc | Scheme::De => {
            // Fig. 5 lines 22-24: assign the clock and — for DE — let the
            // epoch tracker turn it into this access's value (X = X_C; DC
            // is X = 0).
            // `floor`: below it, this lane's entries are final once its
            // mailbox is drained (see `Session::flush_lane`).
            let (clock, value, floor) = {
                // SAFETY: `record_in` admitted this thread — for DC/DE,
                // with the currently-served ticket — and `release` below
                // has not run yet.
                let core = unsafe { drec.gate.get() };
                let clock = core.clock;
                core.clock += 1;
                if multi {
                    edge = stamp_clocked(clock);
                }
                match &mut core.tracker {
                    None => (clock, clock, u64::MAX),
                    Some(tracker) => {
                        let observed = tracker.observe(tid, site, addr, kind, clock);
                        // A store's value is provisional for one access
                        // (Table V). When this access shows the previous
                        // store — maybe another thread's — keeps its run's
                        // epoch after all, tell its owner; nothing else
                        // ever crosses threads.
                        if let Some(fix) = observed.fixup {
                            let owner = &drec.lanes[fix.thread as usize];
                            owner.fixups.lock().push((fix.clock, fix.epoch));
                            stats.bump_deferred();
                        }
                        // The floor is read here, under this admission and
                        // after the fix-up above: a store below it was
                        // resolved under this admission or an earlier one,
                        // so its fix-up is already in its owner's mailbox.
                        let floor = tracker.min_pending_clock().unwrap_or(u64::MAX);
                        (clock, observed.value, floor)
                    }
                }
            };
            release();
            // Line 24 happens *after* the exit: the write to the thread's own
            // record file overlaps other threads' region execution
            // (§IV-C3). Only this thread appends to its lane, so the lane
            // is in clock order by construction, and the append is a slot
            // write plus a length store — no lock. A lane at the threshold
            // flushes under its cold lock.
            let len = lane.push(RecEntry {
                clock,
                value,
                site: site.raw(),
                kind: kind.code(),
            });
            if len >= session.cfg.flush_records {
                session.flush_lane(dom, tid, floor);
            }
        }
    }
    if let Some((seq, counts)) = edge {
        session.push_edge(dom, tid, seq, &counts);
    }
}

/// Replay-mode `gate_in`. Blocks until the recorded order of domain `dom`
/// admits this access; validates site/kind when the trace carries them.
///
/// Inline, an admitted access is the paper's load and compare plus those
/// checks; every wait and every error is built out of line (`#[cold]`),
/// so a [`ReplayError`] exists only on failure.
#[inline(always)]
pub(crate) fn replay_in(
    session: &Session,
    dom: u32,
    tid: u32,
    site: SiteId,
    kind: AccessKind,
) -> Result<(), ReplayError> {
    match session.scheme() {
        Scheme::St => replay_in_st(session, dom, tid, site, kind),
        Scheme::Dc | Scheme::De => replay_in_distributed(session, dom, tid, site, kind),
    }
}

/// Replay-mode `gate_out`.
#[inline(always)]
pub(crate) fn replay_out(session: &Session, dom: u32, tid: u32) {
    let rep = session.rep.as_ref().expect("replay mode");
    let drep = &rep.domains[dom as usize];
    match session.scheme() {
        Scheme::St => {
            // Fig. 4 line 17 (`unset_lock(L)`): invalidate `next_tid` so a
            // stale match cannot re-admit this thread, then release the
            // baton — one inter-thread communication (ST-3/ST-4 in Fig. 6).
            drep.st.next_tid.store(TID_NONE, Ordering::Release);
            if session.domains() > 1 {
                // Mirror the completion count so other domains'
                // cross-domain edges can wait on this domain (not a paper
                // communication — the baton hand-off above is ST's). The
                // baton is still held, so this thread is its only writer.
                drep.turnstile.complete();
            }
            drep.st.baton.release();
        }
        // Fig. 5 line 34: `next_clock++` — the single inter-thread
        // communication of DC/DE replay (DC-1 in Fig. 7). DC admitted this
        // thread alone at its clock, so it is the turnstile's only writer;
        // DE's same-epoch threads advance concurrently.
        Scheme::Dc => {
            drep.turnstile.complete();
        }
        Scheme::De => {
            drep.turnstile.advance(session.thread_stats(tid));
        }
    }
}

/// The report of a validation failure at position `seq` of domain `dom`,
/// `recorded` against `actual` (site, kind): built only on failure, with
/// the domain's admitted history read back from the trace.
#[cold]
#[inline(never)]
fn diverged(
    session: &Session,
    dom: u32,
    tid: u32,
    seq: u64,
    (recorded_site, recorded_kind): (SiteId, Option<AccessKind>),
    (site, kind): (SiteId, AccessKind),
) -> ReplayError {
    Divergence {
        thread: tid,
        domain: dom,
        seq,
        recorded_site: Some(recorded_site),
        actual_site: site,
        recorded_kind,
        actual_kind: kind,
        history: session.replay_history(dom, seq),
    }
    .into()
}

/// More accesses were attempted than `available` records.
#[cold]
#[inline(never)]
fn exhausted(tid: u32, available: usize) -> ReplayError {
    ReplayError::TraceExhausted {
        thread: tid,
        available: available as u64,
    }
}

#[inline(always)]
fn replay_in_st(
    session: &Session,
    dom: u32,
    tid: u32,
    site: SiteId,
    kind: AccessKind,
) -> Result<(), ReplayError> {
    let rep = session.rep.as_ref().expect("replay mode");
    let drep = &rep.domains[dom as usize];
    // Fig. 4 line 11: the turn is this thread's once a baton reader has
    // published its tid; anything else — reading the next record, waiting
    // for another thread's turn, abort, exhaustion — is `st_turn`'s.
    if drep.turnstile.is_aborted() || drep.st.next_tid.load(Ordering::Acquire) != tid {
        st_turn(session, dom, tid, site)?;
    }
    // ORDERING: the reader stored `st_pos` (and site/kind below) before
    // publishing `next_tid` with Release; the Acquire load of `next_tid`
    // that found this thread's tid already ordered those writes before us,
    // so these follow-up loads can be Relaxed.
    let seq = drep.st.st_pos.load(Ordering::Relaxed).saturating_sub(1) as u64;
    // Enforce any cross-domain edge anchored at this stream position
    // before entering the region.
    if drep.st.anchors.due(seq) {
        session.wait_edges(&drep.st.anchors, tid, site)?;
    }
    // It is this thread's turn. Validate against the published record
    // before entering the region.
    let st = rep.bundle.st_stream(dom).expect("st trace");
    if st.sites.is_some() {
        // ORDERING: covered by the `next_tid` Acquire above (see the
        // `st_pos` justification).
        let recorded_site = SiteId(drep.st.next_site.load(Ordering::Relaxed));
        let recorded_kind = AccessKind::from_code(drep.st.next_kind.load(Ordering::Relaxed) as u8);
        if recorded_site != site || recorded_kind != Some(kind) {
            return Err(diverged(
                session,
                dom,
                tid,
                seq,
                (recorded_site, recorded_kind),
                (site, kind),
            ));
        }
    }
    Ok(())
}

/// Fig. 4 lines 10-15 until `next_tid` names this thread: any thread may
/// become the reader by winning the baton, and every other one spins.
/// Returns once this thread's turn is published, or with the abort,
/// exhaustion or watchdog error that ends the wait.
#[cold]
#[inline(never)]
fn st_turn(session: &Session, dom: u32, tid: u32, site: SiteId) -> Result<(), ReplayError> {
    let rep = session.rep.as_ref().expect("replay mode");
    let drep = &rep.domains[dom as usize];
    let st = rep.bundle.st_stream(dom).expect("st trace");
    let stats = session.thread_stats(tid);
    let mut spin = SpinWait::new(&session.cfg.spin);
    loop {
        if drep.turnstile.is_aborted() {
            return Err(ReplayError::Aborted);
        }
        let next = drep.st.next_tid.load(Ordering::Acquire);
        if next == TID_EXHAUSTED {
            return Err(exhausted(tid, st.len()));
        }
        if next == tid {
            return Ok(());
        }
        // Lines 12-13: any thread may become the reader by winning the
        // baton; it stays locked until the *replayed* thread's gate_out.
        if drep.st.baton.try_acquire() {
            stats.bump_lock();
            // ORDERING: `st_pos` is only written while holding the baton;
            // winning `try_acquire` (Acquire CAS) synchronized with the
            // previous holder's Release, so this Relaxed load sees the
            // latest position.
            let pos = drep.st.st_pos.load(Ordering::Relaxed);
            if pos >= st.len() {
                // More accesses are being attempted than were recorded.
                drep.st.next_tid.store(TID_EXHAUSTED, Ordering::Release);
                drep.st.baton.release();
                return Err(exhausted(tid, st.len()));
            }
            let next_tid = st.tids[pos];
            // ORDERING: these stores are published to other threads by the
            // `next_tid` Release store below ("publish last"); until then
            // only the baton holder touches them, so they can be Relaxed.
            if let Some(sites) = &st.sites {
                drep.st.next_site.store(sites[pos], Ordering::Relaxed);
            }
            if let Some(kinds) = &st.kinds {
                drep.st
                    .next_kind
                    .store(u32::from(kinds[pos]), Ordering::Relaxed);
            }
            // ORDERING: published by the `next_tid` Release below, as above.
            drep.st.st_pos.store(pos + 1, Ordering::Relaxed);
            // Publish last, with Release, so the matching thread sees the
            // site/kind written above.
            drep.st.next_tid.store(next_tid, Ordering::Release);
            if next_tid != tid {
                // ST-2 in Fig. 6: `next_tid` must travel from the reader to
                // the replayed thread — the second communication that DC
                // replay does not pay (§IV-C2).
                stats.bump_comms(1);
            }
            continue;
        }
        spin.step(tid, site, u64::from(tid), || {
            u64::from(drep.st.next_tid.load(Ordering::Acquire))
        })?;
    }
}

#[inline(always)]
fn replay_in_distributed(
    session: &Session,
    dom: u32,
    tid: u32,
    site: SiteId,
    kind: AccessKind,
) -> Result<(), ReplayError> {
    let rep = session.rep.as_ref().expect("replay mode");
    let drep = &rep.domains[dom as usize];
    let lane = &drep.lanes[tid as usize];
    let trace = rep.bundle.thread(dom, tid);
    let stats = session.thread_stats(tid);

    // Fig. 5 line 31: read the next clock/epoch from the thread's own file
    // for this domain. The cursor is only advanced on *successful*
    // admission (at the bottom), so a failed attempt — exhaustion,
    // divergence, edge-wait or turnstile timeout — leaves the record in
    // place for a retry instead of silently consuming it.
    // ORDERING: `lane.cursor` is written only by this thread; a diverging
    // thread's report may read it (see `Session::replay_history`).
    let pos = lane.cursor.load(Ordering::Relaxed);
    let Some(&value) = trace.values.get(pos) else {
        return Err(exhausted(tid, trace.len()));
    };

    // Validate before waiting: a divergence is certain regardless of the
    // turnstile, and failing early avoids a guaranteed watchdog timeout.
    if let Some(recorded_site) = trace.site_at(pos) {
        let recorded_kind = trace.kind_at(pos);
        if recorded_site != site || recorded_kind != Some(kind) {
            return Err(diverged(
                session,
                dom,
                tid,
                pos as u64,
                (recorded_site, recorded_kind),
                (site, kind),
            ));
        }
    }

    // Cross-domain edges: wait for the stamped foreign-domain counts
    // before taking this domain's own turn.
    if lane.anchors.due(pos as u64) {
        session.wait_edges(&lane.anchors, tid, site)?;
    }

    // Fig. 5 line 32: one load and a compare when admitted at once.
    match session.scheme() {
        Scheme::Dc => {
            drep.turnstile
                .wait_exact(value, tid, site, &session.cfg.spin, stats)?;
        }
        Scheme::De => {
            drep.turnstile
                .wait_at_least(value, tid, site, &session.cfg.spin, stats)?;
        }
        Scheme::St => unreachable!("st handled separately"),
    }
    // Admission succeeded: consume the record now. A timed-out `try_gate`
    // above returned without touching the cursor, so a retry re-reads the
    // same position (pinned by the retry regression test).
    // ORDERING: owner-written cursor, see the load above.
    lane.cursor.store(pos + 1, Ordering::Relaxed);
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Scheme-level record/replay tests exercising the full gate paths.
    //! Cross-crate integration tests live in the workspace `tests/` tree.

    use crate::error::ReplayError;
    use crate::plan::DomainPlan;
    use crate::session::{Scheme, Session, SessionConfig};
    use crate::site::{AccessKind, SiteId};
    use crate::sync::SpinConfig;
    use crate::trace::{CrossDomainEdge, TraceBundle};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    const SITE: SiteId = SiteId(0x5157_e001);

    /// A racy shared counter: each increment is a gated load followed by a
    /// gated store, like a `sum += 1` data race compiled to instructions.
    fn racy_workload(session: &Arc<Session>, nthreads: u32, iters: usize) -> (u64, Vec<u64>) {
        let shared = AtomicU64::new(0);
        let order = parking_lot::Mutex::new(Vec::new());
        std::thread::scope(|s| {
            for tid in 0..nthreads {
                let ctx = session.register_thread(tid);
                let shared = &shared;
                let order = &order;
                s.spawn(move || {
                    for _ in 0..iters {
                        let v = ctx.gate(SITE, AccessKind::Load, || shared.load(Ordering::Relaxed));
                        ctx.gate(SITE, AccessKind::Store, || {
                            order.lock().push(u64::from(ctx.tid()));
                            shared.store(v + 1, Ordering::Relaxed);
                        });
                    }
                });
            }
        });
        (shared.load(Ordering::Relaxed), order.into_inner())
    }

    fn record_racy(scheme: Scheme, nthreads: u32, iters: usize) -> (u64, Vec<u64>, TraceBundle) {
        let session = Session::record(scheme, nthreads);
        let (sum, order) = racy_workload(&session, nthreads, iters);
        let report = session.finish().unwrap();
        assert_eq!(
            report.stats.records_written,
            u64::from(nthreads) * iters as u64 * 2
        );
        (sum, order, report.bundle.unwrap())
    }

    #[test]
    fn dc_replay_reproduces_exact_global_order() {
        let (_, _, bundle) = record_racy(Scheme::Dc, 3, 40);
        // Check the bundle is a dense clock permutation (validated) and the
        // recorded order walks the clocks from 0.
        bundle.validate().unwrap();
        let order = bundle.linearize().accesses;
        assert_eq!(order.len(), 3 * 40 * 2);
        assert!(order.iter().map(|a| a.value).eq(0..3 * 40 * 2));
    }

    #[test]
    fn de_trace_contains_shared_epochs_for_load_runs() {
        // Loads-only workload: every concurrent load run shares an epoch.
        let session = Session::record(Scheme::De, 4);
        std::thread::scope(|s| {
            for tid in 0..4 {
                let ctx = session.register_thread(tid);
                s.spawn(move || {
                    for _ in 0..10 {
                        ctx.gate(SITE, AccessKind::Load, || ());
                    }
                });
            }
        });
        let report = session.finish().unwrap();
        let hist = report.epoch_histogram().unwrap();
        assert!(
            hist.max_size() > 1,
            "pure load traffic must produce shared epochs, got {hist}"
        );
        // Everything is a load: a single run -> a single epoch of size 40.
        assert_eq!(hist.total_accesses(), 40);
        assert_eq!(hist.counts.get(&40), Some(&1), "{hist}");
    }

    #[test]
    fn st_uses_single_stream_dc_uses_per_thread_files() {
        let (_, _, st_bundle) = record_racy(Scheme::St, 2, 5);
        assert!(st_bundle.is_st());
        assert!(st_bundle.threads.iter().all(|t| t.is_empty()));

        let (_, _, dc_bundle) = record_racy(Scheme::Dc, 2, 5);
        assert!(!dc_bundle.is_st());
        assert!(dc_bundle.threads.iter().all(|t| !t.is_empty()));
    }

    #[test]
    fn domains_replay_independently() {
        // Two threads in two different domains: thread 1 must be able to
        // finish its entire replay before thread 0 even starts — the
        // cross-domain concurrency the sharding exists for. With D = 1 the
        // same trace interleaving would force thread 1 to wait.
        let cfg = SessionConfig {
            plan: Some(DomainPlan::with_assignments(
                2,
                [(SiteId(2), 0), (SiteId(3), 1)],
            )),
            ..Default::default()
        };
        let session = Session::record_with(Scheme::Dc, 2, cfg);
        {
            let c0 = session.register_thread(0);
            let c1 = session.register_thread(1);
            // Interleave strictly so with one domain thread 1's later
            // accesses would depend on thread 0's.
            for _ in 0..10 {
                c0.gate(SiteId(2), AccessKind::Store, || ()); // domain 0
                c1.gate(SiteId(3), AccessKind::Store, || ()); // domain 1
            }
        }
        let bundle = session.finish().unwrap().bundle.unwrap();

        // Replay thread 1 to completion on this thread *before* thread 0
        // performs any access. A shared turnstile would deadlock (watchdog)
        // here; per-domain turnstiles admit thread 1 immediately.
        let replay = Session::replay_with(
            bundle,
            SessionConfig {
                spin: SpinConfig {
                    spin_hints: 8,
                    timeout: Some(Duration::from_secs(5)),
                },
                ..Default::default()
            },
        )
        .unwrap();
        {
            let c1 = replay.register_thread(1);
            for _ in 0..10 {
                c1.try_gate(SiteId(3), AccessKind::Store, || ())
                    .expect("domain 1 must not wait on domain 0");
            }
            let c0 = replay.register_thread(0);
            for _ in 0..10 {
                c0.try_gate(SiteId(2), AccessKind::Store, || ()).unwrap();
            }
        }
        let report = replay.finish().unwrap();
        assert_eq!(report.failure, None);
        assert_eq!(report.fully_consumed, Some(true));
    }

    /// Two-domain plan pinning site A in domain 0 and site B in domain 1.
    fn two_domain_plan() -> (DomainPlan, SiteId, SiteId) {
        let a = SiteId(0xaaaa);
        let b = SiteId(0xbbbb);
        let plan = DomainPlan::with_assignments(2, [(a, 0), (b, 1)]);
        (plan, a, b)
    }

    #[test]
    fn critical_gates_emit_and_enforce_cross_domain_edges() {
        for scheme in Scheme::ALL {
            let (plan, a, b) = two_domain_plan();
            let cfg = SessionConfig {
                plan: Some(plan),
                ..Default::default()
            };
            // Record deterministically from one driver thread: thread 0
            // takes three criticals in domain 0, then thread 1 takes one
            // critical in domain 1. The domain-1 gate must stamp an edge
            // "domain 0 reached 3".
            let session = Session::record_with(scheme, 2, cfg.clone());
            {
                let c0 = session.register_thread(0);
                let c1 = session.register_thread(1);
                for _ in 0..3 {
                    c0.gate(a, AccessKind::Critical, || ());
                }
                c1.gate(b, AccessKind::Critical, || ());
            }
            let report = session.finish().unwrap();
            assert!(report.stats.sync_edges >= 1, "{scheme:?}");
            let mut bundle = report.bundle.unwrap();
            bundle.validate().unwrap();
            assert!(bundle.plan.is_some(), "{scheme:?}: plan stamped");
            let edge = bundle
                .edges
                .iter()
                .find(|e| e.domain == 1)
                .unwrap_or_else(|| panic!("{scheme:?}: domain-1 edge missing: {:?}", bundle.edges))
                .clone();
            assert_eq!(edge.seq, 0, "{scheme:?}");
            assert_eq!(edge.waits, vec![(0, 3)], "{scheme:?}");
            // A weaker edge on the same anchor, listed first, merges into
            // the recorded one by max: the anchor still waits once, for 3.
            let weaker = CrossDomainEdge {
                waits: vec![(0, 2)],
                ..edge
            };
            bundle.edges.insert(0, weaker);

            // Replay with real threads: thread 1 starts first, but its
            // critical must not complete until thread 0 finished all
            // three domain-0 criticals — the edge restores the
            // cross-domain order the blind sharding would lose.
            let replay = Session::replay_with(
                bundle,
                SessionConfig {
                    spin: SpinConfig {
                        spin_hints: 16,
                        timeout: Some(Duration::from_secs(30)),
                    },
                    ..cfg
                },
            )
            .unwrap();
            let order = parking_lot::Mutex::new(Vec::new());
            std::thread::scope(|s| {
                let c1 = replay.register_thread(1);
                let c0 = replay.register_thread(0);
                let order = &order;
                s.spawn(move || {
                    c1.gate(b, AccessKind::Critical, || order.lock().push(1u32));
                });
                s.spawn(move || {
                    // Give thread 1 a head start so an unenforced replay
                    // would demonstrably run it first.
                    std::thread::sleep(Duration::from_millis(30));
                    for _ in 0..3 {
                        c0.gate(a, AccessKind::Critical, || order.lock().push(0u32));
                    }
                });
            });
            let report = replay.finish().unwrap();
            assert_eq!(report.failure, None, "{scheme:?}");
            assert_eq!(report.fully_consumed, Some(true), "{scheme:?}");
            assert_eq!(report.stats.edge_waits, 1, "{scheme:?}");
            assert_eq!(
                *order.lock(),
                vec![0, 0, 0, 1],
                "{scheme:?}: edge must order domain 1 after domain 0"
            );
        }
    }

    #[test]
    fn sync_point_stamps_edge_on_next_access() {
        let (plan, a, b) = two_domain_plan();
        let cfg = SessionConfig {
            plan: Some(plan),
            ..Default::default()
        };
        let session = Session::record_with(Scheme::Dc, 2, cfg);
        {
            let c0 = session.register_thread(0);
            let c1 = session.register_thread(1);
            c0.gate(a, AccessKind::Store, || ());
            c0.gate(a, AccessKind::Store, || ());
            // Thread 1 passes a barrier, then stores in domain 1: the
            // store anchors an edge carrying the barrier-time snapshot.
            assert!(!session.has_pending_sync(1));
            c1.sync_point();
            assert!(session.has_pending_sync(1), "sync_point raises the flag");
            assert!(!session.has_pending_sync(0), "only on its own thread");
            c1.gate(b, AccessKind::Store, || ());
            // The anchor took the snapshot and cleared the flag: the next
            // store stamps nothing.
            assert!(!session.has_pending_sync(1), "flag cleared after take");
            c1.gate(b, AccessKind::Store, || ());
        }
        let report = session.finish().unwrap();
        assert_eq!(report.stats.lock_acquires, 0, "the anchor rides the ticket");
        let bundle = report.bundle.unwrap();
        assert_eq!(bundle.edges.len(), 1, "{:?}", bundle.edges);
        let e = &bundle.edges[0];
        assert_eq!((e.domain, e.thread, e.seq), (1, 1, 0));
        assert_eq!(e.waits, vec![(0, 2)]);
    }

    #[test]
    fn plain_stores_in_single_domain_record_no_edges() {
        // D = 1 must never pay for edges — the golden-bytes compatibility
        // depends on it.
        let session = Session::record(Scheme::Dc, 2);
        {
            let c0 = session.register_thread(0);
            c0.gate(SITE, AccessKind::Critical, || ());
            c0.sync_point(); // no-op at D = 1
            c0.gate(SITE, AccessKind::Store, || ());
            let c1 = session.register_thread(1);
            c1.gate(SITE, AccessKind::Critical, || ());
        }
        let report = session.finish().unwrap();
        assert_eq!(report.stats.sync_edges, 0);
        let bundle = report.bundle.unwrap();
        assert!(bundle.edges.is_empty());
        assert!(bundle.plan.is_none());
    }

    #[test]
    fn replay_detects_site_divergence() {
        for scheme in Scheme::ALL {
            let (_, _, bundle) = record_racy(scheme, 2, 5);
            let replay = Session::replay(bundle).unwrap();
            let wrong = SiteId(0xbad);
            let err = std::thread::scope(|s| {
                let h0 = {
                    let ctx = replay.register_thread(0);
                    s.spawn(move || {
                        let mut first_err = None;
                        for _ in 0..5 {
                            let r = ctx.try_gate(wrong, AccessKind::Load, || ());
                            if let Err(e) = r {
                                first_err = Some(e);
                                break;
                            }
                            let _ = ctx.try_gate(SITE, AccessKind::Store, || ());
                        }
                        first_err
                    })
                };
                let h1 = {
                    let ctx = replay.register_thread(1);
                    s.spawn(move || {
                        let mut first_err = None;
                        for _ in 0..5 {
                            if let Err(e) = ctx.try_gate(SITE, AccessKind::Load, || ()) {
                                first_err = Some(e);
                                break;
                            }
                            if let Err(e) = ctx.try_gate(SITE, AccessKind::Store, || ()) {
                                first_err = Some(e);
                                break;
                            }
                        }
                        first_err
                    })
                };
                let e0 = h0.join().unwrap();
                let e1 = h1.join().unwrap();
                e0.or(e1)
            });
            let err = err.expect("some thread must observe a failure");
            match err {
                ReplayError::Divergence(d) => {
                    assert_eq!(d.actual_site, wrong, "{scheme:?}");
                }
                ReplayError::Aborted => { /* the other thread diverged first */ }
                other => panic!("{scheme:?}: unexpected error {other}"),
            }
            assert!(replay.failure().is_some(), "{scheme:?}");
            let _ = replay.finish().unwrap();
        }
    }

    #[test]
    fn divergence_report_carries_admitted_history() {
        // Deterministic single-thread DC run: 5 good accesses, then the
        // replay takes a wrong turn. The report must show the accesses the
        // domain admitted before the divergence, newest first.
        let session = Session::record(Scheme::Dc, 1);
        {
            let ctx = session.register_thread(0);
            for _ in 0..5 {
                ctx.gate(SITE, AccessKind::Load, || ());
            }
            ctx.gate(SITE, AccessKind::Store, || ());
        }
        let bundle = session.finish().unwrap().bundle.unwrap();

        let replay = Session::replay(bundle).unwrap();
        let err = {
            let ctx = replay.register_thread(0);
            for _ in 0..5 {
                ctx.try_gate(SITE, AccessKind::Load, || ()).unwrap();
            }
            // Recorded a store at SITE; the program does a load elsewhere.
            ctx.try_gate(SiteId(0xbad), AccessKind::Load, || ())
                .unwrap_err()
        };
        match err {
            ReplayError::Divergence(d) => {
                assert_eq!(d.domain, 0);
                assert_eq!(d.history.len(), 5, "all admitted accesses retained");
                // Newest first; every entry is one of the good loads.
                assert!(d
                    .history
                    .iter()
                    .all(|r| r.site == SITE && r.kind == AccessKind::Load && r.thread == 0));
                assert!(d.history[0].clock > d.history[4].clock);
                let msg = d.to_string();
                assert!(msg.contains("last 5 accesses"), "{msg}");
            }
            other => panic!("expected divergence, got {other}"),
        }
        let _ = replay.finish().unwrap();
    }

    #[test]
    fn divergence_history_merges_both_threads_lanes() {
        // Two threads alternate on one site — thread 0 loads, thread 1
        // stores, so no two neighbours share a DE epoch. Replay admits the
        // first 10 accesses and then takes a wrong turn: with a 4-entry
        // ring per lane, the report must still name the domain's last 4
        // admissions, from both threads, newest first.
        for scheme in Scheme::ALL {
            let kinds = [AccessKind::Load, AccessKind::Store];
            let access = |i: usize| (i % 2, kinds[i % 2]);
            let session = Session::record(scheme, 2);
            {
                let ctxs = [session.register_thread(0), session.register_thread(1)];
                for i in 0..11 {
                    let (tid, kind) = access(i);
                    ctxs[tid].gate(SITE, kind, || ());
                }
            }
            let bundle = session.finish().unwrap().bundle.unwrap();
            let cfg = SessionConfig {
                ring_capacity: 4,
                ..Default::default()
            };
            let replay = Session::replay_with(bundle, cfg).unwrap();
            let err = {
                let ctxs = [replay.register_thread(0), replay.register_thread(1)];
                for i in 0..10 {
                    let (tid, kind) = access(i);
                    ctxs[tid].try_gate(SITE, kind, || ()).unwrap();
                }
                ctxs[0]
                    .try_gate(SiteId(0xbad), AccessKind::Load, || ())
                    .unwrap_err()
            };
            let ReplayError::Divergence(d) = err else {
                panic!("{scheme:?}: expected divergence, got {err}");
            };
            let who: Vec<(u32, AccessKind)> =
                d.history.iter().map(|r| (r.thread, r.kind)).collect();
            let expect: Vec<(u32, AccessKind)> = (6..10)
                .rev()
                .map(|i| {
                    let (tid, kind) = access(i);
                    (tid as u32, kind)
                })
                .collect();
            assert_eq!(who, expect, "{scheme:?}");
            let positions: Vec<u64> = d.history.iter().map(|r| r.clock).collect();
            if scheme == Scheme::De {
                assert!(positions.windows(2).all(|w| w[0] >= w[1]), "{positions:?}");
            } else {
                // ST's stream index and DC's clock are the admission order.
                assert_eq!(positions, vec![9, 8, 7, 6], "{scheme:?}");
            }
            let _ = replay.finish().unwrap();
        }
    }

    #[test]
    fn zero_ring_capacity_disables_divergence_history() {
        let session = Session::record(Scheme::Dc, 1);
        {
            let ctx = session.register_thread(0);
            ctx.gate(SITE, AccessKind::Load, || ());
            ctx.gate(SITE, AccessKind::Store, || ());
        }
        let bundle = session.finish().unwrap().bundle.unwrap();
        let cfg = SessionConfig {
            ring_capacity: 0,
            ..Default::default()
        };
        let replay = Session::replay_with(bundle, cfg).unwrap();
        let err = {
            let ctx = replay.register_thread(0);
            ctx.try_gate(SITE, AccessKind::Load, || ()).unwrap();
            ctx.try_gate(SiteId(0xbad), AccessKind::Load, || ())
                .unwrap_err()
        };
        match err {
            ReplayError::Divergence(d) => assert!(d.history.is_empty()),
            other => panic!("expected divergence, got {other}"),
        }
        let _ = replay.finish().unwrap();
    }

    #[test]
    fn replay_detects_trace_exhaustion() {
        for scheme in Scheme::ALL {
            let (_, _, bundle) = record_racy(scheme, 2, 3);
            let replay = Session::replay(bundle).unwrap();
            // Thread 0 performs one extra gated access beyond its recording.
            let errs = std::thread::scope(|s| {
                let mut handles = Vec::new();
                for tid in 0..2u32 {
                    let ctx = replay.register_thread(tid);
                    handles.push(s.spawn(move || {
                        let extra = if ctx.tid() == 0 { 1 } else { 0 };
                        let mut first_err = None;
                        for _ in 0..(3 + extra) {
                            for kind in [AccessKind::Load, AccessKind::Store] {
                                if let Err(e) = ctx.try_gate(SITE, kind, || ()) {
                                    first_err.get_or_insert(e);
                                }
                            }
                        }
                        first_err
                    }));
                }
                handles
                    .into_iter()
                    .filter_map(|h| h.join().unwrap())
                    .collect::<Vec<_>>()
            });
            assert!(
                errs.iter().any(|e| matches!(
                    e,
                    ReplayError::TraceExhausted { .. } | ReplayError::Aborted
                )),
                "{scheme:?}: got {errs:?}"
            );
            let _ = replay.finish().unwrap();
        }
    }

    #[test]
    fn replay_watchdog_times_out_when_predecessor_never_arrives() {
        // A DC trace where thread 0's second access (clock 2) follows an
        // access of thread 1 (clock 1). Replay with thread 1 never gating:
        // thread 0 must time out (not hang) waiting for clock 1.
        let mk_thread = |values: Vec<u64>, kinds: Vec<u8>| crate::trace::ThreadTrace {
            sites: Some(vec![SITE.raw(); values.len()]),
            kinds: Some(kinds),
            values,
        };
        let bundle = TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::Dc,
            nthreads: 2,
            domains: 1,
            threads: vec![
                mk_thread(
                    vec![0, 2],
                    vec![AccessKind::Load.code(), AccessKind::Store.code()],
                ),
                mk_thread(
                    vec![1, 3],
                    vec![AccessKind::Load.code(), AccessKind::Store.code()],
                ),
            ],
            st: vec![],
        };
        let cfg = SessionConfig {
            spin: SpinConfig {
                spin_hints: 8,
                timeout: Some(Duration::from_millis(100)),
            },
            ..Default::default()
        };
        let replay = Session::replay_with(bundle, cfg).unwrap();
        let err = std::thread::scope(|s| {
            let ctx0 = replay.register_thread(0);
            let ctx1 = replay.register_thread(1);
            let h = s.spawn(move || {
                let mut first_err = None;
                for kind in [AccessKind::Load, AccessKind::Store] {
                    if let Err(e) = ctx0.try_gate(SITE, kind, || ()) {
                        first_err.get_or_insert(e);
                    }
                }
                first_err
            });
            drop(ctx1); // thread 1 exits without gating
            h.join().unwrap()
        });
        match err {
            Some(ReplayError::Timeout { .. }) => {}
            other => panic!("expected watchdog timeout, got {other:?}"),
        }
        let report = replay.finish().unwrap();
        assert_eq!(report.fully_consumed, Some(false));
        assert!(report.failure.unwrap().contains("watchdog"));
    }

    /// Run `f` on a thread of its own and fail — instead of hanging the
    /// test binary — if it has not returned within ten seconds.
    fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(f());
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(out) => {
                worker.join().unwrap();
                out
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => panic!("{what}: HUNG"),
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => panic!("{what}: panicked"),
        }
    }

    /// Thread 0 enters `SITE`'s gate and panics inside the region; thread
    /// 1 then passes the same gate.
    fn panic_then_gate(session: &Arc<Session>) {
        let ctx0 = session.register_thread(0);
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            ctx0.gate(SITE, AccessKind::Store, || {
                panic!("deliberate panic in a gated region")
            })
        }));
        assert!(unwound.is_err());
        let ctx1 = session.register_thread(1);
        ctx1.gate(SITE, AccessKind::Store, || ());
    }

    #[test]
    fn a_panicking_recorded_region_releases_its_domain() {
        for scheme in Scheme::ALL {
            let session = Session::record(scheme, 2);
            let s = Arc::clone(&session);
            within_deadline(&format!("{scheme:?} record"), move || panic_then_gate(&s));
            // The unwound region ran under the exclusion, so it is recorded.
            let report = session.finish().unwrap();
            assert_eq!(report.stats.records_written, 2, "{scheme:?}");
            report.bundle.unwrap().validate().unwrap();
        }
    }

    #[test]
    fn a_panicking_replayed_region_admits_its_successor() {
        for scheme in Scheme::ALL {
            let session = Session::record(scheme, 2);
            {
                let c0 = session.register_thread(0);
                let c1 = session.register_thread(1);
                c0.gate(SITE, AccessKind::Store, || ());
                c1.gate(SITE, AccessKind::Store, || ());
            }
            let bundle = session.finish().unwrap().bundle.unwrap();
            // The default 30 s watchdog outlasts the deadline: only a
            // released gate lets thread 1 in in time.
            let replay = Session::replay(bundle).unwrap();
            let r = Arc::clone(&replay);
            within_deadline(&format!("{scheme:?} replay"), move || panic_then_gate(&r));
            let report = replay.finish().unwrap();
            assert_eq!(report.failure, None, "{scheme:?}");
            assert_eq!(report.fully_consumed, Some(true), "{scheme:?}");
        }
    }

    #[test]
    fn timed_out_gate_retries_without_consuming_records() {
        // Regression: the replay cursor used to advance with `fetch_add`
        // *before* the turnstile wait could fail, so a timed-out try_gate
        // permanently consumed the record and a retry silently skipped it.
        // Same trace shape as the watchdog test — thread 0 owns clocks
        // {0, 2}, thread 1 owns {1, 3} — but driven to completion from one
        // test thread: the timed-out access is retried after the
        // predecessor arrives and must replay the *same* record.
        let mk_thread = |values: Vec<u64>| crate::trace::ThreadTrace {
            sites: Some(vec![SITE.raw(); values.len()]),
            kinds: Some(vec![AccessKind::Load.code(), AccessKind::Store.code()]),
            values,
        };
        let bundle = TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::Dc,
            nthreads: 2,
            domains: 1,
            threads: vec![mk_thread(vec![0, 2]), mk_thread(vec![1, 3])],
            st: vec![],
        };
        let cfg = SessionConfig {
            spin: SpinConfig {
                spin_hints: 8,
                timeout: Some(Duration::from_millis(50)),
            },
            ..Default::default()
        };
        let replay = Session::replay_with(bundle, cfg).unwrap();
        let ctx0 = replay.register_thread(0);
        let ctx1 = replay.register_thread(1);
        // Clock 0: thread 0's load is first in the recorded order.
        ctx0.try_gate(SITE, AccessKind::Load, || ()).unwrap();
        // Thread 0's store needs clock 2, but clock 1 (thread 1's load)
        // has not replayed yet — the watchdog must fire...
        match ctx0.try_gate(SITE, AccessKind::Store, || ()) {
            Err(ReplayError::Timeout { .. }) => {}
            other => panic!("expected watchdog timeout, got {other:?}"),
        }
        // ...without consuming the record or aborting the other waiters.
        ctx1.try_gate(SITE, AccessKind::Load, || ()).unwrap();
        // Retry replays the same record (clock 2) exactly once.
        ctx0.try_gate(SITE, AccessKind::Store, || ()).unwrap();
        ctx1.try_gate(SITE, AccessKind::Store, || ()).unwrap();
        drop(ctx0);
        drop(ctx1);
        let report = replay.finish().unwrap();
        // Every record consumed exactly once despite the failed attempt.
        assert_eq!(report.fully_consumed, Some(true));
        // The transient timeout is still surfaced as the first failure.
        assert!(report.failure.unwrap().contains("watchdog"));
    }

    #[test]
    fn critical_kind_serializes_under_de() {
        // Critical sections must not share epochs even under DE.
        let session = Session::record(Scheme::De, 3);
        std::thread::scope(|s| {
            for tid in 0..3 {
                let ctx = session.register_thread(tid);
                s.spawn(move || {
                    for _ in 0..5 {
                        ctx.gate(SITE, AccessKind::Critical, || ());
                    }
                });
            }
        });
        let report = session.finish().unwrap();
        let hist = report.epoch_histogram().unwrap();
        assert_eq!(hist.max_size(), 1, "criticals serialize: {hist}");
        assert_eq!(hist.total_accesses(), 15);
    }

    #[test]
    fn de_record_stats_count_deferred_stores() {
        let session = Session::record(Scheme::De, 2);
        std::thread::scope(|s| {
            for tid in 0..2 {
                let ctx = session.register_thread(tid);
                s.spawn(move || {
                    for _ in 0..20 {
                        ctx.gate(SITE, AccessKind::Store, || ());
                    }
                });
            }
        });
        let report = session.finish().unwrap();
        assert!(
            report.stats.deferred_finalizations > 0,
            "store runs must produce deferred finalizations"
        );
    }

    #[test]
    fn st_replay_comms_exceed_dc_replay_comms() {
        // §IV-C2: ST replay needs up to 2 inter-thread comms per region
        // (next_tid hand-off + lock release), DC/DE exactly 1. A recorded
        // run on few cores can have long same-thread runs where reader ==
        // replayed thread (the paper's 1-comm special case), so replay a
        // *synthetic round-robin* ST trace where the reader is almost never
        // the replayed thread.
        let nthreads = 4u32;
        let iters = 30usize;

        // DC: comms per gate is exactly 1 by construction.
        let (sum, _, dc_bundle) = record_racy(Scheme::Dc, nthreads, iters);
        let replay = Session::replay(dc_bundle).unwrap();
        let (rsum, _) = racy_workload(&replay, nthreads, iters);
        assert_eq!(rsum, sum);
        let report = replay.finish().unwrap();
        assert_eq!(report.failure, None);
        let dc = report.stats.comms_per_gate();
        assert!(
            (dc - 1.0).abs() < 1e-9,
            "DC replay is 1 comm/gate, got {dc}"
        );

        // ST: round-robin recorded order L0 L1 L2 L3 S0 S1 S2 S3 ...
        let mut tids = Vec::new();
        let mut kinds = Vec::new();
        for _ in 0..iters {
            for kind in [AccessKind::Load, AccessKind::Store] {
                for t in 0..nthreads {
                    tids.push(t);
                    kinds.push(kind.code());
                }
            }
        }
        let n = tids.len();
        let st_bundle = TraceBundle {
            plan: None,
            edges: vec![],
            checkpoint: None,
            scheme: Scheme::St,
            nthreads,
            domains: 1,
            threads: vec![Default::default(); nthreads as usize],
            st: vec![crate::trace::StTrace {
                tids,
                sites: Some(vec![SITE.raw(); n]),
                kinds: Some(kinds),
            }],
        };
        let replay = Session::replay(st_bundle).unwrap();
        let (_, order) = racy_workload(&replay, nthreads, iters);
        let report = replay.finish().unwrap();
        assert_eq!(report.failure, None);
        assert_eq!(report.fully_consumed, Some(true));
        // The enforced store order is the round-robin one.
        let expect: Vec<u64> = (0..iters).flat_map(|_| 0..u64::from(nthreads)).collect();
        assert_eq!(order, expect);
        let st = report.stats.comms_per_gate();
        assert!(
            st > dc,
            "ST replay ({st}) must communicate more than DC ({dc})"
        );
        assert!(st <= 2.0 + 1e-9, "at most 2 comms/gate, got {st}");
    }
}
