//! The `gate_in`/`gate_out` engines for every scheme × mode pair.
//!
//! Each function body is annotated with the pseudo-code lines of the
//! paper's Figure 4 (ST) and Figure 5 (DC/DE) it implements.
//!
//! Every engine operates on one **gate domain** (see
//! [`SessionConfig::domains`](crate::session::SessionConfig::domains)):
//! the caller resolves the site to its domain once, and all state below —
//! lock `L`, `global_clock`, the epoch tracker, the replay turnstile and
//! baton — is that domain's instance. With the default single domain this
//! is exactly the paper's global gate.
//!
//! Record-mode summary (all schemes serialize the region — the paper does
//! it under the domain's lock `L`; DC/DE plain loads and stores instead
//! enter through the lock-free [`TicketGate`](crate::clock::TicketGate)
//! unless [`SessionConfig::ticket_gate`](crate::session::SessionConfig)
//! turns the fast path off):
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
//! The two admission protocols compose seqlock-style: slow-path accesses
//! (ST, critical sections, cross-domain edge anchors) and
//! out-of-band pausers take the raw lock **and** a ghost ticket, so they
//! exclude lock-free entrants too; a `RecordToken` carries which protocol
//! a gate entered through from `record_in` to its `record_out`.
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
use crate::history::AccessRecord;
use crate::session::{RecEntry, Session, TID_EXHAUSTED, TID_NONE};
use crate::shim::atomic::Ordering;
use crate::site::{AccessKind, SiteId};
use crate::sync::SpinWait;
use crate::Scheme;

/// How a record gate was admitted; returned by [`record_in`], consumed by
/// the matching [`record_out`] to release the same way.
#[derive(Debug, Clone, Copy)]
pub(crate) enum RecordToken {
    /// Classic mutex bracket — the session has no ticket gate (ST, or
    /// `ticket_gate: false`).
    Locked,
    /// Slow path of a ticket-gate session: the raw lock **plus** a ghost
    /// ticket, so lock-free entrants are excluded too.
    LockedTicket(u32),
    /// Lock-free fast path: the served ticket is the whole exclusion.
    Ticket(u32),
}

/// Record-mode `gate_in` (`set_lock(L)`, Fig. 4 line 1 / Fig. 5 line 20).
///
/// Plain DC/DE loads and stores of a ticket-gate session enter through the
/// domain's [`TicketGate`](crate::clock::TicketGate) — one `fetch_add`
/// when the gate is idle — instead of the mutex. Accesses that need the
/// heavier shared bookkeeping route to the locked path: every ST access
/// (the shared log — ST sessions never construct a ticket gate at all),
/// and critical-section gates and pending-sync edge anchors (cross-domain
/// edge stamping). The routing predicate is stable between `record_in` and
/// `record_out` because only the gating thread itself mutates its
/// pending-sync slot.
pub(crate) fn record_in(session: &Session, dom: u32, tid: u32, kind: AccessKind) -> RecordToken {
    let rec = session.rec.as_ref().expect("record mode");
    let drec = &rec.domains[dom as usize];
    let Some(ticket) = &drec.ticket else {
        drec.gate.lock();
        session.thread_stats(tid).bump_lock();
        return RecordToken::Locked;
    };
    let multi = session.domains() > 1;
    if multi && (kind == AccessKind::Critical || session.has_pending_sync(tid)) {
        // Edge-stamping access: lock first, then queue the ghost ticket
        // (the one lock→ticket order every two-protocol entrant uses, so
        // the two admission paths cannot deadlock against each other).
        drec.gate.lock();
        session.thread_stats(tid).bump_lock();
        return RecordToken::LockedTicket(ticket.enter());
    }
    RecordToken::Ticket(ticket.enter())
}

/// Record-mode `gate_out`. `addr` is the memory location used for DE run
/// grouping (Condition 1 is per-address). `token` must be the value the
/// matching [`record_in`] returned.
pub(crate) fn record_out(
    session: &Session,
    dom: u32,
    tid: u32,
    site: SiteId,
    addr: u64,
    kind: AccessKind,
    token: RecordToken,
) {
    let rec = session.rec.as_ref().expect("record mode");
    let drec = &rec.domains[dom as usize];
    let lane = &drec.lanes[tid as usize];
    let stats = session.thread_stats(tid);
    let streaming = rec.stream.is_some();
    let multi = session.domains() > 1;
    // Release the admission `record_in` granted, in reverse acquisition
    // order. After this call the gate core must not be touched.
    let release = || match token {
        // SAFETY: `record_in` locked on this thread for this token.
        RecordToken::Locked => unsafe { drec.gate.unlock() },
        RecordToken::LockedTicket(t) => {
            drec.ticket
                .as_ref()
                .expect("token implies ticket gate")
                .exit(t);
            // SAFETY: `record_in` locked on this thread for this token.
            unsafe { drec.gate.unlock() }
        }
        RecordToken::Ticket(t) => drec
            .ticket
            .as_ref()
            .expect("token implies ticket gate")
            .exit(t),
    };
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
    // appended after the gate lock is released.
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
        // thread (it is that thread's record count); cross-thread readers
        // observe it through the `published` Release store below, so the
        // RMW itself needs no ordering.
        let seq = lane.seq.fetch_add(1, Ordering::Relaxed);
        // DE publish batching (`SessionConfig::publish_batch`): plain
        // accesses release the completion count once per full batch,
        // mirroring how the epoch tracker batches runs. Edge-anchored and
        // critical accesses (`wants_edge`) always publish, so sync-point
        // traffic is counted exactly; skipped publishes only let foreign
        // snapshots run behind, which weakens — never breaks — the
        // recorded edges (still a lower bound, still snapshot-before-
        // publish, hence still acyclic).
        let publish = session.scheme() != Scheme::De
            || wants_edge
            || (clock + 1).is_multiple_of(u64::from(session.cfg.publish_batch));
        if publish {
            drec.published.store(clock + 1, Ordering::Release);
        }
        counts.map(|c| (seq, c))
    };
    match session.scheme() {
        Scheme::St => {
            // Fig. 4 lines 6-8: record the thread ID to the domain's shared
            // log *before* releasing the lock, so the logged order is the
            // execution order.
            // SAFETY: ST sessions have no ticket gate, so the token is
            // always `Locked`; the lock was acquired in `record_in` on
            // this thread.
            let core = unsafe { drec.gate.get() };
            let builder = core.st.as_mut().expect("st builder");
            builder.push(tid, site, kind);
            stats.bump_record_written();
            if multi {
                // Snapshot (for the edge) strictly before self-publish.
                let counts = wants_edge.then(|| edge_counts(session)).flatten();
                let count = drec.published.fetch_add(1, Ordering::AcqRel) + 1;
                if let Some(counts) = counts {
                    // ST anchors at the access's shared-stream index.
                    edge = Some((count - 1, counts));
                }
            }
            // Streaming: steal a full shared log under the lock (the order
            // is already captured); encode and write it after unlock.
            // `flush_records` is clamped to >= 1 once in `Session::build`.
            let stolen = if streaming && builder.tids.len() >= session.cfg.flush_records {
                Some((
                    std::mem::take(&mut builder.tids),
                    std::mem::take(&mut builder.sites),
                    std::mem::take(&mut builder.kinds),
                ))
            } else {
                None
            };
            // Acquire the chunk-order lock *before* releasing the gate
            // lock: steal order is execution order, and holding st_order
            // across the append keeps two stolen batches from reaching the
            // domain's stream file out of order.
            let order_guard = stolen.is_some().then(|| {
                rec.stream.as_ref().expect("streaming state").st_order[dom as usize].lock()
            });
            release();
            if let Some((tids, sites, kinds)) = stolen {
                session.flush_st_records(dom, &tids, &sites, &kinds, tid);
            }
            drop(order_guard);
        }
        Scheme::Dc | Scheme::De => {
            // Fig. 5 lines 22-24: assign the clock and — for DE — let the
            // epoch tracker turn it into this access's value (X = X_C; DC
            // is X = 0).
            let (clock, value) = {
                // SAFETY: `token` grants exclusive core access — the gate
                // lock and/or the currently-served ticket (see RecordToken).
                let core = unsafe { drec.gate.get() };
                let clock = core.clock;
                core.clock += 1;
                if multi {
                    edge = stamp_clocked(clock);
                }
                let value = match &mut core.tracker {
                    None => clock,
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
                        // Streaming: raise the flush floor only AFTER the
                        // fix-up is posted, still inside the exclusion, so
                        // an owner that reads floor F finds the fix-up of
                        // every entry below F in its mailbox.
                        if let Some(stream) = &rec.stream {
                            let floor = tracker.min_pending_clock().unwrap_or(clock + 1);
                            stream.floors[dom as usize].store(floor, Ordering::Release);
                        }
                        observed.value
                    }
                };
                (clock, value)
            };
            release();
            // Line 24 happens *after* unlock: the write to the thread's own
            // record file overlaps other threads' region execution
            // (§IV-C3). Only this thread appends to its lane, so the lane
            // is in clock order by construction.
            lane.buf.lock().push(RecEntry {
                clock,
                value,
                site: site.raw(),
                kind: kind.code(),
            });
            stats.bump_record_written();
            if streaming {
                session.maybe_flush_thread(dom, tid);
            }
        }
    }
    if let Some((seq, counts)) = edge {
        session.push_edge(dom, tid, seq, &counts);
    }
}

/// Replay-mode `gate_in`. Blocks until the recorded order of domain `dom`
/// admits this access; validates site/kind when the trace carries them.
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
pub(crate) fn replay_out(session: &Session, dom: u32, tid: u32) {
    let rep = session.rep.as_ref().expect("replay mode");
    let drep = &rep.domains[dom as usize];
    match session.scheme() {
        Scheme::St => {
            // Fig. 4 line 17 (`unset_lock(L)`): invalidate `next_tid` so a
            // stale match cannot re-admit this thread, then release the
            // baton — one inter-thread communication (ST-3/ST-4 in Fig. 6).
            drep.next_tid.store(TID_NONE, Ordering::Release);
            session.thread_stats(tid).bump_comms(1);
            if session.domains() > 1 {
                // Mirror the completion count so other domains'
                // cross-domain edges can wait on this domain (not a paper
                // communication — the baton hand-off above is ST's).
                drep.turnstile.complete();
            }
            drep.baton.release();
        }
        Scheme::Dc | Scheme::De => {
            // Fig. 5 line 34: `next_clock++` — the single inter-thread
            // communication of DC/DE replay (DC-1 in Fig. 7).
            drep.turnstile.advance(session.thread_stats(tid));
        }
    }
}

fn replay_in_st(
    session: &Session,
    dom: u32,
    tid: u32,
    site: SiteId,
    kind: AccessKind,
) -> Result<(), ReplayError> {
    let rep = session.rep.as_ref().expect("replay mode");
    let drep = &rep.domains[dom as usize];
    let st = rep.bundle.st_stream(dom).expect("st trace");
    let stats = session.thread_stats(tid);
    let mut spin = SpinWait::new(&session.cfg.spin);

    // Fig. 4 lines 10-15.
    loop {
        if drep.turnstile.is_aborted() {
            return Err(ReplayError::Aborted);
        }
        let next = drep.next_tid.load(Ordering::Acquire);
        if next == TID_EXHAUSTED {
            return Err(ReplayError::TraceExhausted {
                thread: tid,
                available: st.len() as u64,
            });
        }
        if next == tid {
            // ORDERING: the reader stored `st_pos` (and site/kind below)
            // before publishing `next_tid` with Release; the Acquire load
            // of `next_tid` above already ordered those writes before us,
            // so these follow-up loads can be Relaxed.
            let seq = drep.st_pos.load(Ordering::Relaxed).saturating_sub(1) as u64;
            // Enforce any cross-domain edge anchored at this stream
            // position before entering the region.
            session.wait_edges(dom, tid, seq, site)?;
            // Line 11 exit: it is this thread's turn. Validate against the
            // published record before entering the region.
            if session.cfg.validate_sites && st.sites.is_some() {
                stats.bump_validate();
                // ORDERING: covered by the `next_tid` Acquire above
                // (see the `st_pos` justification).
                let recorded_site = SiteId(drep.next_site.load(Ordering::Relaxed));
                let recorded_kind =
                    AccessKind::from_code(drep.next_kind.load(Ordering::Relaxed) as u8);
                if recorded_site != site || recorded_kind != Some(kind) {
                    return Err(Divergence {
                        thread: tid,
                        domain: dom,
                        seq,
                        recorded_site: Some(recorded_site),
                        actual_site: site,
                        recorded_kind,
                        actual_kind: kind,
                        history: session.replay_history(dom),
                    }
                    .into());
                }
            }
            session.push_replay_history(
                dom,
                AccessRecord {
                    clock: seq,
                    site,
                    kind,
                    thread: tid,
                },
            );
            return Ok(());
        }
        // Lines 12-13: any thread may become the reader by winning the
        // baton; it stays locked until the *replayed* thread's gate_out.
        if drep.baton.try_acquire() {
            stats.bump_lock();
            // ORDERING: `st_pos` is only written while holding the baton;
            // winning `try_acquire` (Acquire CAS) synchronized with the
            // previous holder's Release, so this Relaxed load sees the
            // latest position.
            let pos = drep.st_pos.load(Ordering::Relaxed);
            if pos >= st.len() {
                // More accesses are being attempted than were recorded.
                drep.next_tid.store(TID_EXHAUSTED, Ordering::Release);
                drep.baton.release();
                return Err(ReplayError::TraceExhausted {
                    thread: tid,
                    available: st.len() as u64,
                });
            }
            let next_tid = st.tids[pos];
            // ORDERING: these stores are published to other threads by the
            // `next_tid` Release store below ("publish last"); until then
            // only the baton holder touches them, so they can be Relaxed.
            if let Some(sites) = &st.sites {
                drep.next_site.store(sites[pos], Ordering::Relaxed);
            }
            if let Some(kinds) = &st.kinds {
                drep.next_kind
                    .store(u32::from(kinds[pos]), Ordering::Relaxed);
            }
            drep.st_pos.store(pos + 1, Ordering::Relaxed);
            // Publish last, with Release, so the matching thread sees the
            // site/kind written above.
            drep.next_tid.store(next_tid, Ordering::Release);
            stats.bump_record_read();
            if next_tid != tid {
                // ST-2 in Fig. 6: `next_tid` must travel from the reader to
                // the replayed thread — the second communication that DC
                // replay does not pay (§IV-C2).
                stats.bump_comms(1);
            }
            continue;
        }
        spin.step(tid, site, u64::from(tid), || {
            u64::from(drep.next_tid.load(Ordering::Acquire))
        })?;
    }
}

fn replay_in_distributed(
    session: &Session,
    dom: u32,
    tid: u32,
    site: SiteId,
    kind: AccessKind,
) -> Result<(), ReplayError> {
    let rep = session.rep.as_ref().expect("replay mode");
    let drep = &rep.domains[dom as usize];
    let trace = rep.bundle.thread(dom, tid);
    let stats = session.thread_stats(tid);

    // Fig. 5 line 31: read the next clock/epoch from the thread's own file
    // for this domain. The cursor is only advanced on *successful*
    // admission (at the bottom), so a failed attempt — exhaustion,
    // divergence, edge-wait or turnstile timeout — leaves the record in
    // place for a retry instead of silently consuming it.
    // ORDERING: `cursors[tid]` is the thread's private position in its own
    // per-thread trace; no other thread reads or writes it.
    let pos = drep.cursors[tid as usize].load(Ordering::Relaxed);
    if pos >= trace.len() {
        return Err(ReplayError::TraceExhausted {
            thread: tid,
            available: trace.len() as u64,
        });
    }
    let value = trace.values[pos];
    stats.bump_record_read();

    // Validate before waiting: a divergence is certain regardless of the
    // turnstile, and failing early avoids a guaranteed watchdog timeout.
    if session.cfg.validate_sites {
        if let (Some(recorded_site), recorded_kind) = (trace.site_at(pos), trace.kind_at(pos)) {
            stats.bump_validate();
            if recorded_site != site || recorded_kind != Some(kind) {
                return Err(Divergence {
                    thread: tid,
                    domain: dom,
                    seq: pos as u64,
                    recorded_site: Some(recorded_site),
                    actual_site: site,
                    recorded_kind,
                    actual_kind: kind,
                    history: session.replay_history(dom),
                }
                .into());
            }
        }
    }

    // Cross-domain edges: wait for the stamped foreign-domain counts
    // before taking this domain's own turn.
    session.wait_edges(dom, tid, pos as u64, site)?;

    // Fig. 5 line 32.
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
    // ORDERING: thread-private cursor, see the load above.
    drep.cursors[tid as usize].store(pos + 1, Ordering::Relaxed);
    session.push_replay_history(
        dom,
        AccessRecord {
            clock: value,
            site,
            kind,
            thread: tid,
        },
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    //! Scheme-level record/replay tests exercising the full gate paths.
    //! Cross-crate integration tests live in the workspace `tests/` tree.

    use crate::error::ReplayError;
    use crate::session::{Scheme, Session, SessionConfig};
    use crate::site::{AccessKind, SiteId};
    use crate::sync::SpinConfig;
    use crate::trace::TraceBundle;
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
    fn record_replay_preserves_result_all_schemes() {
        for scheme in Scheme::ALL {
            let (sum, store_order, bundle) = record_racy(scheme, 4, 25);
            assert_eq!(bundle.total_records(), 4 * 25 * 2);

            let replay = Session::replay(bundle).unwrap();
            let (replay_sum, replay_order) = racy_workload(&replay, 4, 25);
            let report = replay.finish().unwrap();
            assert_eq!(report.failure, None, "{scheme:?}");
            assert_eq!(report.fully_consumed, Some(true), "{scheme:?}");
            assert_eq!(
                replay_sum, sum,
                "{scheme:?}: replay must reproduce the racy final value"
            );
            // ST and DC reproduce the exact store interleaving. DE may
            // permute *within* an epoch, but stores that change the final
            // value are serialized, so the value check above is the
            // contract; for ST/DC also check the order verbatim.
            if scheme != Scheme::De {
                assert_eq!(replay_order, store_order, "{scheme:?}");
            }
        }
    }

    #[test]
    fn dc_replay_reproduces_exact_global_order() {
        let (_, _, bundle) = record_racy(Scheme::Dc, 3, 40);
        // Check the bundle is a dense clock permutation (validated) and the
        // global order interleaves all threads.
        bundle.validate().unwrap();
        let order = bundle.global_order();
        assert_eq!(order.len(), 3 * 40 * 2);
        assert_eq!(order.first().unwrap().0, 0);
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

    /// Sites 0..domains map to distinct domains (raw % domains), so every
    /// thread touching "its own" site gives a perfectly disjoint workload.
    fn disjoint_workload(session: &Arc<Session>, nthreads: u32, iters: usize) -> Vec<u64> {
        let cells: Vec<AtomicU64> = (0..nthreads).map(|_| AtomicU64::new(0)).collect();
        std::thread::scope(|s| {
            for tid in 0..nthreads {
                let ctx = session.register_thread(tid);
                let cell = &cells[tid as usize];
                s.spawn(move || {
                    let site = SiteId(u64::from(tid));
                    for _ in 0..iters {
                        let v = ctx.gate(site, AccessKind::Load, || cell.load(Ordering::Relaxed));
                        ctx.gate(site, AccessKind::Store, || {
                            cell.store(v + 1, Ordering::Relaxed)
                        });
                    }
                });
            }
        });
        cells.iter().map(|c| c.load(Ordering::Relaxed)).collect()
    }

    #[test]
    fn multi_domain_record_replay_is_divergence_free_all_schemes() {
        for scheme in Scheme::ALL {
            for domains in [1u32, 2, 4] {
                let cfg = SessionConfig {
                    domains,
                    ..Default::default()
                };
                let session = Session::record_with(scheme, 4, cfg.clone());
                let recorded = disjoint_workload(&session, 4, 20);
                let report = session.finish().unwrap();
                let bundle = report.bundle.unwrap();
                assert_eq!(bundle.domains, domains, "{scheme:?}");
                bundle.validate().unwrap();

                let replay = Session::replay(bundle).unwrap();
                assert_eq!(replay.domains(), domains);
                let replayed = disjoint_workload(&replay, 4, 20);
                let report = replay.finish().unwrap();
                assert_eq!(report.failure, None, "{scheme:?} D={domains}");
                assert_eq!(report.fully_consumed, Some(true), "{scheme:?} D={domains}");
                assert_eq!(replayed, recorded, "{scheme:?} D={domains}");
            }
        }
    }

    #[test]
    fn domains_replay_independently() {
        // Two threads in two different domains: thread 1 must be able to
        // finish its entire replay before thread 0 even starts — the
        // cross-domain concurrency the sharding exists for. With D = 1 the
        // same trace interleaving would force thread 1 to wait.
        let cfg = SessionConfig {
            domains: 2,
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
    fn two_domain_plan() -> (crate::plan::DomainPlan, SiteId, SiteId) {
        let a = SiteId(0xaaaa);
        let b = SiteId(0xbbbb);
        let plan = crate::plan::DomainPlan::with_assignments(2, [(a, 0), (b, 1)]);
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
            let bundle = report.bundle.unwrap();
            bundle.validate().unwrap();
            assert!(bundle.plan.is_some(), "{scheme:?}: plan stamped");
            let edge = bundle
                .edges
                .iter()
                .find(|e| e.domain == 1)
                .unwrap_or_else(|| panic!("{scheme:?}: domain-1 edge missing: {:?}", bundle.edges));
            assert_eq!(edge.seq, 0, "{scheme:?}");
            assert_eq!(edge.waits, vec![(0, 3)], "{scheme:?}");

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
            assert!(report.stats.edge_waits >= 1, "{scheme:?}");
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
            // store goes back to the lock-free path and stamps nothing.
            assert!(!session.has_pending_sync(1), "flag cleared after take");
            c1.gate(b, AccessKind::Store, || ());
        }
        let report = session.finish().unwrap();
        assert_eq!(report.stats.lock_acquires, 1, "only the anchor locked");
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

    #[test]
    fn ticket_gate_traces_identical_to_locked_gate() {
        // The lock-free fast path must be trace-invisible: a deterministic
        // (sequentially driven) workload recorded with the ticket gate and
        // with the legacy mutex must produce *equal* bundles, for every
        // scheme — `TraceBundle: Eq` makes this the D=1 byte-identity pin.
        for scheme in [Scheme::St, Scheme::Dc, Scheme::De] {
            let bundles = [true, false].map(|ticket_gate| {
                let session = Session::record_with(
                    scheme,
                    2,
                    SessionConfig {
                        ticket_gate,
                        ..Default::default()
                    },
                );
                let ctx0 = session.register_thread(0);
                let ctx1 = session.register_thread(1);
                // A fixed interleaving, driven from this one test thread.
                ctx0.gate(SITE, AccessKind::Load, || ());
                ctx1.gate(SITE, AccessKind::Store, || ());
                ctx1.gate(SiteId(9), AccessKind::Store, || ());
                ctx0.gate(SiteId(9), AccessKind::Load, || ());
                drop(ctx0);
                drop(ctx1);
                session.finish().unwrap().bundle.unwrap()
            });
            assert_eq!(bundles[0], bundles[1], "trace diverged for {scheme:?}");
        }
        // Publish batching is record-side communication elision only — at
        // D=1 it must leave the DE trace untouched as well.
        let bundles = [1u32, 4].map(|publish_batch| {
            let session = Session::record_with(
                Scheme::De,
                1,
                SessionConfig {
                    publish_batch,
                    ..Default::default()
                },
            );
            let ctx = session.register_thread(0);
            for _ in 0..3 {
                ctx.gate(SITE, AccessKind::Store, || ());
            }
            drop(ctx);
            session.finish().unwrap().bundle.unwrap()
        });
        assert_eq!(bundles[0], bundles[1], "publish batching changed the trace");
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
