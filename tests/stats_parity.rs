//! Exact-count parity of the session counters across the per-thread slot
//! refactor: a deterministic single-driver schedule, table-driven over
//! {ST, DC, DE} × D ∈ {1, 2} × record/replay, must report the counter
//! values the session-global `Stats` block reported. The literals below
//! were captured on the parent commit (bc3797f) with this same schedule,
//! and survived DE's move to owner-written record lanes unchanged (the
//! fix-up count *is* `deferred_finalizations`). One literal moved since,
//! on purpose: the DC/DE D=2 record rows counted `locks: 4` while the two
//! criticals and the two sync-point anchors took the lock beside their
//! ticket; every DC/DE access is now admitted by the ticket alone, so
//! those rows count 0 — and ST's `locks == gates` is the witness that
//! only ST takes the lock. Every record run flushes its lanes into one
//! sink, so `finish` counts the residue chunks (`chunk_flushes`,
//! `io_bytes_written`) in the session's own slot: the per-thread sum
//! equals the total on every other counter. That sum assertion is the
//! only one restated when buffered runs began to flush; no literal
//! changed.

use reomp::core::StatsSnapshot;
use reomp::{AccessKind, DomainPlan, Scheme, Session, SessionConfig, SiteId};
use std::sync::Arc;

const A: SiteId = SiteId(0xa11c);
const B: SiteId = SiteId(0xb0b5);

/// The counters the refactor must not move.
#[derive(Debug, PartialEq, Eq)]
struct Row {
    gates: u64,
    by_kind: [u64; 7],
    written: u64,
    read: u64,
    validate: u64,
    comms: u64,
    locks: u64,
    deferred: u64,
    sync_edges: u64,
    edge_waits: u64,
}

impl Row {
    fn of(s: &StatsSnapshot) -> Row {
        Row {
            gates: s.gates,
            by_kind: s.gates_by_kind,
            written: s.records_written,
            read: s.records_read,
            validate: s.validate_checks,
            comms: s.comms,
            locks: s.lock_acquires,
            deferred: s.deferred_finalizations,
            sync_edges: s.sync_edges,
            edge_waits: s.edge_waits,
        }
    }
}

fn config(domains: u32) -> SessionConfig {
    SessionConfig {
        plan: (domains == 2).then(|| DomainPlan::with_assignments(2, [(A, 0), (B, 1)])),
        ..SessionConfig::default()
    }
}

/// Both thread contexts driven from the calling thread, so the gate order
/// — and with it every counter — is a pure function of this body.
fn drive(session: &Arc<Session>) {
    let c0 = session.register_thread(0);
    let c1 = session.register_thread(1);
    for _ in 0..6 {
        c0.gate(A, AccessKind::Load, || ());
        c1.gate(B, AccessKind::Store, || ());
        c1.gate(B, AccessKind::Load, || ());
        c0.gate(A, AccessKind::Load, || ());
        c0.gate(A, AccessKind::Store, || ());
        c1.gate(A, AccessKind::Store, || ());
        // A third store extends the run: the middle store's epoch is
        // deferred below its clock (DE's `deferred_finalizations`).
        c0.gate(A, AccessKind::Store, || ());
    }
    c0.gate(A, AccessKind::Critical, || ());
    c1.gate(B, AccessKind::Critical, || ());
    c0.sync_point();
    c0.gate(A, AccessKind::Load, || ());
    c0.gate(A, AccessKind::AtomicRmw, || ());
    c1.gate(B, AccessKind::Reduction, || ());
    c0.gate(B, AccessKind::Ordered, || ());
    c1.gate(A, AccessKind::MpiOp, || ());
    // End on a store: DE still holds it pending at `finish`, where it
    // keeps the provisional value its owner wrote.
    c1.sync_point();
    c1.gate(B, AccessKind::Store, || ());
}

/// Gates per [`AccessKind`] code: the same 50 accesses in every mode.
const K: [u64; 7] = [19, 25, 1, 2, 1, 1, 1];

/// What the parent commit reports for [`drive`], as printed by it.
#[rustfmt::skip]
fn expected(scheme: Scheme, domains: u32, replay: bool) -> Row {
    match (scheme, domains, replay) {
        (Scheme::St, 1, false) => Row { gates: 50, by_kind: K, written: 50, read: 0, validate: 0, comms: 0, locks: 50, deferred: 0, sync_edges: 0, edge_waits: 0 },
        (Scheme::St, 1, true) => Row { gates: 50, by_kind: K, written: 0, read: 50, validate: 50, comms: 50, locks: 50, deferred: 0, sync_edges: 0, edge_waits: 0 },
        (Scheme::St, 2, false) => Row { gates: 50, by_kind: K, written: 50, read: 0, validate: 0, comms: 0, locks: 50, deferred: 0, sync_edges: 4, edge_waits: 0 },
        (Scheme::St, 2, true) => Row { gates: 50, by_kind: K, written: 0, read: 50, validate: 50, comms: 50, locks: 50, deferred: 0, sync_edges: 0, edge_waits: 4 },
        (Scheme::Dc, 1, false) => Row { gates: 50, by_kind: K, written: 50, read: 0, validate: 0, comms: 0, locks: 0, deferred: 0, sync_edges: 0, edge_waits: 0 },
        (Scheme::Dc, 1, true) => Row { gates: 50, by_kind: K, written: 0, read: 50, validate: 50, comms: 50, locks: 0, deferred: 0, sync_edges: 0, edge_waits: 0 },
        (Scheme::Dc, 2, false) => Row { gates: 50, by_kind: K, written: 50, read: 0, validate: 0, comms: 0, locks: 0, deferred: 0, sync_edges: 4, edge_waits: 0 },
        (Scheme::Dc, 2, true) => Row { gates: 50, by_kind: K, written: 0, read: 50, validate: 50, comms: 50, locks: 0, deferred: 0, sync_edges: 0, edge_waits: 4 },
        (Scheme::De, 1, false) => Row { gates: 50, by_kind: K, written: 50, read: 0, validate: 0, comms: 0, locks: 0, deferred: 6, sync_edges: 0, edge_waits: 0 },
        (Scheme::De, 1, true) => Row { gates: 50, by_kind: K, written: 0, read: 50, validate: 50, comms: 50, locks: 0, deferred: 0, sync_edges: 0, edge_waits: 0 },
        (Scheme::De, 2, false) => Row { gates: 50, by_kind: K, written: 50, read: 0, validate: 0, comms: 0, locks: 0, deferred: 6, sync_edges: 4, edge_waits: 0 },
        (Scheme::De, 2, true) => Row { gates: 50, by_kind: K, written: 0, read: 50, validate: 50, comms: 50, locks: 0, deferred: 0, sync_edges: 0, edge_waits: 4 },
        other => panic!("no parent-commit row for {other:?}"),
    }
}

#[test]
fn counters_match_the_parent_commit() {
    for scheme in Scheme::ALL {
        for domains in [1u32, 2] {
            let record = Session::record_with(scheme, 2, config(domains));
            drive(&record);
            let rec = record.finish().unwrap();
            let replay = Session::replay(rec.bundle.clone().unwrap()).unwrap();
            drive(&replay);
            let rep = replay.finish().unwrap();
            assert_eq!(rep.failure, None, "{scheme}/D={domains}");
            assert_eq!(rep.fully_consumed, Some(true), "{scheme}/D={domains}");

            for (report, is_replay) in [(&rec, false), (&rep, true)] {
                let tag = format!("{scheme}/D={domains}/replay={is_replay}");
                assert_eq!(
                    Row::of(&report.stats),
                    expected(scheme, domains, is_replay),
                    "{tag}"
                );
                assert_eq!(report.stats.waits, 0, "{tag}: single driver never waits");
                // The per-thread breakdown is the total but for the sink
                // counters: `finish` flushes every record run's residue
                // chunks from the session's own slot. (Until DE threads
                // wrote their own records, `finish` also wrote the
                // trailing pending store's and counted it there.)
                let mut threads = StatsSnapshot::default();
                assert_eq!(report.thread_stats.len(), 2, "{tag}");
                for t in &report.thread_stats {
                    threads.absorb(t);
                    if !is_replay {
                        assert_eq!(t.records_written, t.gates, "{tag}: own records only");
                    }
                }
                let but_sink = StatsSnapshot {
                    chunk_flushes: 0,
                    io_bytes_written: 0,
                    ..report.stats
                };
                assert_eq!(threads, but_sink, "{tag}");
                if domains > 1 {
                    assert_eq!(
                        report.domain_gates.iter().sum::<u64>(),
                        report.stats.gates,
                        "{tag}"
                    );
                } else {
                    assert!(report.domain_gates.is_empty(), "{tag}");
                }
            }
        }
    }
}
