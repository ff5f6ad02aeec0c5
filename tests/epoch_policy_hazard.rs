//! Failure-injection demonstration of the per-address epoch-policy hazard
//! (and the reason `EpochPolicy::Contiguous` is this implementation's
//! default).
//!
//! Under the paper-literal per-address Condition 1, epochs are not
//! monotone in clock order: a load belonging to an *old* run can carry a
//! small epoch while sitting at a large clock. The global `next_clock`
//! turnstile counts completions of *any* access, so such a load's
//! admission no longer implies that a same-address store recorded *before*
//! it has completed. With an adversarial thread schedule the replayed load
//! reads the pre-store value — order validation cannot catch it because
//! the gate sequence per thread is exactly as recorded.
//!
//! The test hand-crafts the trace:
//!
//! ```text
//! clock: 0..=4  t0: B-loads            epoch 0 (one B load-run)
//! clock: 5      t1: A-store            epoch 5 (final store, own clock)
//! clock: 6,8    t0: B-loads            epoch 0 (per-address: still run 0!)
//! clock: 7      t2: A-load             epoch 7 (first load of A-run)
//! clock: 9      t3: A-load             epoch 7 (second load of A-run)
//! ```
//!
//! In the recorded order, both A-loads observe the stored value. In
//! replay, t0 alone can push `next_clock` to 7 (its 7 B-loads all have
//! epoch 0), so t3's A-load (epoch 7) is admitted while t1 — deliberately
//! delayed — has not stored yet: t3 reads the *old* value.
//!
//! The contiguous-policy encoding of the same run (epochs 0,1,2,3,4 / 5 /
//! 6,8 / 7 / 9 — every run broken at interleavings) replays correctly even
//! against the same adversarial delays.

use reomp::core::trace::{ThreadTrace, TraceBundle};
use reomp::{AccessKind, Scheme, Session, SiteId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const SITE_A: SiteId = SiteId(0xaaaa);
const SITE_B: SiteId = SiteId(0xbbbb);

fn thread_trace(entries: &[(u64, SiteId, AccessKind)]) -> ThreadTrace {
    ThreadTrace {
        values: entries.iter().map(|(v, _, _)| *v).collect(),
        sites: Some(entries.iter().map(|(_, s, _)| s.raw()).collect()),
        kinds: Some(entries.iter().map(|(_, _, k)| k.code()).collect()),
    }
}

/// Replay the 4-thread program against `bundle` with t1's store delayed;
/// returns the value t3's A-load observed (1 = post-store, 0 = pre-store).
fn replay_with_delayed_store(bundle: TraceBundle) -> u64 {
    let session = Session::replay(bundle).expect("bundle valid");
    let a = AtomicU64::new(0);
    let b = AtomicU64::new(42);
    let t3_saw = AtomicU64::new(u64::MAX);

    std::thread::scope(|s| {
        let ctx0 = session.register_thread(0);
        let ctx1 = session.register_thread(1);
        let ctx2 = session.register_thread(2);
        let ctx3 = session.register_thread(3);

        let a = &a;
        let b = &b;
        let t3_saw = &t3_saw;
        s.spawn(move || {
            for _ in 0..7 {
                ctx0.gate_at(SITE_B, SITE_B.raw(), AccessKind::Load, || {
                    b.load(Ordering::Relaxed)
                });
            }
        });
        s.spawn(move || {
            // The adversarial delay: the producer is descheduled.
            std::thread::sleep(Duration::from_millis(150));
            ctx1.gate_at(SITE_A, SITE_A.raw(), AccessKind::Store, || {
                a.store(1, Ordering::Relaxed)
            });
        });
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let _ = ctx2.gate_at(SITE_A, SITE_A.raw(), AccessKind::Load, || {
                a.load(Ordering::Relaxed)
            });
        });
        s.spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            let v = ctx3.gate_at(SITE_A, SITE_A.raw(), AccessKind::Load, || {
                a.load(Ordering::Relaxed)
            });
            t3_saw.store(v, Ordering::Relaxed);
        });
    });
    let report = session.finish().expect("finish");
    assert_eq!(report.failure, None, "order replay itself must succeed");
    t3_saw.load(Ordering::Relaxed)
}

#[test]
fn per_address_epochs_can_mis_replay_values() {
    use AccessKind::{Load, Store};
    // Per-address epochs for the recorded run described in the module docs.
    let bundle = TraceBundle {
        plan: None,
        edges: vec![],
        checkpoint: None,
        scheme: Scheme::De,
        nthreads: 4,
        domains: 1,
        threads: vec![
            thread_trace(&[
                (0, SITE_B, Load),
                (0, SITE_B, Load),
                (0, SITE_B, Load),
                (0, SITE_B, Load),
                (0, SITE_B, Load),
                (0, SITE_B, Load), // clock 6
                (0, SITE_B, Load), // clock 8
            ]),
            thread_trace(&[(5, SITE_A, Store)]),
            thread_trace(&[(7, SITE_A, Load)]),
            thread_trace(&[(7, SITE_A, Load)]), // clock 9, epoch 7 (A-run)
        ],
        st: vec![],
    };
    let seen = replay_with_delayed_store(bundle);
    assert_eq!(
        seen, 0,
        "demonstrating the hazard: t3's load was admitted before the \
         same-address store recorded at clock 5 completed"
    );
}

#[test]
fn contiguous_epochs_replay_the_same_run_correctly() {
    use AccessKind::{Load, Store};
    // The contiguous encoding of the *same* recorded interleaving: every
    // interleaving point breaks a run, so epochs are monotone.
    let bundle = TraceBundle {
        plan: None,
        edges: vec![],
        checkpoint: None,
        scheme: Scheme::De,
        nthreads: 4,
        domains: 1,
        threads: vec![
            thread_trace(&[
                (0, SITE_B, Load),
                (0, SITE_B, Load),
                (0, SITE_B, Load),
                (0, SITE_B, Load),
                (0, SITE_B, Load),
                (6, SITE_B, Load),
                (8, SITE_B, Load),
            ]),
            thread_trace(&[(5, SITE_A, Store)]),
            thread_trace(&[(7, SITE_A, Load)]),
            thread_trace(&[(9, SITE_A, Load)]),
        ],
        st: vec![],
    };
    let seen = replay_with_delayed_store(bundle);
    assert_eq!(
        seen, 1,
        "contiguous epochs force the store before both loads"
    );
}

#[test]
fn end_to_end_contiguous_record_produces_safe_epochs() {
    // Property check on a real recording: contiguous-policy epochs are
    // monotone when sorted by global order, so the hazard above cannot be
    // constructed from an actual contiguous-mode trace.
    let session = Session::record(Scheme::De, 4);
    let hot = reomp::ompr::RacyCell::new("hazard:hot", 0u64);
    let rt = reomp::ompr::Runtime::new(session.clone());
    rt.parallel(|w| {
        for _ in 0..50 {
            w.racy_update(&hot, |v| v + 1);
        }
    });
    let bundle = session.finish().unwrap().bundle.unwrap();
    // Each thread's clock sequence is increasing, so globally monotone
    // epochs imply every *per-thread* epoch sequence is non-decreasing —
    // the property that makes the hazard inconstructible.
    for (tid, t) in bundle.threads.iter().enumerate() {
        for w in t.values.windows(2) {
            assert!(
                w[0] <= w[1],
                "thread {tid}: contiguous epochs must be non-decreasing ({} then {})",
                w[0],
                w[1]
            );
        }
    }
}
