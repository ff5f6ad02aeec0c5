//! The §II-A scenario: a bug that "only manifested once every 30 executions
//! on average" — hunt it with record-and-replay instead of luck.
//!
//! The program has a lost-update race; an assertion fires only when a
//! *specific* interleaving drops more than a threshold of updates. We keep
//! recording runs until the bug manifests, then replay that exact run
//! repeatedly — every replay reproduces the failure deterministically,
//! which is where debugging actually becomes possible.
//!
//! ```bash
//! cargo run --example debug_heisenbug
//! ```

//! The replay section at the end shows the other half of the diagnostics
//! story: when a *patched* program is replayed against the buggy trace and
//! takes a different path, the divergence report includes the last-N
//! accesses the gate admitted before the mismatch (read back from the
//! trace below the replay cursors), so you see *what led up to* the
//! divergence, not just the mismatching access.

use reomp::{ompr, AccessKind, ReplayError, Scheme, Session, SiteId, TraceBundle};
use std::sync::Arc;

const THREADS: u32 = 4;
const INCREMENTS: u64 = 300;

/// Returns the "result" of the buggy computation; the *bug* is that racy
/// lost updates can make it drift far from the intended value.
fn buggy_program(session: &Arc<Session>) -> u64 {
    let rt = ompr::Runtime::new(Arc::clone(session));
    let total = ompr::RacyCell::new("heisenbug:total", 0u64);
    rt.parallel(|w| {
        for i in 0..INCREMENTS {
            // The developer believed this was atomic. It is not: between
            // the load and the store another thread's update can be lost.
            let v = w.racy_load(&total);
            if i % 4 == 0 {
                std::thread::yield_now(); // widen the window on small hosts
            }
            w.racy_store(&total, v + 1);
        }
    });
    total.raw_load()
}

fn is_buggy(result: u64) -> bool {
    // The application's (failing) validation: "we lost too many updates".
    result < u64::from(THREADS) * INCREMENTS * 85 / 100
}

fn record_until_bug(max_attempts: usize) -> Option<(u64, TraceBundle)> {
    for attempt in 1..=max_attempts {
        let session = Session::record(Scheme::De, THREADS);
        let result = buggy_program(&session);
        let bundle = session
            .finish()
            .expect("finish")
            .bundle
            .expect("record mode");
        if is_buggy(result) {
            println!("attempt {attempt}: result {result} — BUG manifested, trace captured");
            return Some((result, bundle));
        }
        println!("attempt {attempt}: result {result} — looks fine, discarding trace");
    }
    None
}

fn main() {
    println!(
        "expected result {} (bug := more than 15% of updates lost)\n",
        u64::from(THREADS) * INCREMENTS
    );
    let Some((buggy_result, bundle)) = record_until_bug(500) else {
        println!("the scheduler never produced the bug this time — run again");
        return;
    };

    println!("\nreplaying the buggy run five times:");
    for i in 0..5 {
        let session = Session::replay(bundle.clone()).expect("valid trace");
        let result = buggy_program(&session);
        let report = session.finish().expect("finish");
        assert_eq!(report.failure, None);
        assert_eq!(
            result, buggy_result,
            "replay must reproduce the buggy interleaving"
        );
        assert!(is_buggy(result));
        println!("  replay #{i}: result {result} — bug reproduced");
    }
    println!("\nok: the once-in-N-runs failure now reproduces on every replay.");

    // Bonus: what a *divergence* report looks like. Pretend the developer
    // "fixed" the program by touching a different location — the replay
    // notices the first off-script access and its report carries the
    // access history leading up to it.
    println!("\nreplaying a mis-patched program against the same trace:");
    let session = Session::replay(bundle).expect("valid trace");
    let err = divergent_replay(&session);
    match err {
        Some(ReplayError::Divergence(d)) => {
            println!("{d}\n");
            assert!(
                !d.history.is_empty(),
                "divergence reports carry the admitted-access history"
            );
            println!(
                "ok: the report shows the {} accesses the gate admitted before the mismatch.",
                d.history.len()
            );
        }
        other => panic!("expected a divergence report, got {other:?}"),
    }
    let _ = session.finish();
}

/// Run the buggy program but have thread 0 touch a wrong site after a few
/// iterations; returns the first replay error some thread observed.
fn divergent_replay(session: &Arc<Session>) -> Option<ReplayError> {
    let rt = ompr::Runtime::new(Arc::clone(session));
    let total = ompr::RacyCell::new("heisenbug:total", 0u64);
    // Keep the *divergence* specifically: sibling threads racing to report
    // their Aborted release must not shadow it.
    let divergence = std::sync::Mutex::new(None);
    let record = |e: ReplayError| {
        if matches!(e, ReplayError::Divergence(_)) {
            divergence.lock().unwrap().get_or_insert(e);
        }
    };
    rt.parallel(|w| {
        let ctx = w.ctx();
        for i in 0..INCREMENTS {
            if w.tid() == 0 && i == 8 {
                // The "fix": a read of some other location the recording
                // never saw.
                let r = ctx.try_gate(
                    SiteId::from_label("heisenbug:patched-in-read"),
                    AccessKind::Load,
                    || (),
                );
                if let Err(e) = r {
                    record(e);
                    return;
                }
            }
            let v = match ctx.try_gate_at(total.site(), total.addr(), AccessKind::Load, || {
                total.raw_load()
            }) {
                Ok(v) => v,
                Err(e) => {
                    record(e);
                    return;
                }
            };
            if ctx
                .try_gate_at(total.site(), total.addr(), AccessKind::Store, || {
                    total.raw_store(v + 1)
                })
                .is_err()
            {
                return;
            }
        }
    });
    divergence.into_inner().unwrap()
}
