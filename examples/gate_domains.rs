//! Gate domains end to end: record a disjoint-site run with the gate
//! sharded across 4 domains, persist the per-domain trace layout, and
//! replay it divergence-free.
//!
//! A `DomainPlan` pins thread `t`'s site to domain `t mod D`, so threads
//! hammering their own sites never contend on a gate lock in record mode
//! (when `D` ≥ threads) and proceed through independent turnstiles in
//! replay. The plan travels with the trace; replay reads it back.
//!
//! ```bash
//! cargo run --release --example gate_domains
//! REOMP_DOMAINS=8 cargo run --release --example gate_domains   # pick the dial
//! ```

use reomp::{AccessKind, DirStore, DomainPlan, Scheme, Session, SessionConfig, SiteId, TraceStore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const THREADS: u32 = 4;
const ITERS: usize = 5_000;

/// Every thread increments its own cell through its own site.
fn disjoint_program(session: &Arc<Session>) -> Vec<u64> {
    let cells: Vec<AtomicU64> = (0..THREADS).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        for tid in 0..THREADS {
            let ctx = session.register_thread(tid);
            let cell = &cells[tid as usize];
            s.spawn(move || {
                let site = SiteId(u64::from(tid));
                for _ in 0..ITERS {
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

fn main() {
    let domains = std::env::var("REOMP_DOMAINS")
        .ok()
        .and_then(|s| s.parse::<u32>().ok())
        .filter(|&d| d >= 1)
        .unwrap_or(4);
    let dir = std::env::temp_dir().join(format!("reomp-domains-{}", std::process::id()));
    let store = DirStore::new(&dir);

    let plan = DomainPlan::with_assignments(
        domains,
        (0..THREADS).map(|t| (SiteId(u64::from(t)), t % domains)),
    );
    let cfg = SessionConfig {
        plan: Some(plan.clone()),
        ..SessionConfig::default()
    };
    let session = Session::record_with(Scheme::De, THREADS, cfg);
    let recorded = disjoint_program(&session);
    let report = session.finish().expect("finish record");
    println!("recorded finals:  {recorded:?}");
    println!(
        "gates per domain: {:?}  (total {})",
        report.domain_gates, report.stats.gates
    );
    let bundle = report.bundle.expect("record mode keeps a bundle");
    let io = store.save(&bundle).expect("persist trace");
    println!(
        "trace on disk:    {} files in {} ({} per-thread-per-domain streams)",
        io.files,
        dir.display(),
        bundle.domains * bundle.nthreads,
    );

    let (loaded, _) = store.load().expect("load trace");
    assert_eq!(loaded.plan, Some(plan), "the plan rides in the trace");
    let session = Session::replay(loaded).expect("valid trace");
    let replayed = disjoint_program(&session);
    let report = session.finish().expect("finish replay");
    assert_eq!(report.failure, None, "replay diverged");
    assert_eq!(replayed, recorded, "replay must reproduce the recording");
    println!("replayed finals:  {replayed:?}   (identical)");

    if std::env::var_os("REOMP_KEEP_TRACE").is_some() {
        println!("trace kept in {}", dir.display());
    } else {
        let _ = std::fs::remove_dir_all(&dir);
    }
    println!("\nok: a {domains}-domain recording replays divergence-free.");
}
