//! Gate micro-benchmarks `bench/`'s per-layer ledger has no row for: DC
//! record admission under four-way contention, and what a second thread
//! costs a thread that shares nothing with it. Single-gate, clock, codec
//! and epoch-tracker costs are `bench/`'s `gate.*`, `clock.*`, `codec.*`
//! and `epoch.*` layers.

use reomp_core::{AccessKind, DomainPlan, Scheme, Session, SessionConfig, SiteId};
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// DC record admission through the ticket gate: 4 threads on one domain,
/// where FIFO ticket service is the whole arbitration. One sample spawns
/// the threads, gates 4 × 50 accesses and finishes the session (session
/// construction excluded); prints the mean ns per sample.
fn bench_ticket_admission() {
    const SAMPLES: u32 = 20;
    let site = SiteId::from_label("micro:ticket");
    let mut total = Duration::ZERO;
    for _ in 0..SAMPLES {
        let session = Session::record(Scheme::Dc, 4);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            for tid in 0..4 {
                let ctx = session.register_thread(tid);
                s.spawn(move || {
                    for _ in 0..50 {
                        ctx.gate(site, AccessKind::Store, || black_box(()));
                    }
                });
            }
        });
        black_box(session.finish().unwrap());
        total += t0.elapsed();
    }
    println!(
        "dc_contended_4t_ticket {:>14.1} ns/iter ({SAMPLES} iters)",
        total.as_nanos() as f64 / f64::from(SAMPLES)
    );
}

/// What a second thread costs a thread that shares nothing with it: one
/// thread gating alone versus two threads gating concurrently on disjoint
/// sites of a two-domain plan — no site, domain, lock or record file in
/// common — per scheme, record and replay. `pair ÷ solo` is 1.0 when a
/// gated access writes thread- and domain-owned cache lines only, and it
/// is what a session-global word on the hot path shows up in. Each run's
/// figure is a per-thread wall time between a start barrier and the
/// thread's last gate.
fn bench_disjoint_pair() {
    const OPS: usize = 200_000;
    const REPS: usize = 5;
    let sites = [SiteId(0xd15_0000), SiteId(0xd15_0001)];
    let cfg = || SessionConfig {
        plan: Some(DomainPlan::with_assignments(
            2,
            [(sites[0], 0), (sites[1], 1)],
        )),
        ..SessionConfig::default()
    };
    // `active` threads gate `OPS` accesses each (7 loads to 1 store) on
    // their own site; returns the mean ns per gated access.
    let drive = |session: &Arc<Session>, active: u32| -> f64 {
        let start = Barrier::new(active as usize);
        let per_thread: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..active)
                .map(|tid| {
                    let ctx = session.register_thread(tid);
                    let (site, start) = (sites[tid as usize], &start);
                    s.spawn(move || {
                        start.wait();
                        let t0 = Instant::now();
                        for i in 0..OPS {
                            let kind = if i % 8 == 7 {
                                AccessKind::Store
                            } else {
                                AccessKind::Load
                            };
                            ctx.gate(site, kind, || black_box(()));
                        }
                        t0.elapsed().as_nanos() as f64 / OPS as f64
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        per_thread.iter().sum::<f64>() / per_thread.len() as f64
    };
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    // (record ns/op, replay ns/op), median of REPS record→replay rounds.
    let measure = |scheme: Scheme, active: u32| -> (f64, f64) {
        let (mut rec, mut rep) = (Vec::new(), Vec::new());
        for _ in 0..REPS {
            let session = Session::record_with(scheme, 2, cfg());
            rec.push(drive(&session, active));
            let bundle = session.finish().unwrap().bundle.unwrap();
            let session = Session::replay(bundle).unwrap();
            rep.push(drive(&session, active));
            let report = session.finish().unwrap();
            assert_eq!(report.failure, None);
        }
        (median(rec), median(rep))
    };
    println!(
        "disjoint_pair ({} cores): ns per gated access, median of {REPS}",
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    println!("  scheme mode      solo      pair  pair/solo");
    for scheme in Scheme::ALL {
        let (solo, pair) = (measure(scheme, 1), measure(scheme, 2));
        for (mode, solo, pair) in [("record", solo.0, pair.0), ("replay", solo.1, pair.1)] {
            println!(
                "  {:<6} {mode:<6} {solo:>8.1}  {pair:>8.1}  {:>9.2}",
                scheme.name(),
                pair / solo
            );
        }
    }
}

fn main() {
    bench_ticket_admission();
    bench_disjoint_pair();
}
