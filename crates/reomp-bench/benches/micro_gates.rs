//! Criterion microbenchmarks of the building blocks: single-gate record
//! cost per scheme, epoch-tracker throughput, trace codec, and turnstile
//! operations. These quantify the constant factors behind the figure-level
//! results.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use reomp_core::codec;
use reomp_core::epoch::{EpochPolicy, EpochTracker};
use reomp_core::{AccessKind, DomainPlan, Scheme, Session, SessionConfig, SiteId};
use std::hint::black_box;
use std::sync::{Arc, Barrier};
use std::time::Instant;

fn bench_gate_record(c: &mut Criterion) {
    let mut group = c.benchmark_group("gate_record_single_thread");
    let site = SiteId::from_label("micro:gate");
    for scheme in Scheme::ALL {
        group.bench_function(scheme.name(), |b| {
            b.iter_batched(
                || Session::record(scheme, 1),
                |session| {
                    let ctx = session.register_thread(0);
                    for _ in 0..100 {
                        ctx.gate(site, AccessKind::Store, || black_box(()));
                    }
                    drop(ctx);
                    session.finish().unwrap()
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

/// DC record admission through the ticket gate: 4 threads on one domain,
/// where FIFO ticket service is the whole arbitration (the single-thread
/// row is `gate_record_single_thread/dc` above).
fn bench_ticket_admission(c: &mut Criterion) {
    let site = SiteId::from_label("micro:ticket");
    c.bench_function("dc_contended_4t_ticket", |b| {
        b.iter_batched(
            || Session::record(Scheme::Dc, 4),
            |session| {
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
                session.finish().unwrap()
            },
            BatchSize::SmallInput,
        );
    });

    // The raw admission word, uncontended enter/exit cycle (a DC/DE
    // record gate's whole synchronization cost).
    c.bench_function("ticket_word_uncontended_cycle", |b| {
        let gate = reomp_core::clock::TicketGate::new();
        b.iter(|| {
            let t = gate.enter();
            gate.exit(black_box(t));
        });
    });
}

/// What a second thread costs a thread that shares nothing with it: one
/// thread gating alone versus two threads gating concurrently on disjoint
/// sites of a two-domain plan — no site, domain, lock or record file in
/// common — per scheme, record and replay. `pair ÷ solo` is 1.0 when a
/// gated access writes thread- and domain-owned cache lines only, and it
/// is what a session-global word on the hot path shows up in.
///
/// Timed by hand rather than through `Criterion`: the row of interest is a
/// ratio of two runs, and each run's figure is a per-thread wall time
/// between a start barrier and the thread's last gate.
fn bench_disjoint_pair(_c: &mut Criterion) {
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

fn bench_epoch_tracker(c: &mut Criterion) {
    let mut group = c.benchmark_group("epoch_tracker_observe");
    for policy in [EpochPolicy::Contiguous, EpochPolicy::PerAddress] {
        group.bench_function(policy.name(), |b| {
            b.iter_batched(
                || EpochTracker::new(policy, 64),
                |mut tracker| {
                    for clock in 0..1_000u64 {
                        let addr = clock % 7;
                        let kind = if clock % 3 == 0 {
                            AccessKind::Store
                        } else {
                            AccessKind::Load
                        };
                        black_box(tracker.observe(
                            (clock % 4) as u32,
                            SiteId(addr + 1),
                            addr,
                            kind,
                            clock,
                        ));
                    }
                    tracker.flush()
                },
                BatchSize::SmallInput,
            );
        });
    }
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    let values: Vec<u64> = (0..10_000u64).map(|i| i * 3 / 2).collect();
    let trace = reomp_core::trace::ThreadTrace {
        values,
        sites: None,
        kinds: None,
    };
    c.bench_function("codec_encode_10k_values", |b| {
        b.iter(|| black_box(codec::encode_thread_trace(&trace, Scheme::Dc, 0)));
    });
    let bytes = codec::encode_thread_trace(&trace, Scheme::Dc, 0);
    c.bench_function("codec_decode_10k_values", |b| {
        b.iter(|| black_box(codec::decode_thread_records(&bytes).unwrap()));
    });
}

fn bench_turnstile(c: &mut Criterion) {
    c.bench_function("turnstile_uncontended_advance", |b| {
        let t = reomp_core::clock::Turnstile::new();
        let stats = reomp_core::stats::Stats::new();
        b.iter(|| black_box(t.advance(&stats)));
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_gate_record, bench_ticket_admission, bench_disjoint_pair, bench_epoch_tracker, bench_codec, bench_turnstile
);
criterion_main!(benches);
