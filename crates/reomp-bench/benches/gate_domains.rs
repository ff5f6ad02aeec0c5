//! Gate-domain scaling: record-mode throughput on a **disjoint-site**
//! workload as the gate is sharded across `D` domains.
//!
//! Every thread hammers its own private site, so with `D = 1` the run is
//! pure gate contention (the global serialization the paper's DC/DE
//! schemes keep for *ordering* even though their *storage* is
//! distributed), while `D = nthreads` removes all cross-thread contention.
//! The point of the table is the record-throughput column rising
//! monotonically with `D` — sharding turns the dominant record-mode
//! bottleneck into a dial.
//!
//! Also reports the paired replay wall time: with disjoint sites, domains
//! replay independently, so replay scales the same way.
//!
//! Environment knobs: `REOMP_BENCH_THREADS` (first value ≥ 2 is used,
//! default 8), `REOMP_BENCH_SCALE` (iterations multiplier),
//! `REOMP_BENCH_REPS`.

use reomp_bench::{bench_scale, bench_threads, time_min};
use reomp_core::{AccessKind, DomainPlan, Scheme, Session, SessionConfig, SiteId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Each thread performs `iters` load+store pairs on its own site,
/// `site = tid * stride`.
fn disjoint_workload(session: &Arc<Session>, nthreads: u32, iters: usize, stride: u64) {
    std::thread::scope(|s| {
        for tid in 0..nthreads {
            let ctx = session.register_thread(tid);
            s.spawn(move || {
                let site = SiteId(u64::from(tid) * stride);
                let cell = AtomicU64::new(0);
                for _ in 0..iters {
                    let v = ctx.gate(site, AccessKind::Load, || cell.load(Ordering::Relaxed));
                    ctx.gate(site, AccessKind::Store, || {
                        cell.store(v + 1, Ordering::Relaxed)
                    });
                }
            });
        }
    });
}

/// The plan that pins thread `t`'s site (`t * stride`) to domain
/// `t mod D`: threads spread evenly across `D | nthreads` domains.
fn spread(domains: u32, nthreads: u32, stride: u64) -> DomainPlan {
    DomainPlan::with_assignments(
        domains,
        (0..nthreads).map(|t| (SiteId(u64::from(t) * stride), t % domains)),
    )
}

fn main() {
    let nthreads = bench_threads()
        .into_iter()
        .find(|&t| t >= 2)
        .unwrap_or(8)
        .max(2);
    let iters = 20_000 * bench_scale();
    let total_records = u64::from(nthreads) * iters as u64 * 2;

    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    println!("\n=== gate_domains: record throughput vs. domain count ===");
    println!("disjoint-site workload · {nthreads} threads · {iters} iters/thread · {cores} cores");
    if cores < 2 {
        println!(
            "NOTE: on a single core the gate lock is never contended in \
             parallel, so sharding only adds overhead here; the domain \
             dial pays off with cores >= threads."
        );
    }
    println!(
        "{:>8} {:>14} {:>16} {:>14} {:>12}",
        "domains", "record (s)", "Mrec/s", "replay (s)", "speedup"
    );

    for scheme in [Scheme::Dc, Scheme::De] {
        println!("--- {} ---", scheme.name());
        let mut base = None;
        for domains in [1u32, 2, 4, 8] {
            if domains > nthreads {
                continue;
            }
            let cfg = SessionConfig {
                plan: Some(spread(domains, nthreads, 1)),
                // Replay of a heavily oversubscribed disjoint workload can
                // legitimately take a while on small hosts.
                spin: reomp_core::sync::SpinConfig {
                    spin_hints: 64,
                    timeout: Some(Duration::from_secs(300)),
                },
                ..SessionConfig::default()
            };

            let record = time_min(|| {
                let session = Session::record_with(scheme, nthreads, cfg.clone());
                disjoint_workload(&session, nthreads, iters, 1);
                let _ = session.finish().unwrap();
            });

            // One more recording to produce the replay input.
            let session = Session::record_with(scheme, nthreads, cfg.clone());
            disjoint_workload(&session, nthreads, iters, 1);
            let bundle = session.finish().unwrap().bundle.unwrap();

            let replay = time_min(|| {
                let session = Session::replay_with(bundle.clone(), cfg.clone()).unwrap();
                disjoint_workload(&session, nthreads, iters, 1);
                let report = session.finish().unwrap();
                assert_eq!(report.failure, None, "replay diverged during benching");
            });

            let speedup = base.get_or_insert(record).as_secs_f64() / record.as_secs_f64();
            println!(
                "{domains:>8} {:>14.6} {:>16.2} {:>14.6} {:>11.2}x",
                record.as_secs_f64(),
                total_records as f64 / record.as_secs_f64() / 1e6,
                replay.as_secs_f64(),
                speedup
            );
        }
    }
    println!("\n(speedup column is record-mode, relative to domains = 1)");

    // Planned vs hashed assignment on STRIPED sites (site = tid * 8): the
    // hash fallback spreads them by chance, an explicit plan (site i →
    // i mod D) evenly. The imbalance is visible in record throughput
    // whenever cores ≥ threads.
    let stride = 8u64;
    println!("\n=== gate_domains: planned vs hash on striped sites (stride {stride}) ===");
    println!(
        "{:>8} {:>12} {:>14} {:>14} {:>14}",
        "domains", "partition", "record (s)", "Mrec/s", "max dom share"
    );
    for domains in [2u32, 4, 8] {
        if domains > nthreads {
            continue;
        }
        let partitions = [
            ("hash", DomainPlan::new(domains)),
            ("planned", spread(domains, nthreads, stride)),
        ];
        for (name, plan) in partitions {
            let cfg = SessionConfig {
                plan: Some(plan),
                spin: reomp_core::sync::SpinConfig {
                    spin_hints: 64,
                    timeout: Some(Duration::from_secs(300)),
                },
                ..SessionConfig::default()
            };
            let record = time_min(|| {
                let session = Session::record_with(Scheme::Dc, nthreads, cfg.clone());
                disjoint_workload(&session, nthreads, iters, stride);
                let _ = session.finish().unwrap();
            });
            // Imbalance diagnostic: the share of gates the hottest domain
            // absorbed (1/D is perfect, 1.0 is fully serialized).
            let session = Session::record_with(Scheme::Dc, nthreads, cfg.clone());
            disjoint_workload(&session, nthreads, iters, stride);
            let report = session.finish().unwrap();
            let total: u64 = report.domain_gates.iter().sum::<u64>().max(1);
            let share = *report.domain_gates.iter().max().unwrap_or(&0) as f64 / total as f64;
            println!(
                "{domains:>8} {name:>12} {:>14.6} {:>14.2} {:>13.0}%",
                record.as_secs_f64(),
                total_records as f64 / record.as_secs_f64() / 1e6,
                share * 100.0
            );
        }
    }
    println!("(max dom share: fraction of gates in the hottest domain; 1/D is ideal)");
}
