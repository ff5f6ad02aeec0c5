//! Ablation of the one design choice beyond the paper's own evaluation
//! that is still a knob: the **epoch policy**, contiguous (provably
//! replay-safe) vs per-address (paper-literal) — epoch sharing and DE
//! replay time.

use miniapps::App;
use ompr::Runtime;
use reomp_bench::{bench_scale, bench_threads, config_with_policy};
use reomp_core::{EpochHistogram, EpochPolicy, Scheme, Session, TraceBundle};
use std::time::Instant;

fn record_app(app: App, threads: u32, scale: usize, policy: EpochPolicy) -> TraceBundle {
    let session = Session::record_with(Scheme::De, threads, config_with_policy(policy));
    let rt = Runtime::new(session.clone());
    let _ = app.run_scaled(&rt, scale);
    session.finish().expect("finish").bundle.expect("bundle")
}

fn replay_time(bundle: TraceBundle, app: App, scale: usize) -> f64 {
    let session = Session::replay(bundle).expect("bundle valid");
    let rt = Runtime::new(session.clone());
    let t0 = Instant::now();
    let _ = app.run_scaled(&rt, scale);
    let dt = t0.elapsed().as_secs_f64();
    let report = session.finish().expect("finish");
    assert_eq!(report.failure, None);
    dt
}

fn main() {
    let threads = bench_threads().into_iter().max().unwrap_or(4);
    let scale = bench_scale();

    println!("\n=== Ablation: epoch policy (DE, {threads} threads) ===");
    println!(
        "{:>14} {:>12} {:>14} {:>14} {:>12} {:>12}",
        "app", "policy", "epochs>1 (%)", "accesses>1 (%)", "replay (s)", "records"
    );
    for app in [App::Hacc, App::Hpccg] {
        for policy in [EpochPolicy::Contiguous, EpochPolicy::PerAddress] {
            let bundle = record_app(app, threads, scale, policy);
            let hist = EpochHistogram::from_bundle(&bundle);
            let records = bundle.total_records();
            let t = replay_time(bundle, app, scale);
            println!(
                "{:>14} {:>12} {:>14.1} {:>14.1} {:>12.6} {:>12}",
                app.name(),
                policy.name(),
                hist.frac_gt1() * 100.0,
                hist.frac_accesses_gt1() * 100.0,
                t,
                records
            );
        }
    }
}
