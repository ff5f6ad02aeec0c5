//! Ablation studies for the design choices DESIGN.md calls out (beyond the
//! paper's own evaluation):
//!
//! 1. **Epoch policy** — contiguous (provably replay-safe) vs per-address
//!    (paper-literal): epoch sharing and DE replay time.
//! 2. **Ring capacity** — the access-history ring is diagnostics-only in
//!    this implementation; verify capacity does not change epochs.
//! 3. **Trace codec** — varint-delta vs raw 8-byte encoding size on real
//!    app traces (the I/O volume that bounds scalability, §II-B).

use miniapps::App;
use ompr::Runtime;
use reomp_bench::{bench_scale, bench_threads, config_with_policy};
use reomp_core::{codec, EpochHistogram, EpochPolicy, Scheme, Session, TraceBundle};
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

    println!("\n=== Ablation 1: epoch policy (DE, {threads} threads) ===");
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

    println!("\n=== Ablation 2: history-ring capacity (epochs must be identical) ===");
    for cap in [0usize, 16, 64, 1024] {
        let mut cfg = config_with_policy(EpochPolicy::Contiguous);
        cfg.ring_capacity = cap;
        let session = Session::record_with(Scheme::De, threads, cfg);
        let rt = Runtime::new(session.clone());
        let _ = App::Hacc.run_scaled(&rt, scale);
        let bundle = session.finish().expect("finish").bundle.expect("bundle");
        let hist = EpochHistogram::from_bundle(&bundle);
        println!(
            "  ring={cap:>5}: {} records, {:.1}% shared epochs",
            bundle.total_records(),
            hist.frac_gt1() * 100.0
        );
    }

    println!(
        "\n=== Ablation 3: trace codec size (clock/epoch stream, varint-delta vs raw 8 B) ==="
    );
    for app in App::ALL {
        let mut bundle = record_app(app, threads, scale, EpochPolicy::Contiguous);
        // Measure the clock/epoch stream itself (validation columns are an
        // optional debugging aid with their own fixed-width cost).
        for t in &mut bundle.threads {
            t.sites = None;
            t.kinds = None;
        }
        let mut encoded = 0usize;
        for (tid, t) in bundle.threads.iter().enumerate() {
            encoded += codec::encode_thread_trace(t, bundle.scheme, tid as u32).len();
        }
        let raw = bundle.total_records() * 8;
        println!(
            "  {:>12}: {:>8} records, {:>8} B encoded vs {:>8} B raw ({:.1}x)",
            app.name(),
            bundle.total_records(),
            encoded,
            raw,
            raw as f64 / encoded.max(1) as f64
        );
    }
}
