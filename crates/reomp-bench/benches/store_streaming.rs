//! Trace-store throughput: one-shot save vs. the streaming chunked store
//! on long synthetic traces (§II-B: record-and-replay scalability is
//! bounded by file-system usage, which is why the record-file layout and
//! write path matter).
//!
//! Sweeps the records-per-chunk knob and reports save and load wall time
//! plus the on-disk volume. Also times a live streaming record run against
//! the buffer-everything baseline.
//!
//! `REOMP_BENCH_SCALE` multiplies the trace length (default ~1M records).

use reomp_bench::{bench_scale, time_min};
use reomp_core::store::StreamingTraceStore;
use reomp_core::trace::{ThreadTrace, TraceBundle};
use reomp_core::{AccessKind, DirStore, Scheme, Session, SessionConfig, SiteId, TraceStore};
use std::path::PathBuf;

/// A long synthetic DC bundle: `nthreads` round-robin clock streams with
/// validation columns, mimicking a heavily gated run.
fn synthetic_bundle(nthreads: u32, records_per_thread: usize) -> TraceBundle {
    let threads = (0..nthreads)
        .map(|tid| {
            let values: Vec<u64> = (0..records_per_thread)
                .map(|i| i as u64 * u64::from(nthreads) + u64::from(tid))
                .collect();
            ThreadTrace {
                sites: Some(values.iter().map(|v| 0x1000 + v % 7).collect()),
                kinds: Some(values.iter().map(|v| (v % 2) as u8).collect()),
                values,
            }
        })
        .collect();
    TraceBundle {
        plan: None,
        edges: vec![],
        checkpoint: None,
        scheme: Scheme::Dc,
        nthreads,
        domains: 1,
        threads,
        st: vec![],
    }
}

fn bench_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("reomp-bench-store-{tag}-{}", std::process::id()))
}

fn main() {
    let nthreads = 8u32;
    let per_thread = 125_000 * bench_scale();
    let bundle = synthetic_bundle(nthreads, per_thread);
    let total = bundle.total_records();
    println!(
        "\n=== Store streaming: {total} records across {nthreads} threads (one-shot vs chunked) ==="
    );
    println!(
        "{:>20} {:>12} {:>12} {:>12} {:>10} {:>9}",
        "layout", "save (s)", "load (s)", "bytes", "chunks", "B/event"
    );

    let dir = bench_dir("layouts");
    let store = DirStore::new(&dir);

    let t_save = time_min(|| {
        store.save(&bundle).expect("one-shot save");
    });
    let report = store.save(&bundle).expect("one-shot save");
    let t_load = time_min(|| {
        let (b, _) = store.load().expect("load");
        assert_eq!(b.total_records(), total);
    });
    println!(
        "{:>20} {:>12.6} {:>12.6} {:>12} {:>10} {:>9.3}",
        "one-shot",
        t_save.as_secs_f64(),
        t_load.as_secs_f64(),
        report.bytes,
        report.chunks,
        report.bytes as f64 / total as f64
    );

    for records_per_chunk in [4_096usize, 65_536, 1_048_576] {
        // Plain chunked vs per-chunk RLE compression (REOMP_COMPRESS):
        // same loaded bundle, different bytes/event.
        for compress in [false, true] {
            let t_save = time_min(|| {
                store
                    .save_chunked_opt(&bundle, records_per_chunk, compress)
                    .expect("chunked save");
            });
            let report = store
                .save_chunked_opt(&bundle, records_per_chunk, compress)
                .expect("chunked save");
            let t_load = time_min(|| {
                let (b, _) = store.load().expect("load");
                assert_eq!(b.total_records(), total);
            });
            let layout = if compress {
                format!("chunk {records_per_chunk} +rle")
            } else {
                format!("chunk {records_per_chunk}")
            };
            println!(
                "{layout:>20} {:>12.6} {:>12.6} {:>12} {:>10} {:>9.3}",
                t_save.as_secs_f64(),
                t_load.as_secs_f64(),
                report.bytes,
                report.chunks,
                report.bytes as f64 / total as f64
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Live comparison: buffer-everything record + save vs streaming record.
    let gates_per_thread = 20_000 * bench_scale();
    let live_threads = 4u32;
    let site = SiteId::from_label("bench:store_streaming");
    let workload = |session: &std::sync::Arc<Session>| {
        std::thread::scope(|s| {
            for tid in 0..live_threads {
                let ctx = session.register_thread(tid);
                s.spawn(move || {
                    for i in 0..gates_per_thread {
                        let kind = if i % 4 == 0 {
                            AccessKind::Store
                        } else {
                            AccessKind::Load
                        };
                        ctx.gate(site, kind, || {});
                    }
                });
            }
        });
    };
    println!(
        "\n--- live DE record of {} gates: buffered one-shot vs streaming ---",
        u64::from(live_threads) * gates_per_thread as u64
    );
    let dir = bench_dir("live");
    let store = DirStore::new(&dir);

    let t_buffered = time_min(|| {
        let session = Session::record(Scheme::De, live_threads);
        workload(&session);
        let report = session.finish().expect("finish");
        report.save_to(&store).expect("save");
    });
    println!(
        "  buffered record+save: {:>10.6} s",
        t_buffered.as_secs_f64()
    );

    let t_streaming = time_min(|| {
        let cfg = SessionConfig::default();
        let session = Session::record_streaming_with(Scheme::De, live_threads, cfg, &store)
            .expect("begin streaming");
        workload(&session);
        let report = session.finish().expect("finish");
        assert!(report.io.is_some());
    });
    println!(
        "  streaming record:     {:>10.6} s",
        t_streaming.as_secs_f64()
    );
    let _ = std::fs::remove_dir_all(&dir);

    // Flight recorder: bounded in-situ retention on the same live run —
    // no file I/O while recording, a window dump only on the trigger.
    // "retained" is the peak chunks per stream (≤ window by invariant),
    // "dump bytes" the materialized window, "dump (s)" its latency.
    println!("\n--- flight recorder: window sweep on the same live DE run ---");
    println!(
        "{:>8} {:>12} {:>10} {:>12} {:>10} {:>10}",
        "window", "record (s)", "dump (s)", "dump bytes", "retained", "evicted"
    );
    for window in [2u32, 8, 32] {
        let dir = bench_dir(&format!("flight-{window}"));
        let cfg = SessionConfig {
            flight: Some(window),
            flush_records: 1024,
            ..SessionConfig::default()
        };
        let t_record = time_min(|| {
            let session =
                Session::record_flight(Scheme::De, live_threads, cfg.clone(), DirStore::new(&dir))
                    .expect("begin flight");
            workload(&session);
            session.finish().expect("finish");
        });
        let session =
            Session::record_flight(Scheme::De, live_threads, cfg.clone(), DirStore::new(&dir))
                .expect("begin flight");
        workload(&session);
        let t_dump = time_min(|| {
            session
                .dump(reomp_core::DumpTrigger::Manual)
                .expect("dump window");
        });
        let dump_io = session.dumps().last().expect("at least one dump").1;
        let report = session.finish().expect("finish");
        let retention = report.io.expect("flight report");
        println!(
            "{window:>8} {:>12.6} {:>10.6} {:>12} {:>10} {:>10}",
            t_record.as_secs_f64(),
            t_dump.as_secs_f64(),
            dump_io.bytes,
            retention.retained_peak,
            retention.evicted
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    println!(
        "\nExpected shape: chunked saves track one-shot closely (same bytes ±\n\
         framing) while bounding memory; streaming record folds the save into\n\
         the run and overlaps encoding with execution."
    );
}
