//! Streaming record runs: persist the trace chunk-by-chunk *while* the
//! program records, instead of buffering it all and saving at the end.
//!
//! The paper notes that record-and-replay scalability is ultimately bounded
//! by file-system usage (§II-B); tools like rr and iReplayer stream their
//! records incrementally for exactly this reason. `Session::record_streaming_with`
//! does the same: whenever a per-thread lane reaches the configured flush
//! threshold, its stable prefix is appended to that thread's record file as
//! a self-delimiting chunk, so the in-memory footprint stays bounded no
//! matter how long the run is. `finish` commits the directory atomically —
//! the manifest is written last, so a killed run never leaves a loadable
//! corrupt trace behind.
//!
//! ```bash
//! cargo run --example streaming_record
//! ```

use reomp::{ompr, DirStore, Scheme, Session, SessionConfig, TraceStore};
use std::sync::Arc;

fn racy_program(session: &Arc<Session>) -> u64 {
    let rt = ompr::Runtime::new(Arc::clone(session));
    let counter = ompr::RacyCell::new("streaming:counter", 0u64);
    rt.parallel(|w| {
        for _ in 0..2_000u64 {
            let v = w.racy_load(&counter);
            w.racy_store(&counter, v + 1);
        }
    });
    counter.raw_load()
}

fn main() {
    let threads = 4;
    let dir = std::env::temp_dir().join(format!("reomp-streaming-{}", std::process::id()));
    let store = DirStore::new(&dir);

    // 1. Record with a small flush threshold so the streaming machinery is
    //    visibly exercised; production runs would use the 4096 default.
    let cfg = SessionConfig {
        flush_records: 256,
        ..SessionConfig::default()
    };
    let session = Session::record_streaming_with(Scheme::De, threads, cfg, &store)
        .expect("open streaming recording");
    let recorded = racy_program(&session);
    let report = session.finish().expect("finish record");
    let io = report.io.expect("streaming report carries I/O totals");
    println!("recorded value:   {recorded}");
    println!(
        "trace records:    {} ({} flushed mid-run as {} chunks)",
        report.stats.records_written, report.stats.chunk_flushes, io.chunks
    );
    println!(
        "trace on disk:    {} files, {} bytes in {}",
        io.files,
        io.bytes,
        dir.display()
    );
    assert!(
        report.bundle.is_none(),
        "a streaming run never materializes the whole trace in memory"
    );

    // 2. The chunked directory loads like any other trace...
    let (bundle, loaded) = store.load().expect("load streamed trace");
    println!(
        "loaded back:      {} records from {} chunks",
        bundle.total_records(),
        loaded.chunks
    );

    // 3. ...and replays deterministically.
    let session = Session::replay(bundle).expect("valid trace");
    let replayed = racy_program(&session);
    let report = session.finish().expect("finish replay");
    assert_eq!(report.failure, None, "replay diverged");
    assert_eq!(replayed, recorded, "replay must reproduce the recording");
    println!("replayed value:   {replayed}   (deterministic)");

    let _ = std::fs::remove_dir_all(&dir);
    println!("\nok: the streamed trace replays bit-for-bit.");
}
