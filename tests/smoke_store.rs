//! Smoke tests for trace persistence hygiene and scheme enumeration:
//!
//! * a [`DirStore`] record→save→load→replay roundtrip must work from a
//!   throwaway directory under the OS tempdir and must leave **no files in
//!   the repository tree** (record files belong to the run, not the source);
//! * a write killed at any of its backend calls — one-shot or chunked save,
//!   streaming record, flight dump — must leave the directory `Empty` or
//!   holding one whole bundle, and a retry must get through;
//! * [`Scheme::ALL`] must enumerate ST, DC, and DE exactly once each — the
//!   matrix tests and every benchmark sweep iterate it and silently shrink
//!   if a scheme goes missing.

use reomp::core::store::{Blobs, DirBlobs, Store};
use reomp::{
    ompr, AccessKind, DirStore, Scheme, Session, SessionConfig, SiteId, StreamingTraceStore,
    TraceBundle, TraceError, TraceStore,
};
use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Arc;

/// A unique, self-cleaning directory under the OS tempdir (no `tempfile`
/// dependency in this workspace).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let unique = format!(
            "reomp-smoke-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::Relaxed)
        );
        let dir = std::env::temp_dir().join(unique);
        std::fs::create_dir_all(&dir).expect("create tempdir");
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn record_small_run(scheme: Scheme) -> TraceBundle {
    let session = Session::record(scheme, 2);
    let cell = ompr::RacyCell::new("smoke:cell", 0u64);
    let rt = ompr::Runtime::new(Arc::clone(&session));
    rt.parallel(|w| {
        for _ in 0..8 {
            w.racy_update(&cell, |v| v + 1);
        }
    });
    session
        .finish()
        .expect("finish record")
        .bundle
        .expect("record mode produces a bundle")
}

#[test]
fn dirstore_roundtrip_stays_out_of_the_repo_tree() {
    let repo_root = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .canonicalize()
        .expect("canonicalize repo root");

    for scheme in Scheme::ALL {
        let tmp = TempDir::new(scheme.name());
        let store_dir = tmp.0.join("trace");
        let canonical_parent = tmp.0.canonicalize().expect("canonicalize tempdir");
        assert!(
            !canonical_parent.starts_with(&repo_root),
            "tempdir {} must live outside the repository tree {}",
            canonical_parent.display(),
            repo_root.display()
        );

        let bundle = record_small_run(scheme);
        let store = DirStore::new(&store_dir);
        store.save(&bundle).expect("save bundle");

        // The store must have written only under the tempdir...
        assert!(store_dir.join("manifest.txt").is_file());
        assert!(store_dir
            .canonicalize()
            .unwrap()
            .starts_with(&canonical_parent));

        // ...and the loaded bundle must drive a faithful replay.
        let (loaded, _report) = store.load().expect("load bundle");
        assert_eq!(loaded, bundle, "{scheme}: save/load must be lossless");

        let session = Session::replay(loaded).expect("bundle valid");
        let cell = ompr::RacyCell::new("smoke:cell", 0u64);
        let rt = ompr::Runtime::new(Arc::clone(&session));
        rt.parallel(|w| {
            for _ in 0..8 {
                w.racy_update(&cell, |v| v + 1);
            }
        });
        let report = session.finish().expect("finish replay");
        assert_eq!(report.failure, None, "{scheme}: replay diverged");
    }
}

#[test]
fn tempdir_cleanup_leaves_nothing_behind() {
    let path = {
        let tmp = TempDir::new("cleanup");
        let store = DirStore::new(tmp.0.join("trace"));
        store.save(&record_small_run(Scheme::De)).expect("save");
        tmp.0.clone()
    };
    assert!(
        !path.exists(),
        "tempdir {} must be removed on drop",
        path.display()
    );
}

/// Drive a deterministic gate sequence over two registered contexts from
/// the calling thread, so two record runs produce identical traces.
fn deterministic_run(session: &Arc<Session>) {
    let c0 = session.register_thread(0);
    let c1 = session.register_thread(1);
    for i in 0..25u64 {
        let site = SiteId(0x900 + (i % 4));
        c0.gate(site, AccessKind::Load, || ());
        c1.gate(site, AccessKind::Store, || ());
        c0.gate(site, AccessKind::Store, || ());
        c1.gate(site, AccessKind::Load, || ());
    }
}

#[test]
fn streaming_record_loads_identical_to_one_shot_save() {
    // Acceptance: a trace recorded through the streaming writer loads
    // byte-for-byte equal (same TraceBundle) to the same run saved via the
    // one-shot path.
    for scheme in Scheme::ALL {
        let tmp = TempDir::new(&format!("stream-eq-{}", scheme.name()));

        // Reference: record once, save through the one-shot path.
        let session = Session::record(scheme, 2);
        deterministic_run(&session);
        let bundle = session.finish().unwrap().bundle.unwrap();
        let one_shot = DirStore::new(tmp.0.join("one-shot"));
        one_shot.save(&bundle).unwrap();
        let (reference, _) = one_shot.load().unwrap();
        assert_eq!(reference, bundle);

        // Same deterministic run, recorded through the streaming writer
        // with a tiny flush threshold so many chunks are exercised.
        let streamed = DirStore::new(tmp.0.join("streamed"));
        let cfg = SessionConfig {
            flush_records: 8,
            ..SessionConfig::default()
        };
        let session = Session::record_streaming_with(scheme, 2, cfg, &streamed).unwrap();
        deterministic_run(&session);
        let report = session.finish().unwrap();
        assert!(
            report.bundle.is_none(),
            "{scheme}: trace lives in the store"
        );
        let io = report.io.expect("streaming run reports io");
        assert!(io.chunks > 0, "{scheme}");
        assert!(report.stats.chunk_flushes > 0, "{scheme}");

        let (loaded, loaded_io) = streamed.load().unwrap();
        assert_eq!(loaded, reference, "{scheme}: streamed ≡ one-shot");
        assert_eq!(loaded_io.chunks, io.chunks, "{scheme}");
    }
}

#[test]
fn concurrent_streaming_record_replays_faithfully() {
    // The flush watermark must hold under real concurrency: stream a racy
    // multi-threaded DE run with an aggressive threshold, then replay the
    // loaded trace and check the racy result is reproduced.
    for scheme in Scheme::ALL {
        let tmp = TempDir::new(&format!("stream-replay-{}", scheme.name()));
        let store = DirStore::new(tmp.0.join("trace"));
        let cfg = SessionConfig {
            flush_records: 4,
            ..SessionConfig::default()
        };
        let session = Session::record_streaming_with(scheme, 2, cfg, &store).unwrap();
        let cell = ompr::RacyCell::new("smoke:streamcell", 0u64);
        let rt = ompr::Runtime::new(Arc::clone(&session));
        rt.parallel(|w| {
            for _ in 0..40 {
                w.racy_update(&cell, |v| v + 1);
            }
        });
        let recorded = cell.raw_load();
        session.finish().expect("streaming finish");

        let (bundle, _) = store.load().expect("load streamed trace");
        bundle.validate().expect("streamed bundle is consistent");
        let session = Session::replay(bundle).unwrap();
        let cell = ompr::RacyCell::new("smoke:streamcell", 0u64);
        let rt = ompr::Runtime::new(Arc::clone(&session));
        rt.parallel(|w| {
            for _ in 0..40 {
                w.racy_update(&cell, |v| v + 1);
            }
        });
        let report = session.finish().expect("finish replay");
        assert_eq!(report.failure, None, "{scheme}: replay diverged");
        assert_eq!(cell.raw_load(), recorded, "{scheme}: racy result differs");
    }
}

#[test]
fn reused_directory_cannot_mix_runs() {
    // Regression: an earlier save with more threads (or an ST stream) used
    // to leave its files behind; a crash window could then pair them with
    // a newer manifest. The save now scrubs stale files and writes the
    // manifest last.
    let tmp = TempDir::new("stale");
    let dir = tmp.0.join("trace");
    let store = DirStore::new(&dir);

    let wide = Session::record(Scheme::Dc, 4);
    {
        let ctxs: Vec<_> = (0..4).map(|t| wide.register_thread(t)).collect();
        for ctx in &ctxs {
            ctx.gate(SiteId(1), AccessKind::Load, || ());
        }
    }
    store.save(&wide.finish().unwrap().bundle.unwrap()).unwrap();
    assert!(dir.join("thread_3.rtrc").exists());

    // Reuse with fewer threads and a different scheme (ST: adds st.rtrc).
    let bundle_st = record_small_run(Scheme::St);
    store.save(&bundle_st).unwrap();
    assert!(!dir.join("thread_2.rtrc").exists(), "stale thread file");
    assert!(!dir.join("thread_3.rtrc").exists(), "stale thread file");
    let (loaded, _) = store.load().unwrap();
    assert_eq!(loaded, bundle_st);

    // Reuse again without an ST stream: st.rtrc must be scrubbed.
    let bundle_de = record_small_run(Scheme::De);
    store.save(&bundle_de).unwrap();
    assert!(!dir.join("st.rtrc").exists(), "stale st stream");
    let (loaded, _) = store.load().unwrap();
    assert_eq!(loaded, bundle_de);
}

#[test]
fn killed_recording_never_yields_a_loadable_corrupt_bundle() {
    let tmp = TempDir::new("killed");
    let dir = tmp.0.join("trace");
    let store = DirStore::new(&dir);

    // A committed recording exists...
    store.save(&record_small_run(Scheme::Dc)).unwrap();
    store.load().unwrap();

    // ...then a new streaming recording dies mid-run (sink dropped without
    // commit — the moral equivalent of `kill -9` between flushes).
    {
        let session = Session::record_streaming_with(
            Scheme::Dc,
            2,
            SessionConfig {
                flush_records: 1,
                ..SessionConfig::default()
            },
            &store,
        )
        .unwrap();
        let ctx = session.register_thread(0);
        for _ in 0..4 {
            ctx.gate(SiteId(7), AccessKind::Store, || ());
        }
        drop(ctx);
        // Session dropped without finish(): nothing is committed.
    }
    match store.load() {
        Err(TraceError::Empty) => {}
        other => panic!("interrupted recording must read as Empty, got {other:?}"),
    }
}

/// Trips at the `die_at`-th backend call: that call and every later one
/// fail, as if the process had been killed there, until it is revived.
struct Fuse {
    calls: AtomicU32,
    die_at: AtomicU32,
}

impl Fuse {
    fn spend(&self) -> Result<(), TraceError> {
        let call = self.calls.fetch_add(1, Ordering::SeqCst) + 1;
        if call >= self.die_at.load(Ordering::SeqCst) {
            return Err(TraceError::Io(std::io::Error::other(format!(
                "simulated crash at backend call {call}"
            ))));
        }
        Ok(())
    }
}

/// A directory backend behind a [`Fuse`].
struct DyingBlobs {
    inner: DirBlobs,
    fuse: Arc<Fuse>,
}

impl Blobs for DyingBlobs {
    type Stream = <DirBlobs as Blobs>::Stream;
    const COUNTS_MANIFEST: bool = DirBlobs::COUNTS_MANIFEST;
    const FAN_OUT: bool = DirBlobs::FAN_OUT;

    fn list(&self) -> Result<Vec<String>, TraceError> {
        self.fuse.spend()?;
        self.inner.list()
    }
    fn get(&self, name: &str) -> Result<Vec<u8>, TraceError> {
        self.fuse.spend()?;
        self.inner.get(name)
    }
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), TraceError> {
        self.fuse.spend()?;
        self.inner.put(name, bytes)
    }
    fn create(&self, name: &str, header: &[u8]) -> Result<Self::Stream, TraceError> {
        self.fuse.spend()?;
        self.inner.create(name, header)
    }
    fn append(&self, stream: &mut Self::Stream, chunk: &[u8]) -> Result<(), TraceError> {
        self.fuse.spend()?;
        self.inner.append(stream, chunk)
    }
    fn publish(&self, stream: Self::Stream) -> Result<(), TraceError> {
        self.fuse.spend()?;
        self.inner.publish(stream)
    }
    fn remove(&self, name: &str) -> Result<(), TraceError> {
        self.fuse.spend()?;
        self.inner.remove(name)
    }
    fn commit(&self, name: &str, bytes: &[u8]) -> Result<(), TraceError> {
        self.fuse.spend()?;
        self.inner.commit(name, bytes)
    }
}

/// The bundle `deterministic_run` records when nothing streams.
fn deterministic_bundle() -> TraceBundle {
    let session = Session::record(Scheme::Dc, 2);
    deterministic_run(&session);
    session.finish().unwrap().bundle.unwrap()
}

/// A write into a store, reduced to whether it got through.
type Write = Box<dyn Fn() -> Result<(), String>>;

/// Kill a write at its first backend call, then its second, and so on
/// until it gets through, each time over a directory that already holds a
/// committed bundle (three ST threads, so the write also has stale files
/// to scrub). `setup` receives the store to write to and returns the
/// write; every failed one is retried once the backend is healthy again.
///
/// Whatever the kill point, the directory must load as `Empty`, as the old
/// bundle (only while the write has not started on it), or as `new`.
fn fault_campaign(tag: &str, new: &TraceBundle, setup: impl Fn(Store<DyingBlobs>) -> Write) {
    let old = {
        let session = Session::record(Scheme::St, 3);
        for tid in 0..3 {
            session
                .register_thread(tid)
                .gate(SiteId(5), AccessKind::Load, || ());
        }
        session.finish().unwrap().bundle.unwrap()
    };
    let mut calls_of_a_clean_write = None;
    for die_at in 1..=500 {
        let tmp = TempDir::new(&format!("{tag}-{die_at}"));
        let dir = tmp.0.join("trace");
        DirStore::new(&dir).save(&old).unwrap();

        let fuse = Arc::new(Fuse {
            calls: AtomicU32::new(0),
            die_at: AtomicU32::new(die_at),
        });
        let write = setup(Store::with_blobs(DyingBlobs {
            inner: DirBlobs::new(&dir),
            fuse: Arc::clone(&fuse),
        }));
        let outcome = write();
        match DirStore::new(&dir).load() {
            Err(TraceError::Empty) => assert!(outcome.is_err(), "{tag}: a clean write must load"),
            Ok((found, _)) if found == *new => {}
            Ok((found, _)) => assert!(
                outcome.is_err() && found == old,
                "{tag}: killed at backend call {die_at}, the directory loads as neither bundle"
            ),
            Err(e) => {
                panic!("{tag}: killed at backend call {die_at}, the directory is corrupt: {e}")
            }
        }
        if outcome.is_ok() {
            calls_of_a_clean_write = Some(die_at - 1);
            break;
        }

        fuse.die_at.store(u32::MAX, Ordering::SeqCst);
        write().unwrap_or_else(|e| panic!("{tag}: retry after a kill at call {die_at}: {e}"));
        let (found, _) = DirStore::new(&dir).load().unwrap();
        assert_eq!(found, *new, "{tag}: retry after a kill at call {die_at}");
    }
    // Unpublish, list, scrub the third thread's file and the ST stream,
    // write two streams, commit the manifest.
    let calls = calls_of_a_clean_write.expect("the sweep ends when the write gets through");
    assert!(calls >= 7, "{tag}: a write of only {calls} backend calls");
}

#[test]
fn killed_save_never_yields_a_loadable_corrupt_bundle() {
    let new = deterministic_bundle();
    fault_campaign("save", &new, |store| {
        let new = new.clone();
        Box::new(move || store.save(&new).map(drop).map_err(|e| e.to_string()))
    });
    fault_campaign("save-chunked", &new, |store| {
        let new = new.clone();
        Box::new(move || {
            store
                .save_chunked_opt(&new, 8, true)
                .map(drop)
                .map_err(|e| e.to_string())
        })
    });
}

#[test]
fn killed_streaming_record_never_yields_a_loadable_corrupt_bundle() {
    // Appends fail mid-run too: the session latches the error, keeps
    // gating, and surfaces it from `finish`.
    fault_campaign("stream", &deterministic_bundle(), |store| {
        Box::new(move || {
            let cfg = SessionConfig {
                flush_records: 8,
                ..SessionConfig::default()
            };
            let session = Session::record_streaming_with(Scheme::Dc, 2, cfg, &store)
                .map_err(|e| e.to_string())?;
            deterministic_run(&session);
            session.finish().map(drop).map_err(|e| e.to_string())
        })
    });
}

/// A flight session over `store` that has run `deterministic_run`.
fn flight_session(store: impl StreamingTraceStore + 'static) -> Arc<Session> {
    let cfg = SessionConfig {
        flight: Some(2),
        flush_records: 1,
        ..SessionConfig::default()
    };
    let session = Session::record_flight(Scheme::Dc, 2, cfg, store).unwrap();
    deterministic_run(&session);
    session
}

#[test]
fn killed_dump_never_yields_a_loadable_corrupt_bundle() {
    use reomp::DumpTrigger;

    // What a dump of this window holds when nothing goes wrong.
    let new = {
        let tmp = TempDir::new("dump-reference");
        let dir = tmp.0.join("trace");
        flight_session(DirStore::new(&dir))
            .dump(DumpTrigger::Manual)
            .unwrap();
        DirStore::new(&dir).load().unwrap().0
    };
    assert!(new.checkpoint.is_some(), "a dump is checkpointed");
    assert!(new.total_records() > 0);

    // The recorder's window survives a failed materialization: the retry
    // is a second dump of the same session.
    fault_campaign("dump", &new, |store| {
        let session = flight_session(store);
        Box::new(move || {
            session
                .dump(DumpTrigger::Manual)
                .map(drop)
                .map_err(|e| e.to_string())
        })
    });
}

#[test]
fn truncated_record_files_fail_cleanly() {
    // Regression: truncated headers/columns used to panic (or could drive
    // an OOM-sized allocation via a corrupt count) instead of returning
    // TraceError::Corrupt.
    let tmp = TempDir::new("truncated");
    let dir = tmp.0.join("trace");
    let store = DirStore::new(&dir);
    store.save(&record_small_run(Scheme::De)).unwrap();

    let path = dir.join("thread_0.rtrc");
    let full = std::fs::read(&path).unwrap();
    for cut in [0, 5, 6, 8, 10, full.len().saturating_sub(3)] {
        std::fs::write(&path, &full[..cut]).unwrap();
        assert!(store.load().is_err(), "cut {cut} must fail, not panic");
    }

    // A corrupt record count bounded only by u64 must also fail cleanly.
    let mut forged = full[..11].to_vec();
    forged.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f]);
    std::fs::write(&path, &forged).unwrap();
    assert!(store.load().is_err(), "absurd count must fail, not OOM");
}

#[test]
fn scheme_all_covers_st_dc_de_exactly_once() {
    assert_eq!(Scheme::ALL.len(), 3, "exactly three schemes");
    let names: Vec<&str> = Scheme::ALL.iter().map(|s| s.name()).collect();
    assert_eq!(
        names,
        ["st", "dc", "de"],
        "baseline first, then DC, then DE"
    );

    let unique: HashSet<Scheme> = Scheme::ALL.into_iter().collect();
    assert_eq!(unique.len(), 3, "no scheme listed twice");
    assert!(unique.contains(&Scheme::St));
    assert!(unique.contains(&Scheme::Dc));
    assert!(unique.contains(&Scheme::De));

    // Codes and names roundtrip for every scheme (the codec and CLI rely
    // on these being mutually consistent).
    for scheme in Scheme::ALL {
        assert_eq!(Scheme::from_code(scheme.code()), Some(scheme));
        assert_eq!(Scheme::parse(scheme.name()), Some(scheme));
    }
}
