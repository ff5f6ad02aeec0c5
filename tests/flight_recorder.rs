//! Integration: the bounded in-situ **flight recorder** — retention
//! stays within the window, dumps are valid checkpoint-stamped bundles
//! equal to the tail of an unbounded recording of the same run, every
//! trigger path (manual, panic hook, replay divergence) materializes a
//! window, and a windowed dump replays its tail under the record→replay
//! matrix's admission-order oracle. The hybrid leg drives rmpi's
//! `(rank × domain)` bounded retention through a real `World` run.

mod common;

use common::oracle::{check, AdmissionLog};
use reomp::rmpi::{MpiSession, MpiSessionConfig, ANY_SOURCE};
use reomp::{
    install_panic_dump, rmpi, AccessKind, DirStore, DomainPlan, DumpTrigger, Scheme, Session,
    SessionConfig, SiteId, TraceStore,
};
use std::sync::{mpsc, Arc};
use std::time::Duration;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("reomp-flight-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A deterministic multi-thread access sequence driven from one OS
/// thread: the recorded interleaving is a pure function of the seed, so
/// two recordings of it are comparable stream-by-stream.
fn drive_fixed_sequence(session: &Arc<Session>, nthreads: u32, accesses: usize) {
    let sites: Vec<SiteId> = (0..6)
        .map(|i| SiteId::from_label(&format!("flight.rs:site{i}")))
        .collect();
    let ctxs: Vec<_> = (0..nthreads).map(|t| session.register_thread(t)).collect();
    let mut lcg = 0x2545_f491_4f6c_dd1du64;
    for _ in 0..accesses {
        lcg = lcg
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let tid = ((lcg >> 33) % u64::from(nthreads)) as usize;
        let site = sites[((lcg >> 20) % sites.len() as u64) as usize];
        let kind = if lcg & 1 == 0 {
            AccessKind::Load
        } else {
            AccessKind::Store
        };
        ctxs[tid].gate(site, kind, || {});
    }
}

/// The windowed dump must be exactly the tail of an unbounded recording
/// of the same access sequence: per-stream suffixes plus a checkpoint
/// base accounting for everything evicted — for every scheme, for
/// D ∈ {1, 4} and for windows of 2 and 4 chunks.
#[test]
fn windowed_dump_is_the_tail_of_an_unbounded_recording() {
    for wchunks in [2u32, 4] {
        // Scale the run with the window so every window still evicts.
        let accesses = 100 * wchunks as usize;
        for (scheme, domains) in Scheme::ALL.into_iter().flat_map(|s| [(s, 1u32), (s, 4)]) {
            let tag = format!("{scheme}/D={domains}/W={wchunks}");
            let nthreads = 3;
            let cfg = SessionConfig {
                plan: Some(DomainPlan::new(domains)),
                ..SessionConfig::default()
            };

            // Unbounded reference recording of the same sequence.
            let full = Session::record_with(scheme, nthreads, cfg.clone());
            drive_fixed_sequence(&full, nthreads, accesses);
            let full_bundle = full.finish().unwrap().bundle.unwrap();

            // Bounded recording: `window` chunks × 4 records/chunk.
            let dir = tmp_dir(&format!("tail-{scheme}-{domains}-{wchunks}"));
            let flight_cfg = SessionConfig {
                flight: Some(wchunks),
                flush_records: 4,
                ..cfg
            };
            let session =
                Session::record_flight(scheme, nthreads, flight_cfg, DirStore::new(&dir)).unwrap();
            drive_fixed_sequence(&session, nthreads, accesses);
            session.dump(DumpTrigger::Manual).unwrap();
            let report = session.finish().unwrap();
            assert!(
                report.io.unwrap().retained_peak <= u64::from(wchunks),
                "{tag}: peak {} chunks exceeds the window",
                report.io.unwrap().retained_peak
            );
            assert!(
                report.io.unwrap().evicted > 0,
                "{tag}: nothing was ever evicted"
            );
            // The counts are the lanes', not the window's.
            let (s, n) = (report.stats, accesses as u64);
            assert_eq!((s.records_written, s.gates), (n, n), "{tag}");
            assert_eq!(
                report.domain_gates.iter().sum::<u64>(),
                n * u64::from(domains > 1)
            );

            let (window, _) = DirStore::new(&dir).load().unwrap();
            window.validate().unwrap_or_else(|e| panic!("{tag}: {e}"));
            let cp = window.checkpoint.as_ref().expect("dump carries checkpoint");
            assert_eq!(cp.trigger, DumpTrigger::Manual, "{tag}");
            assert_eq!(cp.window, wchunks, "{tag}");

            for dom in 0..domains {
                let base = cp.base_of(dom);
                assert_eq!(
                    window.domain_records(dom),
                    full_bundle.domain_records(dom) - base,
                    "{tag}: domain {dom} retained + evicted must cover the full run"
                );
                if scheme == Scheme::St {
                    let full_st = full_bundle.st_stream(dom).unwrap();
                    let win_st = window.st_stream(dom).unwrap();
                    let skip = base as usize;
                    assert_eq!(win_st.tids, full_st.tids[skip..], "{tag}: d{dom} tids");
                    assert_eq!(
                        win_st.sites.as_deref(),
                        full_st.sites.as_deref().map(|s| &s[skip..]),
                        "{tag}: d{dom} sites"
                    );
                } else {
                    for t in 0..nthreads {
                        let full_t = full_bundle.thread(dom, t);
                        let win_t = window.thread(dom, t);
                        // Per-thread clocks are increasing, so "evicted
                        // below the base" is a per-stream suffix split.
                        let skip = full_t.values.partition_point(|&v| v < base);
                        assert_eq!(
                            win_t.values,
                            full_t.values[skip..],
                            "{tag}: d{dom} t{t} values"
                        );
                        assert_eq!(
                            win_t.sites.as_deref(),
                            full_t.sites.as_deref().map(|s| &s[skip..]),
                            "{tag}: d{dom} t{t} sites"
                        );
                        assert_eq!(
                            win_t.kinds.as_deref(),
                            full_t.kinds.as_deref().map(|k| &k[skip..]),
                            "{tag}: d{dom} t{t} kinds"
                        );
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Record a real multi-threaded run into a flight window that evicts,
/// dump it, and replay the dump with each thread re-issuing exactly its
/// retained accesses: the oracle holds on the windowed bundle, whose
/// turnstiles start at the checkpointed base.
#[test]
fn windowed_replay_reproduces_the_dumped_tail() {
    for scheme in [Scheme::Dc, Scheme::De] {
        for domains in [1u32, 4] {
            let tag = format!("{scheme}/D={domains}");
            // Threads 2d and 2d+1 share the one site of domain d, so each
            // thread's program order stays inside a single domain and the
            // replay driver can re-issue it from the window alone.
            let nthreads = 2 * domains;
            let sites: Vec<SiteId> = (0..domains)
                .map(|d| SiteId::from_label(&format!("flight.rs:replay{d}")))
                .collect();
            let plan = DomainPlan::with_assignments(
                domains,
                sites.iter().enumerate().map(|(d, &s)| (s, d as u32)),
            );
            let cfg = SessionConfig {
                plan: Some(plan),
                flight: Some(3),
                flush_records: 2,
                ..SessionConfig::default()
            };
            let dir = tmp_dir(&format!("replay-{scheme}-{domains}"));
            let session =
                Session::record_flight(scheme, nthreads, cfg, DirStore::new(&dir)).unwrap();
            std::thread::scope(|s| {
                for tid in 0..nthreads {
                    let ctx = session.register_thread(tid);
                    let site = sites[(tid / 2) as usize];
                    s.spawn(move || {
                        for i in 0..20u64 {
                            let kind = match i % 3 {
                                0 => AccessKind::Store,
                                _ => AccessKind::Load,
                            };
                            ctx.gate(site, kind, || {});
                        }
                    });
                }
            });
            session.dump(DumpTrigger::Manual).unwrap();
            let io = session.finish().unwrap().io.unwrap();
            assert!(io.retained_peak <= 3 && io.evicted > 0, "{tag}: {io:?}");
            let (window, _) = DirStore::new(&dir).load().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            assert!(window.checkpoint.is_some(), "{tag}");

            let replay = Session::replay(window.clone()).unwrap();
            let log = AdmissionLog::new(&replay);
            std::thread::scope(|s| {
                for tid in 0..nthreads {
                    let (ctx, log, window) = (replay.register_thread(tid), &log, &window);
                    s.spawn(move || {
                        for dom in 0..domains {
                            let t = window.thread(dom, tid);
                            for i in 0..t.len() {
                                let site = t.site_at(i).expect("validated bundle");
                                let kind = t.kind_at(i).expect("validated bundle");
                                ctx.gate(site, kind, || log.push(tid, site));
                            }
                        }
                    });
                }
            });
            let report = replay.finish().unwrap();
            assert_eq!(report.failure, None, "{tag}");
            assert_eq!(report.fully_consumed, Some(true), "{tag}");
            check(&window, &log.take()).unwrap_or_else(|e| panic!("{tag}: {e}"));
        }
    }
}

/// The panic hook is a dump trigger: a panic while a flight session is
/// recording materializes the window with `DumpTrigger::Panic` — also a
/// panic inside a gated region, whose own thread holds the domain's
/// admission (ST: the lock, DC: the ticket) while the hook dumps.
#[test]
fn panic_hook_dumps_the_window() {
    for scheme in [Scheme::Dc, Scheme::St] {
        let dir = tmp_dir(&format!("panic-{scheme}"));
        let cfg = SessionConfig {
            flight: Some(2),
            flush_records: 2,
            ..SessionConfig::default()
        };
        let session = Session::record_flight(scheme, 1, cfg, DirStore::new(&dir)).unwrap();
        install_panic_dump(&session);
        // On a thread of its own, under a deadline: a dump waiting for an
        // admission its own thread holds, or a gate left unreleased by the
        // unwind, must fail this test rather than hang the binary.
        let (tx, rx) = mpsc::channel();
        let recorder = Arc::clone(&session);
        let worker = std::thread::spawn(move || {
            let ctx = recorder.register_thread(0);
            let site = SiteId::from_label("flight.rs:panic");
            for _ in 0..10 {
                ctx.gate(site, AccessKind::Store, || {});
            }
            let outside = std::panic::catch_unwind(|| panic!("deliberate test panic"));
            let inside = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                ctx.gate(site, AccessKind::Store, || {
                    panic!("deliberate panic in a gate")
                })
            }));
            // The unwound gate released its domain.
            ctx.gate(site, AccessKind::Store, || {});
            let _ = tx.send((outside.is_err(), inside.is_err()));
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(unwound) => assert_eq!(unwound, (true, true), "{scheme}"),
            Err(e) => {
                // A panic here would run the same hook, whose dump may wait
                // for the admission the stuck worker holds: exit instead.
                eprintln!("panic_hook_dumps_the_window: {scheme}: HUNG or died ({e})");
                std::process::exit(101);
            }
        }
        worker.join().unwrap();
        let dumps = session.dumps();
        assert_eq!(dumps.len(), 2, "{scheme}: one dump per panic");
        assert!(dumps
            .iter()
            .all(|(trigger, _)| *trigger == DumpTrigger::Panic));

        let (window, _) = DirStore::new(&dir).load().unwrap();
        window.validate().unwrap();
        let cp = window.checkpoint.unwrap();
        assert_eq!(cp.trigger, DumpTrigger::Panic);
        assert!(
            cp.base_of(0) > 0,
            "{scheme}: ten records must overflow the window"
        );
        // The next scheme's hook chains to this one, which falls through
        // once the session is gone.
        drop(session);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A replay divergence is a dump trigger: wiring a replay session to a
/// concurrently recording flight session dumps the recorder's window
/// with `DumpTrigger::Divergence` at the first failure.
#[test]
fn replay_divergence_dumps_the_linked_recorder() {
    let good = SiteId::from_label("flight.rs:good");
    let bad = SiteId::from_label("flight.rs:bad");

    // Reference run to replay against.
    let rec = Session::record(Scheme::Dc, 1);
    let ctx = rec.register_thread(0);
    for _ in 0..4 {
        ctx.gate(good, AccessKind::Load, || {});
    }
    drop(ctx);
    let bundle = rec.finish().unwrap().bundle.unwrap();

    // The re-run records into a flight window while replaying the
    // reference; diverging from the reference dumps the window.
    let dir = tmp_dir("divergence");
    let cfg = SessionConfig {
        flight: Some(2),
        flush_records: 1,
        ..SessionConfig::default()
    };
    let recorder = Session::record_flight(Scheme::Dc, 1, cfg, DirStore::new(&dir)).unwrap();
    let rctx = recorder.register_thread(0);
    for _ in 0..3 {
        rctx.gate(good, AccessKind::Load, || {});
    }

    let replay = Session::replay(bundle).unwrap();
    replay.dump_flight_on_failure(&recorder);
    let pctx = replay.register_thread(0);
    pctx.gate(good, AccessKind::Load, || {});
    // Site mismatch → divergence; the fallible gate surfaces it without
    // panicking (the trigger hook has already fired by the time it
    // returns).
    let diverged = pctx.try_gate(bad, AccessKind::Load, || {});
    assert!(diverged.is_err(), "the site mismatch must be caught");
    drop(pctx);
    let report = replay.finish().unwrap();
    assert!(report.failure.is_some(), "the site mismatch must be caught");

    let dumps = recorder.dumps();
    assert_eq!(dumps.len(), 1, "divergence must dump the linked recorder");
    assert_eq!(dumps[0].0, DumpTrigger::Divergence);
    let (window, _) = DirStore::new(&dir).load().unwrap();
    assert_eq!(
        window.checkpoint.as_ref().unwrap().trigger,
        DumpTrigger::Divergence
    );
    // Three 1-record chunks through a 2-chunk window: the oldest record
    // was evicted and the checkpoint accounts for it.
    assert_eq!(window.total_records(), 2);
    assert_eq!(window.checkpoint.as_ref().unwrap().base_of(0), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Hybrid run: rank 1 streams messages to rank 0, whose gated wildcard
/// receives are flight-recorded on both layers (thread gate and rmpi).
/// The message pattern is deterministic (single FIFO sender), so the
/// bounded run's retained tails must match an unbounded recording of
/// the same pattern, and the windowed dump must replay: evicted prefix
/// free-running, retained tail enforced.
#[test]
fn hybrid_windowed_recording_matches_tail_and_replays() {
    const TOTAL: u64 = 10;
    const TAG: u32 = 7;
    let window = 4u32;

    let run_record = |flight: Option<u32>, dir: Option<std::path::PathBuf>| {
        let mpi = Arc::new(MpiSession::record_with(
            2,
            MpiSessionConfig {
                flight,
                ..MpiSessionConfig::default()
            },
        ));
        let payloads = rmpi::World::run(2, Arc::clone(&mpi), |rank| {
            if rank.rank() == 1 {
                for i in 0..TOTAL {
                    rank.send_u64s(0, TAG, &[100 + i]).unwrap();
                }
                return vec![];
            }
            let cfg = SessionConfig {
                flight,
                flush_records: 1,
                ..SessionConfig::default()
            };
            let session = match &dir {
                Some(d) => Session::record_flight(Scheme::Dc, 1, cfg, DirStore::new(d)).unwrap(),
                None => Session::record_with(Scheme::Dc, 1, cfg),
            };
            let ctx = session.register_thread(0);
            let mut got = Vec::new();
            for _ in 0..TOTAL {
                let msg = rank.recv(ANY_SOURCE, TAG, Some(&ctx)).unwrap();
                got.push(msg.as_u64s()[0]);
            }
            drop(ctx);
            if dir.is_some() {
                session.dump(DumpTrigger::Manual).unwrap();
                let report = session.finish().unwrap();
                assert!(report.io.unwrap().retained_peak <= u64::from(window));
            } else {
                session.finish().unwrap();
            }
            got
        });
        let trace = mpi.finish();
        (trace, payloads.into_iter().next().unwrap())
    };

    // Unbounded reference, then the bounded run of the same pattern.
    let (full_trace, full_payloads) = run_record(None, None);
    let dir = tmp_dir("hybrid");
    let (win_trace, win_payloads) = run_record(Some(window), Some(dir.clone()));
    assert_eq!(win_payloads, full_payloads, "deterministic message order");

    // rmpi layer: bounded stream is the tail of the unbounded one.
    let cp = win_trace
        .checkpoint
        .as_ref()
        .expect("flight stamps a checkpoint");
    let evicted = cp.recv_bases[0] as usize;
    assert_eq!(evicted as u64, TOTAL - u64::from(window));
    assert_eq!(
        win_trace.recv_stream(0, 0),
        &full_trace.recv_stream(0, 0)[evicted..],
        "rmpi retained tail"
    );

    // Thread layer: the dumped window is the tail of the gated receives.
    let (window_bundle, _) = DirStore::new(&dir).load().unwrap();
    window_bundle.validate().unwrap();
    let tcp = window_bundle.checkpoint.as_ref().unwrap();
    let skip = tcp.base_of(0);
    assert_eq!(
        window_bundle.domain_records(0),
        TOTAL - skip,
        "thread retained tail"
    );

    // Windowed hybrid replay: free-run the evicted prefix (ungated,
    // unenforced), then replay the tail under both recorders.
    let mpi_replay = Arc::new(MpiSession::replay(win_trace));
    let replayed = rmpi::World::run(2, Arc::clone(&mpi_replay), |rank| {
        if rank.rank() == 1 {
            for i in 0..TOTAL {
                rank.send_u64s(0, TAG, &[100 + i]).unwrap();
            }
            return vec![];
        }
        let session = Session::replay(window_bundle.clone()).unwrap();
        let ctx = session.register_thread(0);
        let mut got = Vec::new();
        for i in 0..TOTAL {
            // The skip mask: accesses before the checkpoint base were
            // evicted, so they run ungated; the tail replays gated.
            let gate = if i < skip { None } else { Some(&ctx) };
            let msg = rank.recv(ANY_SOURCE, TAG, gate).unwrap();
            got.push(msg.as_u64s()[0]);
        }
        drop(ctx);
        let report = session.finish().unwrap();
        assert_eq!(report.failure, None, "hybrid windowed replay diverged");
        assert_eq!(report.fully_consumed, Some(true));
        got
    });
    assert_eq!(replayed.into_iter().next().unwrap(), full_payloads);
    assert_eq!(mpi_replay.fully_consumed(), Some(true));
    let _ = std::fs::remove_dir_all(&dir);
}
