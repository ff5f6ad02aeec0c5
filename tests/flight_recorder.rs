//! Integration: the bounded in-situ **flight recorder** — retention
//! stays within the window, dumps are valid checkpoint-stamped bundles
//! equal to the tail of an unbounded recording of the same run, windowed
//! replay reproduces the tail deterministically, and every trigger path
//! (manual, panic hook, replay divergence) materializes a window. The
//! hybrid leg drives rmpi's `(rank × domain)` bounded retention through
//! a real `World` run.

use reomp::rmpi::{MpiSession, MpiSessionConfig, ANY_SOURCE};
use reomp::{
    install_panic_dump, rmpi, AccessKind, DirStore, DumpTrigger, Scheme, Session, SessionConfig,
    SiteId, TraceBundle, TraceStore,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("reomp-flight-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Window (chunks per stream) for the tail-equality sweep. `REOMP_FLIGHT`
/// (the CI flight leg sets 4) pins it, like `REOMP_DOMAINS` pins the
/// domain sweeps; default 2.
fn swept_window() -> u32 {
    std::env::var("REOMP_FLIGHT")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|w| (1..=16).contains(w))
        .unwrap_or(2)
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
/// base accounting for everything evicted — for every scheme and for
/// D ∈ {1, 4}.
#[test]
fn windowed_dump_is_the_tail_of_an_unbounded_recording() {
    let wchunks = swept_window();
    // Scale the run with the window so every swept window still evicts.
    let accesses = 100 * wchunks as usize;
    for scheme in Scheme::ALL {
        for domains in [1u32, 4] {
            let tag = format!("{scheme}/D={domains}/W={wchunks}");
            let nthreads = 3;
            let cfg = SessionConfig {
                domains,
                ..SessionConfig::default()
            };

            // Unbounded reference recording of the same sequence.
            let full = Session::record_with(scheme, nthreads, cfg.clone());
            drive_fixed_sequence(&full, nthreads, accesses);
            let full_bundle = full.finish().unwrap().bundle.unwrap();

            // Bounded recording: `window` chunks × 4 records/chunk.
            let dir = tmp_dir(&format!("tail-{scheme}-{domains}"));
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

/// Replay one windowed bundle: each thread re-issues exactly its
/// retained accesses (site and kind read back from the validated
/// streams), and the admitted order must reproduce the dumped tail.
fn replay_window_and_log(window: &TraceBundle) -> Vec<Vec<(u64, u32)>> {
    let nthreads = window.nthreads;
    let domains = window.domains;
    let replay = Session::replay(window.clone()).unwrap();
    let logs: Vec<Mutex<Vec<(u64, u32)>>> = (0..domains).map(|_| Mutex::new(Vec::new())).collect();
    let order: Vec<AtomicU64> = (0..domains).map(|_| AtomicU64::new(0)).collect();
    std::thread::scope(|s| {
        for tid in 0..nthreads {
            let ctx = replay.register_thread(tid);
            let logs = &logs;
            let order = &order;
            let window = &window;
            s.spawn(move || {
                for dom in 0..domains {
                    // This driver only supports workloads where each
                    // thread stays inside one domain (checked below), so
                    // iterating domains in order is the program order.
                    let t = window.thread(dom, tid);
                    let sites = t.sites.as_ref().expect("validated bundle");
                    let kinds = t.kinds.as_ref().expect("validated bundle");
                    for i in 0..t.values.len() {
                        let site = SiteId(sites[i]);
                        let kind = AccessKind::from_code(kinds[i]).unwrap();
                        ctx.gate(site, kind, || {
                            let seq = order[dom as usize].fetch_add(1, Ordering::SeqCst);
                            logs[dom as usize].lock().unwrap().push((seq, tid));
                        });
                    }
                }
            });
        }
    });
    let report = replay.finish().unwrap();
    assert_eq!(report.failure, None, "windowed replay diverged");
    assert_eq!(report.fully_consumed, Some(true));
    logs.into_iter()
        .map(|l| {
            let mut v = l.into_inner().unwrap();
            v.sort_unstable();
            v
        })
        .collect()
}

/// Record a real (nondeterministically scheduled) multi-threaded run
/// into a flight window, dump it, and replay the dump: the replayed
/// admission order must equal the dumped tail's clock order for DC, and
/// respect the dumped tail's epochs for DE — at D = 1 and with a 4-domain
/// plan.
#[test]
fn windowed_replay_reproduces_the_dumped_tail() {
    for scheme in [Scheme::Dc, Scheme::De] {
        for domains in [1u32, 4] {
            let tag = format!("{scheme}/D={domains}");
            // Threads 2d and 2d+1 share the one site of domain d, so each
            // thread's program order stays inside a single domain and the
            // replay driver can re-issue it faithfully.
            let nthreads = 2 * domains;
            let sites: Vec<SiteId> = (0..domains)
                .map(|d| SiteId::from_label(&format!("flight.rs:replay{d}")))
                .collect();
            let plan = reomp::DomainPlan::with_assignments(
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
                            let kind = if i % 3 == 0 {
                                AccessKind::Store
                            } else {
                                AccessKind::Load
                            };
                            ctx.gate(site, kind, || {});
                        }
                    });
                }
            });
            session.dump(DumpTrigger::Manual).unwrap();
            let report = session.finish().unwrap();
            assert!(report.io.unwrap().retained_peak <= 3, "{tag}");

            let (window, _) = DirStore::new(&dir).load().unwrap();
            window.validate().unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert!(window.checkpoint.is_some(), "{tag}");
            assert!(window.total_records() > 0, "{tag}: empty window");

            let logs = replay_window_and_log(&window);
            for dom in 0..domains {
                // Expected admission order of domain d: its retained
                // records sorted by recorded value, labelled with their
                // thread.
                let mut expected: Vec<(u64, u32)> = Vec::new();
                for t in 0..nthreads {
                    for &v in &window.thread(dom, t).values {
                        expected.push((v, t));
                    }
                }
                expected.sort_unstable();
                // The log records (admission seq, tid), sorted by seq.
                let got = &logs[dom as usize];
                assert_eq!(got.len(), expected.len(), "{tag}: domain {dom}");
                if scheme == Scheme::Dc {
                    // DC values are clocks: admission i must belong to the
                    // thread owning the i-th clock.
                    for (i, &(_, tid)) in expected.iter().enumerate() {
                        assert_eq!(got[i].1, tid, "{tag}: domain {dom} admission {i}");
                    }
                    continue;
                }
                // DE values are epochs, and the accesses of one epoch are
                // admitted concurrently: the order inside a run of equal
                // recorded values is the scheduler's. What the trace pins
                // is which threads fill each run's admission slots...
                for run in expected.chunk_by(|a, b| a.0 == b.0) {
                    let start = expected.partition_point(|e| e.0 < run[0].0);
                    let mut admitted: Vec<u32> = got[start..start + run.len()]
                        .iter()
                        .map(|&(_, tid)| tid)
                        .collect();
                    admitted.sort_unstable();
                    let recorded: Vec<u32> = run.iter().map(|&(_, tid)| tid).collect();
                    assert_eq!(
                        admitted, recorded,
                        "{tag}: domain {dom} epoch {} admitted another epoch's threads",
                        run[0].0
                    );
                }
                // ...and that every admission falls inside its own epoch:
                // a thread's j-th admission consumed its j-th record, whose
                // epoch e admits it no earlier than position e and strictly
                // before the next recorded epoch opens.
                let base = window.clock_base(dom);
                let end = base + expected.len() as u64;
                for t in 0..nthreads {
                    let positions = got.iter().zip(base..).filter(|(a, _)| a.1 == t);
                    for (&epoch, (_, pos)) in window.thread(dom, t).values.iter().zip(positions) {
                        let next = expected
                            .iter()
                            .map(|e| e.0)
                            .find(|&v| v > epoch)
                            .unwrap_or(end);
                        assert!(
                            (epoch..next).contains(&pos),
                            "{tag}: domain {dom} thread {t}: position {pos} outside epoch [{epoch}, {next})"
                        );
                    }
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// The panic hook is a dump trigger: a panic while a flight session is
/// recording materializes the window with `DumpTrigger::Panic`.
#[test]
fn panic_hook_dumps_the_window() {
    let dir = tmp_dir("panic");
    let cfg = SessionConfig {
        flight: Some(2),
        flush_records: 2,
        ..SessionConfig::default()
    };
    let session = Session::record_flight(Scheme::Dc, 1, cfg, DirStore::new(&dir)).unwrap();
    install_panic_dump(&session);
    let ctx = session.register_thread(0);
    let site = SiteId::from_label("flight.rs:panic");
    for _ in 0..10 {
        ctx.gate(site, AccessKind::Store, || {});
    }
    let result = std::panic::catch_unwind(|| panic!("deliberate test panic"));
    assert!(result.is_err());
    let dumps = session.dumps();
    assert_eq!(dumps.len(), 1, "the panic hook must dump exactly once");
    assert_eq!(dumps[0].0, DumpTrigger::Panic);

    let (window, _) = DirStore::new(&dir).load().unwrap();
    window.validate().unwrap();
    let cp = window.checkpoint.unwrap();
    assert_eq!(cp.trigger, DumpTrigger::Panic);
    assert!(cp.base_of(0) > 0, "ten records must overflow the window");
    let _ = std::fs::remove_dir_all(&dir);
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
