//! Isolated layer costs: tight loops over the public primitives of each
//! repo module, timed from outside.
//!
//! "solo" is one pinned thread; "handoff" is two pinned threads strictly
//! alternating. None of these depends on the workload being run; they are
//! the yardsticks its end-to-end numbers are read against.

use crate::script::{draw_schedule, Rng};
use crate::summary::Summary;
use crate::workloads::Env;
use ompr::{Critical, RacyCell, Reduction, Runtime};
use reomp_core::clock::{GlobalClock, TicketGate, Turnstile};
use reomp_core::epoch::{EpochPolicy, EpochTracker};
use reomp_core::stats::Stats;
use reomp_core::sync::{BatonLock, SpinConfig};
use reomp_core::trace::ThreadTrace;
use reomp_core::{
    codec, AccessKind, DirStore, DumpTrigger, MemStore, RecordOptions, Scheme, Session,
    SessionConfig, SiteId, StreamingTraceStore, TraceBundle, TraceStore, Verifier,
};
use rmpi::{MpiSession, MpiTrace, MpiVerifier, World, ANY_SOURCE, ANY_TAG};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// One named result.
pub type Row = (String, Summary, &'static str);

/// How much work each measurement does. A run with a real `--seconds`
/// takes the median of 5 samples at full size; a token run (the unit
/// tests) takes one sample of a tenth of the size.
#[derive(Debug, Clone, Copy)]
struct Effort {
    samples: usize,
    shrink: usize,
}

impl Effort {
    fn for_budget(seconds: f64) -> Effort {
        if seconds >= 2.0 {
            Effort {
                samples: 5,
                shrink: 1,
            }
        } else {
            Effort {
                samples: 1,
                shrink: 10,
            }
        }
    }

    fn size(self, full: usize) -> usize {
        (full / self.shrink).max(64)
    }

    fn sample(self, mut f: impl FnMut() -> f64) -> Summary {
        let samples: Vec<f64> = (0..self.samples).map(|_| f()).collect();
        Summary::of(&samples)
    }
}

/// ns per iteration of `f` over `iters` iterations.
fn time_loop(iters: usize, mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / iters as f64
}

const SOLO_OPS: usize = 200_000;
const HANDOFF_ROUNDS: usize = 40_000;
const PROBE_RECORDS: usize = 131_072;
const CHUNK: usize = 4096;

/// A word alone on its cache lines.
#[repr(align(128))]
#[derive(Default)]
struct Padded(AtomicU64);

fn wait_for(word: &AtomicU64, value: u64) {
    let mut spins = 0u32;
    while word.load(Ordering::Acquire) != value {
        spins += 1;
        if spins.is_multiple_of(4096) {
            std::thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Two pinned threads take `rounds` strictly alternating turns each —
/// `a(i)` on the calling thread (CPU slot 0), `b(i)` on a partner (slot
/// 1) — and the result is ns per turn.
fn handoff(env: &Env, rounds: usize, a: impl Fn(usize), b: impl Fn(usize) + Sync) -> f64 {
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        s.spawn(|| {
            env.pin(1);
            start.wait();
            for i in 0..rounds {
                b(i);
            }
        });
        start.wait();
        let t0 = Instant::now();
        for i in 0..rounds {
            a(i);
        }
        // The partner's last turn ends inside the scope's join, a few
        // hundred ns after ours; over 40 000 rounds it does not register.
        t0.elapsed().as_nanos() as f64 / (2 * rounds) as f64
    })
}

/// The same strict alternation paced by a benchmark-side turn word: each
/// turn waits for the word, runs `op`, and passes the word on. Includes
/// one bare cache-line hand-off (`machine.handoff_ns`) per turn.
fn paced_handoff(env: &Env, rounds: usize, op: impl Fn(bool) + Sync) -> f64 {
    let turn = Padded::default();
    handoff(
        env,
        rounds,
        |i| {
            wait_for(&turn.0, 2 * i as u64);
            op(false);
            turn.0.store(2 * i as u64 + 1, Ordering::Release);
        },
        |i| {
            wait_for(&turn.0, 2 * i as u64 + 1);
            op(true);
            turn.0.store(2 * i as u64 + 2, Ordering::Release);
        },
    )
}

fn probe_site(index: u64) -> SiteId {
    SiteId::from_label_indexed("perfbench:probe", index)
}

/// A two-thread single-domain DC trace of `records` records, exactly what
/// a scripted recording of the seed's schedule over 4 sites (3 loads to 1
/// store) produces — built directly, so the persistence layers can be
/// timed without a recording.
fn probe_bundle(seed: u64, records: usize) -> TraceBundle {
    let order = draw_schedule(seed, &[records / 2, records - records / 2]);
    let mut rng = Rng::new(seed ^ 0x7072_6f62);
    let mut threads = vec![
        ThreadTrace {
            values: Vec::new(),
            sites: Some(Vec::new()),
            kinds: Some(Vec::new()),
        };
        2
    ];
    for (clock, &tid) in order.iter().enumerate() {
        let t = &mut threads[usize::from(tid)];
        t.values.push(clock as u64);
        let kind = if rng.below(4) == 0 {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        t.sites
            .as_mut()
            .expect("built with sites")
            .push(probe_site(rng.below(4)).raw());
        t.kinds
            .as_mut()
            .expect("built with kinds")
            .push(kind.code());
    }
    TraceBundle {
        scheme: Scheme::Dc,
        nthreads: 2,
        domains: 1,
        threads,
        st: Vec::new(),
        plan: None,
        edges: Vec::new(),
        checkpoint: None,
    }
}

/// One thread's solo gate loop: 3 loads to 1 store on one site.
fn gate_loop(session: &Arc<Session>, ops: usize, kind_of: impl Fn(usize) -> AccessKind) -> f64 {
    let site = probe_site(0);
    let cell = AtomicU64::new(0);
    let ctx = session.register_thread(0);
    time_loop(ops, |i| {
        let _ = black_box(ctx.try_gate(site, kind_of(i), || cell.fetch_add(1, Ordering::Relaxed)));
    })
}

fn mixed(i: usize) -> AccessKind {
    if i % 4 == 3 {
        AccessKind::Store
    } else {
        AccessKind::Load
    }
}

/// `gate.{st,dc,de}.{record,replay}_solo_ns`, indexed `[scheme][mode]`.
pub fn gate_solo(seconds: f64) -> [[Summary; 2]; 3] {
    let effort = Effort::for_budget(seconds);
    let ops = effort.size(SOLO_OPS);
    Scheme::ALL.map(|scheme| {
        let mut record = Vec::new();
        let mut replay = Vec::new();
        for _ in 0..effort.samples {
            let session = Session::record_with(scheme, 1, SessionConfig::default());
            record.push(gate_loop(&session, ops, mixed));
            let bundle = session
                .finish()
                .ok()
                .and_then(|r| r.bundle)
                .expect("a solo recording finishes with a bundle");
            let session = Session::replay_with(bundle, SessionConfig::default())
                .expect("a just-recorded bundle replays");
            replay.push(gate_loop(&session, ops, mixed));
            let _ = session.finish();
        }
        [Summary::of(&record), Summary::of(&replay)]
    })
}

fn gate_rows(effort: Effort, rows: &mut Vec<Row>) {
    let ops = effort.size(SOLO_OPS);
    rows.push((
        "gate.passthrough_solo_ns".into(),
        effort.sample(|| {
            let session = Session::passthrough(1);
            let ns = gate_loop(&session, ops, mixed);
            let _ = session.finish();
            ns
        }),
        "ns",
    ));
    for (name, kind) in [
        ("load", AccessKind::Load),
        ("store", AccessKind::Store),
        ("critical", AccessKind::Critical),
        ("atomic", AccessKind::AtomicRmw),
    ] {
        rows.push((
            format!("gate.{name}.record_solo_ns"),
            effort.sample(|| {
                let session = Session::record_with(Scheme::Dc, 1, SessionConfig::default());
                let ns = gate_loop(&session, ops, |_| kind);
                let _ = session.finish();
                ns
            }),
            "ns",
        ));
    }
}

fn primitive_rows(env: &Env, effort: Effort, rows: &mut Vec<Row>) {
    let ops = effort.size(SOLO_OPS);
    let rounds = effort.size(HANDOFF_ROUNDS);
    let spin = SpinConfig::default();
    let site = probe_site(0);

    let word = Padded::default();
    rows.push((
        "machine.handoff_ns".into(),
        effort.sample(|| {
            word.0.store(0, Ordering::Relaxed);
            handoff(
                env,
                rounds,
                |i| {
                    wait_for(&word.0, 2 * i as u64);
                    word.0.store(2 * i as u64 + 1, Ordering::Release);
                },
                |i| {
                    wait_for(&word.0, 2 * i as u64 + 1);
                    word.0.store(2 * i as u64 + 2, Ordering::Release);
                },
            )
        }),
        "ns",
    ));

    rows.push((
        "clock.ticket_cycle_ns".into(),
        effort.sample(|| {
            let gate = TicketGate::new();
            time_loop(ops, |_| gate.exit(black_box(gate.enter())))
        }),
        "ns",
    ));
    rows.push((
        "clock.ticket_handoff_ns".into(),
        effort.sample(|| {
            let gate = TicketGate::new();
            paced_handoff(env, rounds, |_| gate.exit(gate.enter()))
        }),
        "ns",
    ));

    rows.push((
        "clock.turnstile_cycle_ns".into(),
        effort.sample(|| {
            let (turnstile, stats) = (Turnstile::new(), Stats::new());
            time_loop(ops, |i| {
                let _ = black_box(turnstile.wait_exact(i as u64, 0, site, &spin, &stats));
                turnstile.advance(&stats);
            })
        }),
        "ns",
    ));
    rows.push((
        "clock.turnstile_handoff_ns".into(),
        effort.sample(|| {
            // Clocks alternate between the threads, as in a replay whose
            // every access changes hands; each thread counts into its own
            // `Stats`, so only the turnstile word is shared.
            let turnstile = Turnstile::new();
            let (stats_a, stats_b) = (Stats::new(), Stats::new());
            handoff(
                env,
                rounds,
                |i| {
                    let _ = turnstile.wait_exact(2 * i as u64, 0, site, &spin, &stats_a);
                    turnstile.advance(&stats_a);
                },
                |i| {
                    let _ = turnstile.wait_exact(2 * i as u64 + 1, 1, site, &spin, &stats_b);
                    turnstile.advance(&stats_b);
                },
            )
        }),
        "ns",
    ));
    rows.push((
        "clock.global_tick_ns".into(),
        effort.sample(|| {
            let clock = GlobalClock::new();
            time_loop(ops, |_| {
                black_box(clock.tick());
            })
        }),
        "ns",
    ));

    rows.push((
        "sync.baton_cycle_ns".into(),
        effort.sample(|| {
            let baton = BatonLock::new();
            time_loop(ops, |_| {
                black_box(baton.try_acquire());
                baton.release();
            })
        }),
        "ns",
    ));
    rows.push((
        "sync.baton_handoff_ns".into(),
        effort.sample(|| {
            // ST replay's shape: one thread takes the baton, the other
            // gives it back.
            let baton = BatonLock::new();
            paced_handoff(env, rounds, |partner| {
                if partner {
                    baton.release();
                } else {
                    assert!(baton.try_acquire(), "the partner released the baton");
                }
            })
        }),
        "ns",
    ));

    rows.push((
        "epoch.observe_ns".into(),
        effort.sample(|| {
            let mut tracker = EpochTracker::new(EpochPolicy::default(), 64);
            let ns = time_loop(ops, |i| {
                let addr = (i % 4) as u64;
                black_box(tracker.observe(
                    (i % 2) as u32,
                    probe_site(addr),
                    addr,
                    mixed(i),
                    i as u64,
                ));
            });
            black_box(tracker.flush());
            ns
        }),
        "ns",
    ));
}

/// The `(values, sites, kinds)` chunks of one thread trace.
fn chunks(trace: &ThreadTrace) -> Vec<(&[u64], &[u64], &[u8])> {
    let sites = trace.sites.as_deref().expect("probe has sites");
    let kinds = trace.kinds.as_deref().expect("probe has kinds");
    trace
        .values
        .chunks(CHUNK)
        .zip(sites.chunks(CHUNK))
        .zip(kinds.chunks(CHUNK))
        .map(|((v, s), k)| (v, s, k))
        .collect()
}

fn persistence_rows(seed: u64, env: &Env, effort: Effort, rows: &mut Vec<Row>) {
    let probe = probe_bundle(seed, effort.size(PROBE_RECORDS));
    let records = probe.total_records() as f64;
    let thread0 = &probe.threads[0];
    let thread0_records = thread0.values.len() as f64;
    let per_record = |t0: Instant| t0.elapsed().as_nanos() as f64 / records;

    for (name, compress) in [("encode", false), ("encode_rle", true)] {
        let mut bytes = 0usize;
        rows.push((
            format!("codec.{name}_ns_per_rec"),
            effort.sample(|| {
                let t0 = Instant::now();
                bytes = chunks(thread0)
                    .into_iter()
                    .map(|(v, s, k)| {
                        codec::encode_thread_chunk_opt(v, Some(s), Some(k), compress).len()
                    })
                    .sum();
                t0.elapsed().as_nanos() as f64 / thread0_records
            }),
            "ns",
        ));
        let name = if compress { "rle" } else { "plain" };
        rows.push((
            format!("codec.{name}_bytes_per_rec"),
            Summary::exact(bytes as f64 / thread0_records),
            "B",
        ));
    }

    // Decoding needs a whole record file (header + chunks); the stores
    // write one, with and without the RLE stage.
    for (name, compress) in [("decode", false), ("decode_rle", true)] {
        let dir = env.fresh_dir("layer-codec");
        let file = DirStore::new(&dir)
            .save_chunked_opt(&probe, CHUNK, compress)
            .ok()
            .and_then(|_| std::fs::read(dir.join("thread_0.rtrc")).ok())
            .unwrap_or_default();
        rows.push((
            format!("codec.{name}_ns_per_rec"),
            effort.sample(|| {
                let t0 = Instant::now();
                let decoded = codec::decode_thread_records(black_box(&file));
                let ns = t0.elapsed().as_nanos() as f64 / thread0_records;
                assert!(decoded.is_ok_and(|d| d.trace.values.len() == thread0.values.len()));
                ns
            }),
            "ns",
        ));
        let _ = std::fs::remove_dir_all(dir);
    }

    rows.push((
        "store.mem_save_ns_per_rec".into(),
        effort.sample(|| {
            let store = MemStore::new();
            let t0 = Instant::now();
            let saved = store.save(&probe);
            let ns = per_record(t0);
            assert!(saved.is_ok());
            ns
        }),
        "ns",
    ));
    rows.push((
        "store.dir_save_ns_per_rec".into(),
        effort.sample(|| {
            let dir = env.fresh_dir("layer-save");
            let t0 = Instant::now();
            let saved = DirStore::new(&dir).save(&probe);
            let ns = per_record(t0);
            assert!(saved.is_ok());
            let _ = std::fs::remove_dir_all(dir);
            ns
        }),
        "ns",
    ));
    let chunked = env.fresh_dir("layer-chunked");
    rows.push((
        "store.dir_save_chunked_ns_per_rec".into(),
        effort.sample(|| {
            let t0 = Instant::now();
            let saved = DirStore::new(&chunked).save_chunked_opt(&probe, CHUNK, true);
            let ns = per_record(t0);
            assert!(saved.is_ok());
            ns
        }),
        "ns",
    ));
    rows.push((
        "store.dir_load_ns_per_rec".into(),
        effort.sample(|| {
            let t0 = Instant::now();
            let loaded = DirStore::new(&chunked).load();
            let ns = per_record(t0);
            assert!(loaded.is_ok_and(|(b, _)| b.total_records() == probe.total_records()));
            ns
        }),
        "ns",
    ));
    let _ = std::fs::remove_dir_all(chunked);

    // The streaming sink: appends and the commit, timed apart.
    let mut append = Vec::new();
    let mut commit = Vec::new();
    let mut io = None;
    for _ in 0..effort.samples {
        let dir = env.fresh_dir("layer-stream");
        let opts = RecordOptions::new(Scheme::Dc, 2, 1, true).with_compression(true);
        let sink = DirStore::new(&dir)
            .begin_record(opts)
            .expect("a fresh directory accepts a recording");
        let t0 = Instant::now();
        for (tid, trace) in probe.threads.iter().enumerate() {
            for (v, s, k) in chunks(trace) {
                sink.append_thread_chunk(0, tid as u32, v, Some(s), Some(k))
                    .expect("chunk appended");
            }
        }
        append.push(per_record(t0));
        let t0 = Instant::now();
        io = sink.commit(probe.total_records()).ok();
        commit.push(t0.elapsed().as_nanos() as f64 / 1e3);
        let _ = std::fs::remove_dir_all(dir);
    }
    let io = io.unwrap_or_default();
    rows.push((
        "store.stream_append_ns_per_rec".into(),
        Summary::of(&append),
        "ns",
    ));
    rows.push(("store.commit_us".into(), Summary::of(&commit), "us"));
    rows.push((
        "store.chunks_per_mrec".into(),
        Summary::exact(io.chunks as f64 / records * 1e6),
        "count",
    ));
    rows.push((
        "store.files".into(),
        Summary::exact(io.files as f64),
        "count",
    ));

    rows.push((
        "verify.ns_per_rec".into(),
        effort.sample(|| {
            let t0 = Instant::now();
            let report = Verifier::new().verify(&probe);
            let ns = per_record(t0);
            assert!(report.is_clean(), "{report}");
            ns
        }),
        "ns",
    ));
    rows.push((
        "racedet.offline_ns_per_rec".into(),
        effort.sample(|| {
            let t0 = Instant::now();
            let report = racedet::offline::offline_report(&probe);
            let ns = per_record(t0);
            assert!(report.is_ok());
            ns
        }),
        "ns",
    ));
}

fn flight_rows(effort: Effort, rows: &mut Vec<Row>) {
    let ops = effort.size(SOLO_OPS);
    let mut record = Vec::new();
    let mut dump = Vec::new();
    let mut peak = 0;
    for _ in 0..effort.samples {
        let cfg = SessionConfig {
            flight: Some(4),
            ..SessionConfig::default()
        };
        let session = Session::record_flight(Scheme::Dc, 1, cfg, MemStore::new())
            .expect("an in-memory flight recording starts");
        record.push(gate_loop(&session, ops, mixed));
        let t0 = Instant::now();
        let dumped = session.dump(DumpTrigger::Manual);
        dump.push(t0.elapsed().as_nanos() as f64 / 1e3);
        assert!(dumped.is_ok());
        peak = session
            .finish()
            .ok()
            .and_then(|r| r.io)
            .map_or(0, |io| io.retained_peak);
    }
    rows.push(("flight.record_ns_per_op".into(), Summary::of(&record), "ns"));
    rows.push(("flight.dump_us".into(), Summary::of(&dump), "us"));
    rows.push((
        "flight.retained_peak".into(),
        Summary::exact(peak as f64),
        "count",
    ));
}

fn ompr_rows(env: &Env, effort: Effort, rows: &mut Vec<Row>) {
    let ops = effort.size(SOLO_OPS / 2);
    rows.push((
        "ompr.fork_join_us".into(),
        effort.sample(|| {
            let rt = Runtime::new(Session::passthrough(2));
            time_loop(effort.size(2_000), |_| {
                rt.parallel(|w| {
                    black_box(w.tid());
                })
            }) / 1e3
        }),
        "us",
    ));
    rows.push((
        "ompr.barrier_ns".into(),
        effort.sample(|| {
            let rounds = effort.size(HANDOFF_ROUNDS);
            let ns = AtomicU64::new(0);
            Runtime::new(Session::passthrough(2)).parallel(|w| {
                env.pin(w.tid());
                w.barrier();
                let per = time_loop(rounds, |_| w.barrier());
                if w.tid() == 0 {
                    ns.store(per.to_bits(), Ordering::Relaxed);
                }
            });
            f64::from_bits(ns.load(Ordering::Relaxed))
        }),
        "ns",
    ));

    // The constructs on one thread of a DC recording: next to
    // `gate.*.record_solo_ns`, the difference is ompr's own layer.
    let solo = |body: &(dyn Fn(&ompr::Worker, usize) + Sync)| {
        let ns = AtomicU64::new(0);
        let session = Session::record_with(Scheme::Dc, 1, SessionConfig::default());
        Runtime::new(Arc::clone(&session)).parallel(|w| {
            env.pin(0);
            ns.store(time_loop(ops, |i| body(w, i)).to_bits(), Ordering::Relaxed);
        });
        let _ = session.finish();
        f64::from_bits(ns.load(Ordering::Relaxed))
    };
    let section = Critical::new("perfbench:layer:critical");
    rows.push((
        "ompr.critical_solo_ns".into(),
        effort.sample(|| solo(&|w, _| w.critical(&section, || ()))),
        "ns",
    ));
    let reduction = Reduction::sum_f64("perfbench:layer:reduction");
    rows.push((
        "ompr.reduce_ns".into(),
        effort.sample(|| solo(&|w, _| w.reduce(&reduction, 1.0))),
        "ns",
    ));
    let cell = RacyCell::new("perfbench:layer:racy", 0.0f64);
    rows.push((
        "ompr.racy_update_solo_ns".into(),
        effort.sample(|| solo(&|w, _| w.racy_update(&cell, |v| v + 1.0))),
        "ns",
    ));
}

fn rmpi_rows(seed: u64, env: &Env, effort: Effort, rows: &mut Vec<Row>) {
    let events = effort.size(SOLO_OPS);
    rows.push((
        "rmpi.sendrecv_ns".into(),
        effort.sample(|| {
            let session = Arc::new(MpiSession::passthrough(1));
            World::run(1, session, |rank| {
                time_loop(events / 4, |i| {
                    rank.send(0, (i % 16) as u32, &[0u8; 8])
                        .expect("send to self");
                    black_box(rank.recv(ANY_SOURCE, ANY_TAG, None)).expect("receive from self");
                })
            })[0]
        }),
        "ns",
    ));

    let mut rng = Rng::new(seed ^ 0x726d_7069);
    let tags: Vec<u32> = (0..events).map(|_| rng.below(16) as u32).collect();
    let mut trace = MpiTrace::default();
    rows.push((
        "rmpi.log_recv_ns".into(),
        effort.sample(|| {
            let session = MpiSession::record(1);
            let ns = time_loop(events, |i| session.log_recv(0, 0, 0, tags[i]));
            trace = session.finish();
            ns
        }),
        "ns",
    ));
    rows.push((
        "rmpi.next_recv_ns".into(),
        effort.sample(|| {
            let session = MpiSession::replay(trace.clone());
            time_loop(events, |_| {
                let _ = black_box(session.next_recv(0, 0));
            })
        }),
        "ns",
    ));
    let per_event = |t0: Instant| t0.elapsed().as_nanos() as f64 / events as f64;
    let dir = env.fresh_dir("layer-rmpi");
    let mut bytes = 0;
    rows.push((
        "rmpi.save_dir_ns_per_evt".into(),
        effort.sample(|| {
            let t0 = Instant::now();
            bytes = trace.save_dir(&dir).expect("rmpi trace saved");
            per_event(t0)
        }),
        "ns",
    ));
    rows.push((
        "rmpi.load_dir_ns_per_evt".into(),
        effort.sample(|| {
            let t0 = Instant::now();
            let loaded = MpiTrace::load_dir(&dir);
            let ns = per_event(t0);
            assert!(loaded.is_ok_and(|t| t.total_events() == events as u64));
            ns
        }),
        "ns",
    ));
    let _ = std::fs::remove_dir_all(dir);
    rows.push((
        "rmpi.bytes_per_evt".into(),
        Summary::exact(bytes as f64 / events as f64),
        "B",
    ));
    rows.push((
        "rmpi.verify_ns_per_evt".into(),
        effort.sample(|| {
            let t0 = Instant::now();
            let report = MpiVerifier::new().verify(&trace);
            let ns = per_event(t0);
            assert!(report.is_clean(), "{report}");
            ns
        }),
        "ns",
    ));
}

/// The paper's Table IX/X shape on two mini-apps: time of every mode over
/// the passthrough time. Informational: `ompr` spawns these threads, so
/// they run unpinned, wherever the scheduler puts them.
fn miniapp_rows(env: &Env, effort: Effort, rows: &mut Vec<Row>) {
    type App = (&'static str, fn(&Runtime) -> u64);
    let apps: [App; 2] = [
        ("hacc", |rt| {
            miniapps::hacc::run(rt, &miniapps::hacc::Config::scaled(8)).checksum
        }),
        ("hpccg", |rt| {
            miniapps::hpccg::run(rt, &miniapps::hpccg::Config::scaled(32)).checksum
        }),
    ];
    // Threads inherit the spawning thread's mask: give it both CPUs back.
    env.cpus.unpin();
    let seconds = |t0: Instant| t0.elapsed().as_secs_f64();
    for (name, app) in apps {
        let pass = effort.sample(|| {
            let session = Session::passthrough(2);
            let t0 = Instant::now();
            black_box(app(&Runtime::new(Arc::clone(&session))));
            let s = seconds(t0);
            let _ = session.finish();
            s
        });
        rows.push((format!("miniapps.{name}.pass_s"), pass, "s"));
        for scheme in Scheme::ALL {
            let mut record = Vec::new();
            let mut replay = Vec::new();
            for _ in 0..effort.samples {
                let session = Session::record(scheme, 2);
                let t0 = Instant::now();
                let recorded = app(&Runtime::new(Arc::clone(&session)));
                let report = session.finish();
                record.push(seconds(t0) / pass.median);
                let bundle = report
                    .ok()
                    .and_then(|r| r.bundle)
                    .expect("a recording finishes with a bundle");
                let t0 = Instant::now();
                let session = Session::replay(bundle).expect("a just-recorded bundle replays");
                let replayed = app(&Runtime::new(Arc::clone(&session)));
                let report = session.finish();
                replay.push(seconds(t0) / pass.median);
                assert!(
                    replayed == recorded && report.is_ok_and(|r| r.failure.is_none()),
                    "{name} {scheme} replay diverged"
                );
            }
            let s = scheme.name();
            rows.push((
                format!("miniapps.{name}.{s}_rec_x"),
                Summary::of(&record),
                "ratio",
            ));
            rows.push((
                format!("miniapps.{name}.{s}_rep_x"),
                Summary::of(&replay),
                "ratio",
            ));
        }
    }
    env.pin(0);
}

/// Every per-layer metric that does not depend on the workload.
pub fn isolated(seed: u64, env: &Env, seconds: f64) -> Vec<Row> {
    let effort = Effort::for_budget(seconds);
    let mut rows = Vec::new();
    primitive_rows(env, effort, &mut rows);
    gate_rows(effort, &mut rows);
    persistence_rows(seed, env, effort, &mut rows);
    flight_rows(effort, &mut rows);
    ompr_rows(env, effort, &mut rows);
    rmpi_rows(seed, env, effort, &mut rows);
    miniapp_rows(env, effort, &mut rows);
    rows
}
