//! Replay is a recording: one admission-order oracle (`common::oracle`)
//! over one generated app × scheme × D × sink matrix.
//!
//! * **Apps**: the five miniapps, plus one seeded program from
//!   `prop_record_replay`'s generator with aliased sites.
//! * **Schemes**: ST, DC, DE.
//! * **D ∈ {1, 4}**: the D = 4 plan is `racedet::domain_plan` over a
//!   detection run of the same app — the toolflow's plan, which the
//!   soundness contract covers.
//! * **Sinks**: buffered (`record_with`), streaming
//!   (`record_streaming_with` into a `DirStore`, then `load`), flight
//!   (`record_flight` with a window that evicts nothing, dumped, loaded).
//!
//! Every cell records, requires a clean `Verifier::verify`, replays, and
//! checks the oracle on both runs' logs, output equality, `failure ==
//! None`, `fully_consumed == Some(true)` and the edge waits the bundle
//! owes; the oracle must also reject the recording against the bundle
//! with two records of different threads traded ([`sabotage`]).
//!
//! Below the matrix, targeted tests: oversubscription, the hybrid halo,
//! the environment round trip, a thread-count mismatch. Replay of an
//! evicting flight window is `flight_recorder.rs`'s, under the same oracle.

mod common;

use common::oracle::{check, records_of, AdmissionLog, Log};
use common::program::{execute, op_strategy, Op};
use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use reomp::core::analysis::summarize;
use reomp::core::stats::GateCounts;
use reomp::core::StatsSnapshot;
use reomp::miniapps::{self, halo};
use reomp::ompr::events::NullSink;
use reomp::ompr::{EventSink, Runtime};
use reomp::{
    racedet, AccessKind, DirStore, DomainPlan, DumpTrigger, Mode, Scheme, Session, SessionConfig,
    SessionReport, SiteId, TraceBundle, TraceStore, Verifier,
};
use std::sync::Arc;
use std::time::Duration;

const THREADS: u32 = 4;

/// `bundle` with the records of two accesses of different threads that
/// ran back to back in one domain traded — DC and DE swap their values,
/// ST moves one entry past the other — so that it is still a well-formed
/// recording (it validates, linearizes, and keeps each thread's own
/// order) but orders the two the other way round. `None` when no log has
/// such a pair.
fn sabotage(bundle: &TraceBundle, log: &Log) -> Option<TraceBundle> {
    let stream = |dom: usize, t: u32| dom * bundle.nthreads as usize + t as usize;
    let ran = records_of(bundle, log).ok()?;
    let pairs = ran
        .iter()
        .enumerate()
        .flat_map(|(dom, ran)| ran.windows(2).map(move |w| (dom, w[0], w[1])));
    pairs
        .filter(|(_, a, b)| a.thread != b.thread && a.value != b.value)
        .find_map(|(dom, a, b)| {
            let mut bad = bundle.clone();
            if let Some(st) = bad.st.get_mut(dom) {
                // The stream is positional: move whichever of the two has
                // no entry of its own thread in between past the other.
                let (i, j) = (a.seq as usize, b.seq as usize);
                let between = &st.tids[i + 1..j];
                let (from, to) = match (between.contains(&a.thread), between.contains(&b.thread)) {
                    (false, _) => (i, j),
                    (true, false) => (j, i),
                    (true, true) => return None,
                };
                shift(&mut st.tids, from, to);
                st.sites.iter_mut().for_each(|s| shift(s, from, to));
                st.kinds.iter_mut().for_each(|k| shift(k, from, to));
            } else {
                bad.threads[stream(dom, a.thread)].values[a.seq as usize] = b.value;
                bad.threads[stream(dom, b.thread)].values[b.seq as usize] = a.value;
                let rising = |t| bad.threads[stream(dom, t)].values.is_sorted();
                if !(rising(a.thread) && rising(b.thread)) {
                    return None;
                }
            }
            (bad.validate().is_ok() && bad.linearize().consistent).then_some(bad)
        })
}

/// Move `v[from]` to index `to`, keeping the order of the rest.
fn shift<T>(v: &mut [T], from: usize, to: usize) {
    match from < to {
        true => v[from..=to].rotate_left(1),
        false => v[to..=from].rotate_right(1),
    }
}

/// A matrix row: one of the five miniapps, or the seeded program.
#[derive(Debug, Clone, Copy, PartialEq)]
enum App {
    Mini(miniapps::App),
    Seeded,
}

const MINIFE: App = App::Mini(miniapps::App::MiniFe);

#[derive(Debug, Clone, Copy, PartialEq)]
enum Sink {
    Buffered,
    Streaming,
    Flight,
}

/// `prop_record_replay`'s generator with aliases on, at a fixed seed.
fn seeded_program() -> Vec<Vec<Op>> {
    let per_thread = proptest::collection::vec(op_strategy(true), 24..40);
    let programs = proptest::collection::vec(per_thread, THREADS as usize..=THREADS as usize);
    programs.generate(&mut TestRng::from_seed(0x5eed_0040))
}

/// Run `app` under `session` with `sink` attached; its output, printed.
fn run(app: App, session: &Arc<Session>, sink: Arc<dyn EventSink>) -> String {
    let rt = Runtime::new(Arc::clone(session)).with_sink(Arc::clone(&sink));
    match app {
        // QuickSilver at four times the test size: at one, a thread that
        // claims every chunk before the others start often runs them all.
        App::Mini(app) => {
            let scale = if app == miniapps::App::QuickSilver {
                4
            } else {
                1
            };
            format!("{:?}", app.run_scaled(&rt, scale))
        }
        App::Seeded => format!("{:?}", execute(&seeded_program(), session, Some(&sink))),
    }
}

/// The toolflow's D = 4 plan: detect races in a passthrough run, then
/// co-locate every racing site group.
fn toolflow_plan(app: App) -> DomainPlan {
    let detector = Arc::new(racedet::Detector::new(THREADS));
    let session = Session::passthrough(THREADS);
    run(app, &session, detector.clone());
    session.finish().unwrap();
    racedet::domain_plan(&detector.report(), 4)
}

/// Replay `bundle` under a generous watchdog: the log, output and report.
fn replay(app: App, bundle: TraceBundle) -> (Log, String, SessionReport) {
    let mut cfg = SessionConfig::default();
    cfg.spin.timeout = Some(Duration::from_secs(300));
    let session = Session::replay_with(bundle, cfg).unwrap();
    let log = AdmissionLog::new(&session);
    let output = run(app, &session, log.clone());
    (log.take(), output, session.finish().unwrap())
}

/// Record `app` through `sink`: the bundle, the oracle's log, the output
/// and the per-thread counters, after the record-side checks.
fn record(
    app: App,
    scheme: Scheme,
    plan: &DomainPlan,
    sink: Sink,
    tag: &str,
) -> (TraceBundle, Log, String, Vec<StatsSnapshot>) {
    let (pid, cell) = (std::process::id(), tag.replace('/', "-"));
    let dir = std::env::temp_dir().join(format!("reomp-matrix-{pid}-{cell}"));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DirStore::new(&dir);
    let mut cfg = SessionConfig {
        plan: Some(plan.clone()),
        ..SessionConfig::default()
    };
    // The persisting sinks flush small chunks, so runs commit many.
    if sink != Sink::Buffered {
        cfg.flush_records = 64;
    }
    let session = match sink {
        Sink::Buffered => Session::record_with(scheme, THREADS, cfg),
        Sink::Streaming => Session::record_streaming_with(scheme, THREADS, cfg, &store).unwrap(),
        Sink::Flight => {
            cfg.flight = Some(1 << 16);
            Session::record_flight(scheme, THREADS, cfg, DirStore::new(&dir)).unwrap()
        }
    };
    let log = AdmissionLog::new(&session);
    let output = run(app, &session, log.clone());
    if sink == Sink::Flight {
        session.dump(DumpTrigger::Manual).unwrap();
    }
    let report = session.finish().unwrap();
    if plan.domains() > 1 {
        let gates: u64 = report.domain_gates.iter().sum();
        assert_eq!(gates, report.stats.gates, "{tag}: per-domain gates sum up");
    }
    let bundle = match sink {
        Sink::Buffered => report.bundle.unwrap(),
        _ => store.load().unwrap().0,
    };
    if sink == Sink::Flight {
        assert_eq!(report.io.unwrap().evicted, 0, "{tag}");
    }
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(bundle.domains, plan.domains(), "{tag}");
    let verified = Verifier::new().verify(&bundle);
    assert!(verified.is_clean(), "{tag}: {verified}");
    (bundle, log.take(), output, report.thread_stats)
}

/// One matrix cell.
fn cell(app: App, scheme: Scheme, plan: &DomainPlan, sink: Sink) {
    let tag = format!("{app:?}/{scheme}/D={}/{sink:?}", plan.domains());
    // A recording in which one thread ran every logged access (the others
    // found a dynamic loop drained) has no two to trade: record again.
    let (bundle, recorded, output, rec_stats) = (0..12)
        .map(|_| record(app, scheme, plan, sink, &tag))
        .find(|(bundle, log, ..)| sabotage(bundle, log).is_some())
        .unwrap_or_else(|| panic!("{tag}: one thread ran every access"));
    check(&bundle, &recorded).unwrap_or_else(|e| panic!("{tag}: record: {e}"));
    if plan.domains() > 1 && app != App::Seeded {
        assert!(!bundle.edges.is_empty(), "{tag}: barriers stamp edges");
    }
    let (replayed, out, report) = replay(app, bundle.clone());
    assert_eq!(report.failure, None, "{tag}");
    assert_eq!(report.fully_consumed, Some(true), "{tag}");
    assert_eq!(out, output, "{tag}: output");
    check(&bundle, &replayed).unwrap_or_else(|e| panic!("{tag}: replay: {e}"));
    if scheme != Scheme::De {
        assert_eq!(replayed, recorded, "{tag}");
    }
    let owed = bundle.edge_index().values().map(Vec::len).sum::<usize>();
    assert_eq!(report.stats.edge_waits, owed as u64, "{tag}: edge waits");
    // Both runs' gate counts are the bundle's, as `summarize` prints them.
    let (counts, summary) = (GateCounts::of(&bundle), summarize(&bundle));
    let mut all = StatsSnapshot::default();
    for (tid, t) in counts.threads.iter().enumerate() {
        let (rec, rep) = (&rec_stats[tid], &report.thread_stats[tid]);
        let want = (t.gates, t.gates_by_kind, t.gates);
        let got = (
            rec.records_written,
            rec.gates_by_kind,
            summary.per_thread[tid],
        );
        assert_eq!(got, want, "{tag}: t{tid} record");
        let got = (rep.records_read, rep.gates_by_kind, rep.validate_checks);
        assert_eq!(
            got,
            (t.gates, t.gates_by_kind, t.validate_checks),
            "{tag}: t{tid} replay"
        );
        all.absorb(t);
    }
    for kind in AccessKind::ALL {
        let printed = summary.kinds.get(kind.name()).copied().unwrap_or(0);
        assert_eq!(printed, all.gates_of(kind), "{tag}: {kind}");
    }
    let bad = sabotage(&bundle, &recorded).expect("found above");
    assert!(
        check(&bad, &recorded).is_err(),
        "{tag}: the oracle missed a swap"
    );
}

/// Every app × scheme × sink cell, under the plan `plan` gives each app.
fn matrix(plan: impl Fn(App) -> DomainPlan) {
    let apps = miniapps::App::ALL.map(App::Mini);
    for app in apps.into_iter().chain([App::Seeded]) {
        let plan = plan(app);
        for scheme in Scheme::ALL {
            for sink in [Sink::Buffered, Sink::Streaming, Sink::Flight] {
                cell(app, scheme, &plan, sink);
            }
        }
    }
}

/// The matrix at D = 1.
#[test]
fn every_app_replays_bitwise_under_every_scheme() {
    matrix(|_| DomainPlan::new(1));
}

/// The matrix at D = 4, under the toolflow's plans; the seeded program's
/// aliases share a domain there.
#[test]
fn apps_replay_divergence_free_across_domain_counts() {
    let plan = toolflow_plan(App::Seeded);
    let mut aliased = 0;
    for op in seeded_program().into_iter().flatten() {
        if let Op::Alias(c) = op {
            aliased += 1;
            let cell = SiteId::from_label(&format!("prop:cell{c}"));
            let alias = SiteId::from_label(&format!("prop:alias{c}"));
            assert_eq!(plan.domain_of(cell), plan.domain_of(alias), "cell {c}");
        }
    }
    assert!(aliased > 0, "the seed generates alias stores");
    matrix(toolflow_plan);
}

/// A thread count above the cores: twice them, within 8..=16.
fn oversubscribed() -> u32 {
    let cores = std::thread::available_parallelism().map_or(2, |n| n.get() as u32);
    (2 * cores).clamp(8, 16)
}

/// Replay with more threads than cores: waits yield instead of spinning
/// forever, and a generous watchdog (what `REOMP_SPIN_TIMEOUT` configures
/// from the environment) must not fire spuriously — the case that used
/// to hit `ReplayError::Timeout` on loaded CI boxes.
#[test]
fn oversubscribed_replay_does_not_trip_watchdog() {
    let threads = oversubscribed();
    for scheme in Scheme::ALL {
        for domains in [1u32, 4] {
            let tag = format!("{scheme}/D={domains}/threads={threads}");
            let mut cfg = SessionConfig {
                plan: Some(DomainPlan::new(domains)),
                ..SessionConfig::default()
            };
            cfg.spin.timeout = Some(Duration::from_secs(300));
            let session = Session::record_with(scheme, threads, cfg.clone());
            let recorded = run(MINIFE, &session, Arc::new(NullSink));
            let bundle = session.finish().unwrap().bundle.unwrap();

            let session = Session::replay_with(bundle.clone(), cfg).unwrap();
            let log = AdmissionLog::new(&session);
            let replayed = run(MINIFE, &session, log.clone());
            let report = session.finish().unwrap();
            assert_eq!(report.failure, None, "{tag}");
            assert_eq!(replayed, recorded, "{tag}");
            check(&bundle, &log.take()).unwrap_or_else(|e| panic!("{tag}: {e}"));
        }
    }
}

/// Two ranks of a 16-cell hybrid halo, `(steps, seed)`.
fn halo_config(
    threads: u32,
    mpi_domains: u32,
    scheme: Scheme,
    (steps, seed): (u64, u64),
) -> halo::HybridConfig {
    halo::HybridConfig {
        cells: 16,
        steps,
        ranks: 2,
        threads,
        scheme,
        mpi_domains,
        site_groups: 2,
        seed,
        replay_timeout: Some(Duration::from_secs(300)),
    }
}

/// The rmpi counterpart: the hybrid halo driver records (rank × domain)
/// receive streams and replays them bit-identically for every domain
/// count.
#[test]
fn hybrid_halo_replays_across_mpi_domain_counts() {
    for domains in [1, 2, 4] {
        for scheme in [Scheme::De, Scheme::Dc] {
            let tag = format!("halo/{scheme}/D={domains}");
            let cfg = halo_config(2, domains, scheme, (4, 11));
            let (recorded, traces) = halo::run_hybrid_record(&cfg);
            assert_eq!(traces.mpi.domains, domains, "{tag}");
            traces
                .mpi
                .validate()
                .unwrap_or_else(|e| panic!("{tag}: {e}"));
            assert!(traces.mpi.total_events() > 0, "{tag}");
            let replayed = halo::run_hybrid_replay(&cfg, traces);
            assert_eq!(replayed, recorded, "{tag}");
        }
    }
}

/// More rank threads than cores, multi-domain on both layers: replay
/// waits yield instead of spinning and a generous watchdog must not fire.
#[test]
fn hybrid_halo_oversubscribed_replay_stays_divergence_free() {
    let threads = oversubscribed();
    let cfg = halo_config(threads, 4, Scheme::De, (3, 23));
    let (recorded, traces) = halo::run_hybrid_record(&cfg);
    let replayed = halo::run_hybrid_replay(&cfg, traces);
    assert_eq!(replayed, recorded, "threads={threads}");
}

#[test]
fn replay_with_different_thread_count_fails_cleanly() {
    let session = Session::record(Scheme::Dc, 3);
    let _ = run(App::Mini(miniapps::App::Amg), &session, Arc::new(NullSink));
    let bundle = session.finish().unwrap().bundle.unwrap();

    // Registering a tid beyond the recorded count must panic (contract),
    // not silently mis-replay. Probe from a scoped thread so the panic is
    // observed through the join handle.
    let session = Session::replay(bundle).unwrap();
    let panicked = std::thread::scope(|s| {
        s.spawn(|| {
            let _ = session.register_thread(3);
        })
        .join()
        .is_err()
    });
    assert!(panicked, "tid out of range must be rejected");
}

#[test]
fn scheme_env_roundtrip_matches_direct_construction() {
    // An env-configured record run streams into `REOMP_DIR`; an
    // env-configured replay loads it back, with nothing saved in between.
    // No other test in this binary reads these three variables.
    let dir = std::env::temp_dir().join(format!("reomp-env-roundtrip-{}", std::process::id()));
    for scheme in Scheme::ALL {
        let _ = std::fs::remove_dir_all(&dir);
        std::env::set_var("REOMP_DIR", &dir);
        std::env::set_var("REOMP_SCHEME", scheme.name());
        std::env::set_var("REOMP_MODE", "record");
        let session = Session::from_env(2).unwrap();
        assert_eq!((session.mode(), session.scheme()), (Mode::Record, scheme));
        let recorded = run(MINIFE, &session, Arc::new(NullSink));
        let report = session.finish().unwrap();
        assert!(report.io.is_some(), "{scheme}: an env record run persists");
        assert_eq!(DirStore::new(&dir).load().unwrap().0.scheme, scheme);

        std::env::set_var("REOMP_MODE", "replay");
        let session = Session::from_env(2).unwrap();
        assert_eq!(session.mode(), Mode::Replay);
        let replayed = run(MINIFE, &session, Arc::new(NullSink));
        let report = session.finish().unwrap();
        assert_eq!(report.failure, None, "{scheme}");
        assert_eq!(report.fully_consumed, Some(true), "{scheme}");
        assert_eq!(replayed, recorded, "{scheme}");
    }
    for var in ["REOMP_DIR", "REOMP_SCHEME", "REOMP_MODE"] {
        std::env::remove_var(var);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
