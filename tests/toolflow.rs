//! Integration: the Fig. 2 toolflow end-to-end — detect, plan, record,
//! replay — including the paper's footnote 1 property ("even if the
//! developers do not fix such bugs, it does not hamper the ability of
//! ReOMP record-and-replay"), and the domain-planned variant: one race
//! report drives one closed `DomainPlan` that says both which sites are
//! gated and where they record.

use reomp::{core::SessionConfig, ompr, racedet, Scheme, Session, TraceStore};
use std::sync::Arc;

struct RacyApp {
    hot: ompr::RacyCell<u64>,
    cold: ompr::RacyCell<u64>,
    cs: ompr::Critical,
}

impl RacyApp {
    fn new() -> Self {
        RacyApp {
            hot: ompr::RacyCell::new("it:hot", 0),
            cold: ompr::RacyCell::new("it:cold", 0),
            cs: ompr::Critical::new("it:cs"),
        }
    }

    fn run(&self, session: &Arc<Session>, detector: Option<Arc<racedet::Detector>>) -> u64 {
        let mut rt = ompr::Runtime::new(Arc::clone(session));
        if let Some(d) = detector {
            rt = rt.with_sink(d);
        }
        rt.parallel(|w| {
            for i in 0..100u64 {
                w.racy_update(&self.hot, |v| v + 1);
                if w.tid() == 0 && i == 50 {
                    // Only thread 0 touches `cold`: never racy.
                    w.racy_store(&self.cold, 7);
                }
                w.critical(&self.cs, || {});
            }
        });
        self.hot.raw_load()
    }
}

#[test]
fn detect_plan_record_replay() {
    let threads = 4;

    // Detect.
    let app = RacyApp::new();
    let detector = Arc::new(racedet::Detector::new(threads));
    let session = Session::passthrough(threads);
    let _ = app.run(&session, Some(Arc::clone(&detector)));
    session.finish().unwrap();
    let report = detector.report();
    assert!(report.racy_sites().contains(&app.hot.site()));
    assert!(
        !report.racy_sites().contains(&app.cold.site()),
        "single-thread accesses are not races"
    );
    assert!(!report.racy_sites().contains(&app.cs.site()));

    // Plan: racy sites + the critical construct.
    let plan = racedet::instrumentation_plan(&report, [app.cs.site()]);

    // Record with the plan: `cold`'s accesses bypass the recorder.
    let cfg = SessionConfig {
        plan: Some(plan),
        ..SessionConfig::default()
    };
    let app = RacyApp::new();
    let session = Session::record_with(Scheme::De, threads, cfg);
    let recorded = app.run(&session, None);
    let report = session.finish().unwrap();
    let bundle = report.bundle.unwrap();
    // hot: 2 gates per iteration per thread; cs: 1; cold: bypassed.
    assert_eq!(
        report.stats.gates,
        u64::from(threads) * 100 * 3,
        "cold accesses must not be gated"
    );

    // Replay under the plan the trace carries.
    let app = RacyApp::new();
    let session = Session::replay(bundle).unwrap();
    let replayed = app.run(&session, None);
    let report = session.finish().unwrap();
    assert_eq!(report.failure, None);
    assert_eq!(replayed, recorded);
}

#[test]
fn detect_plan_record_replay_with_domain_plan() {
    // The full planned pipeline over gate domains: detect → probe record
    // under the planner's unit-weight plan → planner consumes the race
    // report + the run's `domain_gates` frequency feedback → planned
    // record → replay from disk. One race report drives one closed plan.
    let threads = 4;
    let domains = 4;

    // Detect.
    let app = RacyApp::new();
    let detector = Arc::new(racedet::Detector::new(threads));
    let session = Session::passthrough(threads);
    let _ = app.run(&session, Some(Arc::clone(&detector)));
    session.finish().unwrap();
    let report = detector.report();
    assert!(!report.is_clean());

    // Feedback run: record under the planner's unit-weight plan to
    // observe the per-domain gate frequency.
    let planner = racedet::DomainPlanner::new(domains)
        .observe_report(&report)
        .weight(app.cs.site(), 0);
    let probe_plan = planner.clone().build().closed();
    let cfg = SessionConfig {
        plan: Some(probe_plan.clone()),
        ..SessionConfig::default()
    };
    let app = RacyApp::new();
    let session = Session::record_with(Scheme::Dc, threads, cfg);
    let _ = app.run(&session, None);
    let feedback = session.finish().unwrap();
    assert_eq!(feedback.domain_gates.len(), domains as usize);

    // Plan: racing sites co-locate; the critical construct site is
    // weighted by the observed per-domain load; `cold` stays ungated.
    let plan = planner
        .feedback(&probe_plan, &feedback.domain_gates)
        .build()
        .closed();
    let hot_dom = plan.domain_of(app.hot.site());
    assert!(hot_dom < domains);
    assert_eq!(plan.assigned(), 2, "hot + cs sites pinned");
    assert_eq!(plan.route(app.cold.site()), None);

    // Record with the plan, persist to disk (plan + edges travel with the
    // trace), replay from disk.
    let cfg = SessionConfig {
        plan: Some(plan.clone()),
        ..SessionConfig::default()
    };
    let app = RacyApp::new();
    let session = Session::record_with(Scheme::Dc, threads, cfg);
    let recorded = app.run(&session, None);
    let rec_report = session.finish().unwrap();
    assert!(
        rec_report.stats.sync_edges > 0,
        "criticals in a multi-domain run must stamp cross-domain edges"
    );
    let bundle = rec_report.bundle.unwrap();
    assert_eq!(bundle.plan.as_ref(), Some(&plan));
    assert!(!bundle.edges.is_empty());

    let dir = std::env::temp_dir().join(format!("reomp-toolflow-plan-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = reomp::DirStore::new(&dir);
    store.save(&bundle).unwrap();
    let (loaded, _) = store.load().unwrap();
    assert_eq!(loaded, bundle, "plan and edges survive the store");

    let app = RacyApp::new();
    let session = Session::replay(loaded).unwrap();
    let replayed = app.run(&session, None);
    let rep_report = session.finish().unwrap();
    assert_eq!(rep_report.failure, None);
    assert_eq!(rep_report.fully_consumed, Some(true));
    assert_eq!(replayed, recorded, "planned multi-domain replay is exact");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unfixed_races_do_not_hamper_replay() {
    // Footnote 1: users are *advised* to fix races that are actual bugs,
    // but replay works regardless — the racy outcome itself is recorded.
    let threads = 4;
    let app = RacyApp::new();
    let session = Session::record(Scheme::Dc, threads);
    let recorded = app.run(&session, None);
    let bundle = session.finish().unwrap().bundle.unwrap();

    // The recorded value may exhibit lost updates (the "bug")…
    assert!(recorded <= u64::from(threads) * 100);

    // …and replay reproduces exactly that buggy value.
    let app = RacyApp::new();
    let session = Session::replay(bundle).unwrap();
    let replayed = app.run(&session, None);
    assert_eq!(session.finish().unwrap().failure, None);
    assert_eq!(replayed, recorded);
}

#[test]
fn detector_event_stream_through_runtime_is_complete() {
    // The detector sees fork/join/barrier/lock/memory events; sanity-check
    // the volume: every racy access emits exactly one Read or Write.
    let threads = 3;
    let app = RacyApp::new();
    let detector = Arc::new(racedet::Detector::new(threads));
    let session = Session::passthrough(threads);
    let _ = app.run(&session, Some(Arc::clone(&detector)));
    session.finish().unwrap();
    let report = detector.report();
    // hot: 200 accesses per thread (load+store per iteration), cold: 1.
    assert_eq!(
        report.events_analysed,
        u64::from(threads) * 100 * 2   // hot load+store
            + 1                         // cold store
            + u64::from(threads) * 100 * 2 // cs acquire+release
            + u64::from(threads) * 2 // fork+join
    );
}
