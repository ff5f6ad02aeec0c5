//! The full ReOMP toolflow of Fig. 2 — extended with gate-domain planning:
//!
//! 1. **Race detection** — run once in passthrough mode with the FastTrack
//!    detector attached (the paper's ThreadSanitizer step) to find the
//!    racy sites;
//! 2. **Instrumentation plan** — racy sites + statically known construct
//!    sites become a closed one-domain `DomainPlan` (the paper's LLVM-pass
//!    step): every other site is ungated;
//! 3. **Record** — run with gates enabled only on planned sites;
//! 4. **Replay** — reproduce the run from the record files on disk; the
//!    plan travels with the trace, so replay needs no configuration;
//! 5. **Domain plan** — the SAME race report plus a probe run's
//!    per-domain gate frequency drive a closed multi-domain `DomainPlan`:
//!    racing sites co-locate in one gate domain, the rest load-balance,
//!    and a planned record/replay reproduces the run with sharded gates
//!    (cross-domain edges stamped at the criticals keep inter-domain
//!    order at sync points).
//!
//! ```bash
//! cargo run --example toolflow
//! ```

use reomp::{core::SessionConfig, ompr, racedet, DirStore, Scheme, Session, TraceStore};
use std::sync::Arc;

/// The application under test: a racy flag + counter, plus a properly
/// locked region (which the detector must *not* flag).
struct TestApp {
    counter: ompr::RacyCell<u64>,
    flag: ompr::RacyCell<bool>,
    safe: ompr::Critical,
    safe_total: std::sync::atomic::AtomicU64,
}

impl TestApp {
    fn new() -> Self {
        TestApp {
            counter: ompr::RacyCell::new("toolflow:counter", 0),
            flag: ompr::RacyCell::new("toolflow:flag", false),
            safe: ompr::Critical::new("toolflow:safe"),
            safe_total: std::sync::atomic::AtomicU64::new(0),
        }
    }

    fn run(&self, session: &Arc<Session>, sink: Option<Arc<racedet::Detector>>) -> (u64, u64) {
        let mut rt = ompr::Runtime::new(Arc::clone(session));
        if let Some(sink) = sink {
            rt = rt.with_sink(sink);
        }
        rt.parallel(|w| {
            for i in 0..200u64 {
                w.racy_update(&self.counter, |v| v + 1);
                if i % 50 == 0 {
                    w.racy_store(&self.flag, true);
                }
                let _ = w.racy_load(&self.flag);
                w.critical(&self.safe, || {
                    self.safe_total
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                });
            }
        });
        (
            self.counter.raw_load(),
            self.safe_total.load(std::sync::atomic::Ordering::Relaxed),
        )
    }
}

fn main() {
    let threads = 4;

    // Step 1: race detection (Fig. 2 step (1)).
    println!("step 1: race detection run");
    let detector = Arc::new(racedet::Detector::new(threads));
    let app = TestApp::new();
    let session = Session::passthrough(threads);
    let _ = app.run(&session, Some(Arc::clone(&detector)));
    session.finish().expect("finish");
    let report = detector.report();
    println!("{report}");
    assert!(report.racy_sites().contains(&app.counter.site()));
    assert!(report.racy_sites().contains(&app.flag.site()));
    assert!(
        !report.racy_sites().contains(&app.safe.site()),
        "the locked region must not be flagged"
    );

    // Step 2: instrumentation plan = racy sites + construct sites (§III).
    let plan = racedet::instrumentation_plan(&report, [app.safe.site()]);
    println!(
        "step 2: instrumentation plan has {} sites (2 racy + 1 critical)",
        plan.assigned()
    );

    // Step 3: record with only the planned sites gated.
    let cfg = SessionConfig {
        plan: Some(plan),
        ..SessionConfig::default()
    };
    let app = TestApp::new();
    let session = Session::record_with(Scheme::De, threads, cfg);
    let (counter, safe_total) = app.run(&session, None);
    let record_report = session.finish().expect("finish");
    println!(
        "step 3: recorded (counter={counter}, safe_total={safe_total}, {} records)",
        record_report.stats.records_written
    );

    // Persist to the paper-style one-file-per-thread directory store.
    let dir = std::env::temp_dir().join("reomp-toolflow-example");
    let store = DirStore::new(&dir);
    let io = record_report.save_to(&store).expect("save");
    println!(
        "        trace on disk: {} files, {} bytes in {}",
        io.files,
        io.bytes,
        dir.display()
    );

    // Step 4: replay from disk; the stamped plan tells replay which sites
    // are gated.
    let (bundle, _) = store.load().expect("load");
    let app = TestApp::new();
    let session = Session::replay(bundle).expect("valid bundle");
    let (replayed_counter, replayed_safe) = app.run(&session, None);
    let report = session.finish().expect("finish");
    assert_eq!(report.failure, None);
    assert_eq!(replayed_counter, counter, "racy counter must replay");
    assert_eq!(replayed_safe, safe_total);
    println!("step 4: replayed  (counter={replayed_counter}) — identical. ok.");

    // Step 5: domain planning — detect once, shard soundly.
    let domains = 4;
    println!("step 5: domain plan over {domains} gate domains");
    // Probe run under the planner's unit-weight plan to observe per-domain
    // gate frequency — the planner's feedback signal.
    let planner = racedet::DomainPlanner::new(domains)
        .observe_report(&detector.report())
        .weight(app.safe.site(), 0);
    let probe = planner.clone().build().closed();
    let probe_cfg = SessionConfig {
        plan: Some(probe.clone()),
        ..SessionConfig::default()
    };
    let probe_app = TestApp::new();
    let session = Session::record_with(Scheme::De, threads, probe_cfg);
    let _ = probe_app.run(&session, None);
    let probe_report = session.finish().expect("finish");
    println!(
        "        probe gates/domain {:?} (unit weights)",
        probe_report.domain_gates
    );
    let domain_plan = planner
        .feedback(&probe, &probe_report.domain_gates)
        .build()
        .closed();
    println!(
        "        {} site(s) pinned; counter -> domain {}, flag -> domain {}, critical -> domain {}",
        domain_plan.assigned(),
        domain_plan.domain_of(app.counter.site()),
        domain_plan.domain_of(app.flag.site()),
        domain_plan.domain_of(app.safe.site()),
    );
    let cfg = SessionConfig {
        plan: Some(domain_plan),
        ..SessionConfig::default()
    };
    let app = TestApp::new();
    let session = Session::record_with(Scheme::De, threads, cfg);
    let (planned_counter, _) = app.run(&session, None);
    let planned_report = session.finish().expect("finish");
    println!(
        "        recorded with D={domains}: gates/domain {:?}, {} cross-domain edge(s)",
        planned_report.domain_gates, planned_report.stats.sync_edges
    );
    let bundle = planned_report.bundle.expect("bundle");
    store.save(&bundle).expect("save planned trace");
    let (bundle, _) = store.load().expect("load planned trace");
    assert!(bundle.plan.is_some(), "plan travels with the trace");
    let app = TestApp::new();
    let session = Session::replay(bundle).expect("valid bundle");
    let (replayed, _) = app.run(&session, None);
    let rep = session.finish().expect("finish");
    assert_eq!(rep.failure, None);
    assert_eq!(replayed, planned_counter, "planned D=4 replay is exact");
    println!(
        "        replayed  (counter={replayed}) — identical under sharded gates \
         ({} edge wait(s) enforced). ok.",
        rep.stats.edge_waits
    );

    if std::env::var_os("REOMP_KEEP_TRACE").is_none() {
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        println!(
            "trace kept at {} (inspect with `reomp-inspect`)",
            dir.display()
        );
    }
}
