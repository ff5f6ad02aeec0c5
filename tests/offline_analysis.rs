//! The offline (post-hoc) analyses against their live counterparts.
//!
//! * `racedet::offline` re-runs FastTrack over a *recorded trace* — no
//!   threads, no second execution — and must reproduce what the live
//!   detector found on the same program (the toolflow `RacyApp`).
//! * The static plan-soundness analysis must reject a blind partition's
//!   split of aliased sites that `prop_domain_plan`'s `#[should_panic]`
//!   case demonstrates dynamically — here it is caught at verify time,
//!   without spawning a replay — and its race report feeds the
//!   `DomainPlanner` to produce the co-locating plan that fixes it.

use reomp::{core::SessionConfig, ompr, racedet, AccessKind, Scheme, Session, SiteId, Verifier};
use std::sync::Arc;

/// The toolflow demo app: `hot` races across all threads, `cold` is
/// thread-0-only, `cs` is a critical section (same shape as
/// `tests/toolflow.rs` — test binaries cannot share code).
struct RacyApp {
    hot: ompr::RacyCell<u64>,
    cold: ompr::RacyCell<u64>,
    cs: ompr::Critical,
}

impl RacyApp {
    fn new() -> Self {
        RacyApp {
            hot: ompr::RacyCell::new("off:hot", 0),
            cold: ompr::RacyCell::new("off:cold", 0),
            cs: ompr::Critical::new("off:cs"),
        }
    }

    fn run(&self, session: &Arc<Session>, detector: Option<Arc<racedet::Detector>>) {
        let mut rt = ompr::Runtime::new(Arc::clone(session));
        if let Some(d) = detector {
            rt = rt.with_sink(d);
        }
        rt.parallel(|w| {
            for i in 0..100u64 {
                w.racy_update(&self.hot, |v| v + 1);
                if w.tid() == 0 && i == 50 {
                    w.racy_store(&self.cold, 7);
                }
                w.critical(&self.cs, || {});
            }
        });
    }
}

/// The offline sweep over a recorded bundle finds exactly the races the
/// live detector found watching the execution: `hot` races, `cold`
/// (single-thread) and `cs` (lock) do not. Schedule-independent: every
/// thread's first `hot` access precedes its first `cs` acquire, so the
/// race exists in every interleaving.
#[test]
fn offline_reproduces_live_detector_on_toolflow_app() {
    let threads = 4;

    // Live: detector rides the execution as an event sink.
    let app = RacyApp::new();
    let detector = Arc::new(racedet::Detector::new(threads));
    let session = Session::passthrough(threads);
    app.run(&session, Some(Arc::clone(&detector)));
    session.finish().unwrap();
    let live = detector.report();

    // Offline: record the same program (full instrumentation, no sink),
    // then analyse the artifacts alone.
    let app = RacyApp::new();
    let session = Session::record(Scheme::Dc, threads);
    app.run(&session, None);
    let bundle = session.finish().unwrap().bundle.unwrap();
    let offline = racedet::offline_report(&bundle).unwrap();

    assert_eq!(
        offline.racy_sites(),
        live.racy_sites(),
        "offline sweep must agree with the live detector"
    );
    assert!(offline.racy_sites().contains(&app.hot.site()));
    assert!(!offline.racy_sites().contains(&app.cold.site()));
    assert!(!offline.racy_sites().contains(&app.cs.site()));
    assert!(offline.events_analysed > 0);
}

/// Aliased sites for one shared address, chosen (as in
/// `tests/prop_domain_plan.rs`) so a blind two-domain partition — an
/// empty plan's hash — splits them across domains: address 0 → sites 2
/// (alias A) and 3 (alias B).
fn site_of(side: bool) -> SiteId {
    SiteId(2 + u64::from(side))
}

/// Sites 2 and 3 touch the same cell; everything else is identity.
fn alias(site: SiteId) -> u64 {
    if site.raw() <= 3 {
        0
    } else {
        site.raw()
    }
}

/// Record the aliased-store program: thread 0 stores through alias A,
/// thread 1 through alias B, strictly interleaved by a deterministic
/// round-robin driver (no OS-schedule dependence).
fn record_aliased(cfg: SessionConfig) -> reomp::TraceBundle {
    let session = Session::record_with(Scheme::Dc, 2, cfg);
    let ctxs: Vec<_> = (0..2).map(|tid| session.register_thread(tid)).collect();
    for _step in 0..4 {
        for (tid, ctx) in ctxs.iter().enumerate() {
            ctx.gate_at(site_of(tid == 1), 0, AccessKind::Store, || {});
        }
    }
    drop(ctxs);
    session.finish().unwrap().bundle.unwrap()
}

/// The static analogue of `prop_domain_plan`'s `#[should_panic]` replay
/// divergence: under a blind partition (an empty plan, once `raw % D`) the
/// two aliases of one address record into different domains with no
/// ordering edge between
/// them, so the recorded store order is unreplayable — and the offline
/// analysis proves it from the artifacts, no replay spawned. Its race
/// report then drives the `DomainPlanner` to the co-locating plan.
#[test]
fn plan_soundness_statically_rejects_legacy_modulo() {
    let blind = reomp::DomainPlan::new(2);
    assert_ne!(
        blind.domain_of(site_of(false)),
        blind.domain_of(site_of(true)),
        "precondition: the hash splits the aliases"
    );
    let bundle = record_aliased(SessionConfig {
        plan: Some(blind.clone()),
        ..SessionConfig::default()
    });
    assert_eq!(bundle.plan, Some(blind));
    assert!(bundle.validate().is_ok(), "the split trace LOOKS fine");

    // The offline sweep sees the cross-domain stores unordered → race.
    let report = racedet::offline::offline_report_with(&bundle, alias).unwrap();
    assert!(report.racy_sites().contains(&site_of(false)));
    assert!(report.racy_sites().contains(&site_of(true)));

    // …and plan soundness rejects the partition: a racing pair records
    // into two domains with no edge ordering the accesses.
    let sound = racedet::offline::check_plan_soundness_with(&bundle, &report, alias).unwrap();
    assert!(!sound.is_sound());
    let v = &sound.violations[0];
    assert_eq!(v.addr, 0);
    assert_ne!(v.first_domain, v.second_domain);
    assert_eq!(
        {
            let mut pair = [v.first_site, v.second_site];
            pair.sort_by_key(|s| s.raw());
            pair
        },
        [site_of(false), site_of(true)]
    );

    // The same race report feeds the planner: the fix is computed
    // statically from the rejected trace.
    let plan = racedet::domain_plan(&report, 2);
    assert_eq!(
        plan.domain_of(site_of(false)),
        plan.domain_of(site_of(true)),
        "planner must co-locate the racing aliases"
    );
}

/// The planned configuration of the same program is statically sound and
/// earns a certificate: co-located aliases are totally ordered by their
/// shared domain gate.
#[test]
fn planned_bundle_is_statically_sound() {
    let mut plan = reomp::DomainPlan::new(2);
    plan.set(site_of(false), 1);
    plan.set(site_of(true), 1);
    let bundle = record_aliased(SessionConfig {
        plan: Some(plan),
        ..SessionConfig::default()
    });

    let verify = Verifier::new().verify(&bundle);
    assert!(verify.is_clean(), "{verify}");
    assert!(verify.certificate.is_some());

    let report = racedet::offline::offline_report_with(&bundle, alias).unwrap();
    let sound = racedet::offline::check_plan_soundness_with(&bundle, &report, alias).unwrap();
    assert!(sound.is_sound(), "{:?}", sound.violations);
    assert!(
        sound.checked_addrs > 0,
        "soundness must come from checking the racy address, not from skipping it"
    );
}
