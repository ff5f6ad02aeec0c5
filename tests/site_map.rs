//! One site map: a `DomainPlan` alone decides whether a site is gated and
//! which domain orders it, and a trace carries the map it was recorded
//! under.
//!
//! * A plan-less multi-domain bundle — the layout recorded before plans
//!   existed — still verifies and replays under the `raw % D` partition.
//! * A closed plan (unlisted sites ungated) travels with the trace, so its
//!   replay needs no configuration.
//! * `REOMP_DOMAINS` means the same to thread and rank sessions, and a
//!   multi-domain environment record run stamps its (empty) plan.
//! * The verifier checks a bundle against its own map.

use reomp::core::trace::ThreadTrace;
use reomp::{
    AccessKind, DirStore, DomainPlan, MpiSession, MpiSessionConfig, Scheme, Session, SessionConfig,
    SiteId, Tier, TraceBundle, TraceStore, Verifier,
};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("reomp-site-map-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Sites the hash and `raw % 2` route oppositely, so a bundle replays
/// only under the partition it was recorded with.
const MOD0: SiteId = SiteId(12); // raw % 2 = 0, hash = 1
const MOD1: SiteId = SiteId(5); // raw % 2 = 1, hash = 0

/// `n` DC stores through `site`, clocks `0..n`.
fn stream(site: SiteId, n: usize) -> ThreadTrace {
    ThreadTrace {
        values: (0..n as u64).collect(),
        sites: Some(vec![site.raw(); n]),
        kinds: Some(vec![AccessKind::Store.code(); n]),
    }
}

/// A two-thread DC bundle over `threads.len() / 2` domains, domain-major.
fn dc_bundle(threads: Vec<ThreadTrace>, plan: Option<DomainPlan>) -> TraceBundle {
    TraceBundle {
        scheme: Scheme::Dc,
        nthreads: 2,
        domains: threads.len() as u32 / 2,
        threads,
        st: Vec::new(),
        plan,
        edges: Vec::new(),
        checkpoint: None,
    }
}

#[test]
fn planless_multi_domain_bundle_verifies_and_replays_by_raw_modulo() {
    assert_eq!(DomainPlan::new(2).domain_of(MOD0), 1, "precondition");
    assert_eq!(DomainPlan::new(2).domain_of(MOD1), 0, "precondition");
    // Thread 0 stores through MOD0 (domain 0), thread 1 through MOD1
    // (domain 1), 4 times each.
    let bundle = dc_bundle(
        vec![
            stream(MOD0, 4),
            stream(MOD1, 0),
            stream(MOD0, 0),
            stream(MOD1, 4),
        ],
        None,
    );
    let dir = scratch_dir("planless");
    let store = DirStore::new(&dir);
    store.save(&bundle).unwrap();
    let (loaded, _) = store.load().unwrap();
    assert_eq!(loaded, bundle);
    assert_eq!(loaded.partition().domain_of(MOD0), 0);
    assert_eq!(loaded.partition().domain_of(MOD1), 1);

    let report = Verifier::new().verify(&loaded);
    assert!(report.is_clean(), "{report}");

    let replay = Session::replay(loaded).unwrap();
    {
        let c0 = replay.register_thread(0);
        let c1 = replay.register_thread(1);
        for _ in 0..4 {
            c0.try_gate(MOD0, AccessKind::Store, || ()).unwrap();
            c1.try_gate(MOD1, AccessKind::Store, || ()).unwrap();
        }
    }
    let report = replay.finish().unwrap();
    assert_eq!(report.failure, None);
    assert_eq!(report.fully_consumed, Some(true));
    assert_eq!(report.domain_gates, vec![4, 4]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn the_plan_tier_flags_a_recorded_site_a_closed_plan_leaves_ungated() {
    let (gated, other) = (SiteId(7), SiteId(8));
    let plan = DomainPlan::with_assignments(1, [(gated, 0)]).closed();
    let clean = dc_bundle(vec![stream(gated, 2), stream(gated, 0)], Some(plan.clone()));
    assert!(Verifier::new().verify(&clean).is_clean());
    let mut bundle = dc_bundle(vec![stream(gated, 2), stream(other, 0)], Some(plan));
    bundle.threads[1] = ThreadTrace {
        values: vec![2],
        sites: Some(vec![other.raw()]),
        kinds: Some(vec![AccessKind::Store.code()]),
    };
    let report = Verifier::new().verify(&bundle);
    let plan_errors: Vec<_> = report
        .errors()
        .filter(|d| d.tier == Tier::Plan)
        .map(|d| d.message.clone())
        .collect();
    assert_eq!(plan_errors.len(), 1, "{report}");
    assert!(plan_errors[0].contains("leaves it ungated"), "{report}");
}

/// Two threads driven from the calling thread: each gates a planned site
/// and an unlisted one in turn. Returns the gate errors, in order.
fn drive_half_gated(session: &Arc<Session>, planned: [SiteId; 2]) -> Vec<String> {
    let unlisted = SiteId::from_label("site_map:unlisted");
    let ctxs: Vec<_> = (0..2).map(|tid| session.register_thread(tid)).collect();
    let mut errors = Vec::new();
    for step in 0..6 {
        for (tid, ctx) in ctxs.iter().enumerate() {
            let kind = if step % 2 == 0 {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            for site in [planned[tid], unlisted] {
                if let Err(e) = ctx.try_gate(site, kind, || ()) {
                    errors.push(e.to_string());
                }
            }
        }
    }
    errors
}

#[test]
fn closed_plan_de_recording_replays_from_a_dir_store_with_default_config() {
    let planned = [
        SiteId::from_label("site_map:a"),
        SiteId::from_label("site_map:b"),
    ];
    let plan = DomainPlan::with_assignments(2, [(planned[0], 0), (planned[1], 1)]).closed();
    let cfg = SessionConfig {
        plan: Some(plan.clone()),
        ..SessionConfig::default()
    };
    let session = Session::record_with(Scheme::De, 2, cfg);
    assert!(drive_half_gated(&session, planned).is_empty());
    let report = session.finish().unwrap();
    assert_eq!(report.stats.gates, 12, "unlisted sites bypass the recorder");
    let dir = scratch_dir("closed");
    let store = DirStore::new(&dir);
    report.save_to(&store).unwrap();
    let (loaded, _) = store.load().unwrap();
    assert_eq!(loaded.plan, Some(plan));
    assert!(Verifier::new().verify(&loaded).is_clean());

    let replay = Session::replay_with(loaded, SessionConfig::default()).unwrap();
    let errors = drive_half_gated(&replay, planned);
    let report = replay.finish().unwrap();
    assert_eq!(errors, Vec::<String>::new());
    assert_eq!(report.failure, None);
    assert_eq!(report.fully_consumed, Some(true));
    assert_eq!(report.stats.gates, 12);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The tests below set process-wide `REOMP_*` variables: one at a time,
/// each restoring what it found.
static ENV: Mutex<()> = Mutex::new(());

fn with_env<R>(vars: &[(&str, &str)], f: impl FnOnce() -> R) -> R {
    let _one = ENV.lock().unwrap_or_else(|e| e.into_inner());
    let saved: Vec<_> = vars
        .iter()
        .map(|&(k, v)| {
            let old = std::env::var_os(k);
            std::env::set_var(k, v);
            (k, old)
        })
        .collect();
    let out = f();
    for (k, old) in saved {
        match old {
            Some(v) => std::env::set_var(k, v),
            None => std::env::remove_var(k),
        }
    }
    out
}

#[test]
fn env_domains_record_run_stamps_an_empty_plan() {
    let dir = scratch_dir("env");
    let dir_str = dir.to_str().unwrap().to_owned();
    let vars = [
        ("REOMP_MODE", "record"),
        ("REOMP_SCHEME", "dc"),
        ("REOMP_DOMAINS", "4"),
        ("REOMP_FLIGHT", "0"),
        ("REOMP_DIR", dir_str.as_str()),
    ];
    with_env(&vars, || {
        let session = Session::from_env(2).unwrap();
        assert_eq!(session.domains(), 4);
        {
            let c0 = session.register_thread(0);
            let c1 = session.register_thread(1);
            for i in 0..8u64 {
                c0.gate(SiteId(i), AccessKind::Store, || ());
                c1.gate(SiteId(i + 100), AccessKind::Load, || ());
            }
        }
        session.finish().unwrap();
    });
    let (bundle, _) = DirStore::new(&dir).load().unwrap();
    assert_eq!(bundle.domains, 4);
    assert_eq!(bundle.plan, Some(DomainPlan::new(4)), "a plan with 0 pins");
    assert!(Verifier::new().verify(&bundle).is_clean());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn thread_and_rank_sessions_read_the_same_domains_and_window() {
    // (value, domain count, flight window)
    let table = [
        ("0", 1, None),
        ("4", 4, Some(4)),
        ("99999999999", 1, None),
        ("x", 1, None),
    ];
    for (value, domains, window) in table {
        let vars = [
            ("REOMP_MODE", "off"),
            ("REOMP_DOMAINS", value),
            ("REOMP_FLIGHT", value),
        ];
        with_env(&vars, || {
            let thread = Session::from_env(1).unwrap();
            let rank_cfg = MpiSessionConfig::from_env();
            let rank = MpiSession::record_with(1, rank_cfg.clone());
            assert_eq!(thread.domains(), domains, "REOMP_DOMAINS={value}");
            assert_eq!(rank.domains(), domains, "REOMP_DOMAINS={value}");
            assert_eq!(thread.config().flight, window, "REOMP_FLIGHT={value}");
            assert_eq!(rank_cfg.flight, window, "REOMP_FLIGHT={value}");
            assert_eq!(thread.config().plan, rank_cfg.plan, "{value}");
        });
    }
}

#[test]
fn closed_plan_routes_only_its_pins() {
    let (pinned, other) = (SiteId(5), SiteId(6));
    for domains in [1, 3] {
        let plan = DomainPlan::with_assignments(domains, [(pinned, domains - 1)]).closed();
        assert!(plan.is_closed());
        assert_eq!(plan.route(pinned), Some(domains - 1));
        assert_eq!(plan.route(other), None, "D = {domains}");
    }
    let open = DomainPlan::with_assignments(3, [(pinned, 2)]);
    assert!(!open.is_closed());
    assert_eq!(
        open.route(other),
        Some(DomainPlan::hashed_fallback(3, other))
    );
}

#[test]
#[should_panic(expected = "leaves")]
fn domain_of_an_ungated_site_panics() {
    let _ = DomainPlan::new(1).closed().domain_of(SiteId(1));
}
