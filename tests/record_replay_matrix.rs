//! Integration: record→replay equivalence for every app × scheme — and,
//! since gate domains landed, × domain count — plus store roundtrips
//! through the on-disk format.

use reomp::miniapps::{amg, hacc, hpccg, minife, quicksilver, AppOutput};
use reomp::{
    ompr::Runtime, DirStore, DomainPlan, MemStore, Mode, Scheme, Session, SessionConfig, TraceStore,
};
use std::sync::Arc;
use std::time::Duration;

/// Domain counts to sweep. `REOMP_DOMAINS` (the CI oversubscription leg
/// sets it to 4) pins the sweep to one value; the default covers the
/// single-gate baseline and two sharded layouts.
fn domain_sweep() -> Vec<u32> {
    match std::env::var("REOMP_DOMAINS")
        .ok()
        .and_then(|s| s.parse::<u32>().ok())
    {
        Some(d) if d >= 1 => vec![d],
        _ => vec![1, 2, 4],
    }
}

fn config_with_domains(domains: u32) -> SessionConfig {
    SessionConfig {
        plan: Some(DomainPlan::new(domains)),
        ..SessionConfig::default()
    }
}

fn run_app(name: &str, session: &Arc<Session>) -> AppOutput {
    let rt = Runtime::new(Arc::clone(session));
    match name {
        "amg" => amg::run(&rt, &amg::Config::scaled(1)),
        "quicksilver" => quicksilver::run(&rt, &quicksilver::Config::scaled(1)),
        "minife" => minife::run(&rt, &minife::Config::scaled(1)),
        "hacc" => hacc::run(&rt, &hacc::Config::scaled(1)),
        "hpccg" => hpccg::run(&rt, &hpccg::Config::scaled(1)),
        other => panic!("unknown app {other}"),
    }
}

const APPS: [&str; 5] = ["amg", "quicksilver", "minife", "hacc", "hpccg"];

#[test]
fn every_app_replays_bitwise_under_every_scheme() {
    for app in APPS {
        for scheme in Scheme::ALL {
            let session = Session::record(scheme, 4);
            let recorded = run_app(app, &session);
            let report = session.finish().unwrap();
            let bundle = report.bundle.unwrap();
            assert!(bundle.total_records() > 0, "{app}/{scheme}");

            let session = Session::replay(bundle).unwrap();
            let replayed = run_app(app, &session);
            let report = session.finish().unwrap();
            assert_eq!(report.failure, None, "{app}/{scheme}");
            assert_eq!(report.fully_consumed, Some(true), "{app}/{scheme}");
            assert_eq!(replayed, recorded, "{app}/{scheme}");
        }
    }
}

#[test]
fn apps_replay_divergence_free_across_domain_counts() {
    // The multi-domain acceptance sweep: domains × schemes over real
    // workloads whose sites scatter across domains. Replay must stay
    // divergence-free and reproduce the recorded output exactly.
    for domains in domain_sweep() {
        for app in ["amg", "hacc"] {
            for scheme in Scheme::ALL {
                let tag = format!("{app}/{scheme}/D={domains}");
                let session = Session::record_with(scheme, 4, config_with_domains(domains));
                let recorded = run_app(app, &session);
                let report = session.finish().unwrap();
                let bundle = report.bundle.unwrap();
                assert_eq!(bundle.domains, domains, "{tag}");
                bundle.validate().unwrap_or_else(|e| panic!("{tag}: {e}"));
                if domains > 1 {
                    assert_eq!(
                        report.domain_gates.iter().sum::<u64>(),
                        report.stats.gates,
                        "{tag}: per-domain gate counts must sum to the total"
                    );
                }

                // The bundle also survives the on-disk multi-domain layout.
                let store = MemStore::new();
                store.save(&bundle).unwrap();
                let (loaded, _) = store.load().unwrap();
                assert_eq!(loaded, bundle, "{tag}");

                let session = Session::replay(loaded).unwrap();
                let replayed = run_app(app, &session);
                let report = session.finish().unwrap();
                assert_eq!(report.failure, None, "{tag}");
                assert_eq!(report.fully_consumed, Some(true), "{tag}");
                assert_eq!(replayed, recorded, "{tag}");
            }
        }
    }
}

#[test]
fn oversubscribed_replay_does_not_trip_watchdog() {
    // Replay with more threads than cores: waits yield instead of
    // spinning forever, and a generous watchdog (what REOMP_SPIN_TIMEOUT
    // configures from the environment) must not fire spuriously. This is
    // the case that used to hit ReplayError::Timeout on loaded CI boxes.
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(2);
    let threads = (2 * cores).clamp(8, 16);
    for scheme in Scheme::ALL {
        for domains in [1u32, 4] {
            let tag = format!("{scheme}/D={domains}/threads={threads}");
            let mut cfg = config_with_domains(domains);
            cfg.spin.timeout = Some(Duration::from_secs(300));
            let session = Session::record_with(scheme, threads, cfg.clone());
            let recorded = run_app("minife", &session);
            let bundle = session.finish().unwrap().bundle.unwrap();

            let session = Session::replay_with(bundle, cfg).unwrap();
            let replayed = run_app("minife", &session);
            let report = session.finish().unwrap();
            assert_eq!(report.failure, None, "{tag}");
            assert_eq!(replayed, recorded, "{tag}");
        }
    }
}

#[test]
fn hybrid_halo_replays_across_mpi_domain_counts() {
    // The rmpi leg of the domain sweep: the hybrid halo driver records
    // (rank × domain) receive streams and replays them bit-identically
    // for every swept domain count (REOMP_DOMAINS pins it in CI).
    use reomp::miniapps::halo;
    for domains in domain_sweep() {
        for scheme in [Scheme::De, Scheme::Dc] {
            let tag = format!("halo/{scheme}/D={domains}");
            let cfg = halo::HybridConfig {
                cells: 16,
                steps: 4,
                ranks: 2,
                threads: 2,
                scheme,
                mpi_domains: domains,
                site_groups: 2,
                seed: 11,
                replay_timeout: Some(Duration::from_secs(300)),
            };
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

#[test]
fn hybrid_halo_oversubscribed_replay_stays_divergence_free() {
    // More rank threads than cores, multi-domain on both layers: replay
    // waits yield instead of spinning and a generous watchdog must not
    // fire — the rmpi counterpart of the thread gate's oversubscription
    // case.
    use reomp::miniapps::halo;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get() as u32)
        .unwrap_or(2);
    let threads = (2 * cores).clamp(8, 16);
    let domains = domain_sweep().into_iter().max().unwrap_or(4);
    let cfg = halo::HybridConfig {
        cells: 16,
        steps: 3,
        ranks: 2,
        threads,
        scheme: Scheme::De,
        mpi_domains: domains,
        site_groups: 2,
        seed: 23,
        replay_timeout: Some(Duration::from_secs(300)),
    };
    let (recorded, traces) = halo::run_hybrid_record(&cfg);
    let replayed = halo::run_hybrid_replay(&cfg, traces);
    assert_eq!(replayed, recorded, "D={domains}/threads={threads}");
}

#[test]
fn traces_survive_memstore_roundtrip() {
    for scheme in Scheme::ALL {
        let session = Session::record(scheme, 3);
        let recorded = run_app("hacc", &session);
        let bundle = session.finish().unwrap().bundle.unwrap();

        let store = MemStore::new();
        store.save(&bundle).unwrap();
        let (loaded, _) = store.load().unwrap();
        assert_eq!(loaded, bundle, "{scheme}");

        let session = Session::replay(loaded).unwrap();
        let replayed = run_app("hacc", &session);
        assert_eq!(session.finish().unwrap().failure, None, "{scheme}");
        assert_eq!(replayed, recorded, "{scheme}");
    }
}

#[test]
fn traces_survive_dirstore_roundtrip_like_the_paper() {
    // The paper's deployment: per-thread record files on tmpfs, written in
    // a record run, read back in a separate replay run.
    let dir = std::env::temp_dir().join(format!("reomp-it-dirstore-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = DirStore::new(&dir);

    let session = Session::record(Scheme::De, 4);
    let recorded = run_app("hpccg", &session);
    let report = session.finish().unwrap();
    let io = report.save_to(&store).unwrap();
    assert!(io.bytes > 0);
    assert_eq!(io.files, 4 + 1, "4 thread files + manifest");

    let (bundle, _) = store.load().unwrap();
    let session = Session::replay(bundle).unwrap();
    let replayed = run_app("hpccg", &session);
    assert_eq!(session.finish().unwrap().failure, None);
    assert_eq!(replayed, recorded);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replay_with_different_thread_count_fails_cleanly() {
    let session = Session::record(Scheme::Dc, 3);
    let _ = run_app("amg", &session);
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
        let recorded = run_app("minife", &session);
        let report = session.finish().unwrap();
        assert!(report.io.is_some(), "{scheme}: an env record run persists");
        assert_eq!(DirStore::new(&dir).load().unwrap().0.scheme, scheme);

        std::env::set_var("REOMP_MODE", "replay");
        let session = Session::from_env(2).unwrap();
        assert_eq!(session.mode(), Mode::Replay);
        let replayed = run_app("minife", &session);
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
