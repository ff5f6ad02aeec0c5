//! Deterministic golden-fixture generator for the static verifier.
//!
//! Writes one trace directory per configuration under the output root
//! (first CLI argument, default `tests/golden_v2/` — `tests/golden/` is
//! the version 1 corpus, committed as an older build wrote it and never
//! regenerated: the same driver made it, so fixtures of the same name in
//! the two corpora hold the same records and carry the same certificate
//! in different bytes), each driven by a
//! single-OS-thread round-robin driver so the recorded content — and
//! therefore the replayability **certificate** — is identical on every
//! machine and every run:
//!
//! | fixture      | layout                                              |
//! |--------------|-----------------------------------------------------|
//! | `st_d1`      | ST, 1 domain (PR 1 layout)                          |
//! | `dc_d1`      | DC, 1 domain (PR 3 layout)                          |
//! | `de_d1`      | DE, 1 domain                                        |
//! | `dc_planned` | DC, D domains, stamped plan + cross-domain edges    |
//! | `flight_dc`  | DC flight-recorder window dump (checkpoint stamped) |
//! | `rmpi`       | rank × domain receive-order trace                   |
//!
//! `REOMP_DOMAINS` (≥ 2) picks the planned fixture's domain count
//! (default 4). Every fixture is verified in-process after writing; the
//! process exits non-zero if any fails, so CI can run this binary fresh
//! and then diff `reomp-inspect --verify` output against the committed
//! fixtures.
//!
//! ```bash
//! cargo run --release --example golden_fixtures            # tests/golden_v2/
//! cargo run --release --example golden_fixtures /tmp/gold  # elsewhere
//! ```

use reomp::{
    AccessKind, DirStore, DomainPlan, DumpTrigger, MpiTrace, Scheme, Session, SessionConfig,
    SiteId, TraceStore, Verifier,
};
use rmpi::{MpiVerifier, RecvEvent};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const THREADS: u32 = 2;
const STEPS: usize = 24;

/// Round-robin driver on one OS thread: thread `tid` touches site
/// `tid * 2 + 1` and site `tid * 2 + 2` alternately (Load then Store),
/// with a shared critical-section gate every 8th step — in a multi-domain
/// session the criticals stamp cross-domain edges. Single-threaded, so
/// the recorded order is a pure function of this loop.
fn drive(session: &Arc<Session>) {
    let cs = SiteId(9);
    let ctxs: Vec<_> = (0..THREADS)
        .map(|tid| session.register_thread(tid))
        .collect();
    for step in 0..STEPS {
        for (tid, ctx) in ctxs.iter().enumerate() {
            let site = SiteId(tid as u64 * 2 + 1 + (step as u64 & 1));
            let kind = if step % 2 == 0 {
                AccessKind::Load
            } else {
                AccessKind::Store
            };
            ctx.gate_at(site, site.raw(), kind, || {});
            if step % 8 == 7 {
                ctx.gate(cs, AccessKind::Critical, || {});
            }
        }
    }
}

/// Sites the driver gates: the per-thread data sites plus the shared
/// critical section.
fn driven_sites() -> Vec<SiteId> {
    let mut sites: Vec<SiteId> = (0..THREADS)
        .flat_map(|tid| {
            [
                SiteId(u64::from(tid) * 2 + 1),
                SiteId(u64::from(tid) * 2 + 2),
            ]
        })
        .collect();
    sites.push(SiteId(9));
    sites
}

fn verify_dir(dir: &Path) -> String {
    let (bundle, _) = DirStore::new(dir).load().expect("load fixture back");
    let report = Verifier::new().verify(&bundle);
    assert!(report.is_clean(), "{}: {report}", dir.display());
    report.certificate.expect("clean ⇒ certificate").to_string()
}

fn record_fixture(root: &Path, name: &str, scheme: Scheme, cfg: SessionConfig) -> PathBuf {
    let dir = root.join(name);
    let _ = std::fs::remove_dir_all(&dir);
    let session = Session::record_with(scheme, THREADS, cfg);
    drive(&session);
    let bundle = session
        .finish()
        .expect("finish record")
        .bundle
        .expect("record mode keeps a bundle");
    DirStore::new(&dir).save(&bundle).expect("persist fixture");
    dir
}

fn main() {
    let root = PathBuf::from(
        std::env::args()
            .nth(1)
            .unwrap_or_else(|| "tests/golden_v2".into()),
    );
    let domains = std::env::var("REOMP_DOMAINS")
        .ok()
        .and_then(|s| s.parse::<u32>().ok())
        .filter(|&d| d >= 2)
        .unwrap_or(4);
    std::fs::create_dir_all(&root).expect("create output root");

    // Single-domain fixtures, one per scheme.
    for (name, scheme) in [
        ("st_d1", Scheme::St),
        ("dc_d1", Scheme::Dc),
        ("de_d1", Scheme::De),
    ] {
        let dir = record_fixture(&root, name, scheme, SessionConfig::default());
        println!("{name:<10} {}", verify_dir(&dir));
    }

    // Planned multi-domain DC: every driven site pinned off its modulo
    // domain (so the stamp is load-bearing, not a restatement of the
    // fallback), criticals stamping cross-domain edges.
    let mut plan = DomainPlan::new(domains);
    for site in driven_sites() {
        plan.set(site, ((site.raw() + 1) % u64::from(domains)) as u32);
    }
    let dir = record_fixture(
        &root,
        "dc_planned",
        Scheme::Dc,
        SessionConfig {
            plan: Some(plan),
            ..SessionConfig::default()
        },
    );
    {
        let (bundle, _) = DirStore::new(&dir).load().unwrap();
        assert!(bundle.plan.is_some(), "plan must travel with the fixture");
        assert!(!bundle.edges.is_empty(), "criticals must stamp edges");
    }
    println!("dc_planned {}", verify_dir(&dir));

    // Flight-recorder window: bounded recording, manual dump — the
    // checkpoint (clock bases + trigger) is part of what gets verified.
    let flight_dir = root.join("flight_dc");
    let _ = std::fs::remove_dir_all(&flight_dir);
    let session = Session::record_flight(
        Scheme::Dc,
        THREADS,
        SessionConfig {
            flight: Some(2),
            flush_records: 4,
            ..SessionConfig::default()
        },
        DirStore::new(&flight_dir),
    )
    .expect("start flight recording");
    drive(&session);
    session.dump(DumpTrigger::Manual).expect("dump the window");
    session.finish().expect("finish flight record");
    {
        let (bundle, _) = DirStore::new(&flight_dir).load().unwrap();
        assert!(bundle.checkpoint.is_some(), "dump carries a checkpoint");
    }
    println!("flight_dc  {}", verify_dir(&flight_dir));

    // rmpi receive-order trace: 2 ranks, deterministic matched receives
    // and waitany completions.
    let mpi_dir = root.join("rmpi");
    let _ = std::fs::remove_dir_all(&mpi_dir);
    let trace = MpiTrace::single(
        vec![
            vec![
                RecvEvent { src: 1, tag: 7 },
                RecvEvent { src: 1, tag: 8 },
                RecvEvent { src: 1, tag: 7 },
            ],
            vec![RecvEvent { src: 0, tag: 7 }],
        ],
        vec![vec![0, 1, 0], vec![]],
    );
    trace.save_dir(&mpi_dir).expect("persist rmpi fixture");
    let loaded = MpiTrace::load_dir(&mpi_dir).expect("load rmpi fixture back");
    let report = MpiVerifier::new().verify(&loaded);
    assert!(report.is_clean(), "rmpi: {report}");
    println!(
        "rmpi       certificate: {}",
        report.certificate.expect("clean ⇒ certificate")
    );

    println!("\nok: all fixtures under {} verify clean.", root.display());
}
