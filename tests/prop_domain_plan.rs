//! The multi-domain soundness regression the domain planner exists for.
//!
//! Two *aliased* sites — distinct instrumentation sites touching the same
//! memory cell — must record into the same gate domain, or replay loses
//! their relative order (multi-domain traces record no order between
//! domains outside of sync edges). A blind partition — an empty plan's
//! hash, or the `site.raw() % D` of plan-less recordings before it — can
//! split them; a race-report-driven [`DomainPlan`] provably co-locates
//! them.
//!
//! * `legacy_modulo_splits_aliased_sites_and_loses_their_order` is the
//!   `#[should_panic]` demonstration against a blind partition: the
//!   replayed per-address order differs from the recorded one.
//! * The property test drives random aliased-site programs under a planned
//!   D = 4 session and checks the replayed access order over each racing
//!   address equals the recorded order (which, with one deterministic
//!   driver, is identical to what a D = 1 session records).

use proptest::prelude::*;
use reomp::racedet::report::AccessSide;
use reomp::racedet::{RaceInfo, RaceReport};
use reomp::{AccessKind, DomainPlan, Scheme, Session, SessionConfig, SiteId, TraceStore};
use std::sync::Arc;
use std::time::Duration;

/// One access in a generated program: `(address index, alias side, kind)`.
/// Each address is reachable through TWO distinct sites (the alias).
type Op = (u8, bool, bool);

/// Site id for address `addr` through alias side `side` (0 is avoided —
/// it is the race reports' "unknown prior access" placeholder). The two
/// aliases of address 0 land in DIFFERENT domains of an empty D = 2 plan.
fn site_of(addr: u8, side: bool) -> SiteId {
    SiteId(u64::from(addr) * 2 + 2 + u64::from(side))
}

/// A race report claiming both aliases of every address race — what the
/// detection step of the toolflow would produce for these programs.
fn alias_report(addrs: impl IntoIterator<Item = u8>) -> RaceReport {
    RaceReport {
        races: addrs
            .into_iter()
            .map(|a| RaceInfo {
                addr: u64::from(a),
                first_site: site_of(a, false),
                first_side: AccessSide::Write,
                first_tid: 0,
                second_site: site_of(a, true),
                second_side: AccessSide::Write,
                second_tid: 1,
            })
            .collect(),
        events_analysed: 0,
    }
}

/// Execute per-thread programs; returns the per-address access log
/// `(thread, step)` in the order the gated accesses really executed.
fn execute(
    programs: &[Vec<Op>],
    session: &Arc<Session>,
    concurrent: bool,
) -> Vec<Vec<(u32, usize)>> {
    let naddrs = 4usize;
    let logs: Vec<std::sync::Mutex<Vec<(u32, usize)>>> = (0..naddrs)
        .map(|_| std::sync::Mutex::new(Vec::new()))
        .collect();
    let run_thread = |ctx: &reomp::ThreadCtx, program: &[Op]| {
        for (step, &(addr, side, store)) in program.iter().enumerate() {
            let kind = if store {
                AccessKind::Store
            } else {
                AccessKind::Load
            };
            let tid = ctx.tid();
            ctx.gate_at(site_of(addr, side), u64::from(addr), kind, || {
                logs[addr as usize].lock().unwrap().push((tid, step));
            });
        }
    };
    if concurrent {
        std::thread::scope(|s| {
            for (tid, program) in programs.iter().enumerate() {
                let ctx = session.register_thread(tid as u32);
                let run_thread = &run_thread;
                s.spawn(move || run_thread(&ctx, program));
            }
        });
    } else {
        // Deterministic round-robin driver: one access per thread per turn.
        let ctxs: Vec<_> = (0..programs.len())
            .map(|tid| session.register_thread(tid as u32))
            .collect();
        let longest = programs.iter().map(Vec::len).max().unwrap_or(0);
        for step in 0..longest {
            for (tid, program) in programs.iter().enumerate() {
                if let Some(&op) = program.get(step) {
                    let (addr, side, store) = op;
                    let kind = if store {
                        AccessKind::Store
                    } else {
                        AccessKind::Load
                    };
                    ctxs[tid].gate_at(site_of(addr, side), u64::from(addr), kind, || {
                        logs[addr as usize].lock().unwrap().push((tid as u32, step));
                    });
                }
            }
        }
    }
    logs.into_iter().map(|l| l.into_inner().unwrap()).collect()
}

/// Planned domain count for the property test: `REOMP_DOMAINS` (the CI
/// planned-config leg sets 4) pins it; values below 2 are ignored — the
/// property is about multi-domain sessions.
fn planned_domains() -> u32 {
    std::env::var("REOMP_DOMAINS")
        .ok()
        .and_then(|s| s.parse::<u32>().ok())
        .filter(|&d| d >= 2)
        .unwrap_or(4)
}

fn replay_cfg() -> SessionConfig {
    SessionConfig {
        spin: reomp::core::sync::SpinConfig {
            spin_hints: 32,
            timeout: Some(Duration::from_secs(60)),
        },
        ..Default::default()
    }
}

/// With a blind partition, aliased sites split across domains and a
/// replay that schedules the
/// domains differently reorders the accesses to the SAME address — the
/// per-address order assertion fails. (The planned path below makes the
/// same assertion and passes.)
#[test]
#[should_panic(expected = "aliased-site order must replay")]
fn legacy_modulo_splits_aliased_sites_and_loses_their_order() {
    // One address, two aliases that an empty two-domain plan splits.
    // Thread 0 writes through alias A, thread 1 through alias B, strictly
    // interleaved from one test thread.
    let programs: Vec<Vec<Op>> = vec![
        vec![(0, false, true); 4], // t0: 4 stores via alias A
        vec![(0, true, true); 4],  // t1: 4 stores via alias B
    ];
    let blind = DomainPlan::new(2);
    assert_ne!(
        blind.domain_of(site_of(0, false)),
        blind.domain_of(site_of(0, true)),
        "precondition: the hash splits the aliases"
    );
    let cfg = SessionConfig {
        plan: Some(blind),
        ..Default::default()
    };
    let session = Session::record_with(Scheme::Dc, 2, cfg);
    let recorded = execute(&programs, &session, false);
    let bundle = session.finish().unwrap().bundle.unwrap();

    // Replay with thread 1 running to completion before thread 0 starts:
    // legal for the per-domain turnstiles (each domain's stream admits its
    // own thread immediately), yet it inverts the recorded per-address
    // interleaving.
    let replay = Session::replay_with(bundle, replay_cfg()).unwrap();
    let naddrs = 4usize;
    let logs: Vec<std::sync::Mutex<Vec<(u32, usize)>>> = (0..naddrs)
        .map(|_| std::sync::Mutex::new(Vec::new()))
        .collect();
    {
        let c1 = replay.register_thread(1);
        for step in 0..4 {
            c1.gate_at(site_of(0, true), 0, AccessKind::Store, || {
                logs[0].lock().unwrap().push((1, step));
            });
        }
        let c0 = replay.register_thread(0);
        for step in 0..4 {
            c0.gate_at(site_of(0, false), 0, AccessKind::Store, || {
                logs[0].lock().unwrap().push((0, step));
            });
        }
    }
    let replayed: Vec<Vec<(u32, usize)>> =
        logs.into_iter().map(|l| l.into_inner().unwrap()).collect();
    assert_eq!(replayed, recorded, "aliased-site order must replay");
}

/// The fixed path: the SAME schedule freedom exists, but the plan
/// co-locates both aliases in one domain, so the recorded order is
/// enforced and the adversarial schedule simply waits.
#[test]
fn planned_session_preserves_aliased_order_under_adversarial_schedule() {
    let programs: Vec<Vec<Op>> = vec![vec![(0, false, true); 4], vec![(0, true, true); 4]];
    let plan = reomp::racedet::domain_plan(&alias_report([0]), 2);
    assert_eq!(
        plan.domain_of(site_of(0, false)),
        plan.domain_of(site_of(0, true)),
        "planner must co-locate the aliases"
    );
    let cfg = SessionConfig {
        plan: Some(plan),
        ..Default::default()
    };
    let session = Session::record_with(Scheme::Dc, 2, cfg);
    let recorded = execute(&programs, &session, false);
    let bundle = session.finish().unwrap().bundle.unwrap();

    let replay = Session::replay_with(bundle, replay_cfg()).unwrap();
    // Adversarial schedule needs real threads now: thread 1 will block on
    // the shared-domain turnstile until its recorded turn.
    let replayed = execute(&programs, &replay, true);
    let report = replay.finish().unwrap();
    assert_eq!(report.failure, None);
    assert_eq!(replayed, recorded, "aliased-site order must replay");
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0u8..4, 0u8..2, 0u8..2).prop_map(|(a, side, store)| (a, side == 1, store == 1))
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        ..ProptestConfig::default()
    })]

    /// For random aliased-site programs, a planned D = 4 session replays
    /// the recorded per-address access order exactly (DC and ST — DE
    /// legitimately permutes within epochs, so there the per-address
    /// STORE-visible final state is compared via the value check in the
    /// main prop suite). The trace also survives a store roundtrip with
    /// its plan and edges.
    #[test]
    fn planned_multi_domain_replay_preserves_per_address_order(
        programs in proptest::collection::vec(
            proptest::collection::vec(op_strategy(), 1..12),
            2..4,
        )
    ) {
        let domains = planned_domains();
        let plan = reomp::racedet::domain_plan(&alias_report(0..4), domains);
        for a in 0..4u8 {
            prop_assert_eq!(
                plan.domain_of(site_of(a, false)),
                plan.domain_of(site_of(a, true)),
                "aliases of addr {} must co-locate", a
            );
        }
        for scheme in [Scheme::Dc, Scheme::St] {
            let cfg = SessionConfig {
                plan: Some(plan.clone()),
                ..Default::default()
            };
            let session = Session::record_with(scheme, programs.len() as u32, cfg);
            let recorded = execute(&programs, &session, false);
            let bundle = session.finish().unwrap().bundle.unwrap();
            prop_assert_eq!(bundle.domains, domains);
            prop_assert!(bundle.validate().is_ok());

            // Plan travels with the trace through a store.
            let store = reomp::MemStore::new();
            store.save(&bundle).unwrap();
            let (loaded, _) = store.load().unwrap();
            prop_assert_eq!(&loaded, &bundle);

            let replay = Session::replay_with(loaded, replay_cfg()).unwrap();
            let replayed = execute(&programs, &replay, true);
            let report = replay.finish().unwrap();
            prop_assert_eq!(report.failure, None, "{} replay failed", scheme);
            prop_assert_eq!(
                &replayed, &recorded,
                "{}: per-address order diverged", scheme
            );
        }
    }
}
