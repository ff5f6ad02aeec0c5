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
//! * `planned_session_preserves_aliased_order_under_adversarial_schedule`
//!   is the planned counterpart under the same adversarial schedule.
//!
//! Random aliased-site programs under the toolflow's D = 4 plan are a
//! column of the record→replay matrix (`record_replay_matrix.rs`).

use reomp::racedet::report::AccessSide;
use reomp::racedet::{RaceInfo, RaceReport};
use reomp::{AccessKind, DomainPlan, Scheme, Session, SessionConfig, SiteId};
use std::sync::{Arc, Mutex};
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

/// A race report claiming both aliases of `addr` race — what the
/// detection step of the toolflow would produce for these programs.
fn alias_report(addr: u8) -> RaceReport {
    let race = RaceInfo {
        addr: u64::from(addr),
        first_site: site_of(addr, false),
        first_side: AccessSide::Write,
        first_tid: 0,
        second_site: site_of(addr, true),
        second_side: AccessSide::Write,
        second_tid: 1,
    };
    RaceReport {
        races: vec![race],
        events_analysed: 0,
    }
}

/// Execute per-thread programs — concurrently, or round-robin one access
/// per thread per turn — and return the per-address access log
/// `(thread, step)` in the order the gated accesses really executed.
fn execute(
    programs: &[Vec<Op>],
    session: &Arc<Session>,
    concurrent: bool,
) -> Vec<Vec<(u32, usize)>> {
    let logs: Vec<Mutex<Vec<(u32, usize)>>> = (0..4).map(|_| Mutex::default()).collect();
    let access = |ctx: &reomp::ThreadCtx, step: usize, (addr, side, store): Op| {
        let kind = if store {
            AccessKind::Store
        } else {
            AccessKind::Load
        };
        let tid = ctx.tid();
        ctx.gate_at(site_of(addr, side), u64::from(addr), kind, || {
            logs[addr as usize].lock().unwrap().push((tid, step));
        });
    };
    let ctxs = (0..programs.len() as u32).map(|tid| session.register_thread(tid));
    if concurrent {
        std::thread::scope(|s| {
            for (ctx, program) in ctxs.zip(programs) {
                let access = &access;
                s.spawn(move || {
                    for (step, &op) in program.iter().enumerate() {
                        access(&ctx, step, op);
                    }
                });
            }
        });
    } else {
        let ctxs: Vec<_> = ctxs.collect();
        let longest = programs.iter().map(Vec::len).max().unwrap_or(0);
        for step in 0..longest {
            for (ctx, program) in ctxs.iter().zip(programs) {
                if let Some(&op) = program.get(step) {
                    access(ctx, step, op);
                }
            }
        }
    }
    logs.into_iter().map(|l| l.into_inner().unwrap()).collect()
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
    let logs: Vec<Mutex<Vec<(u32, usize)>>> = (0..4).map(|_| Mutex::default()).collect();
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
    let plan = reomp::racedet::domain_plan(&alias_report(0), 2);
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
