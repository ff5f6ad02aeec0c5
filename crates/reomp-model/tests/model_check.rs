//! Tier-1 entry for the schedule-space model checker.
//!
//! Two suites:
//!
//! * **Clean-tree checks** — every harness in `reomp_model::harness` runs
//!   over the real primitives and must finish with no violation.
//! * **Mutation sweep** — every seeded defect in `reomp_model::mutants`
//!   (flipped `Ordering`s — including a relaxed ticket `serving` load or
//!   store — store-instead-of-swap release, edge snapshot after publish,
//!   chunked dump, disabled watchdog, a record lane that publishes its
//!   length before writing the slot)
//!   must be *caught*: the checker must report a
//!   violation against the corresponding harness. The sweep is the
//!   harnesses' sensitivity proof — a harness that cannot see the seeded
//!   defect would not see the real regression either.
//! * **Locked-instruction budget** — one warm gate per scheme × mode ×
//!   D ∈ {1, 2}, counted by the model (RMWs, compare-exchanges, mutex
//!   acquisitions), must match README's table exactly; a ticket exit
//!   that is a `fetch_add` again must break it.
//!
//! By default each harness runs under a schedule cap and a wall-time cap
//! so the suite stays tier-1-sized. Setting `REOMP_MODEL_EXHAUSTIVE=1`
//! switches to the CI `model-check` configuration: the harnesses with
//! tractable state spaces run uncapped and must report
//! `report.complete` — a full enumeration of every interleaving the
//! dependence relation distinguishes. Seven spin-wait-heavy runs are
//! budgeted instead: `turnstile_admit_order`, `turnstile_epoch_group`,
//! the 3-thread `epoch_floor_publication`, `cross_domain_record_replay`,
//! `ticket_gate_equivalence` (buffered and streaming DE) and
//! `ticket_critical_edge_record_replay`, whose record ticket gate and
//! replay turnstiles both spin. Every failed spin re-check is its own
//! scheduling point, so their (finite) spaces grow combinatorially with
//! the number of re-checks and full enumeration is out of reach;
//! exhaustive mode raises their budget to [`HEAVY_SCHEDULES`] schedules
//! rather than asserting completeness.

use reomp_core::clock::TicketGate;
use reomp_core::sync::BatonLock;
use reomp_core::Scheme;
use reomp_model::harness as h;
use reomp_model::harness::RealTurnstile;
use reomp_model::mutants as m;
use reomp_model::shuttle::{Config, Report, ViolationKind};
use std::time::Duration;

fn exhaustive() -> bool {
    std::env::var("REOMP_MODEL_EXHAUSTIVE").is_ok_and(|v| v == "1")
}

/// Exhaustive-mode schedule budget for the spin-wait-heavy harnesses.
const HEAVY_SCHEDULES: u64 = 100_000;

/// Bounded by default; uncapped when `REOMP_MODEL_EXHAUSTIVE=1`.
fn cfg() -> Config {
    let mut c = Config::default();
    if !exhaustive() {
        c.max_schedules = Some(2_000);
        c.max_time = Some(Duration::from_secs(30));
    }
    c
}

/// For the spin-wait-heavy harnesses: bounded in both modes, with a much
/// larger budget in exhaustive mode.
fn heavy_cfg() -> Config {
    let mut c = Config::default();
    if exhaustive() {
        c.max_schedules = Some(HEAVY_SCHEDULES);
        c.max_time = Some(Duration::from_secs(900));
    } else {
        c.max_schedules = Some(2_000);
        c.max_time = Some(Duration::from_secs(30));
    }
    c
}

#[track_caller]
fn assert_clean(name: &str, report: &Report) {
    if let Some(v) = &report.violation {
        panic!(
            "{name}: unexpected violation after {} schedules:\n{v}",
            report.schedules
        );
    }
    if exhaustive() {
        assert!(
            report.complete,
            "{name}: exploration incomplete in exhaustive mode \
             ({} schedules, max depth {})",
            report.schedules, report.max_depth
        );
    }
}

/// Like [`assert_clean`] but never requires completeness — for the
/// harnesses whose spin loops make full enumeration intractable.
#[track_caller]
fn assert_clean_budgeted(name: &str, report: &Report) {
    if let Some(v) = &report.violation {
        panic!(
            "{name}: unexpected violation after {} schedules:\n{v}",
            report.schedules
        );
    }
}

#[track_caller]
fn assert_caught(name: &str, report: &Report) -> ViolationKind {
    match &report.violation {
        Some(v) => v.kind.clone(),
        None => panic!(
            "{name}: seeded defect NOT caught ({} schedules explored, complete = {})",
            report.schedules, report.complete
        ),
    }
}

// ---------------------------------------------------------------- clean tree

#[test]
fn clean_baton_handoff() {
    assert_clean("baton_handoff", &h::baton_handoff(BatonLock::new, &cfg()));
}

#[test]
fn clean_baton_double_release() {
    assert_clean(
        "baton_double_release",
        &h::baton_double_release(BatonLock::new, &cfg()),
    );
}

#[test]
fn clean_baton_racing_releases() {
    assert_clean(
        "baton_racing_releases",
        &h::baton_racing_releases(BatonLock::new, &cfg()),
    );
}

#[test]
fn clean_turnstile_admit_order() {
    assert_clean_budgeted(
        "turnstile_admit_order",
        &h::turnstile_admit_order(RealTurnstile::new, &heavy_cfg()),
    );
}

#[test]
fn clean_turnstile_epoch_group() {
    assert_clean_budgeted(
        "turnstile_epoch_group",
        &h::turnstile_epoch_group(RealTurnstile::new, &heavy_cfg()),
    );
}

#[test]
fn clean_turnstile_handoff_visibility() {
    assert_clean(
        "turnstile_handoff_visibility",
        &h::turnstile_handoff_visibility(RealTurnstile::new, &cfg()),
    );
}

#[test]
fn clean_epoch_floor_publication() {
    use reomp_core::AccessKind::{Load, Store};
    assert_clean(
        "epoch_floor_publication",
        &h::epoch_floor_publication(2, &[Load, Store], &cfg()),
    );
}

#[test]
fn clean_epoch_fixup_crosses_threads_and_races_a_flush() {
    use reomp_core::AccessKind::Store;
    // Three threads, one store run: the middle stores' fix-ups are posted
    // by one thread while their owner is between its append and its flush.
    assert_clean_budgeted(
        "epoch_floor_publication/3 threads",
        &h::epoch_floor_publication(3, &[Store, Store], &heavy_cfg()),
    );
}

#[test]
fn clean_cross_domain_record_replay() {
    assert_clean_budgeted(
        "cross_domain_record_replay",
        &h::cross_domain_record_replay(&heavy_cfg()),
    );
}

#[test]
fn clean_flight_evict_vs_dump() {
    assert_clean("flight_evict_vs_dump", &h::flight_evict_vs_dump(&cfg()));
}

#[test]
fn clean_ticket_handoff() {
    assert_clean(
        "ticket_handoff",
        &h::ticket_handoff(TicketGate::new, &cfg()),
    );
}

#[test]
fn clean_ticket_gate_equivalence() {
    assert_clean_budgeted(
        "ticket_gate_equivalence",
        &h::ticket_gate_equivalence(false, &heavy_cfg()),
    );
}

#[test]
fn clean_ticket_gate_equivalence_streaming_de() {
    assert_clean_budgeted(
        "ticket_gate_equivalence/streaming DE",
        &h::ticket_gate_equivalence(true, &heavy_cfg()),
    );
}

#[test]
fn clean_ticket_critical_edge_record_replay() {
    assert_clean_budgeted(
        "ticket_critical_edge_record_replay",
        &h::ticket_critical_edge_record_replay(&heavy_cfg()),
    );
}

#[test]
fn clean_lane_owner_vs_drain() {
    assert_clean("lane_owner_vs_drain", &h::lane_owner_vs_drain(&cfg()));
}

#[test]
fn clean_st_dump_vs_steal() {
    assert_clean("st_dump_vs_steal", &h::st_dump_vs_steal(&cfg(), 1));
}

#[test]
fn clean_st_steal_vs_steal() {
    assert_clean(
        "st_dump_vs_steal, two gaters",
        &h::st_dump_vs_steal(&cfg(), 2),
    );
}

#[test]
fn clean_spinwait_watchdog() {
    assert_clean(
        "spinwait_watchdog",
        &h::spinwait_watchdog(Some(Duration::from_millis(50)), &cfg()),
    );
}

// ------------------------------------------------------- faithful controls

// The parameterized mutant types with their faithful settings must also
// pass — otherwise a "caught" mutant below could be an artifact of the
// mutant scaffolding rather than the seeded defect.

#[test]
fn control_faithful_baton() {
    assert_clean(
        "faithful baton / handoff",
        &h::baton_handoff(m::MutBaton::faithful, &cfg()),
    );
    assert_clean(
        "faithful baton / double release",
        &h::baton_double_release(m::MutBaton::faithful, &cfg()),
    );
    assert_clean(
        "faithful baton / racing releases",
        &h::baton_racing_releases(m::MutBaton::faithful, &cfg()),
    );
}

#[test]
fn control_faithful_turnstile() {
    assert_clean(
        "faithful turnstile / visibility",
        &h::turnstile_handoff_visibility(m::MutTurnstile::faithful, &cfg()),
    );
    // The copy's waits spin without a watchdog, so this enumeration has
    // no end: the control runs at the tier-1 budget in both modes.
    let mut capped = cfg();
    capped.max_schedules = Some(2_000);
    assert_clean_budgeted(
        "faithful turnstile / epoch group",
        &h::turnstile_epoch_group(m::MutTurnstile::faithful, &capped),
    );
}

#[test]
fn control_faithful_ticket() {
    assert_clean(
        "faithful ticket / handoff",
        &h::ticket_handoff(m::MutTicket::faithful, &cfg()),
    );
}

#[test]
fn control_faithful_minis() {
    assert_clean("edge_stamp_mini clean", &m::edge_stamp_mini(false, &cfg()));
    assert_clean("flight_mini clean", &m::flight_mini(false, &cfg()));
    assert_clean("lane_mini clean", &m::lane_mini(false, &cfg()));
}

// ---------------------------------------------------------- mutation sweep

#[test]
fn mutant_baton_relaxed_acquire_is_caught() {
    assert_caught(
        "relaxed-acquire baton",
        &h::baton_handoff(m::MutBaton::relaxed_acquire, &cfg()),
    );
}

#[test]
fn mutant_baton_relaxed_release_is_caught() {
    assert_caught(
        "relaxed-release baton",
        &h::baton_handoff(m::MutBaton::relaxed_release, &cfg()),
    );
}

#[test]
fn mutant_baton_store_release_is_caught() {
    // The reverted swap loses double-release detection in every schedule…
    assert_caught(
        "store-release baton / double release",
        &h::baton_double_release(m::MutBaton::store_release, &cfg()),
    );
    // …and lets both racing releases "succeed".
    assert_caught(
        "store-release baton / racing releases",
        &h::baton_racing_releases(m::MutBaton::store_release, &cfg()),
    );
}

#[test]
fn mutant_turnstile_relaxed_is_caught() {
    assert_caught(
        "relaxed turnstile",
        &h::turnstile_handoff_visibility(m::MutTurnstile::relaxed, &cfg()),
    );
}

#[test]
fn mutant_turnstile_de_owner_store_is_caught() {
    assert_caught(
        "DE advancing with the owner store",
        &h::turnstile_epoch_group(m::MutTurnstile::de_owner_store, &cfg()),
    );
}

#[test]
fn mutant_ticket_relaxed_enter_is_caught() {
    assert_caught(
        "relaxed-enter ticket gate",
        &h::ticket_handoff(m::MutTicket::relaxed_enter, &cfg()),
    );
}

#[test]
fn mutant_ticket_relaxed_exit_is_caught() {
    assert_caught(
        "relaxed-exit ticket gate",
        &h::ticket_handoff(m::MutTicket::relaxed_exit, &cfg()),
    );
}

#[test]
fn mutant_edge_snapshot_after_publish_is_caught() {
    assert_caught(
        "edge snapshot after publish",
        &m::edge_stamp_mini(true, &cfg()),
    );
}

#[test]
fn mutant_flight_chunked_dump_is_caught() {
    assert_caught("chunked flight dump", &m::flight_mini(true, &cfg()));
}

#[test]
fn mutant_lane_publish_before_write_is_caught() {
    assert_caught(
        "record lane publishing its length before writing the slot",
        &m::lane_mini(true, &cfg()),
    );
}

#[test]
fn mutant_watchdog_disabled_is_caught() {
    let kind = assert_caught("watchdog disabled", &h::spinwait_watchdog(None, &cfg()));
    assert!(
        matches!(kind, ViolationKind::Livelock { .. }),
        "disabled watchdog should surface as a livelock, got {kind:?}"
    );
}

// ------------------------------------------------- locked-instruction budget

/// README's "locked instructions per gate" column, counted by the model
/// (RMWs, compare-exchanges and mutex acquisitions of one warm gate):
/// `(scheme, replay, D = 1, D = 2)`. ST replay counts a gate that wins the
/// baton and reads its own record (acquire CAS, release swap); at D > 1 it
/// also mirrors the turnstile's completion count, with the baton holder's
/// owner store. DC replay advances the turnstile with the owner store of
/// the one thread its clock admits; DE keeps the `fetch_add`.
const GATE_BUDGET: [(Scheme, bool, u64, u64); 6] = [
    (Scheme::St, false, 1, 1),
    (Scheme::Dc, false, 1, 1),
    (Scheme::De, false, 1, 1),
    (Scheme::St, true, 2, 2),
    (Scheme::Dc, true, 0, 0),
    (Scheme::De, true, 1, 1),
];

#[test]
fn locked_instruction_budget_per_gate() {
    use reomp_core::AccessKind::{Load, Store};
    let mut measured = Vec::new();
    for (scheme, replay, d1, d2) in GATE_BUDGET {
        let at =
            |domains| h::gate_locked_instructions(scheme, replay, domains, &[Load, Load, Load]);
        measured.push((scheme, replay, at(1), at(2)));
        assert_eq!(
            (at(1), at(2)),
            (d1, d2),
            "{scheme:?} {} gate: locked instructions at D = 1, 2",
            if replay { "replay" } else { "record" }
        );
    }
    // A DE store that proves the previous store of its run keeps the
    // run's epoch posts a fix-up: the owner's mailbox mutex on top.
    assert_eq!(
        h::gate_locked_instructions(Scheme::De, false, 1, &[Store, Store, Store]),
        2,
        "DE record gate posting a fix-up"
    );
    eprintln!("locked instructions per warm gate (scheme, replay, D=1, D=2): {measured:?}");
}

#[test]
fn ticket_gate_budget_is_one_locked_instruction() {
    assert_eq!(h::ticket_locked_instructions(TicketGate::new), 1);
    assert_eq!(h::ticket_locked_instructions(m::MutTicket::faithful), 1);
}

#[test]
fn mutant_ticket_rmw_exit_breaks_the_budget() {
    assert_eq!(
        h::ticket_locked_instructions(m::MutTicket::rmw_exit),
        2,
        "an exit `fetch_add` is a second locked instruction per gate"
    );
}

/// `stats.rs` is outside the shim seam — its counters are plain `std`
/// atomics the model does not count — so a guard holds it to plain loads
/// and stores: no RMW may hide on the per-gate path there.
#[test]
fn stats_counters_use_no_rmw() {
    let src = include_str!("../../reomp-core/src/stats.rs");
    for rmw in ["fetch_", ".swap(", "compare_exchange"] {
        assert!(!src.contains(rmw), "stats.rs contains `{rmw}`");
    }
}

// ------------------------------------------------------------ ordering audit

#[test]
fn memory_ordering_audit_is_clean() {
    let findings = reomp_model::audit::audit_workspace();
    assert!(
        findings.is_empty(),
        "memory-ordering audit failed ({} unjustified sites):\n{}",
        findings.len(),
        findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
}
