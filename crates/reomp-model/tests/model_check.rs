//! Tier-1 entry for the schedule-space model checker.
//!
//! Two suites:
//!
//! * **Clean-tree checks** — every harness in `reomp_model::harness` runs
//!   over the real primitives and must finish with no violation.
//! * **Mutation sweep** — every seeded defect in `reomp_model::mutants`
//!   (flipped `Ordering`s — including the relaxed ticket `fetch_add` —
//!   store-instead-of-swap release, edge snapshot after publish, floor
//!   raised before the fix-up is posted, batch-publish overshoot, chunked dump,
//!   disabled watchdog) must be *caught*: the checker must report a
//!   violation against the corresponding harness. The sweep is the
//!   harnesses' sensitivity proof — a harness that cannot see the seeded
//!   defect would not see the real regression either.
//!
//! By default each harness runs under a schedule cap and a wall-time cap
//! so the suite stays tier-1-sized. Setting `REOMP_MODEL_EXHAUSTIVE=1`
//! switches to the CI `model-check` configuration: the harnesses with
//! tractable state spaces run uncapped and must report
//! `report.complete` — a full enumeration of every interleaving the
//! dependence relation distinguishes. The three spin-wait-heavy harnesses
//! (`turnstile_admit_order`, `turnstile_epoch_group`,
//! `cross_domain_record_replay` — and the session-level ticket-gate
//! harnesses `ticket_gate_equivalence` and
//! `batched_cross_domain_record_replay`, whose record fast path and
//! replay turnstiles both spin) are budgeted instead: every failed
//! spin re-check is its own scheduling point, so their (finite) spaces
//! grow combinatorially with the number of re-checks and full
//! enumeration is out of reach; exhaustive mode raises their budget to
//! [`HEAVY_SCHEDULES`] schedules rather than asserting completeness.

use reomp_core::clock::TicketGate;
use reomp_core::sync::BatonLock;
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
fn clean_batched_cross_domain_record_replay() {
    assert_clean_budgeted(
        "batched_cross_domain_record_replay",
        &h::batched_cross_domain_record_replay(&heavy_cfg()),
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
    assert_clean("floor_mini clean", &m::floor_mini(false, &cfg()));
    assert_clean("flight_mini clean", &m::flight_mini(false, &cfg()));
    assert_clean(
        "batch_publish_mini clean",
        &m::batch_publish_mini(false, &cfg()),
    );
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
fn mutant_batch_publish_overshoot_is_caught() {
    assert_caught(
        "batch publish overshoot",
        &m::batch_publish_mini(true, &cfg()),
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
fn mutant_floor_before_fixup_is_caught() {
    assert_caught("floor before fix-up", &m::floor_mini(true, &cfg()));
}

#[test]
fn mutant_flight_chunked_dump_is_caught() {
    assert_caught("chunked flight dump", &m::flight_mini(true, &cfg()));
}

#[test]
fn mutant_watchdog_disabled_is_caught() {
    let kind = assert_caught("watchdog disabled", &h::spinwait_watchdog(None, &cfg()));
    assert!(
        matches!(kind, ViolationKind::Livelock { .. }),
        "disabled watchdog should surface as a livelock, got {kind:?}"
    );
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
