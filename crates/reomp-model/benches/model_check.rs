//! Schedule-space exploration metrics per harness.
//!
//! Not a criterion bench: model checking is deterministic, so the numbers
//! of interest are the state-space sizes, the DPOR (sleep-set) reduction
//! factor versus naive DFS, and the wall time of one full exploration —
//! one row per harness, the source of the table in `EXPERIMENTS.md`.
//!
//! Run with `cargo bench -p reomp-model --bench model_check`. Environment:
//!
//! * `REOMP_MODEL_BENCH_SECS` — per-exploration time cap in seconds
//!   (default 60; explorations that hit it report a lower bound).
//! * `REOMP_MODEL_BENCH_SCHEDULES` — per-exploration schedule cap
//!   (default 1,000,000).
//!
//! Positional arguments (after `--`) select harnesses by substring.

use reomp_core::sync::BatonLock;
use reomp_model::harness as h;
use reomp_model::harness::RealTurnstile;
use reomp_model::shuttle::{Config, Report};
use std::time::Duration;

struct Row {
    name: &'static str,
    run: fn(&Config) -> Report,
}

fn run_baton_handoff(cfg: &Config) -> Report {
    h::baton_handoff(BatonLock::new, cfg)
}
fn run_baton_double_release(cfg: &Config) -> Report {
    h::baton_double_release(BatonLock::new, cfg)
}
fn run_baton_racing_releases(cfg: &Config) -> Report {
    h::baton_racing_releases(BatonLock::new, cfg)
}
fn run_turnstile_admit_order(cfg: &Config) -> Report {
    h::turnstile_admit_order(RealTurnstile::new, cfg)
}
fn run_turnstile_epoch_group(cfg: &Config) -> Report {
    h::turnstile_epoch_group(RealTurnstile::new, cfg)
}
fn run_turnstile_handoff_visibility(cfg: &Config) -> Report {
    h::turnstile_handoff_visibility(RealTurnstile::new, cfg)
}
fn run_epoch_floor_publication(cfg: &Config) -> Report {
    use reomp_core::AccessKind::{Load, Store};
    h::epoch_floor_publication(2, &[Load, Store], cfg)
}
fn run_cross_domain_record_replay(cfg: &Config) -> Report {
    h::cross_domain_record_replay(cfg)
}
fn run_flight_evict_vs_dump(cfg: &Config) -> Report {
    h::flight_evict_vs_dump(cfg)
}
fn run_spinwait_watchdog(cfg: &Config) -> Report {
    h::spinwait_watchdog(Some(Duration::from_millis(50)), cfg)
}

const ROWS: &[Row] = &[
    Row {
        name: "baton_handoff",
        run: run_baton_handoff,
    },
    Row {
        name: "baton_double_release",
        run: run_baton_double_release,
    },
    Row {
        name: "baton_racing_releases",
        run: run_baton_racing_releases,
    },
    Row {
        name: "turnstile_admit_order",
        run: run_turnstile_admit_order,
    },
    Row {
        name: "turnstile_epoch_group",
        run: run_turnstile_epoch_group,
    },
    Row {
        name: "turnstile_handoff_visibility",
        run: run_turnstile_handoff_visibility,
    },
    Row {
        name: "epoch_floor_publication",
        run: run_epoch_floor_publication,
    },
    Row {
        name: "cross_domain_record_replay",
        run: run_cross_domain_record_replay,
    },
    Row {
        name: "flight_evict_vs_dump",
        run: run_flight_evict_vs_dump,
    },
    Row {
        name: "spinwait_watchdog",
        run: run_spinwait_watchdog,
    },
];

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn cfg(sleep_sets: bool) -> Config {
    Config {
        sleep_sets,
        max_schedules: Some(env_u64("REOMP_MODEL_BENCH_SCHEDULES", 1_000_000)),
        max_time: Some(Duration::from_secs(env_u64("REOMP_MODEL_BENCH_SECS", 60))),
        ..Config::default()
    }
}

fn fmt_count(r: &Report) -> String {
    if r.complete {
        r.schedules.to_string()
    } else {
        format!("≥{}", r.schedules)
    }
}

fn main() {
    let filters: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--bench")
        .collect();
    println!(
        "{:<30} {:>12} {:>12} {:>7} {:>9} {:>10}",
        "harness", "naive DFS", "sleep sets", "DPOR×", "depth", "wall"
    );
    for row in ROWS {
        if !filters.is_empty() && !filters.iter().any(|f| row.name.contains(f.as_str())) {
            continue;
        }
        let naive = (row.run)(&cfg(false));
        let dpor = (row.run)(&cfg(true));
        for (mode, r) in [("naive", &naive), ("dpor", &dpor)] {
            if let Some(v) = &r.violation {
                eprintln!("{} [{mode}]: UNEXPECTED VIOLATION\n{v}", row.name);
                std::process::exit(1);
            }
        }
        let factor = if dpor.schedules == 0 || !dpor.complete {
            // Without a full sleep-set enumeration the ratio is meaningless.
            "—".to_string()
        } else if naive.complete {
            format!("{:.1}", naive.schedules as f64 / dpor.schedules as f64)
        } else {
            // Naive DFS hit its cap: the true factor is at least this.
            format!("≥{:.1}", naive.schedules as f64 / dpor.schedules as f64)
        };
        println!(
            "{:<30} {:>12} {:>12} {:>7} {:>9} {:>8.2}s",
            row.name,
            fmt_count(&naive),
            fmt_count(&dpor),
            factor,
            dpor.max_depth,
            dpor.wall.as_secs_f64()
        );
    }
}
