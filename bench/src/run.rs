//! One workload's run: set-up, the timed repetitions, and the metrics.
//!
//! Every repetition runs the six timed modes (`st|dc|de` × record|replay)
//! back to back, so drift hits all alike; a metric is the median over the
//! repetitions that fit in `--seconds`.

use crate::layers;
use crate::names;
use crate::spans::Tracer;
use crate::summary::{percentile, Summary};
use crate::workloads::{self, Checks, Env, ModeRun, Workload};
use reomp_core::{Scheme, StatsSnapshot};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How often set-up is repeated; `setup_s` is the median.
const SETUPS: usize = 5;
/// Repetitions measured even when `--seconds` is shorter than they take.
const MIN_REPS: usize = 3;
/// Share of a traced run's `--seconds` spent on the workload's traced
/// repetitions; the isolated layer measurements take the rest.
const TRACED_WORKLOAD_SHARE: f64 = 0.6;

/// What to run: the workload, the seed its inputs are drawn from, and by
/// how much to divide its full size (1 outside the unit tests).
#[derive(Debug, Clone, Copy)]
pub struct What<'a> {
    pub name: &'a str,
    pub seed: u64,
    pub shrink: usize,
}

/// A finished run: named metrics plus the check tally.
#[derive(Debug)]
pub struct Outcome {
    pub ops: u64,
    pub reps: usize,
    pub metrics: BTreeMap<String, (Summary, &'static str)>,
    pub checks: Checks,
    pub pinned: bool,
    /// Chrome trace-event JSON of the traced run's spans.
    pub trace_json: Option<String>,
}

/// One full set-up: draw the inputs, make the three scripted recordings,
/// and run one untimed warm-up repetition.
///
/// Returns the workload, ready to replay, and the scripted traces' sizes
/// in bytes per scheme; `None` for an unknown workload name.
pub fn set_up(
    what: &What<'_>,
    env: &Env,
    checks: &mut Checks,
) -> Option<(Box<dyn Workload>, [u64; 3])> {
    let mut workload = workloads::build(what.name, what.seed, what.shrink)?;
    let mut bytes = [0u64; 3];
    for scheme in Scheme::ALL {
        let scripted = workload.script(scheme, env);
        bytes[usize::from(scheme.code())] = scripted.bytes;
        checks.absorb(scripted.checks);
    }
    let mut tracer = Tracer::new(false);
    for scheme in Scheme::ALL {
        checks.absorb(workload.record(scheme, env, &mut tracer).checks);
        checks.absorb(workload.replay(scheme, env, &mut tracer).checks);
    }
    Some((workload, bytes))
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Samples of one repetition loop, per mode.
#[derive(Default)]
struct Samples {
    /// `[scheme][record|replay]` → ns per op, one per repetition.
    elapsed: [[Vec<f64>; 2]; 3],
    run: [[Vec<f64>; 2]; 3],
    /// Sampled DC gate-call latencies, `[record|replay]`.
    dc_calls: [Vec<f64>; 2],
    /// Last repetition's counters, `[scheme][record|replay]`.
    stats: [[Option<StatsSnapshot>; 2]; 3],
    /// ns per op of the untraced DC recordings riding along a traced run.
    untraced_dc: Vec<f64>,
}

impl Samples {
    fn push(&mut self, scheme: Scheme, replay: bool, ops: u64, run: ModeRun) {
        let (s, m) = (usize::from(scheme.code()), usize::from(replay));
        self.elapsed[s][m].push(run.elapsed.as_nanos() as f64 / ops as f64);
        self.run[s][m].push(run.run.as_nanos() as f64 / ops as f64);
        if scheme == Scheme::Dc {
            self.dc_calls[m].extend(run.calls);
        }
        if run.stats.is_some() {
            self.stats[s][m] = run.stats;
        }
    }
}

/// Repeat the six modes until `budget` is spent (at least [`MIN_REPS`]
/// times). With `bare`, an untraced DC recording under that environment
/// rides along in every repetition, right next to the traced one: the
/// difference between the two is what tracing costs.
fn measure(
    workload: &dyn Workload,
    env: &Env,
    tracer: &mut Tracer,
    budget: Duration,
    bare: Option<&Env>,
    checks: &mut Checks,
) -> (Samples, usize) {
    let ops = workload.ops();
    let mut samples = Samples::default();
    let started = Instant::now();
    let mut reps = 0;
    while reps < MIN_REPS || started.elapsed() < budget {
        let ride_along = |samples: &mut Samples, checks: &mut Checks| {
            if let Some(plain) = bare {
                let run = workload.record(Scheme::Dc, plain, &mut Tracer::new(false));
                samples
                    .untraced_dc
                    .push(run.elapsed.as_nanos() as f64 / ops as f64);
                checks.absorb(run.checks);
            }
        };
        for scheme in Scheme::ALL {
            // Alternate which of the pair goes first, so that what ran
            // just before favours neither.
            let paired = scheme == Scheme::Dc;
            if paired && reps % 2 == 0 {
                ride_along(&mut samples, checks);
            }
            let mut run = workload.record(scheme, env, tracer);
            checks.absorb(std::mem::take(&mut run.checks));
            samples.push(scheme, false, ops, run);
            if paired && reps % 2 == 1 {
                ride_along(&mut samples, checks);
            }
            let mut run = workload.replay(scheme, env, tracer);
            checks.absorb(std::mem::take(&mut run.checks));
            samples.push(scheme, true, ops, run);
        }
        reps += 1;
    }
    (samples, reps)
}

/// Summary of `samples`, or zero when a broken run produced none.
fn summarize(samples: &[f64]) -> Summary {
    if samples.is_empty() {
        Summary::exact(0.0)
    } else {
        Summary::of(samples)
    }
}

/// The untraced run: every end-to-end metric.
#[must_use]
pub fn untraced(what: &What<'_>, seconds: f64, env: &Env) -> Option<Outcome> {
    let mut checks = Checks::default();
    let mut setups = Vec::with_capacity(SETUPS);
    let mut ready = None;
    for _ in 0..SETUPS {
        // Let go of the previous set-up's traces first, so that peak RSS
        // never holds two of them.
        drop(ready.take());
        let t0 = Instant::now();
        ready = Some(set_up(what, env, &mut checks)?);
        setups.push(t0.elapsed().as_secs_f64());
    }
    let (workload, bytes) = ready?;
    Some(measure_end_to_end(
        workload.as_ref(),
        bytes,
        &setups,
        seconds,
        env,
        checks,
    ))
}

/// The timed repetitions of an untraced run over a set-up workload, and
/// the end-to-end metrics they give.
#[must_use]
pub fn measure_end_to_end(
    workload: &dyn Workload,
    bytes: [u64; 3],
    setups: &[f64],
    seconds: f64,
    env: &Env,
    mut checks: Checks,
) -> Outcome {
    let ops = workload.ops();
    let budget = Duration::from_secs_f64(seconds);
    let (samples, reps) = measure(
        workload,
        env,
        &mut Tracer::new(false),
        budget,
        None,
        &mut checks,
    );

    let mut metrics = BTreeMap::new();
    metrics.insert("setup_s".to_string(), (Summary::of(setups), "s"));
    for scheme in Scheme::ALL {
        let (s, n) = (usize::from(scheme.code()), scheme.name());
        metrics.insert(
            format!("{n}.record_ns_per_op"),
            (Summary::of(&samples.elapsed[s][0]), "ns"),
        );
        metrics.insert(
            format!("{n}.replay_ns_per_op"),
            (Summary::of(&samples.elapsed[s][1]), "ns"),
        );
        metrics.insert(
            format!("{n}.trace_bytes_per_op"),
            (Summary::exact(bytes[s] as f64 / ops as f64), "B"),
        );
    }
    metrics.insert(
        "peak_rss_mib".to_string(),
        (Summary::exact(peak_rss_mib()), "MiB"),
    );
    debug_assert!(names::END_TO_END
        .iter()
        .all(|(name, unit, _)| metrics.get(*name).is_some_and(|m| m.1 == *unit)));
    Outcome {
        ops,
        reps,
        metrics,
        checks,
        pinned: env.pinned(),
        trace_json: None,
    }
}

fn per_op(count: u64, ops: u64) -> Summary {
    Summary::exact(count as f64 / ops as f64)
}

/// The traced run: every per-layer metric, plus the spans.
#[must_use]
pub fn traced(what: &What<'_>, seconds: f64, env: &Env) -> Option<Outcome> {
    let mut checks = Checks::default();
    let (workload, _) = set_up(what, env, &mut checks)?;
    let ops = workload.ops();

    // The workload itself, with spans and call sampling on.
    let mut tracer = Tracer::new(true);
    let plain = Env::new(env.cpus.clone(), env.tmp.clone(), false);
    let budget = Duration::from_secs_f64(seconds * TRACED_WORKLOAD_SHARE);
    let started = Instant::now();
    let (samples, reps) = measure(
        workload.as_ref(),
        env,
        &mut tracer,
        budget,
        Some(&plain),
        &mut checks,
    );

    let mut metrics: BTreeMap<String, (Summary, &'static str)> = BTreeMap::new();
    let mut put = |name: &str, value: Summary, unit: &'static str| {
        metrics.insert(name.to_string(), (value, unit));
    };

    // One sample per repetition: the mean of the three schemes' spans
    // (they come in st, dc, de order), scaled to the metric's unit.
    let per_rep = |name: &str, scale: f64| -> Summary {
        let means: Vec<f64> = tracer
            .durations_of(name)
            .chunks_exact(Scheme::ALL.len())
            .map(|c| c.iter().sum::<f64>() / c.len() as f64 * scale)
            .collect();
        summarize(&means)
    };
    put(
        "session.record_build_us",
        per_rep("session.record_build", 1e-3),
        "us",
    );
    put(
        "session.replay_build_us",
        per_rep("session.replay_build", 1e-3),
        "us",
    );
    put(
        "session.replay_finish_us",
        per_rep("session.replay_finish", 1e-3),
        "us",
    );
    put(
        "session.record_finish_ns_per_op",
        per_rep("session.record_finish", 1.0 / ops as f64),
        "ns",
    );

    let solo = layers::gate_solo(seconds);
    for scheme in Scheme::ALL {
        let (s, n) = (usize::from(scheme.code()), scheme.name());
        for (m, mode) in ["record", "replay"].into_iter().enumerate() {
            let run = Summary::of(&samples.run[s][m]);
            put(&format!("gate.{n}.{mode}_run_ns_per_op"), run, "ns");
            let share = 1.0 - solo[s][m].median / run.median;
            put(
                &format!("gate.{n}.{mode}_wait_share"),
                Summary::exact(share),
                "ratio",
            );
            put(&format!("gate.{n}.{mode}_solo_ns"), solo[s][m], "ns");
        }
    }
    for (m, mode) in ["record", "replay"].into_iter().enumerate() {
        let calls = &samples.dc_calls[m];
        let pick = |p: f64| {
            if calls.is_empty() {
                Summary::exact(0.0)
            } else {
                Summary {
                    n: calls.len(),
                    ..Summary::exact(percentile(calls, p))
                }
            }
        };
        put(&format!("gate.dc.{mode}_call_p50_ns"), pick(50.0), "ns");
        put(&format!("gate.dc.{mode}_call_p99_ns"), pick(99.0), "ns");
    }

    let epochs = workload.epochs();
    let per_epoch = if epochs.total_epochs() == 0 {
        0.0
    } else {
        epochs.total_accesses() as f64 / epochs.total_epochs() as f64
    };
    put("epoch.ops_per_epoch", Summary::exact(per_epoch), "count");
    put(
        "epoch.share_ops_in_multi",
        Summary::exact(epochs.frac_accesses_gt1()),
        "ratio",
    );

    // Table VI counters, per op. Gate-mutex acquisitions are averaged
    // over the three schemes' recordings (ST always locks, DC never, DE
    // when it streams); deferrals are DE's; the replay-side counters are
    // the DC replay's.
    let stat = |scheme: Scheme, replay: bool| {
        samples.stats[usize::from(scheme.code())][usize::from(replay)].unwrap_or_default()
    };
    let (dc_rep, de_rec) = (stat(Scheme::Dc, true), stat(Scheme::De, false));
    let locks: u64 = Scheme::ALL
        .iter()
        .map(|&s| stat(s, false).lock_acquires)
        .sum();
    put(
        "stats.lock_acquires_per_op",
        per_op(locks, 3 * ops),
        "count",
    );
    put("stats.comms_per_op", per_op(dc_rep.comms, ops), "count");
    put("stats.waits_per_op", per_op(dc_rep.waits, ops), "count");
    put(
        "stats.spin_iters_per_op",
        per_op(dc_rep.spin_iters, ops),
        "count",
    );
    put(
        "stats.deferred_per_op",
        per_op(de_rec.deferred_finalizations, ops),
        "count",
    );
    put(
        "stats.edge_waits_per_op",
        per_op(dc_rep.edge_waits, ops),
        "count",
    );

    // Paired per repetition, so the host's drift cancels: the traced DC
    // recording over the untraced one that ran right next to it.
    let overhead: Vec<f64> = samples.elapsed[usize::from(Scheme::Dc.code())][0]
        .iter()
        .zip(&samples.untraced_dc)
        .map(|(traced, untraced)| traced / untraced - 1.0)
        .collect();
    put("trace.overhead_share", summarize(&overhead), "ratio");

    // Everything that does not depend on the workload, in the time left.
    let left = (seconds - started.elapsed().as_secs_f64()).max(0.0);
    for (name, value, unit) in layers::isolated(what.seed, env, left) {
        put(&name, value, unit);
    }

    for (name, unit) in names::per_layer() {
        debug_assert!(
            metrics.get(&name).is_some_and(|m| m.1 == unit),
            "per-layer metric {name} missing or in the wrong unit"
        );
    }
    Some(Outcome {
        ops,
        reps,
        metrics,
        checks,
        pinned: env.pinned(),
        trace_json: Some(tracer.to_chrome_json()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::tests::{serial, test_env};
    use std::collections::BTreeSet;

    fn names_of(outcome: &Outcome) -> BTreeSet<(String, &'static str)> {
        outcome
            .metrics
            .iter()
            .map(|(name, (_, unit))| (name.clone(), *unit))
            .collect()
    }

    #[test]
    fn every_workload_emits_exactly_the_declared_end_to_end_metrics() {
        let _turn = serial();
        let env = test_env("e2e", false);
        let declared: BTreeSet<(String, &'static str)> = names::END_TO_END
            .iter()
            .map(|&(name, unit, _)| (name.to_string(), unit))
            .collect();
        for name in workloads::NAMES {
            let what = What {
                name,
                seed: 3,
                shrink: 200,
            };
            let outcome = untraced(&what, 0.0, &env).expect("known workload");
            assert_eq!(names_of(&outcome), declared, "{name}");
            assert_eq!(
                outcome.checks.failed, 0,
                "{name}: {:?}",
                outcome.checks.notes
            );
            assert!(outcome.checks.attempted > 0 && outcome.reps == MIN_REPS);
            for (metric, (summary, _)) in &outcome.metrics {
                assert!(
                    summary.median.is_finite() && summary.median > 0.0,
                    "{name} {metric}"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&env.tmp);
    }

    #[test]
    fn the_traced_run_emits_exactly_the_declared_per_layer_metrics() {
        let _turn = serial();
        let env = test_env("layers", true);
        let what = What {
            name: "reads_sharded",
            seed: 3,
            shrink: 200,
        };
        let outcome = traced(&what, 0.0, &env).expect("known workload");
        let declared: BTreeSet<(String, &'static str)> = names::per_layer().into_iter().collect();
        assert_eq!(names_of(&outcome), declared);
        assert_eq!(outcome.checks.failed, 0, "{:?}", outcome.checks.notes);
        assert!(outcome.metrics.values().all(|(s, _)| s.median.is_finite()));
        // The spans load as JSON and carry the layer boundaries.
        let trace = crate::json::parse(&outcome.trace_json.expect("a traced run keeps its spans"))
            .expect("trace-event JSON parses");
        let events = trace.get("traceEvents").expect("traceEvents").as_array();
        for span in ["session.record_build", "gate.run", "session.replay_finish"] {
            assert!(
                events
                    .iter()
                    .any(|e| e.get("name").and_then(crate::json::Json::as_str) == Some(span)),
                "no {span} span"
            );
        }
        let _ = std::fs::remove_dir_all(&env.tmp);
    }

    /// A failed check counts; it does not stop the run. Swap two records
    /// of the scripted DC trace: every DC replay must now fail (the first
    /// access waits for a clock that can only come after it), the run
    /// must still finish, and every metric must still be there.
    #[test]
    fn a_misordered_replay_lands_in_the_failed_count_and_the_run_completes() {
        let _turn = serial();
        let mut env = test_env("sabotage", false);
        env.watchdog = Duration::from_millis(100);
        let what = What {
            name: "reads_sharded",
            seed: 5,
            shrink: 200,
        };
        let mut checks = Checks::default();
        let (mut workload, bytes) = set_up(&what, &env, &mut checks).expect("known workload");
        assert_eq!(checks.failed, 0, "{:?}", checks.notes);

        workload.corrupt_dc_trace();
        let outcome = measure_end_to_end(workload.as_ref(), bytes, &[0.1], 0.0, &env, checks);

        // Per repetition the DC replay fails three checks (failed, records
        // left over, output differs); nothing else fails.
        assert_eq!(
            outcome.checks.failed,
            3 * outcome.reps as u64,
            "{:?}",
            outcome.checks.notes
        );
        assert!(outcome.checks.attempted > outcome.checks.failed);
        assert!(outcome
            .checks
            .notes
            .iter()
            .all(|n| n.starts_with("dc replay")));
        for (name, _, _) in names::END_TO_END {
            assert!(outcome.metrics.contains_key(name), "{name} missing");
        }
        let _ = std::fs::remove_dir_all(&env.tmp);
    }
}
