//! `perfbench` — the repository's benchmark. See `bench/README.md`.

use reomp_perfbench::affinity::Cpus;
use reomp_perfbench::json::{self, Json};
use reomp_perfbench::names;
use reomp_perfbench::run::{self, Outcome, What};
use reomp_perfbench::workloads::{self, Env};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 22.0;

const USAGE: &str = "\
usage: perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
       perfbench --all [--seed N] [--seconds S] [--trace [0|1]]
       perfbench --selfcheck [--seed N] [--seconds S]

  --workload  one of: synth_contended reads_sharded solo_stream hybrid_recv
  --all       run every workload, one child process each
  --trace 1   the traced run: per-layer metrics and spans instead of the
              end-to-end metrics
  --selfcheck run every workload twice with one seed and once with the next,
              and fail if any end-to-end metric moves by more than its bound";

#[derive(Debug)]
struct Args {
    workload: Option<String>,
    all: bool,
    selfcheck: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        all: false,
        selfcheck: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?),
            "--seed" => {
                out.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                out.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(out.seconds.is_finite() && out.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".into());
                }
            }
            "--trace" => {
                // A bare `--trace` means 1.
                out.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--all" => out.all = true,
            "--selfcheck" => out.selfcheck = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let modes =
        usize::from(out.workload.is_some()) + usize::from(out.all) + usize::from(out.selfcheck);
    if modes != 1 {
        return Err("give exactly one of --workload, --all, --selfcheck".into());
    }
    Ok(out)
}

/// `bench/out`, next to this crate's manifest: the only place the
/// benchmark writes.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// The checkout's git revision, read from `.git` by hand (the benchmark
/// starts no helper processes); `unknown` outside a git checkout.
fn git_revision() -> String {
    let git = Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Pin glibc's mmap threshold at its initial 128 KiB. Left alone it grows
/// with every big buffer freed, after which trace buffers are carved from
/// whichever arena the allocating thread happens to own and stay there:
/// peak RSS then jumps by 10–20 MiB from run to run with thread timing.
/// Pinned, a buffer above the threshold is always mapped and unmapped, and
/// peak RSS is the memory the code under test keeps live.
fn steady_malloc() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only stores the tunable; it is called before
        // any other thread exists.
        unsafe { mallopt(M_MMAP_THRESHOLD, 128 * 1024) };
    }
}

/// Removes the scratch directory when the run ends, however it ends.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn metrics_json(outcome: &Outcome, detailed: bool) -> Json {
    Json::Obj(
        outcome
            .metrics
            .iter()
            .map(|(name, (summary, unit))| {
                let mut members = vec![
                    ("value", Json::Num(summary.median)),
                    ("unit", Json::Str((*unit).to_string())),
                ];
                if detailed {
                    members.push(("q1", Json::Num(summary.q1)));
                    members.push(("q3", Json::Num(summary.q3)));
                    members.push(("n", Json::Num(summary.n as f64)));
                }
                (name.clone(), Json::obj(members))
            })
            .collect(),
    )
}

/// Run one workload in this process and print its result line.
fn run_one(name: &str, args: &Args) -> ExitCode {
    if !workloads::NAMES.contains(&name) {
        eprintln!("unknown workload {name}; one of {:?}", workloads::NAMES);
        return ExitCode::from(2);
    }
    let cpus = Cpus::detect();
    let nproc = cpus.count();
    let out = out_dir();
    let tmp = out.join(format!("tmp-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("cannot create {}: {e}", tmp.display());
        return ExitCode::from(2);
    }
    let _scratch = Scratch(tmp.clone());
    let env = Env::new(cpus, tmp.clone(), args.trace);
    // The driving thread shares CPU slot 0 with worker 0; it only runs
    // while the workers do not.
    env.pin(0);

    let git = git_revision();
    println!(
        "perfbench workload={name} seed={} seconds={} trace={} nproc={nproc} git={git}",
        args.seed,
        args.seconds,
        u8::from(args.trace),
    );
    println!(
        "tmp_fs={} (inside the checkout, on its file system)",
        tmp.display()
    );
    if nproc == 1 {
        // More busy threads than CPUs measures the scheduler, not the
        // schemes: report what can be counted and refuse the timings.
        return counts_only(name, args, &env);
    }

    let what = What {
        name,
        seed: args.seed,
        shrink: 1,
    };
    let outcome = if args.trace {
        run::traced(&what, args.seconds, &env)
    } else {
        run::untraced(&what, args.seconds, &env)
    };
    let Some(outcome) = outcome else {
        eprintln!("workload {name} could not be built");
        return ExitCode::from(2);
    };
    println!(
        "pinned={} ops_per_mode_run={} reps={}",
        if outcome.pinned {
            "yes"
        } else {
            "NO (fell back to unpinned threads)"
        },
        outcome.ops,
        outcome.reps
    );
    println!(
        "{:<36} {:>14} {:<6} {:>8} {:>4}",
        "metric", "median", "unit", "iqr/med", "n"
    );
    for (metric, (summary, unit)) in &outcome.metrics {
        println!(
            "{metric:<36} {:>14.4} {unit:<6} {:>7.2}% {:>4}",
            summary.median,
            summary.spread() * 100.0,
            summary.n
        );
    }
    let fail_share = outcome.checks.failed as f64 / outcome.checks.attempted.max(1) as f64;
    println!(
        "checks: {} attempted, {} failed (fail_share {fail_share})",
        outcome.checks.attempted, outcome.checks.failed
    );
    for note in &outcome.checks.notes {
        println!("  failed: {note}");
    }

    let detail = Json::obj(vec![
        ("workload", Json::Str(name.to_string())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("nproc", Json::Num(nproc as f64)),
        ("pinned", Json::Bool(outcome.pinned)),
        ("tmp_fs", Json::Str(tmp.display().to_string())),
        ("git", Json::Str(git)),
        ("ops", Json::Num(outcome.ops as f64)),
        ("reps", Json::Num(outcome.reps as f64)),
        ("attempted", Json::Num(outcome.checks.attempted as f64)),
        ("failed", Json::Num(outcome.checks.failed as f64)),
        ("fail_share", Json::Num(fail_share)),
        ("metrics", metrics_json(&outcome, true)),
    ]);
    let kind = if args.trace { "layers" } else { "result" };
    let _ = std::fs::write(
        out.join(format!("{kind}-{name}.json")),
        detail.render() + "\n",
    );
    // For the parent of an `--all` or `--selfcheck` run.
    println!("detail {}", detail.render());
    if let Some(trace) = &outcome.trace_json {
        let path = out.join(format!("trace-{name}.json"));
        match std::fs::write(&path, trace) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }

    let line = Json::obj(vec![
        ("correct", Json::Bool(outcome.checks.failed == 0)),
        (
            "attempted",
            Json::Num(outcome.checks.attempted.max(1) as f64),
        ),
        ("failed", Json::Num(outcome.checks.failed as f64)),
        ("metrics", metrics_json(&outcome, false)),
    ]);
    println!("{}", line.render());
    ExitCode::SUCCESS
}

/// Fewer CPUs than busy threads: make the scripted recordings, print what
/// they count, and refuse the timings.
fn counts_only(name: &str, args: &Args, env: &Env) -> ExitCode {
    println!("TIMINGS REFUSED: 1 CPU allowed and the workloads keep 2 threads busy; counts only");
    let Some(mut workload) = workloads::build(name, args.seed, 1) else {
        return ExitCode::from(2);
    };
    let mut checks = workloads::Checks::default();
    println!("ops_per_mode_run={}", workload.ops());
    for scheme in reomp_core::Scheme::ALL {
        let scripted = workload.script(scheme, env);
        println!(
            "{scheme}.trace_bytes_per_op {} B (counted, not timed)",
            scripted.bytes as f64 / workload.ops() as f64
        );
        checks.absorb(scripted.checks);
    }
    println!(
        "checks: {} attempted, {} failed",
        checks.attempted, checks.failed
    );
    ExitCode::from(3)
}

/// What the parent modes keep of one child run.
struct ChildRun {
    detail: Json,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.detail
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    fn number(&self, key: &str) -> f64 {
        self.detail
            .get(key)
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    }
}

/// Run one workload in a fresh child process (so memory is per workload),
/// pass its report through, and parse its detail line.
fn run_child(name: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let output = std::process::Command::new(exe)
        .args(["--workload", name, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| format!("cannot start the {name} run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut detail = None;
    for line in stdout.lines() {
        if let Some(json) = line.strip_prefix("detail ") {
            detail = json::parse(json).ok();
        } else if !line.starts_with('{') {
            println!("{line}");
        }
    }
    eprint!("{}", String::from_utf8_lossy(&output.stderr));
    if !output.status.success() {
        return Err(format!("the {name} run exited with {}", output.status));
    }
    detail
        .map(|detail| ChildRun { detail })
        .ok_or_else(|| format!("the {name} run printed no detail line"))
}

/// `--all`: every workload, one child each; one combined result.
fn run_all(args: &Args) -> ExitCode {
    let mut runs = Vec::new();
    let (mut attempted, mut failed) = (0.0, 0.0);
    for name in workloads::NAMES {
        match run_child(name, args.seed, args.seconds, args.trace) {
            Ok(run) => {
                attempted += run.number("attempted");
                failed += run.number("failed");
                runs.push((name, run.detail));
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(1);
            }
        }
        println!();
    }
    let combined = Json::obj(vec![
        ("correct", Json::Bool(failed == 0.0)),
        ("attempted", Json::Num(attempted)),
        ("failed", Json::Num(failed)),
        ("workloads", Json::obj(runs)),
    ]);
    let kind = if args.trace { "layers" } else { "result" };
    let path = out_dir().join(format!("{kind}.json"));
    if let Err(e) = std::fs::write(&path, combined.render() + "\n") {
        eprintln!("cannot write {}: {e}", path.display());
    }
    println!("{}", combined.render());
    if failed == 0.0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `--selfcheck`: the benchmark checks its own repeatability. Every
/// workload runs twice with one seed — each end-to-end metric pair must
/// agree within the metric's bound — and once with the next seed: op
/// counts must not change, no check may fail, and timings must stay
/// within the bounds (trace bytes follow the script; they are reported).
fn selfcheck(args: &Args) -> ExitCode {
    let mut complaints = Vec::new();
    for name in workloads::NAMES {
        let run = |seed| run_child(name, seed, args.seconds, false);
        let (a, b, c) = match (run(args.seed), run(args.seed), run(args.seed + 1)) {
            (Ok(a), Ok(b), Ok(c)) => (a, b, c),
            (a, b, c) => {
                for e in [a.err(), b.err(), c.err()].into_iter().flatten() {
                    eprintln!("perfbench: {e}");
                }
                return ExitCode::from(1);
            }
        };
        println!("selfcheck {name}: same seed twice, then seed + 1");
        println!(
            "  {:<26} {:>12} {:>12} {:>8}   {:>12} {:>8}   bound",
            "metric", "first", "second", "diff", "next seed", "diff"
        );
        for (metric, _, bound) in names::END_TO_END {
            let (Some(x), Some(y), Some(z)) =
                (a.metric(metric), b.metric(metric), c.metric(metric))
            else {
                complaints.push(format!("{name}: {metric} missing from a run"));
                continue;
            };
            let (same, next) = ((y - x).abs() / x, (z - x).abs() / x);
            println!(
                "  {metric:<26} {x:>12.4} {y:>12.4} {:>7.2}%   {z:>12.4} {:>7.2}%   {:.1}%",
                same * 100.0,
                next * 100.0,
                bound * 100.0
            );
            if same > bound {
                complaints.push(format!(
                    "{name}: {metric} differs by {:.2}% between two runs of one seed (bound {:.1}%)",
                    same * 100.0,
                    bound * 100.0
                ));
            }
            if next > bound && !metric.ends_with("trace_bytes_per_op") {
                complaints.push(format!(
                    "{name}: {metric} differs by {:.2}% under the next seed (bound {:.1}%)",
                    next * 100.0,
                    bound * 100.0
                ));
            }
        }
        if a.number("ops") != c.number("ops") {
            complaints.push(format!("{name}: op count changed with the seed"));
        }
        for (which, run) in [("first", &a), ("second", &b), ("next-seed", &c)] {
            if run.number("failed") != 0.0 {
                complaints.push(format!("{name}: {which} run has failed checks"));
            }
        }
        println!();
    }
    if complaints.is_empty() {
        println!("selfcheck passed");
        return ExitCode::SUCCESS;
    }
    for complaint in &complaints {
        println!("selfcheck FAILED: {complaint}");
    }
    ExitCode::from(1)
}

fn main() -> ExitCode {
    steady_malloc();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("perfbench: {msg}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(name) = &args.workload {
        run_one(name, &args)
    } else if args.all {
        run_all(&args)
    } else {
        selfcheck(&args)
    }
}
