//! The four workloads and what they share: the environment they run in,
//! the outcome of one timed mode-run, and the pinned worker harness.

pub mod hybrid_recv;
pub mod reads_sharded;
pub mod solo_stream;
pub mod synth_contended;

use crate::affinity::Cpus;
use crate::script::Pace;
use crate::spans::Tracer;
use reomp_core::{
    EpochHistogram, MemStore, Scheme, Session, SessionConfig, SessionReport, StatsSnapshot,
    ThreadCtx, TraceBundle, TraceError, TraceStore, Verifier,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};

/// Workload names, in the order `--all` runs them.
pub const NAMES: [&str; 4] = [
    "synth_contended",
    "reads_sharded",
    "solo_stream",
    "hybrid_recv",
];

/// Build workload `name` with inputs drawn from `seed`, at its full size
/// divided by `shrink` (1 for every real run; the unit tests shrink).
#[must_use]
pub fn build(name: &str, seed: u64, shrink: usize) -> Option<Box<dyn Workload>> {
    Some(match name {
        "synth_contended" => Box::new(synth_contended::SynthContended::new(seed, shrink)),
        "reads_sharded" => Box::new(reads_sharded::ReadsSharded::new(seed, shrink)),
        "solo_stream" => Box::new(solo_stream::SoloStream::new(seed, shrink)),
        "hybrid_recv" => Box::new(hybrid_recv::HybridRecv::new(seed, shrink)),
        _ => return None,
    })
}

/// What every run shares: where threads may be pinned, where files go, and
/// how long a stuck replay may spin before it counts as failed.
#[derive(Debug)]
pub struct Env {
    pub cpus: Cpus,
    /// Scratch directory for trace files; created by the caller.
    pub tmp: PathBuf,
    /// Replay watchdog (a mis-ordered trace must fail, not hang).
    pub watchdog: Duration,
    /// Sample every 64th gated call's latency and keep spans.
    pub traced: bool,
    pin_failed: AtomicBool,
    next_dir: AtomicU64,
}

impl Env {
    #[must_use]
    pub fn new(cpus: Cpus, tmp: PathBuf, traced: bool) -> Env {
        Env {
            cpus,
            tmp,
            watchdog: Duration::from_secs(5),
            traced,
            pin_failed: AtomicBool::new(false),
            next_dir: AtomicU64::new(0),
        }
    }

    /// Pin the calling worker to CPU slot `slot`, remembering a failure.
    pub fn pin(&self, slot: u32) {
        if !self.cpus.pin(slot as usize) {
            self.pin_failed.store(true, Ordering::Relaxed);
        }
    }

    /// Whether every pin so far took effect.
    #[must_use]
    pub fn pinned(&self) -> bool {
        !self.pin_failed.load(Ordering::Relaxed)
    }

    /// A directory name under the scratch directory that no earlier call
    /// returned (not created).
    #[must_use]
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        let n = self.next_dir.fetch_add(1, Ordering::Relaxed);
        self.tmp.join(format!("{tag}-{n}"))
    }

    /// Replay configuration: the defaults plus this run's watchdog.
    #[must_use]
    pub fn replay_cfg(&self) -> SessionConfig {
        let mut cfg = SessionConfig::default();
        cfg.spin.timeout = Some(self.watchdog);
        cfg
    }
}

/// Pass/fail tally of a run's correctness checks. A failed check is
/// counted and the run goes on.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure messages, for the report.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }

    pub fn absorb(&mut self, other: Checks) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// Outcome of one timed record or replay.
#[derive(Debug, Default)]
pub struct ModeRun {
    /// The end-to-end time: session construction (record) or trace
    /// loading/cloning (replay) through `finish()` returning.
    pub elapsed: Duration,
    /// The worker loops alone: first worker past the start barrier to last
    /// worker done.
    pub run: Duration,
    pub checks: Checks,
    /// The session's counters (summed over the ranks for `hybrid_recv`).
    pub stats: Option<StatsSnapshot>,
    /// Latencies (ns) of the sampled gated calls (traced runs only).
    pub calls: Vec<f64>,
    /// Digest of the workload's output.
    pub output: u64,
}

/// Outcome of one scripted recording (set-up).
#[derive(Debug)]
pub struct Scripted {
    /// Encoded size of the scripted trace.
    pub bytes: u64,
    pub checks: Checks,
}

/// One workload: seed-drawn inputs plus the three scripted traces once
/// [`Workload::script`] has produced them.
pub trait Workload {
    /// Gated accesses per mode-run, over all threads — fixed by the
    /// workload, independent of the seed.
    fn ops(&self) -> u64;
    /// Set-up: record `scheme` in exactly the seed's scripted order, check
    /// that the recorded order is the script, and keep the trace for
    /// [`Workload::replay`].
    fn script(&mut self, scheme: Scheme, env: &Env) -> Scripted;
    /// One timed, free-running recording.
    fn record(&self, scheme: Scheme, env: &Env, tracer: &mut Tracer) -> ModeRun;
    /// One timed replay of the scripted trace.
    fn replay(&self, scheme: Scheme, env: &Env, tracer: &mut Tracer) -> ModeRun;
    /// Epoch-size histogram of the scripted DE trace.
    fn epochs(&self) -> EpochHistogram;
    /// Swap two records of the scripted DC trace (failure-accounting test).
    fn corrupt_dc_trace(&mut self);
}

/// Run `f`, turning a panic inside it into `None`. `ompr` and `rmpi` gates
/// panic when a replay fails; a failed replay is a failed check, not the
/// end of the benchmark.
pub fn catching<R>(f: impl FnOnce() -> R) -> Option<R> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).ok()
}

/// FNV-1a over a sequence of words: the output digest.
#[must_use]
pub fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Times every 64th call when tracing is on; otherwise just calls.
#[derive(Debug)]
pub struct Sampler {
    enabled: bool,
    count: u32,
    pub samples: Vec<f64>,
}

impl Sampler {
    pub const EVERY: u32 = 64;

    #[must_use]
    pub fn new(enabled: bool, expected_calls: usize) -> Sampler {
        Sampler {
            enabled,
            count: 0,
            samples: Vec::with_capacity(if enabled {
                expected_calls / Self::EVERY as usize + 1
            } else {
                0
            }),
        }
    }

    #[inline]
    pub fn call<R>(&mut self, f: impl FnOnce() -> R) -> R {
        if self.enabled {
            self.count += 1;
            if self.count.is_multiple_of(Self::EVERY) {
                let t = Instant::now();
                let out = f();
                self.samples.push(t.elapsed().as_nanos() as f64);
                return out;
            }
        }
        f()
    }
}

/// What one worker hands back.
#[derive(Debug)]
pub struct WorkerOut<R> {
    pub value: R,
    pub start: Instant,
    pub end: Instant,
    pub calls: Vec<f64>,
}

/// Collects the workers' results of one mode-run; shared by the harness
/// below and by closures handed to `ompr`/`rmpi`, which spawn the threads
/// themselves.
#[derive(Debug)]
pub struct Team<R> {
    barrier: Barrier,
    outs: Mutex<Vec<(u32, WorkerOut<R>)>>,
}

impl<R> Team<R> {
    #[must_use]
    pub fn new(workers: u32) -> Team<R> {
        Team {
            barrier: Barrier::new(workers as usize),
            outs: Mutex::new(Vec::new()),
        }
    }

    /// Run `body` as worker `slot`: pin, wait for the whole team, time the
    /// loop, and file the result.
    pub fn work(
        &self,
        env: &Env,
        slot: u32,
        expected_calls: usize,
        body: impl FnOnce(&mut Sampler) -> R,
    ) {
        env.pin(slot);
        let mut sampler = Sampler::new(env.traced, expected_calls);
        self.barrier.wait();
        let start = Instant::now();
        let value = body(&mut sampler);
        let end = Instant::now();
        self.outs
            .lock()
            .expect("a worker panicked while filing its result")
            .push((
                slot,
                WorkerOut {
                    value,
                    start,
                    end,
                    calls: sampler.samples,
                },
            ));
    }

    /// The workers' results in slot order, the loop's wall time, and every
    /// sampled call; also files one `gate.run` span per worker.
    pub fn finish(self, tracer: &mut Tracer) -> (Vec<R>, Duration, Vec<f64>) {
        let mut outs = self
            .outs
            .into_inner()
            .expect("a worker panicked while filing its result");
        outs.sort_by_key(|(slot, _)| *slot);
        let first = outs.iter().map(|(_, o)| o.start).min();
        let last = outs.iter().map(|(_, o)| o.end).max();
        let run = match (first, last) {
            (Some(a), Some(b)) => b.duration_since(a),
            _ => Duration::ZERO,
        };
        let mut calls = Vec::new();
        let mut values = Vec::with_capacity(outs.len());
        for (slot, out) in outs {
            tracer.add("gate.run", "gate", slot + 1, out.start, out.end);
            calls.extend(out.calls);
            values.push(out.value);
        }
        (values, run, calls)
    }
}

/// What the worker loops of one mode-run produced.
#[derive(Debug)]
pub struct LoopOut {
    /// Digest of the workload's output.
    pub output: u64,
    /// Whether every gate admitted its caller (replay).
    pub admitted: bool,
    pub run: Duration,
    pub calls: Vec<f64>,
}

/// Run `body(tid, ctx, sampler)` on `threads` pinned, benchmark-spawned
/// workers of `session`; returns their values in tid order.
pub fn run_pinned<R: Send>(
    env: &Env,
    tracer: &mut Tracer,
    session: &Arc<Session>,
    threads: u32,
    calls_per_thread: usize,
    body: impl Fn(u32, &ThreadCtx, &mut Sampler) -> R + Sync,
) -> (Vec<R>, Duration, Vec<f64>) {
    let team = Team::new(threads);
    std::thread::scope(|s| {
        for tid in 0..threads {
            let ctx = session.register_thread(tid);
            let (team, body) = (&team, &body);
            s.spawn(move || {
                team.work(env, tid, calls_per_thread, |sampler| {
                    body(tid, &ctx, sampler)
                });
            });
        }
    });
    team.finish(tracer)
}

/// One timed recording of a thread session: `build` constructs the
/// session, `run` drives the worker loops, and the clock stops when
/// `finish()` has returned. The report comes back for the caller's checks.
pub fn timed_record(
    scheme: Scheme,
    tracer: &mut Tracer,
    build: impl FnOnce() -> Result<Arc<Session>, TraceError>,
    run: impl FnOnce(&Arc<Session>, &mut Tracer) -> LoopOut,
) -> (ModeRun, Option<SessionReport>) {
    let mut checks = Checks::default();
    let whole = tracer.begin("record", "bench");
    let t0 = Instant::now();
    let span = tracer.begin("session.record_build", "session");
    let session = build();
    tracer.end(span);
    let session = match session {
        Ok(s) => s,
        Err(e) => {
            tracer.end(whole);
            checks.check(false, || format!("{scheme} record: session not built: {e}"));
            return (
                ModeRun {
                    checks,
                    ..ModeRun::default()
                },
                None,
            );
        }
    };
    let out = run(&session, tracer);
    let span = tracer.begin("session.record_finish", "session");
    let report = session.finish();
    tracer.end(span);
    let elapsed = t0.elapsed();
    tracer.end(whole);
    let report = match report {
        Ok(r) => Some(r),
        Err(e) => {
            checks.check(false, || format!("{scheme} record: finish failed: {e}"));
            None
        }
    };
    (
        ModeRun {
            elapsed,
            run: out.run,
            checks,
            stats: report.as_ref().map(|r| r.stats),
            calls: out.calls,
            output: out.output,
        },
        report,
    )
}

/// One timed replay of a thread session: `obtain` clones or loads the
/// trace (inside the timed region), `run` drives the worker loops, and the
/// clock stops when `finish()` has returned. Checks that the replay
/// neither failed nor left records over and that its output is bit-equal
/// to `recorded_output`.
pub fn timed_replay(
    scheme: Scheme,
    env: &Env,
    tracer: &mut Tracer,
    obtain: impl FnOnce(&mut Tracer, &mut Checks) -> Option<TraceBundle>,
    run: impl FnOnce(&Arc<Session>, &mut Tracer) -> LoopOut,
    recorded_output: u64,
) -> ModeRun {
    let mut checks = Checks::default();
    let whole = tracer.begin("replay", "bench");
    let t0 = Instant::now();
    let session = obtain(tracer, &mut checks).and_then(|bundle| {
        let span = tracer.begin("session.replay_build", "session");
        let session = Session::replay_with(bundle, env.replay_cfg());
        tracer.end(span);
        match session {
            Ok(s) => Some(s),
            Err(e) => {
                checks.check(false, || format!("{scheme} replay: trace rejected: {e}"));
                None
            }
        }
    });
    let Some(session) = session else {
        tracer.end(whole);
        return ModeRun {
            checks,
            ..ModeRun::default()
        };
    };
    let out = run(&session, tracer);
    let span = tracer.begin("session.replay_finish", "session");
    let report = session.finish();
    tracer.end(span);
    let elapsed = t0.elapsed();
    tracer.end(whole);

    let mut stats = None;
    match report {
        Ok(r) => {
            checks.check(out.admitted && r.failure.is_none(), || {
                format!("{scheme} replay failed: {:?}", r.failure)
            });
            checks.check(r.fully_consumed == Some(true), || {
                format!("{scheme} replay left records unconsumed")
            });
            stats = Some(r.stats);
        }
        Err(e) => checks.check(false, || format!("{scheme} replay: finish failed: {e}")),
    }
    checks.check(out.output == recorded_output, || {
        format!(
            "{scheme} replay output {:#x} != recorded {recorded_output:#x}",
            out.output
        )
    });
    ModeRun {
        elapsed,
        run: out.run,
        checks,
        stats,
        calls: out.calls,
        output: out.output,
    }
}

/// A replay asked for before its scripted trace exists: one failed check.
#[must_use]
pub fn no_scripted_trace(scheme: Scheme) -> ModeRun {
    let mut checks = Checks::default();
    checks.check(false, || format!("{scheme} replay: no scripted trace"));
    ModeRun {
        checks,
        ..ModeRun::default()
    }
}

/// The record-side checks every thread-session workload shares: the
/// record count and a clean static verification.
pub fn check_recorded(checks: &mut Checks, scheme: Scheme, bundle: &TraceBundle, ops: u64) {
    let records = bundle.total_records();
    checks.check(records == ops, || {
        format!("{scheme} record: {records} records for {ops} ops")
    });
    let report = Verifier::new().verify(bundle);
    checks.check(report.is_clean(), || format!("{scheme} record: {report}"));
}

/// Size of `bundle` in the one-shot (un-chunked) binary encoding.
pub fn encoded_bytes(checks: &mut Checks, bundle: &TraceBundle) -> u64 {
    match MemStore::new().save(bundle) {
        Ok(io) => io.bytes,
        Err(e) => {
            checks.check(false, || format!("{} encode: {e}", bundle.scheme));
            0
        }
    }
}

/// Check that `bundle` was recorded in the order `script` names.
///
/// `domain_of(tid, j)` is the gate domain of thread `tid`'s `j`-th access.
/// Per domain, the recorded order must be the script restricted to that
/// domain's accesses: exactly for ST (the shared log) and DC (clock order);
/// for DE, whose same-epoch accesses carry no order among themselves, every
/// epoch must lie at or below its access's clock and never decrease along
/// the script.
pub fn check_script(
    checks: &mut Checks,
    bundle: &TraceBundle,
    script: &[u8],
    domain_of: impl Fn(u32, usize) -> u32,
) {
    let scheme = bundle.scheme;
    let threads = bundle.nthreads as usize;
    // The script split per domain: (tid, index within that thread's stream
    // of this domain).
    let mut per_domain: Vec<Vec<(u32, usize)>> = vec![Vec::new(); bundle.domains as usize];
    let mut seen = vec![0usize; threads];
    let mut seen_in_dom = vec![vec![0usize; threads]; bundle.domains as usize];
    for &tid in script {
        let tid = u32::from(tid);
        let dom = domain_of(tid, seen[tid as usize]) as usize;
        seen[tid as usize] += 1;
        per_domain[dom].push((tid, seen_in_dom[dom][tid as usize]));
        seen_in_dom[dom][tid as usize] += 1;
    }
    for (dom, expected) in per_domain.iter().enumerate() {
        let ok = match scheme {
            Scheme::St => bundle.st_stream(dom as u32).is_some_and(|st| {
                st.tids.len() == expected.len()
                    && st.tids.iter().zip(expected).all(|(a, (b, _))| a == b)
            }),
            Scheme::Dc => expected.iter().enumerate().all(|(clock, &(tid, j))| {
                bundle.thread(dom as u32, tid).values.get(j) == Some(&(clock as u64))
            }),
            Scheme::De => {
                let mut floor = 0u64;
                expected.iter().enumerate().all(|(clock, &(tid, j))| {
                    let Some(&epoch) = bundle.thread(dom as u32, tid).values.get(j) else {
                        return false;
                    };
                    let ok = epoch <= clock as u64 && epoch >= floor;
                    floor = floor.max(epoch);
                    ok
                })
            }
        };
        checks.check(ok, || {
            format!("{scheme} scripted recording: domain {dom} is not in script order")
        });
    }
}

/// The scripted traces of a workload that buffers in memory, one slot per
/// scheme, each with the digest of the output its recording produced.
#[derive(Debug, Default)]
pub struct MemTraces([Option<(TraceBundle, u64)>; 3]);

impl MemTraces {
    fn set(&mut self, scheme: Scheme, bundle: TraceBundle, output: u64) {
        self.0[usize::from(scheme.code())] = Some((bundle, output));
    }

    /// The tail of a scripted recording: check `bundle` against the
    /// script, size it, and keep it for the replays.
    pub fn keep_scripted(
        &mut self,
        mut run: ModeRun,
        bundle: Option<TraceBundle>,
        script: &[u8],
        domain_of: impl Fn(u32, usize) -> u32,
    ) -> Scripted {
        let mut bytes = 0;
        if let Some(bundle) = bundle {
            check_script(&mut run.checks, &bundle, script, domain_of);
            bytes = encoded_bytes(&mut run.checks, &bundle);
            self.set(bundle.scheme, bundle, run.output);
        }
        Scripted {
            bytes,
            checks: run.checks,
        }
    }

    #[must_use]
    pub fn get(&self, scheme: Scheme) -> Option<(&TraceBundle, &u64)> {
        self.0[usize::from(scheme.code())]
            .as_ref()
            .map(|(b, o)| (b, o))
    }

    #[must_use]
    pub fn epochs(&self) -> EpochHistogram {
        self.get(Scheme::De)
            .map(|(b, _)| EpochHistogram::from_bundle(b))
            .unwrap_or_default()
    }

    pub fn corrupt_dc(&mut self) {
        if let Some((bundle, _)) = &mut self.0[usize::from(Scheme::Dc.code())] {
            swap_first_two(bundle);
        }
    }
}

/// The scripted traces of a workload that persists them, one directory
/// per scheme, each with the digest of the output its recording produced.
#[derive(Debug, Default)]
pub struct DirTraces([Option<(PathBuf, u64)>; 3]);

impl DirTraces {
    /// Keep `dir` as `scheme`'s scripted trace, deleting the one it
    /// replaces.
    pub fn set(&mut self, scheme: Scheme, dir: PathBuf, output: u64) {
        if let Some((old, _)) = self.0[usize::from(scheme.code())].replace((dir, output)) {
            let _ = std::fs::remove_dir_all(old);
        }
    }

    #[must_use]
    pub fn get(&self, scheme: Scheme) -> Option<(&PathBuf, u64)> {
        self.0[usize::from(scheme.code())]
            .as_ref()
            .map(|(dir, output)| (dir, *output))
    }
}

/// Swap the first two records of thread 0's stream in domain 0.
pub fn swap_first_two(bundle: &mut TraceBundle) {
    let t = &mut bundle.threads[0];
    t.values.swap(0, 1);
    if let Some(sites) = &mut t.sites {
        sites.swap(0, 1);
    }
    if let Some(kinds) = &mut t.kinds {
        kinds.swap(0, 1);
    }
}

/// One gated access to `cell`, the shape the raw-gate workloads share: a
/// store writes a value derived from the running fold `acc`, a load
/// returns the cell. `Ok` is what to fold into `acc` next.
pub(crate) fn gated_cell_access(
    ctx: &ThreadCtx,
    site: reomp_core::SiteId,
    cell: &AtomicU64,
    store: bool,
    acc: u64,
    i: usize,
) -> Result<u64, reomp_core::ReplayError> {
    if store {
        let v = acc
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(i as u64);
        ctx.try_gate(site, reomp_core::AccessKind::Store, || {
            cell.store(v, Ordering::Relaxed);
            0
        })
    } else {
        ctx.try_gate(site, reomp_core::AccessKind::Load, || {
            cell.load(Ordering::Relaxed)
        })
    }
}

pub(crate) fn step_gate<R>(
    pace: &Pace<'_>,
    sampler: &mut Sampler,
    tid: u32,
    f: impl FnOnce() -> R,
) -> R {
    pace.step(tid, || sampler.call(f))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::script::draw_schedule;
    use std::sync::MutexGuard;

    /// Tests that keep two threads spinning take turns, or they would
    /// time each other out on a 2-CPU box.
    pub(crate) fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// An environment writing under `bench/out/test-<tag>`.
    pub(crate) fn test_env(tag: &str, traced: bool) -> Env {
        let tmp = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&tmp).expect("scratch directory");
        Env::new(Cpus::detect(), tmp, traced)
    }

    #[test]
    fn scripted_recording_of_about_1000_ops_reproduces_the_script() {
        let _turn = serial();
        let env = test_env("script", false);
        // 2 × (62 × 8 + 1) = 994 ops, and 2 × 500 = 1000 ops.
        for (name, shrink) in [("synth_contended", 193), ("reads_sharded", 320)] {
            let mut workload = build(name, 7, shrink).expect("known workload");
            assert!((990..=1000).contains(&workload.ops()), "{name}");
            for scheme in Scheme::ALL {
                let scripted = workload.script(scheme, &env);
                assert!(scripted.checks.attempted >= 3, "{name} {scheme}");
                assert_eq!(
                    scripted.checks.failed, 0,
                    "{name} {scheme}: {:?}",
                    scripted.checks.notes
                );
                assert!(scripted.bytes > 0);
                let replay = workload.replay(scheme, &env, &mut Tracer::new(false));
                assert_eq!(
                    replay.checks.failed, 0,
                    "{name} {scheme}: {:?}",
                    replay.checks.notes
                );
            }
        }
        let _ = std::fs::remove_dir_all(&env.tmp);
    }

    #[test]
    fn a_recording_in_another_order_fails_the_script_check() {
        // A DC trace built straight from one schedule, checked against
        // itself and against another seed's schedule.
        let order = draw_schedule(1, &[500, 500]);
        let mut threads = vec![
            reomp_core::trace::ThreadTrace {
                values: Vec::new(),
                sites: None,
                kinds: None,
            };
            2
        ];
        for (clock, &tid) in order.iter().enumerate() {
            threads[usize::from(tid)].values.push(clock as u64);
        }
        let bundle = TraceBundle {
            scheme: Scheme::Dc,
            nthreads: 2,
            domains: 1,
            threads,
            st: Vec::new(),
            plan: None,
            edges: Vec::new(),
            checkpoint: None,
        };
        let mut checks = Checks::default();
        check_script(&mut checks, &bundle, &order, |_, _| 0);
        assert_eq!((checks.attempted, checks.failed), (1, 0));
        check_script(
            &mut checks,
            &bundle,
            &draw_schedule(2, &[500, 500]),
            |_, _| 0,
        );
        assert_eq!((checks.attempted, checks.failed), (2, 1));
    }

    #[test]
    fn sampler_times_every_64th_call_only_when_enabled() {
        let mut on = Sampler::new(true, 640);
        let mut off = Sampler::new(false, 640);
        for _ in 0..640 {
            on.call(|| ());
            off.call(|| ());
        }
        assert_eq!(on.samples.len(), 10);
        assert!(off.samples.is_empty());
    }
}
