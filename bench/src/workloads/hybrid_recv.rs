//! `hybrid_recv`: the §VI-C ReMPI+ReOMP path — two `rmpi` ranks, each a
//! 1-thread ReOMP session.
//!
//! Per step each rank sends 8 small tagged messages to its peer, takes 8
//! gated wildcard receives (polling until a message is there, then folding
//! payloads in arrival order) and 8 plain racy gates; a gated rank barrier every 64 steps. Traces are persisted
//! (`MpiTrace::save_dir` + one `DirStore` per rank) and loaded back for
//! replay. One sender per receiver keeps the arrival order — and so the
//! bytes — deterministic; the recorder cannot know that and records and
//! enforces every receive all the same. Mailbox, receive-order log and
//! rmpi's own persistence do the work here and thread gates do little, so
//! this is the bypass workload for every gate optimisation.

use super::{
    catching, digest, no_scripted_trace, swap_first_two, Checks, DirTraces, Env, ModeRun, Scripted,
    Team, Workload,
};
use crate::script::Rng;
use crate::spans::Tracer;
use reomp_core::{
    AccessKind, DirStore, EpochHistogram, Scheme, Session, SessionConfig, SessionReport, SiteId,
    StatsSnapshot, TraceBundle, TraceStore,
};
use rmpi::{MpiSession, MpiTrace, MpiVerifier, RankCtx, World, ANY_SOURCE, ANY_TAG};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

const RANKS: u32 = 2;
/// Steps per rank per mode-run, at full size.
const STEPS: usize = 6_000;
/// Messages sent, gated receives taken and plain gates passed per step.
const PER_STEP: usize = 8;
const BARRIER_EVERY: usize = 64;
/// Steps of messages a rank keeps in flight ahead of its receives.
const SEND_AHEAD: usize = 4;

#[derive(Debug)]
pub struct HybridRecv {
    /// Per rank: the `(tag, payload)` of every message it sends, in order.
    messages: Vec<Vec<(u32, u64)>>,
    traces: DirTraces,
}

/// What a rank hands back besides its fold.
struct RankOut {
    report: Option<SessionReport>,
    /// Session build and finish, for the spans.
    build: (Instant, Instant),
    finish: (Instant, Instant),
}

fn rank_dir(dir: &Path, rank: u32) -> PathBuf {
    dir.join(format!("rank{rank}"))
}

fn cell_site(rank: u32) -> SiteId {
    SiteId::from_label_indexed("perfbench:hybrid_recv:cell", u64::from(rank))
}

impl HybridRecv {
    #[must_use]
    pub fn new(seed: u64, shrink: usize) -> HybridRecv {
        let steps = (STEPS / shrink).max(1);
        let mut rng = Rng::new(seed ^ 0x6879_6272);
        let messages = (0..RANKS)
            .map(|_| {
                (0..steps * PER_STEP)
                    .map(|_| (rng.below(16) as u32, rng.next_u64()))
                    .collect()
            })
            .collect();
        HybridRecv {
            messages,
            traces: DirTraces::default(),
        }
    }

    /// Gated accesses per rank: one receive and one racy gate per message.
    fn ops_per_rank(&self) -> usize {
        self.messages[0].len() * 2
    }

    /// One rank's loop. Returns its fold, or `None` when a receive failed.
    fn rank_loop(
        &self,
        rank: &RankCtx,
        session: &Arc<Session>,
        sampler: &mut super::Sampler,
    ) -> Option<u64> {
        let me = rank.rank();
        let peer = 1 - me;
        let ctx = session.register_thread(0);
        let site = cell_site(me);
        let cell = AtomicU64::new(0);
        let mut fold = u64::from(me) + 1;
        let batches: Vec<&[(u32, u64)]> = self.messages[me as usize].chunks(PER_STEP).collect();
        let send = |batch: &[(u32, u64)]| -> Option<()> {
            for &(tag, payload) in batch {
                rank.send(peer, tag, &payload.to_le_bytes()).ok()?;
            }
            Some(())
        };
        // Stay `SEND_AHEAD` steps of messages ahead of the receives, so a
        // rank that falls a little behind does not stall its peer.
        for batch in batches.iter().take(SEND_AHEAD) {
            send(batch)?;
        }
        for step in 0..batches.len() {
            if let Some(batch) = batches.get(step + SEND_AHEAD) {
                send(batch)?;
            }
            for _ in 0..PER_STEP {
                // Poll for the message, as MPI libraries do, before the
                // receive that would otherwise sleep on the mailbox: a
                // sleeping receive times the kernel's wake-up, and that
                // varies two- to threefold from run to run.
                let mut polls = 0u32;
                while rank.iprobe(ANY_SOURCE, ANY_TAG).is_none() {
                    polls += 1;
                    if polls.is_multiple_of(4096) {
                        std::thread::yield_now();
                    } else {
                        std::hint::spin_loop();
                    }
                }
                let msg = sampler
                    .call(|| rank.recv(ANY_SOURCE, ANY_TAG, Some(&ctx)))
                    .ok()?;
                let payload = u64::from_le_bytes(msg.payload.as_slice().try_into().ok()?);
                fold = fold.rotate_left(7) ^ payload ^ u64::from(msg.tag);
            }
            for k in 0..PER_STEP {
                let gated = sampler.call(|| {
                    if k % 2 == 0 {
                        ctx.try_gate(site, AccessKind::Load, || cell.load(Ordering::Relaxed))
                    } else {
                        ctx.try_gate(site, AccessKind::Store, || {
                            cell.store(fold, Ordering::Relaxed);
                            0
                        })
                    }
                });
                fold = fold.rotate_left(3) ^ gated.ok()?;
            }
            if (step + 1) % BARRIER_EVERY == 0 {
                rank.barrier_with(Some(&ctx));
            }
        }
        Some(fold)
    }

    /// Run both ranks under `mpi`, each building its thread session with
    /// `build`; `span_names` name rank 0's session build and finish spans.
    /// Returns the output digest (`None` if a rank failed), the
    /// loops' wall time, the sampled calls and the per-rank outcomes.
    fn run_world(
        &self,
        env: &Env,
        tracer: &mut Tracer,
        mpi: &Arc<MpiSession>,
        span_names: [&'static str; 2],
        build: impl Fn(u32) -> Option<Arc<Session>> + Sync,
    ) -> (Option<u64>, std::time::Duration, Vec<f64>, Vec<RankOut>) {
        let team: Team<Option<u64>> = Team::new(RANKS);
        let ranks = catching(|| {
            World::run(RANKS, Arc::clone(mpi), |rank| {
                rank.set_recv_timeout(env.watchdog);
                let t0 = Instant::now();
                let session = build(rank.rank());
                let t1 = Instant::now();
                team.work(env, rank.rank(), self.ops_per_rank(), |sampler| {
                    session
                        .as_ref()
                        .and_then(|s| self.rank_loop(rank, s, sampler))
                });
                let t2 = Instant::now();
                let report = session.and_then(|s| s.finish().ok());
                RankOut {
                    report,
                    build: (t0, t1),
                    finish: (t2, Instant::now()),
                }
            })
        })
        .unwrap_or_default();
        if let Some(r0) = ranks.first() {
            tracer.add(span_names[0], "session", 1, r0.build.0, r0.build.1);
            tracer.add(span_names[1], "session", 1, r0.finish.0, r0.finish.1);
        }
        let (folds, run, calls) = team.finish(tracer);
        let output = folds
            .iter()
            .copied()
            .collect::<Option<Vec<u64>>>()
            .filter(|f| f.len() == RANKS as usize)
            .map(digest);
        (output, run, calls, ranks)
    }

    /// One timed recording, persisted under `dir`; returns the bytes
    /// written.
    fn record_into(
        &self,
        scheme: Scheme,
        env: &Env,
        tracer: &mut Tracer,
        dir: &Path,
    ) -> (ModeRun, u64) {
        let mut checks = Checks::default();
        let whole = tracer.begin("record", "bench");
        let t0 = Instant::now();
        let mpi = Arc::new(MpiSession::record(RANKS));
        let spans = ["session.record_build", "session.record_finish"];
        let (output, run, calls, ranks) = self.run_world(env, tracer, &mpi, spans, |_| {
            Some(Session::record_with(scheme, 1, SessionConfig::default()))
        });
        let trace = mpi.finish();
        let span = tracer.begin("rmpi.save_dir", "rmpi");
        let mut saved = trace.save_dir(&dir.join("mpi"));
        tracer.end(span);
        let span = tracer.begin("store.dir_save", "store");
        for (rank, out) in ranks.iter().enumerate() {
            let Some(bundle) = out.report.as_ref().and_then(|r| r.bundle.as_ref()) else {
                continue;
            };
            let io = DirStore::new(rank_dir(dir, rank as u32)).save(bundle);
            saved = saved.and_then(|bytes| io.map(|io| bytes + io.bytes));
        }
        tracer.end(span);
        let elapsed = t0.elapsed();
        tracer.end(whole);

        checks.check(output.is_some(), || {
            format!("{scheme} record: a rank failed")
        });
        let bytes = match saved {
            Ok(bytes) => bytes,
            Err(e) => {
                checks.check(false, || format!("{scheme} record: trace not saved: {e}"));
                0
            }
        };
        let events = trace.total_events();
        let want = u64::from(RANKS) * self.messages[0].len() as u64;
        checks.check(events == want, || {
            format!("{scheme} record: {events} receive events for {want} receives")
        });
        let report = MpiVerifier::new().verify(&trace);
        checks.check(report.is_clean(), || {
            format!("{scheme} record: rmpi {report}")
        });
        for (rank, out) in ranks.iter().enumerate() {
            let bundle = out.report.as_ref().and_then(|r| r.bundle.as_ref());
            checks.check(bundle.is_some(), || {
                format!("{scheme} record: rank {rank} produced no bundle")
            });
            if let Some(bundle) = bundle {
                super::check_recorded(&mut checks, scheme, bundle, self.ops_per_rank() as u64);
            }
        }
        let stats = summed_stats(&ranks);
        (
            ModeRun {
                elapsed,
                run,
                checks,
                stats,
                calls,
                output: output.unwrap_or(0),
            },
            bytes,
        )
    }

    /// Every rank must have received its peer's messages in send order.
    fn check_arrival_order(&self, checks: &mut Checks, dir: &Path) {
        let Ok(trace) = MpiTrace::load_dir(&dir.join("mpi")) else {
            checks.check(false, || "scripted rmpi trace does not load".to_string());
            return;
        };
        for rank in 0..RANKS {
            let peer = 1 - rank;
            let sent = &self.messages[peer as usize];
            let got = trace.recv_stream(rank, 0);
            let ok = got.len() == sent.len()
                && got
                    .iter()
                    .zip(sent)
                    .all(|(ev, &(tag, _))| ev.src == peer && ev.tag == tag);
            checks.check(ok, || {
                format!("rank {rank} did not receive its peer's messages in send order")
            });
        }
    }
}

/// The ranks' session counters added up (the six the ledger reports), so
/// that "per op" means per op of both ranks.
fn summed_stats(ranks: &[RankOut]) -> Option<StatsSnapshot> {
    let mut total: Option<StatsSnapshot> = None;
    for stats in ranks
        .iter()
        .filter_map(|r| r.report.as_ref())
        .map(|r| r.stats)
    {
        let t = total.get_or_insert_with(StatsSnapshot::default);
        t.lock_acquires += stats.lock_acquires;
        t.comms += stats.comms;
        t.waits += stats.waits;
        t.spin_iters += stats.spin_iters;
        t.deferred_finalizations += stats.deferred_finalizations;
        t.edge_waits += stats.edge_waits;
    }
    total
}

/// Load one rank's thread trace.
fn load_rank(dir: &Path, rank: u32) -> Option<TraceBundle> {
    DirStore::new(rank_dir(dir, rank))
        .load()
        .ok()
        .map(|(bundle, _)| bundle)
}

impl Workload for HybridRecv {
    fn ops(&self) -> u64 {
        u64::from(RANKS) * self.ops_per_rank() as u64
    }

    /// Each rank has one thread and one sender, so the only possible order
    /// is the send order; the recording is checked against it and kept on
    /// disk for the replays to load.
    fn script(&mut self, scheme: Scheme, env: &Env) -> Scripted {
        let dir = env.fresh_dir("hybrid-scripted");
        let (mut run, bytes) = self.record_into(scheme, env, &mut Tracer::new(false), &dir);
        self.check_arrival_order(&mut run.checks, &dir);
        self.traces.set(scheme, dir, run.output);
        Scripted {
            bytes,
            checks: run.checks,
        }
    }

    fn record(&self, scheme: Scheme, env: &Env, tracer: &mut Tracer) -> ModeRun {
        let dir = env.fresh_dir("hybrid-record");
        let (run, _) = self.record_into(scheme, env, tracer, &dir);
        let _ = std::fs::remove_dir_all(dir);
        run
    }

    fn replay(&self, scheme: Scheme, env: &Env, tracer: &mut Tracer) -> ModeRun {
        let Some((dir, recorded_output)) = self.traces.get(scheme) else {
            return no_scripted_trace(scheme);
        };
        let mut checks = Checks::default();
        let whole = tracer.begin("replay", "bench");
        let t0 = Instant::now();
        let span = tracer.begin("rmpi.load_dir", "rmpi");
        let trace = MpiTrace::load_dir(&dir.join("mpi"));
        tracer.end(span);
        let span = tracer.begin("store.dir_load", "store");
        let bundles: Vec<Option<TraceBundle>> = (0..RANKS).map(|r| load_rank(dir, r)).collect();
        tracer.end(span);
        let mpi = trace.and_then(MpiSession::try_replay);
        let (Ok(mpi), true) = (mpi, bundles.iter().all(Option::is_some)) else {
            tracer.end(whole);
            checks.check(false, || format!("{scheme} replay: traces do not load"));
            return ModeRun {
                checks,
                ..ModeRun::default()
            };
        };
        let mpi = Arc::new(mpi);
        let spans = ["session.replay_build", "session.replay_finish"];
        let (output, run, calls, ranks) = self.run_world(env, tracer, &mpi, spans, |rank| {
            let bundle = bundles[rank as usize].clone()?;
            Session::replay_with(bundle, env.replay_cfg()).ok()
        });
        let elapsed = t0.elapsed();
        tracer.end(whole);

        checks.check(output.is_some(), || {
            format!("{scheme} replay: a rank failed")
        });
        for (rank, out) in ranks.iter().enumerate() {
            let ok = out
                .report
                .as_ref()
                .is_some_and(|r| r.failure.is_none() && r.fully_consumed == Some(true));
            checks.check(ok, || {
                format!("{scheme} replay: rank {rank} failed or left records unconsumed")
            });
        }
        checks.check(mpi.fully_consumed() == Some(true), || {
            format!("{scheme} replay: receive streams left unconsumed")
        });
        let output = output.unwrap_or(0);
        checks.check(output == recorded_output, || {
            format!("{scheme} replay output {output:#x} != recorded {recorded_output:#x}")
        });
        let stats = summed_stats(&ranks);
        ModeRun {
            elapsed,
            run,
            checks,
            stats,
            calls,
            output,
        }
    }

    fn epochs(&self) -> EpochHistogram {
        self.traces
            .get(Scheme::De)
            .and_then(|(dir, _)| load_rank(dir, 0))
            .map(|bundle| EpochHistogram::from_bundle(&bundle))
            .unwrap_or_default()
    }

    fn corrupt_dc_trace(&mut self) {
        if let Some((dir, _)) = self.traces.get(Scheme::Dc) {
            if let Some(mut bundle) = load_rank(dir, 0) {
                swap_first_two(&mut bundle);
                let _ = DirStore::new(rank_dir(dir, 0)).save(&bundle);
            }
        }
    }
}
