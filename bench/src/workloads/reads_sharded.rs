//! `reads_sharded`: two threads, each on its own site in its own gate
//! domain, 7 loads to 1 store, buffered in memory.
//!
//! Nothing contends by design. What is left is the uncontended fast path,
//! the session-global statistics cache lines both threads write, and DE's
//! multi-access epochs — so a change that buys contended hand-off speed by
//! fattening the fast path, or that favours stores over loads, shows here.

use super::{
    check_recorded, digest, gated_cell_access, no_scripted_trace, run_pinned, step_gate,
    timed_record, timed_replay, Env, LoopOut, MemTraces, ModeRun, Sampler, Scripted, Workload,
};
use crate::script::{draw_schedule, Cursor, Pace, Rng};
use crate::spans::Tracer;
use reomp_core::{
    DomainPlan, EpochHistogram, Scheme, Session, SessionConfig, SiteId, ThreadCtx, TraceBundle,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const THREADS: u32 = 2;
/// Gated accesses per thread per mode-run, at full size.
const OPS_PER_THREAD: usize = 160_000;

/// One thread's shared cell, alone on its cache lines.
#[repr(align(128))]
#[derive(Debug, Default)]
struct PaddedCell(AtomicU64);

#[derive(Debug)]
pub struct ReadsSharded {
    /// Per thread, per access: is it the block's store?
    stores: Vec<Vec<bool>>,
    order: Vec<u8>,
    traces: MemTraces,
}

fn site(tid: u32) -> SiteId {
    SiteId::from_label_indexed("perfbench:reads_sharded", u64::from(tid))
}

fn plan() -> DomainPlan {
    DomainPlan::with_assignments(THREADS, (0..THREADS).map(|t| (site(t), t)))
}

impl ReadsSharded {
    #[must_use]
    pub fn new(seed: u64, shrink: usize) -> ReadsSharded {
        let ops_per_thread = (OPS_PER_THREAD / shrink).max(8);
        let mut rng = Rng::new(seed ^ 0x7265_6164);
        // Every block of 8 accesses holds one store, at a drawn position.
        let stores = (0..THREADS)
            .map(|_| {
                let mut v = vec![false; ops_per_thread];
                for block in v.chunks_mut(8) {
                    let at = rng.below(block.len() as u64) as usize;
                    block[at] = true;
                }
                v
            })
            .collect();
        ReadsSharded {
            stores,
            order: draw_schedule(seed, &[ops_per_thread; THREADS as usize]),
            traces: MemTraces::default(),
        }
    }

    fn record_cfg() -> SessionConfig {
        SessionConfig {
            plan: Some(plan()),
            ..SessionConfig::default()
        }
    }

    /// The worker loop; returns the thread's fold and whether every gate
    /// admitted it.
    fn body(
        &self,
        cells: &[PaddedCell],
        pace: &Pace<'_>,
        tid: u32,
        ctx: &ThreadCtx,
        sampler: &mut Sampler,
    ) -> (u64, bool) {
        let cell = &cells[tid as usize].0;
        let site = site(tid);
        let mut acc = u64::from(tid) + 1;
        for (i, &store) in self.stores[tid as usize].iter().enumerate() {
            let gated = step_gate(pace, sampler, tid, || {
                gated_cell_access(ctx, site, cell, store, acc, i)
            });
            match gated {
                Ok(v) => acc = acc.rotate_left(5) ^ v,
                Err(_) => return (acc, false),
            }
        }
        (acc, true)
    }

    /// Run the loops on `session` and digest the output.
    fn run(
        &self,
        env: &Env,
        tracer: &mut Tracer,
        session: &Arc<Session>,
        pace: &Pace<'_>,
    ) -> LoopOut {
        let cells: Vec<PaddedCell> = (0..THREADS).map(|_| PaddedCell::default()).collect();
        let (outs, run, calls) = run_pinned(
            env,
            tracer,
            session,
            THREADS,
            self.stores[0].len(),
            |tid, ctx, sampler| self.body(&cells, pace, tid, ctx, sampler),
        );
        LoopOut {
            output: digest(
                outs.iter()
                    .map(|&(acc, _)| acc)
                    .chain(cells.iter().map(|c| c.0.load(Ordering::Relaxed))),
            ),
            admitted: outs.iter().all(|&(_, ok)| ok),
            run,
            calls,
        }
    }

    fn record_paced(
        &self,
        scheme: Scheme,
        env: &Env,
        tracer: &mut Tracer,
        pace: &Pace<'_>,
    ) -> (ModeRun, Option<TraceBundle>) {
        let (mut run, report) = timed_record(
            scheme,
            tracer,
            || Ok(Session::record_with(scheme, THREADS, Self::record_cfg())),
            |session, tracer| self.run(env, tracer, session, pace),
        );
        let bundle = report.and_then(|r| r.bundle);
        if let Some(bundle) = &bundle {
            check_recorded(&mut run.checks, scheme, bundle, self.ops());
        }
        (run, bundle)
    }
}

impl Workload for ReadsSharded {
    fn ops(&self) -> u64 {
        self.order.len() as u64
    }

    fn script(&mut self, scheme: Scheme, env: &Env) -> Scripted {
        let cursor = Cursor::new(&self.order);
        let pace = Pace::Scripted(&cursor);
        let (run, bundle) = self.record_paced(scheme, env, &mut Tracer::new(false), &pace);
        // Each thread's accesses all land in its own domain.
        self.traces
            .keep_scripted(run, bundle, &self.order, |tid, _| tid)
    }

    fn record(&self, scheme: Scheme, env: &Env, tracer: &mut Tracer) -> ModeRun {
        self.record_paced(scheme, env, tracer, &Pace::Free).0
    }

    fn replay(&self, scheme: Scheme, env: &Env, tracer: &mut Tracer) -> ModeRun {
        let Some((trace, recorded_output)) = self.traces.get(scheme) else {
            return no_scripted_trace(scheme);
        };
        timed_replay(
            scheme,
            env,
            tracer,
            |_, _| Some(trace.clone()),
            |session, tracer| self.run(env, tracer, session, &Pace::Free),
            *recorded_output,
        )
    }

    fn epochs(&self) -> EpochHistogram {
        self.traces.epochs()
    }

    fn corrupt_dc_trace(&mut self) {
        self.traces.corrupt_dc();
    }
}
