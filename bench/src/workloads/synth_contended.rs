//! `synth_contended`: the paper's Fig. 8 synthetic constructs in one loop
//! through `ompr::Runtime::parallel`, every access in one gate domain.
//!
//! Per iteration each of the two threads does 3 × (`racy_load` +
//! `racy_store`) on one shared cell, one `critical` update and one
//! `atomic_add_f64`; one `reduce` ends the region. Every op funnels through
//! the same gate, so admission (ticket / lock / ghost ticket), clock
//! assignment and the replay turnstile hand-off do nearly all the work;
//! store, codec and rmpi do none. The mix covers the `Ticket`,
//! `LockedTicket` and ST `Locked` admission protocols in the proportions a
//! real loop has.

use super::{
    catching, check_recorded, digest, no_scripted_trace, step_gate, timed_record, timed_replay,
    Env, LoopOut, MemTraces, ModeRun, Scripted, Team, Workload,
};
use crate::script::{draw_schedule, Cursor, Pace, Rng};
use crate::spans::Tracer;
use ompr::{AtomicF64, Critical, RacyCell, Reduction, Runtime};
use reomp_core::{EpochHistogram, Scheme, Session, SessionConfig, SiteId, TraceBundle};
use std::sync::atomic::Ordering;
use std::sync::Arc;

const THREADS: u32 = 2;
/// Loop iterations per thread per mode-run, at full size.
const ITERS: usize = 12_000;
/// Gated accesses per iteration: 3 × (load + store) + critical + atomic.
const OPS_PER_ITER: usize = 8;

#[derive(Debug)]
pub struct SynthContended {
    /// Per thread, per iteration: the (small, integral) value it adds.
    incs: Vec<Vec<f64>>,
    order: Vec<u8>,
    traces: MemTraces,
}

/// The shared state of one mode-run.
struct Shared {
    racy: RacyCell<f64>,
    section: Critical,
    guarded: RacyCell<f64>,
    atomic: AtomicF64,
    atomic_site: SiteId,
    reduction: Reduction,
}

impl Shared {
    fn new() -> Shared {
        Shared {
            racy: RacyCell::new("perfbench:synth:racy", 0.0),
            section: Critical::new("perfbench:synth:critical"),
            guarded: RacyCell::new("perfbench:synth:guarded", 0.0),
            atomic: AtomicF64::new(0.0),
            atomic_site: SiteId::from_label("perfbench:synth:atomic"),
            reduction: Reduction::sum_f64("perfbench:synth:reduction"),
        }
    }

    /// The cells no interleaving can change.
    fn exact(&self) -> [f64; 3] {
        [
            self.guarded.raw_load(),
            self.atomic.load(Ordering::Relaxed),
            self.reduction.load(),
        ]
    }
}

impl SynthContended {
    #[must_use]
    pub fn new(seed: u64, shrink: usize) -> SynthContended {
        let iters = (ITERS / shrink).max(1);
        let mut rng = Rng::new(seed ^ 0x7379_6e74);
        let incs = (0..THREADS)
            .map(|_| (0..iters).map(|_| (1 + rng.below(3)) as f64).collect())
            .collect();
        // Per thread: the loop plus the closing `reduce`.
        let ops_per_thread = iters * OPS_PER_ITER + 1;
        SynthContended {
            incs,
            order: draw_schedule(seed, &[ops_per_thread; THREADS as usize]),
            traces: MemTraces::default(),
        }
    }

    fn ops_per_thread(&self) -> usize {
        self.order.len() / THREADS as usize
    }

    /// What the critical, atomic and reduction cells must each hold.
    fn expected_exact(&self) -> f64 {
        self.incs.iter().flatten().sum()
    }

    fn run(
        &self,
        env: &Env,
        tracer: &mut Tracer,
        session: &Arc<Session>,
        pace: &Pace<'_>,
    ) -> (LoopOut, [f64; 3]) {
        let shared = Shared::new();
        let team = Team::new(THREADS);
        let rt = Runtime::new(Arc::clone(session));
        let admitted = catching(|| {
            rt.parallel(|w| {
                let tid = w.tid();
                team.work(env, tid, self.ops_per_thread(), |sampler| {
                    let mut local = 0.0;
                    for &inc in &self.incs[tid as usize] {
                        for _ in 0..3 {
                            let v = step_gate(pace, sampler, tid, || w.racy_load(&shared.racy));
                            step_gate(pace, sampler, tid, || w.racy_store(&shared.racy, v + inc));
                        }
                        step_gate(pace, sampler, tid, || {
                            w.critical(&shared.section, || {
                                shared.guarded.raw_store(shared.guarded.raw_load() + inc);
                            });
                        });
                        step_gate(pace, sampler, tid, || {
                            w.atomic_add_f64(shared.atomic_site, &shared.atomic, inc);
                        });
                        local += inc;
                    }
                    step_gate(pace, sampler, tid, || w.reduce(&shared.reduction, local));
                });
            })
        })
        .is_some();
        let (_, run, calls) = team.finish(tracer);
        let exact = shared.exact();
        let out = LoopOut {
            output: digest(
                std::iter::once(shared.racy.raw_load())
                    .chain(exact)
                    .map(f64::to_bits),
            ),
            admitted,
            run,
            calls,
        };
        (out, exact)
    }

    fn record_paced(
        &self,
        scheme: Scheme,
        env: &Env,
        tracer: &mut Tracer,
        pace: &Pace<'_>,
    ) -> (ModeRun, Option<TraceBundle>) {
        let mut exact = [0.0; 3];
        let (mut run, report) = timed_record(
            scheme,
            tracer,
            || {
                Ok(Session::record_with(
                    scheme,
                    THREADS,
                    SessionConfig::default(),
                ))
            },
            |session, tracer| {
                let (out, cells) = self.run(env, tracer, session, pace);
                exact = cells;
                out
            },
        );
        let want = self.expected_exact();
        run.checks.check(exact.iter().all(|&v| v == want), || {
            format!("{scheme} record: critical/atomic/reduction cells {exact:?}, expected {want}")
        });
        let bundle = report.and_then(|r| r.bundle);
        if let Some(bundle) = &bundle {
            check_recorded(&mut run.checks, scheme, bundle, self.ops());
        }
        (run, bundle)
    }
}

impl Workload for SynthContended {
    fn ops(&self) -> u64 {
        self.order.len() as u64
    }

    fn script(&mut self, scheme: Scheme, env: &Env) -> Scripted {
        let cursor = Cursor::new(&self.order);
        let pace = Pace::Scripted(&cursor);
        let (run, bundle) = self.record_paced(scheme, env, &mut Tracer::new(false), &pace);
        self.traces
            .keep_scripted(run, bundle, &self.order, |_, _| 0)
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
            |session, tracer| self.run(env, tracer, session, &Pace::Free).0,
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
