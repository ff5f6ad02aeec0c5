//! `solo_stream`: one gating thread (the other CPU idle), 4 sites, 3 loads
//! to 1 store, streamed into a compressed `DirStore`.
//!
//! With contention removed, the per-op cost is fast path + sink (encode /
//! RLE / append / commit) and, on replay, load / decode / verify. It is the
//! only workload where the persistence stack is a visible share, and the
//! quietest one.

use super::{
    digest, gated_cell_access, no_scripted_trace, run_pinned, step_gate, swap_first_two,
    timed_record, timed_replay, Checks, DirTraces, Env, LoopOut, ModeRun, Scripted, Workload,
};
use crate::script::{Pace, Rng};
use crate::spans::Tracer;
use reomp_core::{
    DirStore, EpochHistogram, Scheme, Session, SessionConfig, SiteId, TraceStore, Verifier,
};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const SITES: u64 = 4;
/// Gated accesses per mode-run, at full size.
const OPS: usize = 600_000;
const FLUSH_RECORDS: usize = 4096;

#[derive(Debug)]
pub struct SoloStream {
    /// Per access: site index and whether it stores.
    program: Vec<(u8, bool)>,
    traces: DirTraces,
}

fn site(index: u8) -> SiteId {
    SiteId::from_label_indexed("perfbench:solo_stream", u64::from(index))
}

fn record_cfg() -> SessionConfig {
    SessionConfig {
        compress: true,
        flush_records: FLUSH_RECORDS,
        ..SessionConfig::default()
    }
}

impl SoloStream {
    #[must_use]
    pub fn new(seed: u64, shrink: usize) -> SoloStream {
        let ops = (OPS / shrink).max(4);
        let mut rng = Rng::new(seed ^ 0x736f_6c6f);
        let mut program = Vec::with_capacity(ops + 4);
        // Every block of 4 accesses holds one store, at a drawn position;
        // every access goes to a drawn site.
        while program.len() < ops {
            let store_at = rng.below(4);
            for i in 0..4 {
                program.push((rng.below(SITES) as u8, i == store_at));
            }
        }
        program.truncate(ops);
        SoloStream {
            program,
            traces: DirTraces::default(),
        }
    }

    fn run(&self, env: &Env, tracer: &mut Tracer, session: &Arc<Session>) -> LoopOut {
        let cells: Vec<AtomicU64> = (0..SITES).map(|_| AtomicU64::new(0)).collect();
        let sites: Vec<SiteId> = (0..SITES as u8).map(site).collect();
        let (outs, run, calls) = run_pinned(
            env,
            tracer,
            session,
            1,
            self.program.len(),
            |tid, ctx, sampler| {
                let mut acc = 1u64;
                for (i, &(s, store)) in self.program.iter().enumerate() {
                    let (site, cell) = (sites[usize::from(s)], &cells[usize::from(s)]);
                    let gated = step_gate(&Pace::Free, sampler, tid, || {
                        gated_cell_access(ctx, site, cell, store, acc, i)
                    });
                    match gated {
                        Ok(v) => acc = acc.rotate_left(5) ^ v,
                        Err(_) => return (acc, false),
                    }
                }
                (acc, true)
            },
        );
        LoopOut {
            output: digest(
                outs.iter()
                    .map(|&(acc, _)| acc)
                    .chain(cells.iter().map(|c| c.load(Ordering::Relaxed))),
            ),
            admitted: outs.iter().all(|&(_, ok)| ok),
            run,
            calls,
        }
    }

    /// One timed streaming recording into `dir`; returns the bytes the
    /// committed trace occupies.
    fn record_into(
        &self,
        scheme: Scheme,
        env: &Env,
        tracer: &mut Tracer,
        dir: &Path,
    ) -> (ModeRun, u64) {
        let (mut run, report) = timed_record(
            scheme,
            tracer,
            || Session::record_streaming_with(scheme, 1, record_cfg(), &DirStore::new(dir)),
            |session, tracer| self.run(env, tracer, session),
        );
        let mut bytes = 0;
        if let Some(report) = report {
            let written = report.stats.records_written;
            let ops = self.ops();
            run.checks.check(written == ops, || {
                format!("{scheme} record: {written} records for {ops} ops")
            });
            run.checks.check(report.io.is_some(), || {
                format!("{scheme} record: streaming finish reported no I/O")
            });
            bytes = report.io.map_or(0, |io| io.bytes);
        }
        // Outside the timed region: what was committed loads and verifies.
        load_verified(dir, scheme, &mut Tracer::new(false), &mut run.checks);
        (run, bytes)
    }
}

/// Load the trace in `dir` and verify it statically; `None` (and a failed
/// check) unless both succeed.
fn load_verified(
    dir: &Path,
    scheme: Scheme,
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Option<reomp_core::TraceBundle> {
    let span = tracer.begin("store.dir_load", "store");
    let loaded = DirStore::new(dir).load();
    tracer.end(span);
    let bundle = match loaded {
        Ok((bundle, _)) => bundle,
        Err(e) => {
            checks.check(false, || format!("{scheme}: trace does not load: {e}"));
            return None;
        }
    };
    let span = tracer.begin("verify.verify", "verify");
    let report = Verifier::new().verify(&bundle);
    tracer.end(span);
    checks.check(report.is_clean(), || format!("{scheme}: {report}"));
    report.is_clean().then_some(bundle)
}

impl Workload for SoloStream {
    fn ops(&self) -> u64 {
        self.program.len() as u64
    }

    /// One thread has one possible order, so the "script" is the program
    /// itself; the recording is kept on disk for the replays to load.
    fn script(&mut self, scheme: Scheme, env: &Env) -> Scripted {
        let dir = env.fresh_dir("solo-scripted");
        let (run, bytes) = self.record_into(scheme, env, &mut Tracer::new(false), &dir);
        self.traces.set(scheme, dir, run.output);
        Scripted {
            bytes,
            checks: run.checks,
        }
    }

    fn record(&self, scheme: Scheme, env: &Env, tracer: &mut Tracer) -> ModeRun {
        let dir = env.fresh_dir("solo-record");
        let (run, _) = self.record_into(scheme, env, tracer, &dir);
        let _ = std::fs::remove_dir_all(dir);
        run
    }

    fn replay(&self, scheme: Scheme, env: &Env, tracer: &mut Tracer) -> ModeRun {
        let Some((dir, recorded_output)) = self.traces.get(scheme) else {
            return no_scripted_trace(scheme);
        };
        timed_replay(
            scheme,
            env,
            tracer,
            |tracer, checks| load_verified(dir, scheme, tracer, checks),
            |session, tracer| self.run(env, tracer, session),
            recorded_output,
        )
    }

    fn epochs(&self) -> EpochHistogram {
        self.traces
            .get(Scheme::De)
            .and_then(|(dir, _)| DirStore::new(dir).load().ok())
            .map(|(bundle, _)| EpochHistogram::from_bundle(&bundle))
            .unwrap_or_default()
    }

    fn corrupt_dc_trace(&mut self) {
        if let Some((dir, _)) = self.traces.get(Scheme::Dc) {
            let store = DirStore::new(dir);
            if let Ok((mut bundle, _)) = store.load() {
                swap_first_two(&mut bundle);
                let _ = store.save(&bundle);
            }
        }
    }
}
