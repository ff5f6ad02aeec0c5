//! The fork-join runtime: teams, parallel regions, worksharing dispatch.

use crate::barrier::TeamBarrier;
use crate::events::{Event, EventSink, MAIN_TID};
use crate::schedule::Schedule;
use crate::worker::Worker;
use parking_lot::Mutex;
use reomp_core::Session;
use std::collections::HashMap;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize};
use std::sync::Arc;

/// Per-construct shared state (dynamic-loop cursors, `single` claims).
///
/// OpenMP requires all team threads to encounter worksharing constructs in
/// the same order, so constructs are numbered per-thread and the numbers
/// agree across the team; the map below is keyed by that sequence number.
#[derive(Debug, Default)]
pub(crate) struct ConstructState {
    pub cursor: AtomicUsize,
    pub claimed: AtomicBool,
}

pub(crate) struct TeamShared {
    pub barrier: TeamBarrier,
    pub constructs: Mutex<HashMap<u64, Arc<ConstructState>>>,
    pub sink: Option<Arc<dyn EventSink>>,
}

impl TeamShared {
    pub(crate) fn construct(&self, seq: u64) -> Arc<ConstructState> {
        Arc::clone(
            self.constructs
                .lock()
                .entry(seq)
                .or_insert_with(|| Arc::new(ConstructState::default())),
        )
    }

    pub(crate) fn emit(&self, e: Event) {
        if let Some(sink) = &self.sink {
            sink.event(e);
        }
    }
}

/// The OpenMP-like runtime: a [`Session`] plus a team size.
///
/// Each [`Runtime::parallel`] call forks a team of `session.nthreads()`
/// OS threads (fork-join, like `#pragma omp parallel`), hands every thread
/// a [`Worker`], and joins at region end. Workers register with the
/// session, so gated constructs inside the region are recorded or replayed
/// according to the session's mode.
pub struct Runtime {
    session: Arc<Session>,
    sink: Option<Arc<dyn EventSink>>,
}

impl Runtime {
    /// Runtime over `session`; the team size is the session's thread count.
    #[must_use]
    pub fn new(session: Arc<Session>) -> Self {
        Runtime {
            session,
            sink: None,
        }
    }

    /// Attach a dynamic-analysis event sink (the race-detection step runs
    /// the application once with a detector attached, Fig. 2 step (1)).
    #[must_use]
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Team size.
    #[must_use]
    pub fn nthreads(&self) -> u32 {
        self.session.nthreads()
    }

    /// The underlying session.
    #[must_use]
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// Execute a parallel region: `f` runs once on every team thread.
    ///
    /// Equivalent to `#pragma omp parallel`; combine with the worker's
    /// worksharing methods (`for_static`, `for_dynamic`, …), `barrier`,
    /// `critical`, etc. inside the region.
    pub fn parallel<F>(&self, f: F)
    where
        F: Fn(&Worker) + Sync,
    {
        let n = self.nthreads();
        let team = TeamShared {
            barrier: TeamBarrier::new(n),
            constructs: Mutex::new(HashMap::new()),
            sink: self.sink.clone(),
        };
        for tid in 0..n {
            team.emit(Event::Fork {
                parent: MAIN_TID,
                child: tid,
            });
        }
        let team = &team;
        let f = &f;
        std::thread::scope(|s| {
            for tid in 0..n {
                let ctx = self.session.register_thread(tid);
                s.spawn(move || {
                    let worker = Worker::new(tid, n, ctx, team);
                    f(&worker);
                });
            }
        });
        for tid in 0..n {
            team.emit(Event::Join {
                parent: MAIN_TID,
                child: tid,
            });
        }
    }

    /// `#pragma omp parallel for` over `range` with the given schedule.
    pub fn parallel_for<F>(&self, range: Range<usize>, schedule: Schedule, f: F)
    where
        F: Fn(&Worker, usize) + Sync,
    {
        let f = &f;
        self.parallel(|w| match schedule {
            Schedule::Static => w.for_static(range.clone(), |i| f(w, i)),
            Schedule::StaticChunk(c) => w.for_static_chunk(range.clone(), c, |i| f(w, i)),
            Schedule::Dynamic(c) => w.for_dynamic(range.clone(), c, |i| f(w, i)),
            Schedule::Guided(c) => w.for_guided(range.clone(), c, |i| f(w, i)),
        });
    }
}

impl std::fmt::Debug for Runtime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Runtime")
            .field("nthreads", &self.nthreads())
            .field("has_sink", &self.sink.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::VecSink;
    use reomp_core::{Scheme, Session};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn parallel_runs_every_tid_once() {
        let session = Session::passthrough(4);
        let rt = Runtime::new(session);
        let mask = AtomicU64::new(0);
        rt.parallel(|w| {
            let bit = 1u64 << w.tid();
            let prev = mask.fetch_or(bit, Ordering::SeqCst);
            assert_eq!(prev & bit, 0, "tid {} ran twice", w.tid());
        });
        assert_eq!(mask.load(Ordering::SeqCst), 0b1111);
    }

    #[test]
    fn parallel_for_static_covers_range() {
        let session = Session::passthrough(3);
        let rt = Runtime::new(session);
        let hits: Vec<AtomicU64> = (0..50).map(|_| AtomicU64::new(0)).collect();
        rt.parallel_for(0..50, Schedule::Static, |_w, i| {
            hits[i].fetch_add(1, Ordering::SeqCst);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::SeqCst) == 1));
    }

    #[test]
    fn fork_join_events_emitted() {
        let sink = Arc::new(VecSink::new());
        let session = Session::passthrough(2);
        let rt = Runtime::new(session).with_sink(sink.clone());
        rt.parallel(|_w| {});
        let events = sink.take();
        let forks = events
            .iter()
            .filter(|e| matches!(e, Event::Fork { .. }))
            .count();
        let joins = events
            .iter()
            .filter(|e| matches!(e, Event::Join { .. }))
            .count();
        assert_eq!(forks, 2);
        assert_eq!(joins, 2);
    }

    #[test]
    fn regions_can_repeat_on_one_session() {
        let session = Session::record(Scheme::Dc, 2);
        let rt = Runtime::new(session.clone());
        let cs = crate::Critical::new("repeat");
        for _ in 0..3 {
            rt.parallel(|w| {
                w.critical(&cs, || {});
            });
        }
        let report = session.finish().unwrap();
        assert_eq!(report.stats.gates, 6);
        assert_eq!(report.bundle.unwrap().total_records(), 6);
    }

    #[test]
    fn runtime_constructs_record_and_replay_across_gate_domains() {
        // The ompr constructs (racy cells, criticals, reductions) hash
        // their sites across gate domains transparently: a multi-domain
        // recording made through the runtime must replay bit-for-bit.
        use reomp_core::{DomainPlan, SessionConfig};
        let cfg = SessionConfig {
            plan: Some(DomainPlan::new(4)),
            ..SessionConfig::default()
        };
        let run = |session: Arc<Session>| {
            let rt = Runtime::new(session);
            let cells: Vec<crate::RacyCell<u64>> = (0..4)
                .map(|i| crate::RacyCell::new(&format!("domtest:cell{i}"), 0))
                .collect();
            let cs = crate::Critical::new("domtest:cs");
            let safe = AtomicU64::new(0);
            rt.parallel(|w| {
                for _ in 0..20 {
                    w.racy_update(&cells[w.tid() as usize % 4], |v| v + 1);
                    w.critical(&cs, || {
                        safe.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            let finals: Vec<u64> = cells.iter().map(|c| c.raw_load()).collect();
            (finals, safe.load(Ordering::Relaxed))
        };

        let session = Session::record_with(Scheme::De, 4, cfg);
        let recorded = run(session.clone());
        let report = session.finish().unwrap();
        let bundle = report.bundle.unwrap();
        assert_eq!(bundle.domains, 4);
        assert!(
            report.domain_gates.iter().filter(|&&g| g > 0).count() > 1,
            "sites must scatter across domains: {:?}",
            report.domain_gates
        );

        let session = Session::replay(bundle).unwrap();
        let replayed = run(session.clone());
        let report = session.finish().unwrap();
        assert_eq!(report.failure, None);
        assert_eq!(report.fully_consumed, Some(true));
        assert_eq!(replayed, recorded);
    }
}
