//! The admission-order oracle: a replay is correct when it reproduces the
//! recorded order, not only the output (Ronsse & De Bosschere). Logs are
//! taken from inside the gated regions, never on the gate's own path.

use reomp::core::trace::OrderedAccess;
use reomp::ompr::{Event, EventSink};
use reomp::{AccessKind, Scheme, Session, SiteId, TraceBundle};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering::SeqCst};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per gate domain, `(thread, site)` of each access in the order its gated
/// region ran.
pub type Log = Vec<Vec<(u32, u64)>>;

/// An event sink that files every access it sees under the gate domain
/// the session's plan routes its site to.
pub struct AdmissionLog {
    session: Arc<Session>,
    domains: Vec<Mutex<Vec<(u32, u64)>>>,
    /// Barriers each thread has arrived at.
    barriers: Vec<AtomicU64>,
}

impl AdmissionLog {
    pub fn new(session: &Arc<Session>) -> Arc<AdmissionLog> {
        Arc::new(AdmissionLog {
            session: Arc::clone(session),
            domains: (0..session.domains()).map(|_| Mutex::default()).collect(),
            barriers: (0..session.nthreads()).map(|_| AtomicU64::new(0)).collect(),
        })
    }

    /// Log one access, from inside its gated region.
    pub fn push(&self, tid: u32, site: SiteId) {
        if let Some(dom) = self.session.plan().route(site) {
            let log = &self.domains[dom as usize];
            log.lock().unwrap().push((tid, site.raw()));
        }
    }

    /// Hold a thread arriving at a team barrier until every thread has
    /// arrived, and panic instead once the replay failed: a thread whose
    /// gate failed never arrives, and the team barrier would wait for it
    /// forever instead of failing the test.
    fn arrive(&self, tid: u32) {
        let episode = self.barriers[tid as usize].fetch_add(1, SeqCst) + 1;
        let start = Instant::now();
        while self.barriers.iter().any(|b| b.load(SeqCst) < episode) {
            if let Some(failure) = self.session.failure() {
                panic!("thread {tid} leaves a failed replay at a barrier: {failure}");
            }
            assert!(start.elapsed() < Duration::from_secs(600), "barrier");
            std::thread::yield_now();
        }
    }

    /// The log so far.
    pub fn take(&self) -> Log {
        let logs = self.domains.iter();
        logs.map(|l| std::mem::take(&mut *l.lock().unwrap()))
            .collect()
    }
}

impl EventSink for AdmissionLog {
    fn event(&self, e: Event) {
        match e {
            Event::Read { tid, site, .. } | Event::Write { tid, site, .. } => self.push(tid, site),
            Event::Acquire { tid, lock } => self.push(tid, SiteId(lock)),
            Event::BarrierArrive { tid, .. } => self.arrive(tid),
            _ => {}
        }
    }
}

/// Per domain, each logged access paired with its record: a thread's k-th
/// logged access in a domain is its k-th record there, in `linearize`'s
/// order, of any kind but `Ordered` (claims emit no event), and of the
/// logged site.
pub fn records_of(bundle: &TraceBundle, log: &Log) -> Result<Vec<Vec<OrderedAccess>>, String> {
    let order = bundle.linearize();
    if !order.consistent {
        return Err("the cross-domain edges admit no order".into());
    }
    let mut next = vec![vec![VecDeque::new(); bundle.nthreads as usize]; bundle.domains as usize];
    for a in order.accesses {
        if a.kind != Some(AccessKind::Ordered) {
            next[a.domain as usize][a.thread as usize].push_back(a);
        }
    }
    let mut ran = Vec::with_capacity(log.len());
    for (dom, (next, seen)) in next.iter_mut().zip(log).enumerate() {
        let mut paired = Vec::with_capacity(seen.len());
        for &(tid, site) in seen {
            let a = next.get_mut(tid as usize).and_then(VecDeque::pop_front);
            let a =
                a.ok_or_else(|| format!("domain {dom}: thread {tid} ran more than recorded"))?;
            if a.site.map(SiteId::raw) != Some(site) {
                return Err(format!(
                    "domain {dom}: thread {tid} ran {site:#x} for {a:?}"
                ));
            }
            paired.push(a);
        }
        if let Some(t) = next.iter().position(|q| !q.is_empty()) {
            return Err(format!("domain {dom}: thread {t} ran less than recorded"));
        }
        ran.push(paired);
    }
    Ok(ran)
}

/// The oracle: `Ok` when `log` ran, in every domain, exactly the accesses
/// `bundle` recorded there, each thread in its own order, and the
/// recorded values rise along the log — strictly for ST (stream index)
/// and DC (clock), so the log is the recorded order; weakly for DE, so
/// epochs run in order and an epoch's accesses in any order.
pub fn check(bundle: &TraceBundle, log: &Log) -> Result<(), String> {
    let strict = bundle.scheme != Scheme::De;
    let out_of_order = |w: &&[OrderedAccess]| w[1].value < w[0].value + u64::from(strict);
    for (dom, ran) in records_of(bundle, log)?.iter().enumerate() {
        if let Some(w) = ran.windows(2).find(out_of_order) {
            return Err(format!("domain {dom}: {:?} ran after {:?}", w[1], w[0]));
        }
    }
    Ok(())
}
