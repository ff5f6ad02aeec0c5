//! Bounded in-situ "flight recorder" sink.
//!
//! Always-on recording pays for storage it almost never uses: the trace of
//! a run that finishes cleanly is thrown away. A *flight recorder* inverts
//! the deal — it retains only the last `N` chunks of every
//! `(thread, domain)` record stream in memory, checkpoints what the
//! evicted prefix would have replayed to, and materializes a replayable
//! bundle into a real [`StreamingTraceStore`] **only when something goes
//! wrong** (a detected race, a replay divergence, a panic, or an explicit
//! [`Session::dump`](crate::session::Session::dump)).
//!
//! # Window semantics
//!
//! Streams are the same flat domain-major `(thread, domain)` streams the
//! unbounded sinks keep, but each one is a ring of at most `window`
//! chunks. When a ring overflows, its oldest chunk is evicted and the
//! domain's *cut* rises to one past the largest record value evicted; the
//! prefix of **every** stream in that domain below the cut is then
//! trimmed, so the retained window stays consistent across threads:
//!
//! * DC — values are clocks (a permutation): after trimming, the retained
//!   clocks of domain `d` are exactly `base[d]..base[d]+n`, so the
//!   checkpointed `base` is the replay turnstile's starting value and
//!   [`TraceBundle::validate`](crate::trace::TraceBundle::validate)'s
//!   permutation check holds against it.
//! * DE — values are epochs (non-decreasing per stream since buffers are
//!   flushed in clock order): trimming every record with `epoch < cut`
//!   evicts a superset of the records with `clock < cut`, so
//!   `base[d] ≥ cut[d] ≥` every retained epoch's admission requirement and
//!   windowed replay cannot deadlock (see `dump` below).
//! * ST — the shared per-domain stream is its own order; eviction just
//!   counts records off the front (`base[d]` = evicted count) and edge
//!   anchors rebase by it.
//!
//! A dump replays the retained rings into a destination store through the
//! ordinary [`RecordSink`] stages, rebases cross-domain edge anchors by
//! each stream's evicted-record count (dropping edges whose anchor was
//! evicted; wait counts stay absolute because windowed replay starts every
//! turnstile at `base[d]`), and stamps a [`Checkpoint`] section. The
//! destination store's own crash-safety protocol (temp files + manifest
//! last) makes a crash mid-dump leave it `Empty` or intact, never corrupt.

use crate::error::TraceError;
use crate::plan::DomainPlan;
use crate::shim::atomic::{AtomicU64, Ordering};
use crate::shim::Mutex;
use crate::store::{check_columns, IoReport, RecordOptions, RecordSink, StreamingTraceStore};
use crate::trace::{Checkpoint, CrossDomainEdge, DumpTrigger};
use std::collections::VecDeque;
use std::sync::Arc;

/// Default retained window (chunks per stream) when `REOMP_FLIGHT` is set
/// without a count.
pub const DEFAULT_WINDOW: u32 = 8;

/// One retained chunk of a record stream, kept decoded so eviction can
/// trim by record value without re-parsing.
struct ChunkBuf<T> {
    data: Vec<T>,
    sites: Option<Vec<u64>>,
    kinds: Option<Vec<u8>>,
}

impl<T> ChunkBuf<T> {
    fn len(&self) -> usize {
        self.data.len()
    }

    /// Drop the first `n` records of the chunk.
    fn drop_prefix(&mut self, n: usize) {
        self.data.drain(..n);
        if let Some(s) = &mut self.sites {
            s.drain(..n);
        }
        if let Some(k) = &mut self.kinds {
            k.drain(..n);
        }
    }

    /// In-memory retention estimate in bytes.
    fn weight(&self) -> u64 {
        let n = self.data.len() as u64;
        n * std::mem::size_of::<T>() as u64
            + self.sites.as_ref().map_or(0, |_| n * 8)
            + self.kinds.as_ref().map_or(0, |_| n)
    }
}

/// A bounded stream: at most `window` chunks, plus the count of records
/// evicted off its front since the recording began.
struct StreamRing<T> {
    chunks: VecDeque<ChunkBuf<T>>,
    /// Records evicted from this stream (the rebase offset for edge
    /// anchors keyed to it).
    dropped: u64,
}

impl<T> StreamRing<T> {
    fn new() -> Self {
        StreamRing {
            chunks: VecDeque::new(),
            dropped: 0,
        }
    }

    fn records(&self) -> u64 {
        self.chunks.iter().map(|c| c.len() as u64).sum()
    }
}

impl StreamRing<u64> {
    /// Trim every leading record with value `< cut`. Values are
    /// non-decreasing along the stream (chunks arrive in clock order and
    /// are sorted before flushing), so this is a pure prefix. Returns the
    /// number of records trimmed.
    fn trim_below(&mut self, cut: u64) -> u64 {
        let mut trimmed = 0;
        while let Some(front) = self.chunks.front_mut() {
            let n = front.data.partition_point(|&v| v < cut);
            if n == front.len() {
                trimmed += n as u64;
                self.chunks.pop_front();
            } else {
                front.drop_prefix(n);
                trimmed += n as u64;
                break;
            }
        }
        self.dropped += trimmed;
        trimmed
    }
}

struct FlightState {
    /// Flat domain-major `(thread, domain)` rings (DC/DE records; holds
    /// only headers' worth of nothing for ST).
    threads: Vec<StreamRing<u64>>,
    /// Per-domain shared ST rings (empty for DC/DE).
    st: Vec<StreamRing<u32>>,
    /// Per-domain eviction cut: every retained record value in the domain
    /// is `>= cut[d]`.
    cut: Vec<u64>,
    /// Per-domain evicted-record counts — the checkpoint's clock bases.
    base: Vec<u64>,
    plan: Option<DomainPlan>,
    edges: Vec<CrossDomainEdge>,
}

/// The bounded in-situ recorder behind [`FlightSink`]. Shared (via `Arc`)
/// between the recording session's sink and whoever triggers dumps.
pub struct FlightRecorder {
    opts: RecordOptions,
    window: u32,
    state: Mutex<FlightState>,
    /// Peak chunks any single stream retained (measured after eviction, so
    /// it is `<= window` by construction — the bound the session report
    /// asserts).
    retained_peak: AtomicU64,
    /// Total records evicted across all streams.
    evicted: AtomicU64,
}

impl FlightRecorder {
    /// A recorder retaining at most `window` chunks per stream (clamped to
    /// ≥ 1).
    #[must_use]
    pub fn new(opts: RecordOptions, window: u32) -> Self {
        let nstreams = opts.domains as usize * opts.nthreads as usize;
        FlightRecorder {
            opts,
            window: window.max(1),
            state: Mutex::new(FlightState {
                threads: (0..nstreams).map(|_| StreamRing::new()).collect(),
                st: if opts.scheme == crate::session::Scheme::St {
                    (0..opts.domains).map(|_| StreamRing::new()).collect()
                } else {
                    Vec::new()
                },
                cut: vec![0; opts.domains as usize],
                base: vec![0; opts.domains as usize],
                plan: None,
                edges: Vec::new(),
            }),
            retained_peak: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The recording's options (what a dump's `begin_record` will use).
    #[must_use]
    pub fn options(&self) -> RecordOptions {
        self.opts
    }

    /// Configured window (chunks per stream).
    #[must_use]
    pub fn window(&self) -> u32 {
        self.window
    }

    /// Peak chunks any single stream retained at once so far.
    #[must_use]
    pub fn retained_peak(&self) -> u64 {
        self.retained_peak.load(Ordering::Acquire)
    }

    /// Total records evicted from the window so far.
    #[must_use]
    pub fn evicted(&self) -> u64 {
        self.evicted.load(Ordering::Acquire)
    }

    fn note_peak(&self, state: &FlightState) {
        let peak = state
            .threads
            .iter()
            .map(|r| r.chunks.len())
            .chain(state.st.iter().map(|r| r.chunks.len()))
            .max()
            .unwrap_or(0) as u64;
        self.retained_peak.fetch_max(peak, Ordering::AcqRel);
    }

    /// Evict/trim domain `dom` so no thread ring exceeds the window and no
    /// retained record value is below the domain cut.
    fn enforce_window(&self, state: &mut FlightState, dom: u32) {
        let nthreads = self.opts.nthreads as usize;
        let streams = dom as usize * nthreads..(dom as usize + 1) * nthreads;
        let mut cut = state.cut[dom as usize];
        for i in streams.clone() {
            let ring = &mut state.threads[i];
            while ring.chunks.len() > self.window as usize {
                let evicted = ring.chunks.pop_front().expect("non-empty ring");
                if let Some(&last) = evicted.data.last() {
                    cut = cut.max(last + 1);
                }
                ring.dropped += evicted.len() as u64;
                state.base[dom as usize] += evicted.len() as u64;
                self.evicted
                    .fetch_add(evicted.len() as u64, Ordering::AcqRel);
            }
        }
        if cut > state.cut[dom as usize] {
            state.cut[dom as usize] = cut;
        }
        // Trim every stream in the domain below the (possibly raised) cut
        // so the retained window stays cross-thread consistent.
        for i in streams {
            let trimmed = state.threads[i].trim_below(cut);
            state.base[dom as usize] += trimmed;
            self.evicted.fetch_add(trimmed, Ordering::AcqRel);
        }
    }

    fn append_thread(
        &self,
        dom: u32,
        tid: u32,
        values: &[u64],
        sites: Option<&[u64]>,
        kinds: Option<&[u8]>,
    ) -> Result<u64, TraceError> {
        check_columns(self.opts.validated, sites, kinds)?;
        let idx = self.opts.stream_index(dom, tid)?;
        let chunk = ChunkBuf {
            data: values.to_vec(),
            sites: sites.map(<[u64]>::to_vec),
            kinds: kinds.map(<[u8]>::to_vec),
        };
        let weight = chunk.weight();
        let mut state = self.state.lock();
        state.threads[idx].chunks.push_back(chunk);
        self.enforce_window(&mut state, dom);
        self.note_peak(&state);
        Ok(weight)
    }

    fn append_st(
        &self,
        dom: u32,
        tids: &[u32],
        sites: Option<&[u64]>,
        kinds: Option<&[u8]>,
    ) -> Result<u64, TraceError> {
        check_columns(self.opts.validated, sites, kinds)?;
        let chunk = ChunkBuf {
            data: tids.to_vec(),
            sites: sites.map(<[u64]>::to_vec),
            kinds: kinds.map(<[u8]>::to_vec),
        };
        let weight = chunk.weight();
        let mut state = self.state.lock();
        if dom as usize >= state.st.len() {
            return Err(TraceError::Corrupt(format!(
                "no st stream for domain {dom}"
            )));
        }
        let ring = &mut state.st[dom as usize];
        ring.chunks.push_back(chunk);
        let mut dropped = 0;
        while ring.chunks.len() > self.window as usize {
            let evicted = ring.chunks.pop_front().expect("non-empty ring");
            ring.dropped += evicted.len() as u64;
            dropped += evicted.len() as u64;
        }
        state.base[dom as usize] += dropped;
        self.evicted.fetch_add(dropped, Ordering::AcqRel);
        self.note_peak(&state);
        Ok(weight)
    }

    /// The retention report an unmaterialized recording finishes with:
    /// `bytes`/`chunks` describe what is currently held in memory,
    /// `files` is 0 (nothing was written), and
    /// `retained_peak`/`evicted` witness the window bound.
    fn retention_report(&self) -> IoReport {
        let state = self.state.lock();
        let mut report = IoReport {
            retained_peak: self.retained_peak(),
            evicted: self.evicted(),
            ..IoReport::default()
        };
        for ring in &state.threads {
            for c in &ring.chunks {
                report.bytes += c.weight();
                report.chunks += 1;
            }
        }
        for ring in &state.st {
            for c in &ring.chunks {
                report.bytes += c.weight();
                report.chunks += 1;
            }
        }
        report
    }

    /// Rebase one recorded edge onto the retained window: `None` if its
    /// anchor record was evicted, otherwise the anchor seq shifted by the
    /// anchor stream's evicted-record count. Wait counts stay absolute —
    /// windowed replay starts every domain turnstile at `base[d]`.
    fn rebase_edge(&self, state: &FlightState, edge: &CrossDomainEdge) -> Option<CrossDomainEdge> {
        let dropped = if self.opts.scheme == crate::session::Scheme::St {
            state.st.get(edge.domain as usize)?.dropped
        } else {
            let idx = (edge.domain * self.opts.nthreads + edge.thread) as usize;
            state.threads.get(idx)?.dropped
        };
        if edge.seq < dropped {
            return None;
        }
        Some(CrossDomainEdge {
            seq: edge.seq - dropped,
            ..edge.clone()
        })
    }

    /// Materialize the retained window into `store` as a replayable
    /// bundle stamped with a [`Checkpoint`].
    ///
    /// `plan` overrides the plan attached through the sink (sessions pass
    /// their config's plan because sinks only receive it at commit);
    /// `extra_edges` are edges the session has collected but not yet
    /// appended; `floors` are the DE per-domain clock floors recorded for
    /// provenance (empty for ST/DC).
    ///
    /// The returned report is the destination store's, with the recorder's
    /// retention counters stamped on top. Crash-safety is inherited from
    /// the destination: nothing becomes loadable before its final commit.
    pub fn dump_into(
        &self,
        store: &dyn StreamingTraceStore,
        trigger: DumpTrigger,
        plan: Option<&DomainPlan>,
        extra_edges: &[CrossDomainEdge],
        floors: Vec<u64>,
    ) -> Result<IoReport, TraceError> {
        // Hold the state lock across materialization: a dump is a
        // consistent snapshot even if other threads keep appending.
        let state = self.state.lock();
        let sink = store.begin_record(self.opts)?;
        let mut total: u64 = 0;
        for dom in 0..self.opts.domains {
            for tid in 0..self.opts.nthreads {
                let ring = &state.threads[(dom * self.opts.nthreads + tid) as usize];
                for c in &ring.chunks {
                    sink.append_thread_chunk(
                        dom,
                        tid,
                        &c.data,
                        c.sites.as_deref(),
                        c.kinds.as_deref(),
                    )?;
                }
                total += ring.records();
            }
        }
        for (dom, ring) in state.st.iter().enumerate() {
            for c in &ring.chunks {
                sink.append_st_chunk(dom as u32, &c.data, c.sites.as_deref(), c.kinds.as_deref())?;
            }
            total += ring.records();
        }
        if let Some(p) = plan.or(state.plan.as_ref()) {
            sink.put_plan(p)?;
        }
        let mut edges: Vec<CrossDomainEdge> = state
            .edges
            .iter()
            .chain(extra_edges)
            .filter_map(|e| self.rebase_edge(&state, e))
            .collect();
        edges.sort_by_key(|e| (e.domain, e.thread, e.seq));
        edges.dedup();
        if !edges.is_empty() {
            sink.append_edges(&edges)?;
        }
        sink.put_checkpoint(&Checkpoint {
            base: state.base.clone(),
            floors,
            window: self.window,
            trigger,
        })?;
        let mut report = sink.commit(total)?;
        report.retained_peak = self.retained_peak();
        report.evicted = self.evicted();
        Ok(report)
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("opts", &self.opts)
            .field("window", &self.window)
            .field("retained_peak", &self.retained_peak())
            .field("evicted", &self.evicted())
            .finish_non_exhaustive()
    }
}

/// The [`RecordSink`] face of a [`FlightRecorder`]: the retain stage of
/// the produce → retain → materialize pipeline. Appends land in the
/// bounded rings; `commit` finalizes the session *without* materializing
/// anything — the recording only ever reaches a store through
/// [`FlightRecorder::dump_into`].
pub struct FlightSink(Arc<FlightRecorder>);

impl FlightSink {
    /// Sink view of `recorder`.
    #[must_use]
    pub fn new(recorder: Arc<FlightRecorder>) -> Self {
        FlightSink(recorder)
    }
}

impl RecordSink for FlightSink {
    fn append_thread_chunk(
        &self,
        dom: u32,
        tid: u32,
        values: &[u64],
        sites: Option<&[u64]>,
        kinds: Option<&[u8]>,
    ) -> Result<u64, TraceError> {
        self.0.append_thread(dom, tid, values, sites, kinds)
    }

    fn append_st_chunk(
        &self,
        dom: u32,
        tids: &[u32],
        sites: Option<&[u64]>,
        kinds: Option<&[u8]>,
    ) -> Result<u64, TraceError> {
        self.0.append_st(dom, tids, sites, kinds)
    }

    fn put_plan(&self, plan: &DomainPlan) -> Result<(), TraceError> {
        self.0.opts.check_plan(plan)?;
        self.0.state.lock().plan = Some(plan.clone());
        Ok(())
    }

    fn append_edges(&self, edges: &[CrossDomainEdge]) -> Result<(), TraceError> {
        self.0.state.lock().edges.extend_from_slice(edges);
        Ok(())
    }

    fn put_checkpoint(&self, _checkpoint: &Checkpoint) -> Result<(), TraceError> {
        Err(TraceError::Corrupt(
            "a flight recorder issues its own checkpoints at dump time".into(),
        ))
    }

    fn commit(self: Box<Self>, _total_records: u64) -> Result<IoReport, TraceError> {
        // Finishing a bounded recording persists nothing; the report
        // carries the retention counters instead of I/O.
        Ok(self.0.retention_report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Scheme;
    use crate::store::{MemStore, TraceStore};

    fn opts(scheme: Scheme, nthreads: u32, domains: u32) -> RecordOptions {
        RecordOptions::new(scheme, nthreads, domains, false)
    }

    #[test]
    fn ring_never_exceeds_the_window() {
        let rec = Arc::new(FlightRecorder::new(opts(Scheme::Dc, 1, 1), 3));
        for i in 0..50u64 {
            rec.append_thread(0, 0, &[i * 2, i * 2 + 1], None, None)
                .unwrap();
        }
        assert!(rec.retained_peak() <= 3, "peak {}", rec.retained_peak());
        assert_eq!(rec.evicted(), (50 - 3) * 2);
    }

    #[test]
    fn dc_window_dumps_as_a_valid_bundle_with_shifted_base() {
        // Two threads, interleaved clocks; window of 2 chunks per stream.
        let rec = Arc::new(FlightRecorder::new(opts(Scheme::Dc, 2, 1), 2));
        for c in 0..20u64 {
            // clock c goes to thread c % 2, one record per chunk.
            rec.append_thread(0, (c % 2) as u32, &[c], None, None)
                .unwrap();
        }
        let store = MemStore::default();
        let io = rec
            .dump_into(&store, DumpTrigger::Manual, None, &[], Vec::new())
            .unwrap();
        assert!(io.files > 0);
        let (bundle, _) = store.load().unwrap();
        let cp = bundle.checkpoint.as_ref().expect("checkpoint");
        assert_eq!(cp.trigger, DumpTrigger::Manual);
        assert_eq!(cp.window, 2);
        // 2 chunks × 1 record × 2 threads retained ⇒ base = 20 - 4 = 16.
        assert_eq!(cp.base, vec![16]);
        assert_eq!(bundle.total_records(), 4);
    }

    #[test]
    fn eviction_trims_sibling_streams_to_the_cut() {
        // Thread 0 floods its ring; thread 1's single old chunk (clocks
        // 0..2) must be trimmed away when the cut passes it.
        let rec = Arc::new(FlightRecorder::new(opts(Scheme::Dc, 2, 1), 2));
        rec.append_thread(0, 1, &[0, 1], None, None).unwrap();
        for c in 0..10u64 {
            rec.append_thread(0, 0, &[2 + c], None, None).unwrap();
        }
        let store = MemStore::default();
        rec.dump_into(&store, DumpTrigger::Race, None, &[], Vec::new())
            .unwrap();
        let (bundle, _) = store.load().unwrap();
        // Bundle validates ⇒ retained clocks are a contiguous run at base.
        assert_eq!(
            bundle.clock_base(0),
            bundle.checkpoint.as_ref().unwrap().base[0]
        );
        assert!(bundle.thread(0, 1).values.is_empty(), "old chunk trimmed");
    }

    #[test]
    fn st_window_counts_evictions_into_base() {
        let rec = Arc::new(FlightRecorder::new(opts(Scheme::St, 2, 1), 2));
        for i in 0..9u32 {
            rec.append_st(0, &[i % 2, (i + 1) % 2], None, None).unwrap();
        }
        let store = MemStore::default();
        rec.dump_into(&store, DumpTrigger::Panic, None, &[], Vec::new())
            .unwrap();
        let (bundle, _) = store.load().unwrap();
        // 9 chunks of 2, window 2 ⇒ 7 × 2 evicted.
        assert_eq!(bundle.checkpoint.as_ref().unwrap().base, vec![14]);
        assert_eq!(bundle.st[0].tids.len(), 4);
    }

    #[test]
    fn evicted_edge_anchors_are_dropped_and_survivors_rebased() {
        let rec = Arc::new(FlightRecorder::new(opts(Scheme::Dc, 1, 2), 1));
        // Domain 0: clocks 0..6 in 3 chunks — only the last chunk (4, 5)
        // survives, so 4 records dropped. Domain 1 keeps everything.
        for c in 0..3u64 {
            rec.append_thread(0, 0, &[c * 2, c * 2 + 1], None, None)
                .unwrap();
        }
        rec.append_thread(1, 0, &[0, 1], None, None).unwrap();
        let edges = vec![
            CrossDomainEdge {
                domain: 0,
                thread: 0,
                seq: 1, // evicted anchor
                waits: vec![(1, 1)],
            },
            CrossDomainEdge {
                domain: 0,
                thread: 0,
                seq: 5, // retained anchor → rebased to 1
                waits: vec![(1, 2)],
            },
        ];
        let store = MemStore::default();
        rec.dump_into(&store, DumpTrigger::Divergence, None, &edges, Vec::new())
            .unwrap();
        let (bundle, _) = store.load().unwrap();
        assert_eq!(bundle.edges.len(), 1);
        assert_eq!(bundle.edges[0].seq, 1);
        assert_eq!(bundle.edges[0].waits, vec![(1, 2)]);
    }

    #[test]
    fn sink_commit_reports_retention_not_io() {
        let rec = Arc::new(FlightRecorder::new(opts(Scheme::Dc, 1, 1), 2));
        let sink: Box<dyn RecordSink> = Box::new(FlightSink::new(Arc::clone(&rec)));
        for c in 0..5u64 {
            sink.append_thread_chunk(0, 0, &[c], None, None).unwrap();
        }
        let io = sink.commit(5).unwrap();
        assert_eq!(io.files, 0, "nothing materialized");
        assert_eq!(io.chunks, 2);
        assert_eq!(io.retained_peak, 2);
        assert_eq!(io.evicted, 3);
    }
}
