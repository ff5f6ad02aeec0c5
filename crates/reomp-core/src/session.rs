//! Session orchestration: one [`Session`] per record or replay run.
//!
//! A session owns the shared gate state (the paper's `global_clock`,
//! `next_clock`, `next_tid`, lock `L`, and trace buffers) plus statistics.
//! Runtime threads obtain a [`ThreadCtx`] via [`Session::register_thread`]
//! and wrap each shared-memory access region in [`ThreadCtx::gate`].
//!
//! Like the paper's `libreomp.so` (§V), the mode can be chosen with
//! environment variables: `REOMP_MODE` (`off`/`record`/`replay`),
//! `REOMP_SCHEME` (`st`/`dc`/`de`), `REOMP_EPOCH_POLICY`, `REOMP_DIR`
//! for the record-file directory, `REOMP_STREAM` (`1` streams the trace
//! to `REOMP_DIR` chunk-by-chunk as the run records),
//! `REOMP_FLUSH_RECORDS` (streaming flush threshold), `REOMP_DOMAINS`
//! (gate-domain count, see below), `REOMP_SPIN_TIMEOUT` (replay
//! watchdog in seconds, `0` disables it), `REOMP_TICKET_GATE`
//! (`0`/`false`/`off` routes every record gate through the legacy mutex
//! instead of the lock-free ticket fast path), and `REOMP_PUBLISH_BATCH`
//! (DE completion-count publication batch, see
//! [`SessionConfig::publish_batch`]).
//!
//! # Gate domains
//!
//! By default every gated access serializes through **one** gate lock and
//! one clock, regardless of which site it touches — the paper's layout.
//! [`SessionConfig::domains`] partitions sites across `D` independent gate
//! instances (*domains*): site `s` always belongs to domain
//! `s.raw() % D`, each domain owns its own lock, clock, epoch tracker, and
//! replay turnstile, and record files become per-thread **per-domain**
//! streams. Threads touching sites in different domains no longer contend
//! in record mode and replay concurrently in replay mode.
//!
//! Sharding is *sound* when ordering only ever matters within a domain:
//! the recorded order stream of each domain is complete for the sites it
//! contains (the partition is a pure function of the site id, identical in
//! record and replay), so the paper's ordering requirement — and the
//! Contiguous-policy monotonicity argument in [`crate::epoch`] — hold per
//! stream. What multi-domain recording does **not** capture per se is the
//! relative order of two racing accesses *to the same memory* made through
//! sites in different domains. Two mechanisms close that gap:
//!
//! * **Domain plans** ([`SessionConfig::plan`]): an explicit
//!   [`DomainPlan`] — typically produced by `racedet::DomainPlanner` from
//!   a race report — co-locates every group of aliased/racing sites in one
//!   domain (so their order is recorded) and spreads the remaining sites
//!   with a mixed-hash fallback. The plan is stamped into the trace and
//!   reconstructed on replay; a plan-less multi-domain session keeps the
//!   legacy `site.raw() % D` partition for PR 3 trace compatibility.
//! * **Cross-domain happens-before edges**: at barrier
//!   ([`ThreadCtx::sync_point`]) and critical-section gates of a
//!   multi-domain record run, the session stamps a sparse vector of the
//!   other domains' clocks into the trace ([`CrossDomainEdge`]); replay
//!   waits on the foreign domains' turnstiles before admitting the anchor
//!   access, restoring inter-domain order at synchronization points.
//!
//! The soundness contract is: **aliased sites co-locate, or edges restore
//! their order at the synchronization points that separate them.**
//!
//! # Streaming record runs
//!
//! [`Session::record_streaming`] attaches a [`RecordSink`] from a
//! [`StreamingTraceStore`]: whenever a thread's own lane reaches
//! [`SessionConfig::flush_records`] entries, that thread encodes the
//! lane's stable prefix as a chunk and appends it to its record stream,
//! so the session never holds more than a bounded window of the trace in
//! memory. ST/DC records are stable as soon as they are buffered. A DE
//! store record is provisional until the next access shows whether it
//! needs a fix-up (see [`crate::epoch`]), so each domain keeps a *floor*:
//! the tracker's [`min_pending_clock`](EpochTracker::min_pending_clock),
//! stored with `Release` under the gate exclusion *after* any fix-up the
//! same access posted. The flushing owner `Acquire`-loads the floor, then
//! drains its fix-up mailbox, then persists the entries below the floor —
//! so every fix-up for an entry it persists was applied first. `finish`
//! flushes the residue and atomically commits the store (manifest last).

use crate::clock::{TicketGate, Turnstile};
use crate::epoch::{EpochPolicy, EpochTracker};
use crate::error::{FinishError, ReplayError, TraceError};
use crate::flight::{FlightRecorder, FlightSink, DEFAULT_WINDOW};
use crate::gate;
use crate::history::{AccessRecord, HistoryRing};
use crate::plan::DomainPlan;
use crate::shim::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::shim::Mutex;
use crate::site::{AccessKind, SiteId};
use crate::stats::{EpochHistogram, Stats, StatsSnapshot};
use crate::store::{
    DirStore, IoReport, RecordOptions, RecordSink, StreamingTraceStore, TraceStore,
};
use crate::sync::{BatonLock, CachePadded, RawLocked, SpinConfig, CACHE_LINE};
use crate::trace::{CrossDomainEdge, DumpTrigger, StTrace, ThreadTrace, TraceBundle};
use parking_lot::RwLock;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

/// Recording scheme (paper §IV).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Serialized thread-ID recording — the traditional baseline (§IV-A).
    St,
    /// Distributed clock recording (§IV-B).
    Dc,
    /// Distributed epoch recording (§IV-D).
    De,
}

impl Scheme {
    /// Stable one-byte code used in trace headers.
    #[must_use]
    pub fn code(self) -> u8 {
        match self {
            Scheme::St => 0,
            Scheme::Dc => 1,
            Scheme::De => 2,
        }
    }

    /// Inverse of [`Scheme::code`].
    #[must_use]
    pub fn from_code(code: u8) -> Option<Scheme> {
        Some(match code {
            0 => Scheme::St,
            1 => Scheme::Dc,
            2 => Scheme::De,
            _ => return None,
        })
    }

    /// Lower-case name (`st`, `dc`, `de`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Scheme::St => "st",
            Scheme::Dc => "dc",
            Scheme::De => "de",
        }
    }

    /// Parse a name as produced by [`Scheme::name`].
    #[must_use]
    pub fn parse(s: &str) -> Option<Scheme> {
        match s.to_ascii_lowercase().as_str() {
            "st" => Some(Scheme::St),
            "dc" => Some(Scheme::Dc),
            "de" => Some(Scheme::De),
            _ => None,
        }
    }

    /// All schemes, baseline first.
    pub const ALL: [Scheme; 3] = [Scheme::St, Scheme::Dc, Scheme::De];
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a session does at each gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Gates are no-ops (execution `w/o ReOMP` in the figures).
    Passthrough,
    /// Gates record the access order.
    Record,
    /// Gates enforce a previously recorded order.
    Replay,
}

/// Tuning knobs for a session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// DE run-boundary policy (see [`EpochPolicy`]).
    pub epoch_policy: EpochPolicy,
    /// Replay only: how many of the accesses a domain admitted last are
    /// kept and attached to a divergence report (see
    /// [`crate::history`]). `0` disables the history; record runs ignore
    /// it.
    pub ring_capacity: usize,
    /// Replay spin-wait/watchdog policy.
    pub spin: SpinConfig,
    /// Record per-access sites and kinds so replay can detect divergence.
    pub validate_sites: bool,
    /// If set, only these sites are gated; everything else bypasses the
    /// recorder (the instrumentation plan produced by the race-detection
    /// step of the toolflow, Fig. 2 step (1)).
    pub gate_plan: Option<HashSet<SiteId>>,
    /// Streaming record runs: flush a per-thread buffer to its record
    /// stream once it holds this many stable records (clamped to ≥ 1).
    /// Ignored unless the session was created with
    /// [`Session::record_streaming`].
    pub flush_records: usize,
    /// Number of independent gate domains sites are partitioned across
    /// (clamped to ≥ 1). `1` — the default — reproduces the classic
    /// single-gate behavior and trace format byte-for-byte; larger values
    /// let accesses to sites in different domains record and replay
    /// concurrently (see the module docs for when that is sound). Replay
    /// sessions always use the domain count stamped in the trace. Without
    /// a [`SessionConfig::plan`], sites partition with the legacy
    /// `site.raw() % D` modulo.
    pub domains: u32,
    /// Explicit site → domain assignment (see [`DomainPlan`] and
    /// `racedet::DomainPlanner`). When set it **overrides**
    /// [`SessionConfig::domains`] with its own domain count, pins each
    /// planned site to its domain, and spreads unplanned sites with a
    /// splitmix64-mixed hash instead of the striping raw modulo. The plan
    /// is stamped into recorded traces; replay sessions always use the
    /// plan stamped in the trace (or the legacy modulo when none is).
    pub plan: Option<DomainPlan>,
    /// Bounded in-situ recording: retain only the last `n` chunks of every
    /// `(thread, domain)` record stream in memory (`REOMP_FLIGHT=<n>`)
    /// instead of streaming everything to the store. Nothing is persisted
    /// unless [`Session::dump`] (or a panic/divergence trigger) fires.
    /// `None` — the default — records unbounded.
    pub flight: Option<u32>,
    /// Run the per-chunk RLE compression stage on streamed record files
    /// (`REOMP_COMPRESS=1`).
    pub compress: bool,
    /// Record DC/DE plain loads and stores through the lock-free
    /// [`TicketGate`] instead of the gate mutex
    /// (`REOMP_TICKET_GATE`, default on). The region is still serialized —
    /// in ticket order — so the recorded trace is identical; only the
    /// synchronization changes (one `fetch_add` in, one out, no lock).
    /// ST and critical-section/edge-anchored accesses keep the locked
    /// path (entered alongside a ghost ticket so the two paths compose).
    /// `false` forces the classic mutex bracket everywhere.
    pub ticket_gate: bool,
    /// Multi-domain DE record runs: publish a domain's completion count to
    /// *other* domains once per `publish_batch` accesses instead of on
    /// every access, batching the `Release` stores the way
    /// [`EpochTracker`] already batches run epochs (clamped to ≥ 1;
    /// `REOMP_PUBLISH_BATCH`). Critical and edge-anchored accesses always
    /// publish their completion immediately, so sync-point traffic — the
    /// accesses cross-domain edges exist to order — is counted exactly; a
    /// foreign snapshot may observe a domain's *plain* load/store count up
    /// to `publish_batch − 1` low, weakening (never breaking) the edge: the
    /// recorded waits stay a sound lower bound and stay acyclic, because
    /// batching only delays a publish, and a snapshot is still taken
    /// strictly before its own access publishes. `1` — the default —
    /// publishes every access (the pre-batching behavior, byte-identical
    /// traces).
    pub publish_batch: u32,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            epoch_policy: EpochPolicy::default(),
            ring_capacity: 64,
            spin: SpinConfig::default(),
            validate_sites: true,
            gate_plan: None,
            flush_records: 4096,
            domains: 1,
            plan: None,
            flight: None,
            compress: false,
            ticket_gate: true,
            publish_batch: 1,
        }
    }
}

impl SessionConfig {
    /// The domain count the session will actually run with: the plan's
    /// count when a plan is set, the raw knob otherwise (clamped to ≥ 1).
    #[must_use]
    pub fn effective_domains(&self) -> u32 {
        self.plan
            .as_ref()
            .map(DomainPlan::domains)
            .unwrap_or(self.domains)
            .max(1)
    }
}

/// One record of a thread's lane, in clock order. `value` is final for
/// every scheme except a DE store's, which a fix-up may still lower.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecEntry {
    pub clock: u64,
    pub value: u64,
    pub site: u64,
    pub kind: u8,
}

/// State guarded by a domain's gate lock `L` during record runs.
///
/// The layout is pinned (`repr(C)` plus ballast) because ST's contended
/// hand-off is sensitive to where the ST builder's `Vec` headers sit
/// relative to the lock byte `RawLocked` keeps behind this struct: with
/// the tracker slot at the [`TRACKER_SLOT`] bytes it had when the hot path
/// was last tuned, the headers the holder writes share one line and the
/// lock byte is on the next. Letting the (now smaller) tracker pull them
/// forward cost `synth_contended` `st.record_ns_per_op` 4–9 % in every
/// placement tried (EXPERIMENTS.md, "DE record path").
#[repr(C)]
pub(crate) struct RecCore {
    /// DE epoch tracker (None for ST/DC).
    pub tracker: Option<EpochTracker>,
    _ballast: [u8; TRACKER_BALLAST],
    /// ST shared log builder (None for DC/DE).
    pub st: Option<StBuilder>,
    /// The paper's `global_clock` (Fig. 5 line 22), one per domain. Kept as
    /// a plain field because it is only touched under the domain's lock.
    pub clock: u64,
}

/// Offset of [`RecCore::st`]; a tracker that outgrows it fails to compile.
const TRACKER_SLOT: usize = 216;
const TRACKER_BALLAST: usize = TRACKER_SLOT - std::mem::size_of::<Option<EpochTracker>>();

impl RecCore {
    fn new(tracker: Option<EpochTracker>, st: Option<StBuilder>) -> RecCore {
        RecCore {
            tracker,
            _ballast: [0; TRACKER_BALLAST],
            st,
            clock: 0,
        }
    }
}

/// Builder for one domain's shared ST record stream.
pub(crate) struct StBuilder {
    pub tids: Vec<u32>,
    pub sites: Vec<u64>,
    pub kinds: Vec<u8>,
    pub validate: bool,
}

impl StBuilder {
    pub(crate) fn push(&mut self, tid: u32, site: SiteId, kind: AccessKind) {
        self.tids.push(tid);
        if self.validate {
            self.sites.push(site.raw());
            self.kinds.push(kind.code());
        }
    }
}

/// One thread's record-side state in one gate domain — the thread's
/// "own record file" of Fig. 3-(b), here one per thread *per domain*.
/// Lives on cache lines of its own (`DomainRecord::lanes`), so the append
/// that follows every gate stays on a line only this thread writes.
#[derive(Default)]
pub(crate) struct RecordLane {
    /// Records not yet flushed or assembled, in clock order: between
    /// `record_in` and `finish`/`dump` only the owning thread appends to
    /// or drains it. A mutex (uncontended on the hot path) because
    /// `finish` and a flight `dump` collect the residue from another
    /// thread.
    pub buf: Mutex<Vec<RecEntry>>,
    /// DE fix-up mailbox: `(clock, epoch)` corrections to store entries of
    /// this lane, posted under the gate exclusion by whichever thread's
    /// access resolved the store — the only cross-thread write a lane
    /// sees, and only for the non-first, non-final stores of a run.
    /// Drained by whoever is about to move entries out of `buf`.
    pub fixups: Mutex<Vec<(u64, u64)>>,
    /// The thread's access count in this domain — the `seq` a
    /// cross-domain edge anchors at. Bumped under the gate exclusion;
    /// only maintained for multi-domain sessions.
    pub seq: AtomicU64,
}

/// One gate domain's record-side state: its own lock + clock + tracker and
/// its own set of per-thread lanes. Aligned to [`CACHE_LINE`] so the words
/// every entrant of one domain writes (lock, ticket, `published`) never
/// share a line with another domain's.
#[repr(align(128))]
pub(crate) struct DomainRecord {
    /// Gate lock + state; locked at `gate_in`, unlocked at `gate_out`.
    pub gate: RawLocked<RecCore>,
    /// Lock-free fast-path admission (`Some` only when this session can
    /// take the fast path at all: [`SessionConfig::ticket_gate`] on and a
    /// clocked scheme). When present, **every**
    /// accessor of [`DomainRecord::gate`]'s core holds a currently-served
    /// ticket: plain DC/DE loads and stores hold *only* the ticket (no
    /// lock), while the slow paths and out-of-band pausers take the raw
    /// lock first and then a ghost ticket — so either kind of entrant
    /// excludes both. The RecCore hand-off then rides the ticket word's
    /// acquire/release pair, not the mutex.
    pub ticket: Option<TicketGate>,
    /// Per-thread lanes, indexed by `tid`.
    pub lanes: Box<[CachePadded<RecordLane>]>,
    /// Number of accesses this domain has completed (mirrors the clock):
    /// written under the domain's gate exclusion (lock and/or served
    /// ticket), read lock-free by *other* domains' gates when they stamp
    /// a cross-domain edge. For DE it may trail the clock by up to
    /// `publish_batch - 1` plain accesses (see
    /// [`SessionConfig::publish_batch`]); pause points re-sync it. Only
    /// maintained for multi-domain sessions.
    pub published: AtomicU64,
}

// `repr(align)` takes a literal; keep the two domain types in step with
// the padding constant.
const _: () = assert!(std::mem::align_of::<DomainRecord>() == CACHE_LINE);
const _: () = assert!(std::mem::align_of::<DomainReplay>() == CACHE_LINE);

impl RecordLane {
    /// Apply the posted fix-ups to `buf` (this lane's locked buffer). The
    /// target of a fix-up is missing only while a flight dump races the
    /// owner between its gate and its append; such a fix-up waits in the
    /// mailbox for the next drain.
    fn apply_fixups(&self, buf: &mut [RecEntry]) {
        self.fixups.lock().retain(|&(clock, epoch)| {
            match buf.binary_search_by_key(&clock, |e| e.clock) {
                Ok(i) => buf[i].value = epoch,
                Err(_) => return true,
            }
            false
        });
    }
}

impl DomainRecord {
    /// Out-of-band exclusive access to the gate core (`finish`, residue
    /// flushes, flight dumps, trace assembly): takes the raw lock and —
    /// when the lock-free fast path is active — also claims a **ghost
    /// ticket**, so both mutex holders and ticket holders are excluded.
    /// The ghost ticket assigns no clock; it only occupies the served slot
    /// while `f` runs, which is why pausing leaves no hole in the recorded
    /// clock sequence.
    pub(crate) fn pause<R>(&self, f: impl FnOnce(&mut RecCore) -> R) -> R {
        self.gate.lock();
        let ghost = self.ticket.as_ref().map(|t| t.enter());
        // SAFETY: the raw lock is held, and when a ticket gate is present
        // the ghost ticket above is the currently-served one — either way
        // this thread is the unique accessor (see the `ticket` field docs).
        let out = f(unsafe { self.gate.get() });
        if let (Some(gate), Some(t)) = (self.ticket.as_ref(), ghost) {
            gate.exit(t);
        }
        // SAFETY: locked above on this thread.
        unsafe { self.gate.unlock() };
        out
    }
}

pub(crate) struct RecordState {
    /// Per-domain gate instances (length = configured domain count).
    pub domains: Box<[DomainRecord]>,
    /// Attached streaming sink, when the session records incrementally.
    pub stream: Option<StreamState>,
    /// Cross-domain happens-before edges collected so far (multi-domain
    /// sessions only; appended outside the gate locks).
    pub edges: Mutex<Vec<CrossDomainEdge>>,
}

/// Streaming-record state: the sink plus the per-domain flush watermarks.
pub(crate) struct StreamState {
    /// The store's sink; read-locked for concurrent appends (each
    /// stream serializes its own writes), write-locked only to take it
    /// at commit time.
    pub sink: RwLock<Option<Box<dyn RecordSink>>>,
    /// Per-domain flush watermarks: records with clocks strictly below a
    /// domain's floor are final in their owners' lanes (once the posted
    /// fix-ups are applied) and safe to persist. `u64::MAX` for ST/DC (records are stable on arrival);
    /// for DE the tracker's pending-store minimum, stored under the gate
    /// exclusion after the access's fix-up (if any) was posted.
    pub floors: Vec<AtomicU64>,
    /// Per-domain chunk-order locks for the shared ST streams: acquired
    /// *before* the domain's gate lock is released when a batch is stolen,
    /// so two stolen batches can never append to that domain's file out of
    /// execution order.
    pub st_order: Vec<Mutex<()>>,
    /// Set after the first append failure; flushing stops and `finish`
    /// surfaces the error instead of committing a partial trace.
    pub failed: AtomicBool,
    /// The first append failure.
    pub error: Mutex<Option<TraceError>>,
}

impl StreamState {
    fn new(sink: Box<dyn RecordSink>, scheme: Scheme, domains: u32) -> StreamState {
        StreamState {
            sink: RwLock::new(Some(sink)),
            // DE starts with nothing stable recorded; ST/DC buffers only
            // ever hold stable records.
            floors: (0..domains)
                .map(|_| AtomicU64::new(if scheme == Scheme::De { 0 } else { u64::MAX }))
                .collect(),
            st_order: (0..domains).map(|_| Mutex::new(())).collect(),
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
        }
    }

    pub(crate) fn record_failure(&self, e: TraceError) {
        let mut slot = self.error.lock();
        if slot.is_none() {
            *slot = Some(e);
        }
        self.failed.store(true, Ordering::SeqCst);
    }
}

/// Sentinel `next_tid` values for ST replay.
pub(crate) const TID_NONE: u32 = u32::MAX;
pub(crate) const TID_EXHAUSTED: u32 = u32::MAX - 1;

/// One gate domain's replay-side state, aligned to [`CACHE_LINE`] like its
/// record-side counterpart.
#[repr(align(128))]
pub(crate) struct DomainReplay {
    /// The `next_clock` turnstile (DC/DE) — also used as the abort flag
    /// for ST replay.
    pub turnstile: Turnstile,
    /// Per-thread read positions into this domain's per-thread traces,
    /// indexed by `tid`, each on a line only its thread writes.
    pub cursors: Box<[CachePadded<AtomicUsize>]>,
    /// ST: the baton lock `L` of Fig. 4.
    pub baton: BatonLock,
    /// ST: shared read position into this domain's record stream.
    pub st_pos: AtomicUsize,
    /// ST: the published `next_tid` (Fig. 4 line 13).
    pub next_tid: AtomicU32,
    /// ST: site hash published with `next_tid` for replay validation.
    pub next_site: AtomicU64,
    /// ST: kind code published with `next_tid`.
    pub next_kind: AtomicU32,
    /// Last-N accesses this domain admitted, newest first — attached to
    /// divergence reports (capacity 0 disables it).
    pub history: Mutex<HistoryRing>,
}

pub(crate) struct ReplayState {
    pub bundle: TraceBundle,
    /// Per-domain replay gates (length = the bundle's domain count).
    pub domains: Box<[DomainReplay]>,
    /// Edge waits keyed by anchor — `(domain, thread, seq)` for DC/DE,
    /// `(domain, 0, stream index)` for ST (see
    /// [`TraceBundle::edge_index`]).
    pub edges: HashMap<(u32, u32, u64), Vec<(u32, u64)>>,
}

/// Flight-recorder control state of a bounded record run: the shared
/// bounded recorder, the store a dump materializes into, and the dumps
/// taken so far.
struct FlightCtl {
    recorder: Arc<FlightRecorder>,
    target: Box<dyn StreamingTraceStore>,
    dumps: Mutex<Vec<(DumpTrigger, IoReport)>>,
}

/// One thread's session-side state: its counter slot and its pending
/// barrier snapshot. Kept in a [`CachePadded`] so everything a gate of
/// thread `tid` writes outside the gate domain is on lines only `tid`
/// writes.
#[derive(Default)]
pub(crate) struct ThreadSlot {
    /// The thread's counters (see [`crate::stats`] for the slot model).
    pub stats: Stats,
    /// Whether `sync_snapshot` holds an unconsumed snapshot. Set and
    /// cleared only by the owning thread (from [`ThreadCtx::sync_point`]
    /// and from its next gated access), so the record gates peek at it
    /// instead of locking the snapshot on every access.
    sync_pending: AtomicBool,
    /// The pending barrier snapshot: set by [`ThreadCtx::sync_point`],
    /// consumed by the thread's next gated access, which becomes the edge
    /// anchor.
    sync_snapshot: Mutex<Option<Vec<u64>>>,
}

/// A record or replay run.
///
/// See the [crate docs](crate) for an end-to-end example.
pub struct Session {
    pub(crate) cfg: SessionConfig,
    mode: Mode,
    scheme: Scheme,
    nthreads: u32,
    /// `slots[tid]` for thread `tid`'s gates, plus one last slot for the
    /// session's own out-of-band work (`finish`, commit, dumps).
    slots: Box<[CachePadded<ThreadSlot>]>,
    pub(crate) rec: Option<RecordState>,
    pub(crate) rep: Option<ReplayState>,
    /// Bounded-recording control (set only by [`Session::record_flight`]).
    flight: Option<FlightCtl>,
    /// Invoked (once) on the first replay failure — the divergence trigger
    /// a linked flight recorder's dump hangs off.
    failure_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    active: AtomicU32,
    finished: AtomicBool,
    failure: Mutex<Option<String>>,
}

impl Session {
    /// A session whose gates do nothing (baseline `w/o ReOMP`).
    #[must_use]
    pub fn passthrough(nthreads: u32) -> Arc<Session> {
        Arc::new(Session::build(
            Mode::Passthrough,
            Scheme::De,
            nthreads,
            SessionConfig::default(),
            None,
            None,
        ))
    }

    /// Start a record run with default configuration.
    #[must_use]
    pub fn record(scheme: Scheme, nthreads: u32) -> Arc<Session> {
        Session::record_with(scheme, nthreads, SessionConfig::default())
    }

    /// Start a record run with explicit configuration.
    #[must_use]
    pub fn record_with(scheme: Scheme, nthreads: u32, cfg: SessionConfig) -> Arc<Session> {
        Arc::new(Session::build(
            Mode::Record,
            scheme,
            nthreads,
            cfg,
            None,
            None,
        ))
    }

    /// Start a record run that streams its trace into `store` as it runs
    /// (default configuration; see [`SessionConfig::flush_records`]).
    ///
    /// The trace never has to fit in memory: full per-thread buffers are
    /// appended to the store as self-delimiting chunks, and
    /// [`Session::finish`] commits the store atomically. The finished
    /// report carries the [`IoReport`] instead of an in-memory bundle.
    pub fn record_streaming(
        scheme: Scheme,
        nthreads: u32,
        store: &dyn StreamingTraceStore,
    ) -> Result<Arc<Session>, TraceError> {
        Session::record_streaming_with(scheme, nthreads, SessionConfig::default(), store)
    }

    /// [`Session::record_streaming`] with explicit configuration.
    pub fn record_streaming_with(
        scheme: Scheme,
        nthreads: u32,
        cfg: SessionConfig,
        store: &dyn StreamingTraceStore,
    ) -> Result<Arc<Session>, TraceError> {
        let domains = cfg.effective_domains();
        let sink = store.begin_record(
            RecordOptions::new(scheme, nthreads, domains, cfg.validate_sites)
                .with_compression(cfg.compress),
        )?;
        Ok(Arc::new(Session::build(
            Mode::Record,
            scheme,
            nthreads,
            cfg,
            None,
            Some(sink),
        )))
    }

    /// Start a bounded (flight-recorder) record run: only the last
    /// [`SessionConfig::flight`] chunks of every `(thread, domain)` record
    /// stream are retained in memory, and nothing reaches `store` unless
    /// [`Session::dump`] — or a panic/divergence trigger wired to it —
    /// materializes the retained window as a replayable bundle.
    ///
    /// [`Session::finish`] commits nothing for these runs; its
    /// [`IoReport`] carries the retention counters instead
    /// (`retained_peak` is the witness that no stream ever held more than
    /// the window).
    pub fn record_flight<S>(
        scheme: Scheme,
        nthreads: u32,
        cfg: SessionConfig,
        store: S,
    ) -> Result<Arc<Session>, TraceError>
    where
        S: StreamingTraceStore + 'static,
    {
        let domains = cfg.effective_domains();
        let window = cfg.flight.unwrap_or(DEFAULT_WINDOW);
        let opts = RecordOptions::new(scheme, nthreads, domains, cfg.validate_sites)
            .with_compression(cfg.compress);
        let recorder = Arc::new(FlightRecorder::new(opts, window));
        let sink: Box<dyn RecordSink> = Box::new(FlightSink::new(Arc::clone(&recorder)));
        let mut session = Session::build(Mode::Record, scheme, nthreads, cfg, None, Some(sink));
        session.flight = Some(FlightCtl {
            recorder,
            target: Box::new(store),
            dumps: Mutex::new(Vec::new()),
        });
        Ok(Arc::new(session))
    }

    /// The flight recorder behind a bounded record run, if any.
    #[must_use]
    pub fn flight_recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.flight.as_ref().map(|ctl| &ctl.recorder)
    }

    /// Dumps taken so far on a bounded record run: `(trigger, io)` per
    /// materialization, oldest first.
    #[must_use]
    pub fn dumps(&self) -> Vec<(DumpTrigger, IoReport)> {
        self.flight
            .as_ref()
            .map(|ctl| ctl.dumps.lock().clone())
            .unwrap_or_default()
    }

    /// Materialize the flight recorder's retained window into its target
    /// store as a replayable, checkpoint-stamped bundle.
    ///
    /// Residual records (per-thread lanes with their posted fix-ups
    /// applied, and the shared ST builders) are flushed into the window
    /// first, so the dump ends at the program's current position. A DE
    /// store still pending keeps its own clock, exactly as at the end of
    /// a run. The dump is a
    /// consistent snapshot when gates are quiescent; concurrent gated
    /// accesses may straddle it. Fails on sessions without a flight
    /// recorder.
    pub fn dump(&self, trigger: DumpTrigger) -> Result<IoReport, TraceError> {
        let ctl = self
            .flight
            .as_ref()
            .ok_or_else(|| TraceError::Corrupt("session has no flight recorder".into()))?;
        let rec = self
            .rec
            .as_ref()
            .ok_or_else(|| TraceError::Corrupt("dump on a non-record session".into()))?;
        let stream = rec.stream.as_ref().expect("flight runs stream");
        if stream.failed.load(Ordering::SeqCst) {
            return Err(TraceError::Corrupt(
                "an earlier streaming flush failed; the window is incomplete".into(),
            ));
        }
        let floors = self.flush_residues()?;
        // Snapshot (not drain) the collected edges: the run continues and
        // `finish` still owns them.
        let mut edges = rec.edges.lock().clone();
        edges.sort_by_key(|e| (e.domain, e.thread, e.seq));
        let io = ctl.recorder.dump_into(
            &*ctl.target,
            trigger,
            self.cfg.plan.as_ref(),
            &edges,
            floors,
        )?;
        ctl.dumps.lock().push((trigger, io));
        Ok(io)
    }

    /// Install `hook` to run (once) at the first replay failure of this
    /// session. Used to chain a divergence to a flight recorder's dump —
    /// see [`Session::dump_flight_on_failure`].
    pub fn on_failure(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self.failure_hook.lock() = Some(Box::new(hook));
    }

    /// Wire this (replay) session's first failure to a divergence-triggered
    /// dump of `recorder`'s flight window. Holds only a weak reference, so
    /// the recorder session's lifetime is unaffected.
    pub fn dump_flight_on_failure(&self, recorder: &Arc<Session>) {
        let weak = Arc::downgrade(recorder);
        self.on_failure(move || {
            if let Some(session) = weak.upgrade() {
                let _ = session.dump(DumpTrigger::Divergence);
            }
        });
    }

    /// Start a replay run of `bundle` with default configuration.
    pub fn replay(bundle: TraceBundle) -> Result<Arc<Session>, TraceError> {
        Session::replay_with(bundle, SessionConfig::default())
    }

    /// Start a replay run with explicit configuration. The session's
    /// domain count always comes from the bundle (a trace can only be
    /// replayed against the partition it was recorded with), so
    /// [`SessionConfig::domains`] is ignored here.
    pub fn replay_with(
        bundle: TraceBundle,
        mut cfg: SessionConfig,
    ) -> Result<Arc<Session>, TraceError> {
        bundle.validate()?;
        let scheme = bundle.scheme;
        let nthreads = bundle.nthreads;
        cfg.domains = bundle.domains;
        Ok(Arc::new(Session::build(
            Mode::Replay,
            scheme,
            nthreads,
            cfg,
            Some(bundle),
            None,
        )))
    }

    /// Build a session from the `REOMP_MODE`/`REOMP_SCHEME`/`REOMP_DIR`
    /// environment, loading the trace from the directory store for replay.
    /// Unset or `off` mode yields a passthrough session.
    pub fn from_env(nthreads: u32) -> Result<Arc<Session>, TraceError> {
        let mode = std::env::var("REOMP_MODE").unwrap_or_else(|_| "off".into());
        let scheme = std::env::var("REOMP_SCHEME")
            .ok()
            .and_then(|s| Scheme::parse(&s))
            .unwrap_or(Scheme::De);
        let mut cfg = SessionConfig::default();
        if let Ok(p) = std::env::var("REOMP_EPOCH_POLICY") {
            if let Some(policy) = EpochPolicy::from_str_opt(&p) {
                cfg.epoch_policy = policy;
            }
        }
        if let Some(n) = Self::positive_env_knob("REOMP_FLUSH_RECORDS") {
            cfg.flush_records = usize::try_from(n).unwrap_or(usize::MAX);
        }
        if let Some(d) = Self::positive_env_knob("REOMP_DOMAINS") {
            match u32::try_from(d) {
                Ok(d) => cfg.domains = d,
                // Don't "clamp" to u32::MAX here — that would allocate four
                // billion gate instances. An absurd count keeps the default.
                Err(_) => eprintln!(
                    "reomp: REOMP_DOMAINS={d} out of range; keeping {}",
                    cfg.domains
                ),
            }
        }
        if let Some(b) = Self::positive_env_knob("REOMP_PUBLISH_BATCH") {
            match u32::try_from(b) {
                Ok(b) => cfg.publish_batch = b,
                Err(_) => eprintln!(
                    "reomp: REOMP_PUBLISH_BATCH={b} out of range; keeping {}",
                    cfg.publish_batch
                ),
            }
        }
        if let Ok(s) = std::env::var("REOMP_TICKET_GATE") {
            cfg.ticket_gate = !matches!(s.to_ascii_lowercase().as_str(), "0" | "false" | "off");
        }
        // Replay watchdog override: seconds, `0` disables the watchdog
        // entirely (oversubscribed CI boxes legitimately exceed the 30 s
        // default on long DE replays).
        if let Some(secs) = std::env::var("REOMP_SPIN_TIMEOUT")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
        {
            cfg.spin.timeout = (secs > 0).then(|| Duration::from_secs(secs));
        }
        let stream = std::env::var("REOMP_STREAM")
            .map(|s| matches!(s.to_ascii_lowercase().as_str(), "1" | "true" | "on"))
            .unwrap_or(false);
        cfg.compress = std::env::var("REOMP_COMPRESS")
            .map(|s| matches!(s.to_ascii_lowercase().as_str(), "1" | "true" | "on"))
            .unwrap_or(false);
        cfg.flight = std::env::var("REOMP_FLIGHT")
            .ok()
            .and_then(|s| s.parse::<u32>().ok())
            .filter(|&n| n > 0);
        match mode.to_ascii_lowercase().as_str() {
            // Bounded in-situ recording takes precedence over plain
            // streaming: the flight window IS a streaming sink, just a
            // bounded one that only persists on a trigger.
            "record" if cfg.flight.is_some() => {
                Session::record_flight(scheme, nthreads, cfg, Session::env_store())
            }
            "record" if stream => {
                Session::record_streaming_with(scheme, nthreads, cfg, &Session::env_store())
            }
            "record" => Ok(Session::record_with(scheme, nthreads, cfg)),
            "replay" => {
                let (bundle, _) = Session::env_store().load()?;
                Session::replay_with(bundle, cfg)
            }
            _ => Ok(Arc::new(Session::build(
                Mode::Passthrough,
                scheme,
                nthreads,
                cfg,
                None,
                None,
            ))),
        }
    }

    /// Parse a strictly-positive integer knob from the environment.
    /// Malformed values fall back to the built-in default (`None`, as
    /// before); an explicit `0` — always a configuration mistake for
    /// these knobs (a modulo-by-zero domain count, a never-flushing
    /// stream, a never-publishing batch) — is clamped to 1 with a warning
    /// instead of being silently absorbed.
    fn positive_env_knob(name: &str) -> Option<u64> {
        let raw = std::env::var(name).ok()?;
        match raw.trim().parse::<u64>() {
            Ok(0) => {
                eprintln!("reomp: {name}=0 is degenerate; clamping to 1");
                Some(1)
            }
            Ok(n) => Some(n),
            Err(_) => None,
        }
    }

    /// The directory store selected by `REOMP_DIR` (default:
    /// `<tmp>/reomp-trace`, which lives on tmpfs on Linux like the paper's
    /// record-file placement).
    #[must_use]
    pub fn env_store() -> DirStore {
        let dir = std::env::var_os("REOMP_DIR")
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("reomp-trace"));
        DirStore::new(dir)
    }

    fn build(
        mode: Mode,
        scheme: Scheme,
        nthreads: u32,
        mut cfg: SessionConfig,
        bundle: Option<TraceBundle>,
        sink: Option<Box<dyn RecordSink>>,
    ) -> Session {
        assert!(nthreads > 0, "a session needs at least one thread");
        cfg.domains = cfg.effective_domains();
        // The ≥ 1 clamps live here, once, so every consumer — the ST
        // streaming steal, `maybe_flush_thread`, the publish cadence —
        // sees the same value and the record/flush paths cannot disagree.
        cfg.flush_records = cfg.flush_records.max(1);
        cfg.publish_batch = cfg.publish_batch.max(1);
        if let Some(bundle) = &bundle {
            // A trace replays against exactly the partition it was
            // recorded with: the stamped plan when one exists, the legacy
            // modulo otherwise.
            cfg.domains = bundle.domains;
            cfg.plan = bundle.plan.clone();
        }
        let domains = cfg.domains;
        // The fast path exists only where it is sound AND profitable:
        // ST serializes through the shared log builder (always locked) and
        // would take the ghost-ticket slow path on every access, paying
        // two RMWs for nothing.
        let fast_path = cfg.ticket_gate && scheme != Scheme::St;
        let rec = (mode == Mode::Record).then(|| RecordState {
            domains: (0..domains)
                .map(|_| DomainRecord {
                    ticket: fast_path.then(TicketGate::new),
                    gate: RawLocked::new(RecCore::new(
                        (scheme == Scheme::De).then(|| EpochTracker::new(cfg.epoch_policy, 0)),
                        (scheme == Scheme::St).then(|| StBuilder {
                            tids: Vec::new(),
                            sites: Vec::new(),
                            kinds: Vec::new(),
                            validate: cfg.validate_sites,
                        }),
                    )),
                    lanes: (0..nthreads).map(|_| CachePadded::default()).collect(),
                    published: AtomicU64::new(0),
                })
                .collect(),
            stream: sink.map(|s| StreamState::new(s, scheme, domains)),
            edges: Mutex::new(Vec::new()),
        });
        let ring_capacity = cfg.ring_capacity;
        let rep = bundle.map(|bundle| ReplayState {
            domains: (0..domains)
                .map(|dom| DomainReplay {
                    cursors: (0..nthreads).map(|_| CachePadded::default()).collect(),
                    // Windowed (flight-recorder) bundles start each
                    // domain's completed-access count at the checkpointed
                    // base; full traces start at 0 as always.
                    turnstile: Turnstile::starting_at(bundle.clock_base(dom)),
                    baton: BatonLock::new(),
                    st_pos: AtomicUsize::new(0),
                    next_tid: AtomicU32::new(TID_NONE),
                    next_site: AtomicU64::new(0),
                    next_kind: AtomicU32::new(0),
                    history: Mutex::new(HistoryRing::new(ring_capacity)),
                })
                .collect(),
            edges: bundle.edge_index(),
            bundle,
        });
        Session {
            slots: (0..=nthreads)
                .map(|_| {
                    CachePadded(ThreadSlot {
                        stats: Stats::with_domains(domains),
                        ..ThreadSlot::default()
                    })
                })
                .collect(),
            cfg,
            mode,
            scheme,
            nthreads,
            rec,
            rep,
            flight: None,
            failure_hook: Mutex::new(None),
            active: AtomicU32::new(0),
            finished: AtomicBool::new(false),
            failure: Mutex::new(None),
        }
    }

    /// Session mode.
    #[must_use]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Recording scheme.
    #[must_use]
    pub fn scheme(&self) -> Scheme {
        self.scheme
    }

    /// Number of threads the session was created for.
    #[must_use]
    pub fn nthreads(&self) -> u32 {
        self.nthreads
    }

    /// Number of gate domains (≥ 1).
    #[must_use]
    pub fn domains(&self) -> u32 {
        self.cfg.domains
    }

    /// The gate domain site `site` belongs to: a fixed partition that
    /// record and replay compute identically — the session's
    /// [`DomainPlan`] when one is set, the legacy `raw % D` modulo
    /// otherwise.
    #[inline]
    #[must_use]
    pub fn domain_of(&self, site: SiteId) -> u32 {
        let d = self.cfg.domains;
        if d <= 1 {
            0
        } else if let Some(plan) = &self.cfg.plan {
            plan.domain_of(site)
        } else {
            DomainPlan::legacy_modulo(d, site)
        }
    }

    /// The session's domain plan, if it runs with one.
    #[must_use]
    pub fn plan(&self) -> Option<&DomainPlan> {
        self.cfg.plan.as_ref()
    }

    /// Live statistics snapshot: the sum over every thread's slot and the
    /// session's own. Callable while workers are gating; each counter is
    /// then some value it held during the call, and successive calls
    /// never go backwards.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        let mut total = StatsSnapshot::default();
        for slot in self.slots.iter() {
            total.absorb(&slot.stats.snapshot());
        }
        total
    }

    /// Thread `tid`'s counter slot — what its gates bump.
    #[inline]
    pub(crate) fn thread_stats(&self, tid: u32) -> &Stats {
        &self.slots[tid as usize].stats
    }

    /// The session's own counter slot, for work no thread context owns
    /// (`finish`, the streaming commit, flight dumps).
    fn session_stats(&self) -> &Stats {
        &self.slots[self.nthreads as usize].stats
    }

    /// Register the calling thread as `tid` (0-based, `< nthreads`).
    ///
    /// The returned context is the handle through which the thread passes
    /// gates. A `tid` may be re-registered in a later parallel region after
    /// the previous context was dropped; cursors and clocks persist across
    /// regions.
    #[must_use]
    pub fn register_thread(self: &Arc<Self>, tid: u32) -> ThreadCtx {
        assert!(
            tid < self.nthreads,
            "tid {tid} >= nthreads {}",
            self.nthreads
        );
        assert!(
            !self.finished.load(Ordering::SeqCst),
            "session already finished"
        );
        self.active.fetch_add(1, Ordering::SeqCst);
        ThreadCtx {
            session: Arc::clone(self),
            tid,
        }
    }

    /// Snapshot every domain's published completion count (record mode,
    /// multi-domain). Index `d` is domain `d`'s count.
    pub(crate) fn snapshot_domain_counts(&self) -> Option<Vec<u64>> {
        let rec = self.rec.as_ref()?;
        if self.cfg.domains <= 1 {
            return None;
        }
        Some(
            rec.domains
                .iter()
                .map(|d| d.published.load(Ordering::Acquire))
                .collect(),
        )
    }

    /// Note a synchronization point (barrier) for `tid`: the snapshot of
    /// all domains' counts becomes the wait set of an edge anchored at the
    /// thread's *next* gated access.
    pub(crate) fn note_sync_point(&self, tid: u32) {
        if self.mode != Mode::Record {
            return;
        }
        let Some(snap) = self.snapshot_domain_counts() else {
            return;
        };
        let slot = &self.slots[tid as usize];
        // A newer snapshot dominates an unconsumed older one (counts are
        // monotone), so plain replacement is the max-merge.
        *slot.sync_snapshot.lock() = Some(snap);
        slot.sync_pending.store(true, Ordering::Release);
    }

    /// Whether `tid` has an unconsumed barrier snapshot. A routing peek
    /// for the record fast path — one load of a flag on the thread's own
    /// line, no lock: only `tid` itself sets or takes its snapshot, so the
    /// answer cannot change between `record_in` and `record_out`.
    #[inline]
    pub(crate) fn has_pending_sync(&self, tid: u32) -> bool {
        self.slots[tid as usize]
            .sync_pending
            .load(Ordering::Acquire)
    }

    /// Take `tid`'s pending barrier snapshot, if any. The snapshot's
    /// mutex is only touched when the flag says there is one.
    #[inline]
    pub(crate) fn take_pending_sync(&self, tid: u32) -> Option<Vec<u64>> {
        if !self.has_pending_sync(tid) {
            return None;
        }
        let slot = &self.slots[tid as usize];
        slot.sync_pending.store(false, Ordering::Release);
        slot.sync_snapshot.lock().take()
    }

    /// Append one cross-domain edge anchored at `(dom, tid, seq)` whose
    /// wait set is `counts` (a full per-domain snapshot; the anchor's own
    /// domain and zero counts are dropped here).
    pub(crate) fn push_edge(&self, dom: u32, tid: u32, seq: u64, counts: &[u64]) {
        let waits: Vec<(u32, u64)> = counts
            .iter()
            .enumerate()
            .filter(|&(j, &c)| j as u32 != dom && c > 0)
            .map(|(j, &c)| (j as u32, c))
            .collect();
        if waits.is_empty() {
            return;
        }
        if let Some(rec) = &self.rec {
            rec.edges.lock().push(CrossDomainEdge {
                domain: dom,
                thread: tid,
                seq,
                waits,
            });
            self.thread_stats(tid).bump_sync_edge();
        }
    }

    /// Enforce the cross-domain edge anchored at `(dom, tid, seq)`, if one
    /// was recorded: wait until every listed foreign domain's turnstile
    /// reaches its stamped count.
    pub(crate) fn wait_edges(
        &self,
        dom: u32,
        tid: u32,
        seq: u64,
        site: SiteId,
    ) -> Result<(), ReplayError> {
        let Some(rep) = &self.rep else { return Ok(()) };
        if rep.edges.is_empty() {
            return Ok(());
        }
        let key = (dom, if rep.bundle.is_st() { 0 } else { tid }, seq);
        let Some(waits) = rep.edges.get(&key) else {
            return Ok(());
        };
        let stats = self.thread_stats(tid);
        for &(j, count) in waits {
            stats.bump_edge_wait();
            rep.domains[j as usize].turnstile.wait_at_least(
                count,
                tid,
                site,
                &self.cfg.spin,
                stats,
            )?;
        }
        Ok(())
    }

    /// Record the first failure and release all replay waiters in every
    /// domain.
    ///
    /// Watchdog timeouts are the exception to the broadcast: a timed-out
    /// wait proves only that *this* thread's predecessor has not arrived
    /// yet — the recorded order is not contradicted, and the caller may
    /// legitimately retry the access once the predecessor shows up. Other
    /// stuck threads carry their own watchdogs. Aborting every turnstile
    /// here would poison those retries with [`ReplayError::Aborted`].
    pub(crate) fn fail(&self, err: &ReplayError) {
        {
            let mut slot = self.failure.lock();
            if slot.is_none() {
                *slot = Some(err.to_string());
            }
        }
        if let Some(rep) = &self.rep {
            if !matches!(err, ReplayError::Timeout { .. }) {
                for d in &rep.domains {
                    d.turnstile.abort();
                }
            }
        }
        // Fire the failure hook exactly once, outside our locks (it may
        // dump another session's flight recorder).
        let hook = self.failure_hook.lock().take();
        if let Some(hook) = hook {
            hook();
        }
    }

    /// The first replay failure observed, if any.
    #[must_use]
    pub fn failure(&self) -> Option<String> {
        self.failure.lock().clone()
    }

    /// Append one admitted access to a domain's replay history ring.
    #[inline]
    pub(crate) fn push_replay_history(&self, dom: u32, rec: AccessRecord) {
        if self.cfg.ring_capacity == 0 {
            return;
        }
        if let Some(rep) = &self.rep {
            rep.domains[dom as usize].history.lock().push(rec);
        }
    }

    /// Snapshot a domain's replay history, newest first (for diagnostics).
    pub(crate) fn replay_history(&self, dom: u32) -> Vec<AccessRecord> {
        match &self.rep {
            Some(rep) if self.cfg.ring_capacity > 0 => rep.domains[dom as usize]
                .history
                .lock()
                .iter_recent()
                .copied()
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Finish the run: flush pending DE stores, assemble the trace bundle
    /// (record mode), and produce the final report. All [`ThreadCtx`]s must
    /// have been dropped.
    pub fn finish(&self) -> Result<SessionReport, FinishError> {
        let active = self.active.load(Ordering::SeqCst);
        if active != 0 {
            return Err(FinishError::ThreadsActive(active));
        }
        if self.finished.swap(true, Ordering::SeqCst) {
            return Err(FinishError::AlreadyFinished);
        }

        let mut bundle = None;
        let mut io = None;
        let mut fully_consumed = None;
        match self.mode {
            Mode::Passthrough => {}
            Mode::Record => {
                let rec = self.rec.as_ref().expect("record state");
                if rec.stream.is_some() {
                    io = Some(self.commit_streaming().map_err(FinishError::Stream)?);
                } else {
                    bundle = Some(self.assemble_bundle());
                }
            }
            Mode::Replay => {
                let rep = self.rep.as_ref().expect("replay state");
                let consumed = if rep.bundle.is_st() {
                    rep.domains
                        .iter()
                        .zip(&rep.bundle.st)
                        .all(|(d, st)| d.st_pos.load(Ordering::SeqCst) == st.len())
                } else {
                    rep.domains.iter().enumerate().all(|(dom, d)| {
                        d.cursors.iter().enumerate().all(|(tid, c)| {
                            c.load(Ordering::SeqCst)
                                >= rep.bundle.thread(dom as u32, tid as u32).len()
                        })
                    })
                };
                fully_consumed = Some(consumed);
            }
        }

        let threads = &self.slots[..self.nthreads as usize];
        let thread_stats: Vec<StatsSnapshot> =
            threads.iter().map(|slot| slot.stats.snapshot()).collect();
        let mut stats = self.session_stats().snapshot();
        let mut domain_gates = self.session_stats().domain_gates();
        for (slot, snapshot) in threads.iter().zip(&thread_stats) {
            stats.absorb(snapshot);
            for (total, n) in domain_gates.iter_mut().zip(slot.stats.domain_gates()) {
                *total += n;
            }
        }
        Ok(SessionReport {
            scheme: self.scheme,
            mode: self.mode,
            stats,
            thread_stats,
            domain_gates,
            bundle,
            io,
            fully_consumed,
            failure: self.failure.lock().clone(),
        })
    }

    /// Flush everything still buffered in the session into the attached
    /// sink: the shared ST builders and the per-thread lanes, fix-ups
    /// applied. Returns DE's per-domain clock floors (empty for ST/DC) —
    /// the epoch-floor provenance a flight-recorder dump checkpoints.
    fn flush_residues(&self) -> Result<Vec<u64>, TraceError> {
        let rec = self.rec.as_ref().expect("record state");
        let mut floors = Vec::new();
        for (dom, drec) in rec.domains.iter().enumerate() {
            let dom = dom as u32;
            if self.scheme == Scheme::De {
                // End the tracker's runs: what is flushed below is final,
                // so no later access (after a mid-run dump) may post a
                // fix-up for it. Pending stores keep their own clocks.
                let clock = drec.pause(|core| {
                    core.tracker.as_mut().expect("de tracker").flush();
                    core.clock
                });
                floors.push(clock);
                if self.cfg.domains > 1 {
                    // Publish batching may have left `published` lagging
                    // the clock; a pause is a quiescent point, so sync it
                    // for any snapshot taken after this flush.
                    drec.published.store(clock, Ordering::Release);
                }
            }
            // ST: steal whatever this domain's shared builder still holds.
            if self.scheme == Scheme::St {
                let stolen = drec.pause(|core| {
                    core.st.as_mut().map(|b| {
                        (
                            std::mem::take(&mut b.tids),
                            std::mem::take(&mut b.sites),
                            std::mem::take(&mut b.kinds),
                        )
                    })
                });
                if let Some((tids, sites, kinds)) = stolen {
                    if !tids.is_empty() {
                        self.append_st_chunk(dom, &tids, &sites, &kinds, self.session_stats())?;
                    }
                }
            }
            // Per-thread residues.
            for (tid, lane) in drec.lanes.iter().enumerate() {
                // Held across the append, like the owner's own flush, so a
                // dump racing it cannot reorder the stream's chunks.
                let mut buf = lane.buf.lock();
                lane.apply_fixups(&mut buf);
                if !buf.is_empty() {
                    self.append_thread_chunk(dom, tid as u32, &buf, self.session_stats())?;
                    buf.clear();
                }
            }
        }
        Ok(floors)
    }

    /// Flush all residual records of a streaming record run and commit the
    /// sink (manifest written last by the store).
    fn commit_streaming(&self) -> Result<IoReport, TraceError> {
        let rec = self.rec.as_ref().expect("record state");
        let stream = rec.stream.as_ref().expect("streaming state");
        // Surface a mid-run flush failure instead of committing a trace
        // with holes in it.
        if let Some(e) = stream.error.lock().take() {
            return Err(e);
        }
        self.flush_residues()?;
        // Stamp the domain plan and the collected cross-domain edges
        // before the manifest is published.
        {
            let guard = stream.sink.read();
            let sink = guard
                .as_ref()
                .ok_or_else(|| TraceError::Corrupt("streaming sink already committed".into()))?;
            if let Some(plan) = &self.cfg.plan {
                sink.put_plan(plan)?;
            }
            let edges = self.drain_edges();
            if !edges.is_empty() {
                sink.append_edges(&edges)?;
            }
        }
        let sink = stream
            .sink
            .write()
            .take()
            .ok_or_else(|| TraceError::Corrupt("streaming sink already committed".into()))?;
        sink.commit(self.stats().records_written)
    }

    /// Encode `entries` as one chunk and append it to thread `tid`'s
    /// stream in domain `dom`, counting the flush in `stats` (the slot of
    /// whoever does the flushing).
    fn append_thread_chunk(
        &self,
        dom: u32,
        tid: u32,
        entries: &[RecEntry],
        stats: &Stats,
    ) -> Result<(), TraceError> {
        let rec = self.rec.as_ref().expect("record state");
        let stream = rec.stream.as_ref().expect("streaming state");
        let validate = self.cfg.validate_sites;
        let values: Vec<u64> = entries.iter().map(|e| e.value).collect();
        let sites: Option<Vec<u64>> = validate.then(|| entries.iter().map(|e| e.site).collect());
        let kinds: Option<Vec<u8>> = validate.then(|| entries.iter().map(|e| e.kind).collect());
        let guard = stream.sink.read();
        let sink = guard
            .as_ref()
            .ok_or_else(|| TraceError::Corrupt("streaming sink already committed".into()))?;
        let bytes =
            sink.append_thread_chunk(dom, tid, &values, sites.as_deref(), kinds.as_deref())?;
        stats.add_io_written(bytes);
        stats.bump_chunk_flush();
        Ok(())
    }

    /// Append one chunk of a domain's shared ST stream.
    fn append_st_chunk(
        &self,
        dom: u32,
        tids: &[u32],
        sites: &[u64],
        kinds: &[u8],
        stats: &Stats,
    ) -> Result<(), TraceError> {
        let rec = self.rec.as_ref().expect("record state");
        let stream = rec.stream.as_ref().expect("streaming state");
        let validate = self.cfg.validate_sites;
        let guard = stream.sink.read();
        let sink = guard
            .as_ref()
            .ok_or_else(|| TraceError::Corrupt("streaming sink already committed".into()))?;
        let bytes = sink.append_st_chunk(
            dom,
            tids,
            validate.then_some(sites),
            validate.then_some(kinds),
        )?;
        stats.add_io_written(bytes);
        stats.bump_chunk_flush();
        Ok(())
    }

    /// Hot-path flush check, run by thread `tid` after one of its gates:
    /// if its lane in domain `dom` reached the flush threshold, persist
    /// the lane's stable prefix (clocks below the domain's floor) as one
    /// chunk. Failures are latched and surfaced at `finish`.
    pub(crate) fn maybe_flush_thread(&self, dom: u32, tid: u32) {
        let Some(rec) = self.rec.as_ref() else { return };
        let Some(stream) = rec.stream.as_ref() else {
            return;
        };
        // ORDERING: `failed` is a sticky go/no-go hint; a stale `false`
        // only means one more flush attempt whose error is latched again
        // under `error`'s mutex, and a stale `true` skips work that would
        // be discarded anyway. Nothing is published through this flag.
        if stream.failed.load(Ordering::Relaxed) {
            return;
        }
        // Already clamped ≥ 1 in `Session::build`.
        let threshold = self.cfg.flush_records;
        // The floor is read BEFORE the mailbox is drained: whoever raised
        // it past an entry posted that entry's fix-up first (both under
        // the gate exclusion), so this Acquire makes the drain below see
        // every fix-up for the entries about to be persisted.
        let floor = stream.floors[dom as usize].load(Ordering::Acquire);
        let lane = &rec.domains[dom as usize].lanes[tid as usize];
        let mut buf = lane.buf.lock();
        if buf.len() < threshold {
            return;
        }
        // The threshold counts *stable* entries: a DE store still pending
        // (at or above the floor) is not yet part of any chunk, so chunk
        // boundaries do not depend on when provisional entries arrive.
        let cut = buf.partition_point(|e| e.clock < floor);
        if cut < threshold {
            return;
        }
        lane.apply_fixups(&mut buf);
        // Append while still holding the lane lock: a flight dump may
        // collect this lane's residue concurrently, and two drained
        // batches must reach the stream in the order they were drained.
        let result = self.append_thread_chunk(dom, tid, &buf[..cut], self.thread_stats(tid));
        buf.drain(..cut);
        drop(buf);
        if let Err(e) = result {
            stream.record_failure(e);
        }
    }

    /// Hot-path ST flush: thread `by` appends the prefix it stole from a
    /// domain's shared stream.
    pub(crate) fn flush_st_records(
        &self,
        dom: u32,
        tids: &[u32],
        sites: &[u64],
        kinds: &[u8],
        by: u32,
    ) {
        let Some(rec) = self.rec.as_ref() else { return };
        let Some(stream) = rec.stream.as_ref() else {
            return;
        };
        if let Err(e) = self.append_st_chunk(dom, tids, sites, kinds, self.thread_stats(by)) {
            stream.record_failure(e);
        }
    }

    /// Drain the collected cross-domain edges in deterministic order.
    fn drain_edges(&self) -> Vec<CrossDomainEdge> {
        let rec = self.rec.as_ref().expect("record state");
        let mut edges = std::mem::take(&mut *rec.edges.lock());
        edges.sort_by_key(|e| (e.domain, e.thread, e.seq));
        edges
    }

    fn assemble_bundle(&self) -> TraceBundle {
        let rec = self.rec.as_ref().expect("record state");
        let validate = self.cfg.validate_sites;

        let mut st = Vec::new();
        let mut threads = Vec::with_capacity(rec.domains.len() * self.nthreads as usize);
        for drec in rec.domains.iter() {
            if self.scheme == Scheme::St {
                let stream = drec.pause(|core| {
                    core.st.take().map(|b| StTrace {
                        tids: b.tids,
                        sites: validate.then_some(b.sites),
                        kinds: validate.then_some(b.kinds),
                    })
                });
                st.push(stream.expect("st builder"));
            }
            for lane in drec.lanes.iter() {
                let mut entries = std::mem::take(&mut *lane.buf.lock());
                lane.apply_fixups(&mut entries);
                threads.push(ThreadTrace {
                    values: entries.iter().map(|e| e.value).collect(),
                    sites: validate.then(|| entries.iter().map(|e| e.site).collect()),
                    kinds: validate.then(|| entries.iter().map(|e| e.kind).collect()),
                });
            }
        }

        let bundle = TraceBundle {
            scheme: self.scheme,
            nthreads: self.nthreads,
            domains: self.cfg.domains,
            threads,
            st,
            plan: self.cfg.plan.clone(),
            edges: self.drain_edges(),
            checkpoint: None,
        };
        debug_assert!(bundle.validate().is_ok(), "assembled bundle is consistent");
        bundle
    }
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("mode", &self.mode)
            .field("scheme", &self.scheme)
            .field("nthreads", &self.nthreads)
            .field("domains", &self.cfg.domains)
            .finish_non_exhaustive()
    }
}

/// Chain the process panic hook so a panic dumps `session`'s flight
/// recorder (trigger [`DumpTrigger::Panic`]) before the previous hook
/// runs. Holds only a weak reference; once the session is gone the hook
/// falls through to the previous one. The dump is best-effort: a panic
/// *inside* a gate leaves that access mid-flight.
///
/// The standard panic hook is process-global — install this once per
/// process, for the one session whose window matters.
pub fn install_panic_dump(session: &Arc<Session>) {
    let weak = Arc::downgrade(session);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if let Some(session) = weak.upgrade() {
            let _ = session.dump(DumpTrigger::Panic);
        }
        prev(info);
    }));
}

/// Per-thread gate handle (the instrumented thread's view of `libreomp`).
#[derive(Debug)]
pub struct ThreadCtx {
    session: Arc<Session>,
    tid: u32,
}

impl ThreadCtx {
    /// This thread's 0-based ID.
    #[must_use]
    pub fn tid(&self) -> u32 {
        self.tid
    }

    /// The owning session.
    #[must_use]
    pub fn session(&self) -> &Arc<Session> {
        &self.session
    }

    /// Note a synchronization point (e.g. a barrier departure) for this
    /// thread.
    ///
    /// In a multi-domain record run this snapshots every gate domain's
    /// completion count; the snapshot becomes a [`CrossDomainEdge`]
    /// anchored at this thread's *next* gated access, so replay restores
    /// the inter-domain ordering the barrier established. A no-op in every
    /// other mode and for single-domain sessions — runtimes can call it
    /// unconditionally from their barrier shims.
    #[inline]
    pub fn sync_point(&self) {
        self.session.note_sync_point(self.tid);
    }

    /// Execute `f` as a shared-memory access region bracketed by
    /// `gate_in`/`gate_out` (Fig. 1). Panics on replay failure; see
    /// [`ThreadCtx::try_gate`] for the fallible form. The site hash doubles
    /// as the memory address for DE run grouping; use
    /// [`ThreadCtx::gate_at`] when one instruction touches many locations.
    #[inline]
    pub fn gate<R>(&self, site: SiteId, kind: AccessKind, f: impl FnOnce() -> R) -> R {
        self.gate_at(site, site.raw(), kind, f)
    }

    /// [`ThreadCtx::gate`] with an explicit memory address: Condition 1
    /// (§IV-D) groups runs per *address*, while the *site* identifies the
    /// instrumented instruction for replay validation.
    #[inline]
    pub fn gate_at<R>(
        &self,
        site: SiteId,
        addr: u64,
        kind: AccessKind,
        f: impl FnOnce() -> R,
    ) -> R {
        match self.try_gate_at(site, addr, kind, f) {
            Ok(r) => r,
            Err(e) => panic!("reomp gate failed: {e}"),
        }
    }

    /// Fallible form of [`ThreadCtx::gate`].
    pub fn try_gate<R>(
        &self,
        site: SiteId,
        kind: AccessKind,
        f: impl FnOnce() -> R,
    ) -> Result<R, ReplayError> {
        self.try_gate_at(site, site.raw(), kind, f)
    }

    /// Fallible gate with an explicit address: returns the replay error
    /// instead of panicking. The session is marked failed and all other
    /// waiters are released either way.
    pub fn try_gate_at<R>(
        &self,
        site: SiteId,
        addr: u64,
        kind: AccessKind,
        f: impl FnOnce() -> R,
    ) -> Result<R, ReplayError> {
        let session = &*self.session;
        // Instrumentation-plan bypass: ungated sites run untouched.
        if let Some(plan) = &session.cfg.gate_plan {
            if !plan.contains(&site) {
                return Ok(f());
            }
        }
        let stats = session.thread_stats(self.tid);
        stats.bump_gate(kind);
        match session.mode {
            Mode::Passthrough => Ok(f()),
            Mode::Record => {
                let dom = session.domain_of(site);
                stats.bump_domain_gate(dom);
                let token = gate::record_in(session, dom, self.tid, kind);
                let out = f();
                gate::record_out(session, dom, self.tid, site, addr, kind, token);
                Ok(out)
            }
            Mode::Replay => {
                let dom = session.domain_of(site);
                stats.bump_domain_gate(dom);
                if let Err(e) = gate::replay_in(session, dom, self.tid, site, kind) {
                    session.fail(&e);
                    return Err(e);
                }
                let out = f();
                gate::replay_out(session, dom, self.tid);
                Ok(out)
            }
        }
    }
}

impl Drop for ThreadCtx {
    fn drop(&mut self) {
        self.session.active.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Outcome of a finished session.
#[derive(Debug, Clone)]
pub struct SessionReport {
    /// Scheme of the run.
    pub scheme: Scheme,
    /// Mode of the run.
    pub mode: Mode,
    /// Final statistics: the sum of [`SessionReport::thread_stats`] and
    /// the session's own out-of-band slot.
    pub stats: StatsSnapshot,
    /// The same counters per thread (index = `tid`): what each thread's
    /// own gates counted — its passages, the records it wrote or read,
    /// the waits *it* sat through. What `finish`/commit/dumps did on no
    /// thread's behalf (the residue chunks) is in `stats` only. This is
    /// the hook per-thread wait attribution
    /// builds on.
    pub thread_stats: Vec<StatsSnapshot>,
    /// Gate passages per gate domain (empty for single-domain sessions;
    /// for multi-domain record/replay runs it sums to `stats.gates` —
    /// passthrough gates never resolve a domain, so there the breakdown
    /// stays zero). A lopsided breakdown means the site→domain partition
    /// is not spreading the load.
    pub domain_gates: Vec<u64>,
    /// The recorded trace (record mode only; `None` for streaming record
    /// runs, whose trace lives in the store).
    pub bundle: Option<TraceBundle>,
    /// I/O totals of the committed trace (streaming record runs only).
    pub io: Option<IoReport>,
    /// Replay mode: whether every recorded access was consumed.
    pub fully_consumed: Option<bool>,
    /// First replay failure, if any.
    pub failure: Option<String>,
}

impl SessionReport {
    /// Epoch-size histogram of the recorded trace (Fig. 20 analysis).
    #[must_use]
    pub fn epoch_histogram(&self) -> Option<EpochHistogram> {
        self.bundle.as_ref().map(EpochHistogram::from_bundle)
    }

    /// Persist the recorded bundle to a store.
    pub fn save_to(&self, store: &dyn TraceStore) -> Result<IoReport, TraceError> {
        let bundle = self
            .bundle
            .as_ref()
            .ok_or_else(|| TraceError::Corrupt("report has no bundle (not a record run)".into()))?;
        store.save(bundle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_roundtrip_and_parse() {
        for s in Scheme::ALL {
            assert_eq!(Scheme::from_code(s.code()), Some(s));
            assert_eq!(Scheme::parse(s.name()), Some(s));
        }
        assert_eq!(Scheme::parse("DE"), Some(Scheme::De));
        assert_eq!(Scheme::parse("nope"), None);
        assert_eq!(Scheme::from_code(77), None);
    }

    #[test]
    fn passthrough_gates_run_the_closure() {
        let s = Session::passthrough(1);
        let ctx = s.register_thread(0);
        let v = ctx.gate(SiteId(1), AccessKind::Load, || 41) + 1;
        assert_eq!(v, 42);
        drop(ctx);
        let report = s.finish().unwrap();
        assert_eq!(report.stats.gates, 1);
        assert!(report.bundle.is_none());
    }

    #[test]
    fn finish_requires_contexts_dropped() {
        let s = Session::record(Scheme::Dc, 1);
        let ctx = s.register_thread(0);
        assert!(matches!(s.finish(), Err(FinishError::ThreadsActive(1))));
        drop(ctx);
        assert!(s.finish().is_ok());
        assert!(matches!(s.finish(), Err(FinishError::AlreadyFinished)));
    }

    #[test]
    #[should_panic(expected = "tid 3 >= nthreads 2")]
    fn register_rejects_out_of_range_tid() {
        let s = Session::record(Scheme::Dc, 2);
        let _ = s.register_thread(3);
    }

    #[test]
    fn gate_plan_bypasses_unplanned_sites() {
        let gated = SiteId::from_label("gated");
        let free = SiteId::from_label("free");
        let cfg = SessionConfig {
            gate_plan: Some([gated].into_iter().collect()),
            ..Default::default()
        };
        let s = Session::record_with(Scheme::Dc, 1, cfg);
        let ctx = s.register_thread(0);
        ctx.gate(gated, AccessKind::Load, || ());
        ctx.gate(free, AccessKind::Load, || ());
        drop(ctx);
        let report = s.finish().unwrap();
        assert_eq!(report.stats.gates, 1, "only the planned site is gated");
        assert_eq!(report.bundle.unwrap().total_records(), 1);
    }

    #[test]
    fn from_env_defaults_to_passthrough() {
        // REOMP_MODE is not set in the test environment.
        let s = Session::from_env(2).unwrap();
        assert_eq!(s.mode(), Mode::Passthrough);
    }

    #[test]
    fn env_knobs_configure_domains_and_watchdog() {
        // One test mutates all REOMP_* knobs sequentially to avoid races
        // with other env-reading tests in this binary (they only read
        // REOMP_MODE, which stays unset here).
        std::env::set_var("REOMP_DOMAINS", "4");
        std::env::set_var("REOMP_SPIN_TIMEOUT", "120");
        let s = Session::from_env(2).unwrap();
        assert_eq!(s.cfg.domains, 4);
        assert_eq!(s.cfg.spin.timeout, Some(Duration::from_secs(120)));

        // 0 disables the watchdog entirely (oversubscribed-CI escape hatch).
        std::env::set_var("REOMP_SPIN_TIMEOUT", "0");
        let s = Session::from_env(2).unwrap();
        assert_eq!(s.cfg.spin.timeout, None);

        // Garbage values fall back to the defaults.
        std::env::set_var("REOMP_DOMAINS", "zero");
        std::env::set_var("REOMP_SPIN_TIMEOUT", "soon");
        let s = Session::from_env(2).unwrap();
        assert_eq!(s.cfg.domains, 1);
        assert_eq!(s.cfg.spin.timeout, SpinConfig::default().timeout);

        // Degenerate-but-parseable values clamp (with a warning) instead
        // of falling through to divide-by-zero / never-flush behavior.
        std::env::set_var("REOMP_DOMAINS", "0");
        std::env::set_var("REOMP_FLUSH_RECORDS", "0");
        std::env::set_var("REOMP_PUBLISH_BATCH", "0");
        let s = Session::from_env(2).unwrap();
        assert_eq!(s.cfg.domains, 1, "REOMP_DOMAINS=0 clamps to 1");
        assert_eq!(s.cfg.flush_records, 1, "REOMP_FLUSH_RECORDS=0 clamps to 1");
        assert_eq!(s.cfg.publish_batch, 1, "REOMP_PUBLISH_BATCH=0 clamps to 1");

        // Values that parse but overflow the u32 knobs keep the default
        // (clamping REOMP_DOMAINS to u32::MAX would try to allocate four
        // billion domain records).
        std::env::set_var("REOMP_DOMAINS", "4294967296");
        std::env::set_var("REOMP_PUBLISH_BATCH", "4294967296");
        let s = Session::from_env(2).unwrap();
        assert_eq!(s.cfg.domains, 1);
        assert_eq!(s.cfg.publish_batch, 1);

        // Sanity: in-range values land, and the ticket gate is on by
        // default but can be disabled.
        std::env::set_var("REOMP_FLUSH_RECORDS", "64");
        std::env::set_var("REOMP_PUBLISH_BATCH", "8");
        let s = Session::from_env(2).unwrap();
        assert_eq!(s.cfg.flush_records, 64);
        assert_eq!(s.cfg.publish_batch, 8);
        assert!(s.cfg.ticket_gate, "ticket gate defaults to on");
        std::env::set_var("REOMP_TICKET_GATE", "off");
        let s = Session::from_env(2).unwrap();
        assert!(!s.cfg.ticket_gate);
        std::env::set_var("REOMP_TICKET_GATE", "1");
        let s = Session::from_env(2).unwrap();
        assert!(s.cfg.ticket_gate);

        std::env::remove_var("REOMP_DOMAINS");
        std::env::remove_var("REOMP_SPIN_TIMEOUT");
        std::env::remove_var("REOMP_FLUSH_RECORDS");
        std::env::remove_var("REOMP_PUBLISH_BATCH");
        std::env::remove_var("REOMP_TICKET_GATE");
    }

    #[test]
    fn domain_partition_is_stable_and_total() {
        let cfg = SessionConfig {
            domains: 4,
            ..Default::default()
        };
        let s = Session::record_with(Scheme::Dc, 1, cfg);
        assert_eq!(s.domains(), 4);
        for raw in 0..64u64 {
            let site = SiteId(raw);
            let dom = s.domain_of(site);
            assert!(dom < 4);
            assert_eq!(dom, s.domain_of(site), "partition must be a function");
        }
        // D = 1 (and the clamped 0) always map to domain 0.
        let s = Session::record_with(
            Scheme::Dc,
            1,
            SessionConfig {
                domains: 0,
                ..Default::default()
            },
        );
        assert_eq!(s.domains(), 1, "domain count clamps to >= 1");
        assert_eq!(s.domain_of(SiteId(u64::MAX)), 0);
    }

    #[test]
    fn planned_session_partitions_by_plan_not_modulo() {
        // Pin sites opposite to what raw % 2 would do.
        let a = SiteId(2); // modulo: domain 0 — plan: domain 1
        let b = SiteId(3); // modulo: domain 1 — plan: domain 0
        let plan = DomainPlan::with_assignments(2, [(a, 1), (b, 0)]);
        let cfg = SessionConfig {
            plan: Some(plan.clone()),
            ..Default::default()
        };
        let s = Session::record_with(Scheme::Dc, 1, cfg);
        assert_eq!(s.domains(), 2);
        assert_eq!(s.domain_of(a), 1);
        assert_eq!(s.domain_of(b), 0);
        assert_eq!(s.plan(), Some(&plan));
        let ctx = s.register_thread(0);
        ctx.gate(a, AccessKind::Store, || ());
        drop(ctx);
        let bundle = s.finish().unwrap().bundle.unwrap();
        assert_eq!(bundle.plan.as_ref(), Some(&plan), "plan stamped in trace");
        assert!(bundle.thread(0, 0).is_empty());
        assert_eq!(bundle.thread(1, 0).len(), 1, "access landed per plan");

        // Replay reconstructs the plan from the bundle even when the
        // caller's config has none.
        let replay = Session::replay(bundle).unwrap();
        assert_eq!(replay.domain_of(a), 1);
        assert_eq!(replay.domain_of(b), 0);
    }

    #[test]
    fn plan_overrides_raw_domain_knob() {
        let cfg = SessionConfig {
            domains: 2,
            plan: Some(DomainPlan::new(4)),
            ..Default::default()
        };
        assert_eq!(cfg.effective_domains(), 4);
        let s = Session::record_with(Scheme::Dc, 1, cfg);
        assert_eq!(s.domains(), 4);
        // Unplanned sites take the mixed-hash fallback, not the modulo.
        let site = SiteId(6);
        assert_eq!(s.domain_of(site), DomainPlan::hashed_fallback(4, site));
    }

    #[test]
    fn streaming_record_persists_plan_and_edges() {
        use crate::store::{MemStore, TraceStore};
        let a = SiteId(0xa);
        let b = SiteId(0xb);
        let plan = DomainPlan::with_assignments(2, [(a, 0), (b, 1)]);
        let drive = |session: &Arc<Session>| {
            let c0 = session.register_thread(0);
            let c1 = session.register_thread(1);
            for _ in 0..3 {
                c0.gate(a, AccessKind::Critical, || ());
            }
            c1.gate(b, AccessKind::Critical, || ());
        };
        let cfg = SessionConfig {
            plan: Some(plan.clone()),
            ..Default::default()
        };
        let s = Session::record_with(Scheme::Dc, 2, cfg.clone());
        drive(&s);
        let one_shot = s.finish().unwrap().bundle.unwrap();
        assert!(!one_shot.edges.is_empty());

        let store = MemStore::new();
        let cfg = SessionConfig {
            flush_records: 2,
            ..cfg
        };
        let s = Session::record_streaming_with(Scheme::Dc, 2, cfg, &store).unwrap();
        drive(&s);
        s.finish().unwrap();
        let (loaded, _) = store.load().unwrap();
        assert_eq!(loaded, one_shot, "streamed plan+edges ≡ one-shot");
        assert_eq!(loaded.plan.as_ref(), Some(&plan));
    }

    #[test]
    fn multi_domain_record_produces_per_domain_streams() {
        let cfg = SessionConfig {
            domains: 2,
            ..Default::default()
        };
        let s = Session::record_with(Scheme::Dc, 2, cfg);
        let c0 = s.register_thread(0);
        let c1 = s.register_thread(1);
        // SiteId(2) -> domain 0, SiteId(3) -> domain 1.
        for _ in 0..5 {
            c0.gate(SiteId(2), AccessKind::Load, || ());
            c1.gate(SiteId(3), AccessKind::Store, || ());
        }
        drop((c0, c1));
        let report = s.finish().unwrap();
        assert_eq!(report.domain_gates, vec![5, 5]);
        let bundle = report.bundle.unwrap();
        assert_eq!(bundle.domains, 2);
        bundle.validate().unwrap();
        // Thread 0's accesses all live in domain 0, thread 1's in domain 1,
        // and each domain's clocks are independent 0..5 sequences.
        assert_eq!(bundle.thread(0, 0).values, vec![0, 1, 2, 3, 4]);
        assert!(bundle.thread(0, 1).is_empty());
        assert!(bundle.thread(1, 0).is_empty());
        assert_eq!(bundle.thread(1, 1).values, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn hot_path_state_is_line_isolated() {
        use std::mem::{align_of, size_of};
        fn padded<T>(what: &str) {
            assert_eq!(align_of::<T>() % CACHE_LINE, 0, "{what} alignment");
            assert_eq!(size_of::<T>() % CACHE_LINE, 0, "{what} size");
        }
        padded::<CachePadded<ThreadSlot>>("thread slot");
        padded::<DomainRecord>("DomainRecord");
        padded::<DomainReplay>("DomainReplay");
        padded::<CachePadded<RecordLane>>("record lane");
        padded::<CachePadded<AtomicUsize>>("replay cursor");

        // Neighbours in the actual containers are at least a line apart.
        fn apart<T>(a: &T, b: &T) -> bool {
            (a as *const T as usize).abs_diff(b as *const T as usize) >= CACHE_LINE
        }
        let cfg = SessionConfig {
            domains: 2,
            ..Default::default()
        };
        let s = Session::record_with(Scheme::Dc, 2, cfg);
        assert_eq!(s.slots.len(), 3, "one slot per thread plus the session's");
        assert!(apart(&s.slots[0], &s.slots[1]));
        assert!(apart(&s.slots[1], &s.slots[2]));
        let rec = s.rec.as_ref().unwrap();
        assert!(apart(&rec.domains[0], &rec.domains[1]));
        assert!(apart(&rec.domains[0].lanes[0], &rec.domains[0].lanes[1]));
        // Thread 0's lane in domain 0 and thread 1's in domain 1 are
        // separate heap allocations; their alignment keeps them apart.
        assert!(apart(&rec.domains[0].lanes[0], &rec.domains[1].lanes[1]));
        // The fix-up mailbox is the one lane word a foreign thread may
        // write; it rides on its owner's lane, away from everyone else's.
        assert!(apart(
            &rec.domains[0].lanes[0].fixups,
            &rec.domains[0].lanes[1].fixups
        ));
        let c0 = s.register_thread(0);
        c0.gate(SiteId(2), AccessKind::Store, || ());
        drop(c0);
        let replay = Session::replay(s.finish().unwrap().bundle.unwrap()).unwrap();
        let rep = replay.rep.as_ref().unwrap();
        assert!(apart(&rep.domains[0], &rep.domains[1]));
        assert!(apart(
            &rep.domains[0].cursors[0],
            &rep.domains[0].cursors[1]
        ));
        assert!(apart(
            &rep.domains[0].cursors[0],
            &rep.domains[1].cursors[1]
        ));
    }

    #[test]
    fn reregistered_tid_accumulates_and_live_stats_are_monotone() {
        const FIRST: u64 = 20_000;
        const SECOND: u64 = 300;
        let s = Session::record(Scheme::Dc, 2);
        let region = |n: u64, watch: bool| {
            std::thread::scope(|scope| {
                for tid in 0..2u32 {
                    let ctx = s.register_thread(tid);
                    scope.spawn(move || {
                        for _ in 0..n {
                            ctx.gate(SiteId(u64::from(tid)), AccessKind::Load, || ());
                        }
                    });
                }
                if !watch {
                    return;
                }
                // Poll while the workers gate; the loop ends when their
                // last gate is visible, so it overlaps them by construction.
                let mut last = s.stats();
                while last.gates < 2 * n || last.records_written < 2 * n {
                    let now = s.stats();
                    assert!(now.gates >= last.gates, "{} < {}", now.gates, last.gates);
                    assert!(now.records_written >= last.records_written);
                    assert!(now.gates_of(AccessKind::Load) >= last.gates_of(AccessKind::Load));
                    last = now;
                }
            });
        };
        region(FIRST, true);
        // A second parallel region re-registers both tids on new OS threads:
        // the counts land in the same slots.
        region(SECOND, false);
        let report = s.finish().unwrap();
        assert_eq!(report.thread_stats.len(), 2);
        for t in &report.thread_stats {
            assert_eq!(t.gates, FIRST + SECOND);
            assert_eq!(t.records_written, FIRST + SECOND);
        }
        assert_eq!(report.stats.gates, 2 * (FIRST + SECOND));
    }

    #[test]
    fn streaming_record_matches_one_shot_bundle() {
        use crate::store::{MemStore, TraceStore};
        // Drive both thread contexts from this test thread so the gate
        // order — and therefore the recorded trace — is deterministic.
        let run = |session: &Arc<Session>| {
            let c0 = session.register_thread(0);
            let c1 = session.register_thread(1);
            for i in 0..10u64 {
                let site = SiteId(100 + (i % 3));
                c0.gate(site, AccessKind::Load, || ());
                c1.gate(site, AccessKind::Store, || ());
                c1.gate(site, AccessKind::Load, || ());
            }
        };
        for domains in [1u32, 3] {
            for scheme in Scheme::ALL {
                let cfg = SessionConfig {
                    domains,
                    ..Default::default()
                };
                let s = Session::record_with(scheme, 2, cfg.clone());
                run(&s);
                let bundle = s.finish().unwrap().bundle.unwrap();
                assert_eq!(bundle.domains, domains);

                let store = MemStore::new();
                let cfg = SessionConfig {
                    flush_records: 4,
                    domains,
                    ..Default::default()
                };
                let s = Session::record_streaming_with(scheme, 2, cfg, &store).unwrap();
                run(&s);
                let report = s.finish().unwrap();
                assert!(report.bundle.is_none(), "streaming keeps no bundle");
                let io = report.io.expect("streaming report carries io totals");
                assert!(io.chunks > 0, "{scheme:?}/{domains}");
                assert!(report.stats.chunk_flushes > 0, "{scheme:?}/{domains}");
                let (loaded, _) = store.load().unwrap();
                assert_eq!(loaded, bundle, "{scheme:?}/{domains}: streamed ≡ one-shot");
            }
        }
    }

    /// Table V's `L L L S S S L` by T1 T2 T3 T1 T2 T3 T1, stepped from
    /// this one thread so the clocks are exactly 0..7.
    fn drive_table_v(session: &Arc<Session>) {
        let x = SiteId(0x7ab1e5);
        let ctxs: Vec<_> = (0..3).map(|t| session.register_thread(t)).collect();
        use AccessKind::{Load, Store};
        for (t, kind) in [0, 1, 2, 0, 1, 2, 0]
            .into_iter()
            .zip([Load, Load, Load, Store, Store, Store, Load])
        {
            ctxs[t].gate(x, kind, || ());
        }
    }

    #[test]
    fn table_v_through_every_record_entry_point() {
        use crate::store::{MemStore, TraceStore};
        // Column (3) of Table V, split into the three per-thread files.
        // T2's store at clock 4 is the one fix-up — posted by T3's gate,
        // applied by `finish` (buffered, and streaming below the
        // threshold), by T2's own next flush or the residue flush
        // (`flush_records: 1`: T2 never gates again), or by `dump`.
        let expect = [vec![0, 3, 6], vec![0, 3], vec![0, 5]];
        let check = |tag: &str, bundle: &TraceBundle, deferred: u64| {
            for (t, values) in expect.iter().enumerate() {
                assert_eq!(
                    &bundle.thread(0, t as u32).values,
                    values,
                    "{tag}: T{}",
                    t + 1
                );
            }
            assert_eq!(deferred, 1, "{tag}: exactly x4 is deferred");
        };

        let s = Session::record(Scheme::De, 3);
        drive_table_v(&s);
        let report = s.finish().unwrap();
        assert_eq!(report.stats.records_written, 7);
        check(
            "record",
            report.bundle.as_ref().unwrap(),
            report.stats.deferred_finalizations,
        );

        for flush_records in [1, 4096] {
            let store = MemStore::new();
            let cfg = SessionConfig {
                flush_records,
                ..Default::default()
            };
            let s = Session::record_streaming_with(Scheme::De, 3, cfg, &store).unwrap();
            drive_table_v(&s);
            let report = s.finish().unwrap();
            assert_eq!(
                report.stats.lock_acquires, 0,
                "streaming DE rides the ticket"
            );
            check(
                &format!("streaming/{flush_records}"),
                &store.load().unwrap().0,
                report.stats.deferred_finalizations,
            );
        }

        let dir = flight_dir("table-v");
        let cfg = SessionConfig {
            flight: Some(8),
            flush_records: 2,
            ..Default::default()
        };
        let s = Session::record_flight(Scheme::De, 3, cfg, DirStore::new(&dir)).unwrap();
        drive_table_v(&s);
        s.dump(DumpTrigger::Manual).unwrap();
        check(
            "flight",
            &DirStore::new(&dir).load().unwrap().0,
            s.finish().unwrap().stats.deferred_finalizations,
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A scratch directory for one flight-dump test.
    fn flight_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("reomp-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn mid_run_dump_with_a_store_pending() {
        let x = SiteId(0xd0_0d);
        let dir = flight_dir("pending-store");
        let store = DirStore::new(&dir);
        let cfg = SessionConfig {
            flight: Some(8),
            flush_records: 64,
            ..Default::default()
        };
        let s = Session::record_flight(Scheme::De, 2, cfg, DirStore::new(&dir)).unwrap();
        let c0 = s.register_thread(0);
        let c1 = s.register_thread(1);
        c0.gate(x, AccessKind::Store, || ()); // clock 0: first of its run
        c1.gate(x, AccessKind::Store, || ()); // clock 1: pending at the dump
        s.dump(DumpTrigger::Manual).unwrap();
        // The dump ended the run: the pending store went out with its own
        // clock, like a trailing store at `finish`.
        let (first, _) = store.load().unwrap();
        assert_eq!(first.thread(0, 0).values, vec![0]);
        assert_eq!(first.thread(0, 1).values, vec![1]);
        // So the next same-site store must not reach back and fix it up —
        // it starts a new run, and the three stores after it form the
        // usual first / middle (fixed up) / last pattern.
        c0.gate(x, AccessKind::Store, || ()); // clock 2
        c1.gate(x, AccessKind::Store, || ()); // clock 3: fixed up to 2
        c0.gate(x, AccessKind::Store, || ()); // clock 4
        drop((c0, c1));
        s.dump(DumpTrigger::Manual).unwrap();
        let report = s.finish().unwrap();
        assert_eq!(report.stats.deferred_finalizations, 1);
        let (second, _) = store.load().unwrap();
        second.validate().unwrap();
        assert_eq!(second.thread(0, 0).values, vec![0, 2, 4]);
        assert_eq!(second.thread(0, 1).values, vec![1, 2]);
        let rec = s.rec.as_ref().unwrap();
        assert!(
            rec.domains[0]
                .lanes
                .iter()
                .all(|l| l.fixups.lock().is_empty()),
            "every fix-up found its entry"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn streaming_record_without_validation() {
        use crate::store::{MemStore, TraceStore};
        let store = MemStore::new();
        let cfg = SessionConfig {
            validate_sites: false,
            flush_records: 2,
            ..Default::default()
        };
        let s = Session::record_streaming_with(Scheme::Dc, 1, cfg, &store).unwrap();
        let ctx = s.register_thread(0);
        for _ in 0..7 {
            ctx.gate(SiteId(9), AccessKind::Load, || ());
        }
        drop(ctx);
        s.finish().unwrap();
        let (loaded, _) = store.load().unwrap();
        assert_eq!(loaded.threads[0].values.len(), 7);
        assert_eq!(loaded.threads[0].sites, None);
    }

    #[test]
    fn report_save_requires_bundle() {
        let s = Session::passthrough(1);
        let report = s.finish().unwrap();
        let store = crate::store::MemStore::new();
        assert!(report.save_to(&store).is_err());
    }
}
