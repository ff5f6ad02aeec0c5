//! Session orchestration: one [`Session`] per record or replay run.
//!
//! A session owns the shared gate state (the paper's `global_clock`,
//! `next_clock` and lock `L`, and ST replay's `next_tid` with its baton —
//! each on a line of its own per domain) plus the per-thread lanes
//! (record buffers and replay cursors) and statistics.
//! Runtime threads obtain a [`ThreadCtx`] via [`Session::register_thread`]
//! and wrap each shared-memory access region in [`ThreadCtx::gate`].
//!
//! Like the paper's `libreomp.so` (§V), the mode can be chosen with
//! environment variables: `REOMP_MODE` (`off`/`record`/`replay`),
//! `REOMP_SCHEME` (`st`/`dc`/`de`), `REOMP_DIR` for the record-file
//! directory (a record run streams its trace there chunk by chunk),
//! `REOMP_FLIGHT` (record into a bounded flight window instead),
//! `REOMP_DOMAINS` (gate-domain count, see below and
//! [`env_plan_and_window`]), `REOMP_SPIN_TIMEOUT` (replay watchdog in
//! seconds, `0` disables it). How a record gate is admitted is not
//! configurable: the scheme chooses it (see [`crate::gate`]).
//!
//! # Gate domains
//!
//! One [`DomainPlan`], the session's *site map* (resolved once, when the
//! session is built), decides for every site whether it is gated and which
//! gate domain orders it. Without a [`SessionConfig::plan`] every gated
//! access serializes through **one** gate lock and one clock — the paper's
//! layout. A plan over `D` domains gives each domain its own lock, clock,
//! epoch tracker, replay turnstile and per-thread record streams, so
//! threads on sites in different domains neither contend in record mode
//! nor wait for each other in replay; a closed plan also lets the sites it
//! does not list bypass the recorder. Replay runs the map the bundle
//! carries ([`TraceBundle::partition`]).
//!
//! Sharding is *sound* when ordering only ever matters within a domain:
//! the recorded order stream of each domain is complete for the sites it
//! contains (the map is a pure function of the site id, identical in
//! record and replay), so the paper's ordering requirement — and the
//! Contiguous-policy monotonicity argument in [`crate::epoch`] — hold per
//! stream. What multi-domain recording does **not** capture per se is the
//! relative order of two racing accesses *to the same memory* made through
//! sites in different domains. Two mechanisms close that gap:
//!
//! * **Pinned sites**: a plan — typically produced by
//!   `racedet::DomainPlanner` from a race report — co-locates every group
//!   of aliased/racing sites in one domain (so their order is recorded)
//!   and spreads the remaining sites with a mixed-hash fallback.
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
//! # The record pipeline
//!
//! Every record session flushes into exactly one [`RecordSink`]:
//! [`Session::record_with`] into an unbounded [`FlightRecorder`] ring
//! that becomes the report's bundle, [`Session::record_streaming_with`]
//! into a [`StreamingTraceStore`], [`Session::record_flight`] into a
//! bounded ring. An ST gate appends to its domain's shared builder under
//! `L`; the gate that fills it to [`SessionConfig::flush_records`]
//! records takes it as one batch and appends it after it releases `L`,
//! under the domain's chunk-order lock, which it took before the release
//! so the chunks keep `L`'s order. (Fig. 4 appends before the unlock;
//! that measured × 1.4 in contended ST record time, because the other
//! threads can no longer gate during the append.) A DC/DE thread appends
//! to its own lane without a lock (the lane is owner-written, see
//! `RecordLane`). Whenever that lane holds
//! [`SessionConfig::flush_records`] stable entries, the thread moves
//! them into the sink as one chunk, so no lane holds more than a bounded
//! window of the trace. ST/DC records are stable as soon as they are
//! buffered. A DE store record is provisional until the next access shows
//! whether it needs a fix-up (see [`crate::epoch`]), so the owner's gate
//! reads a *floor* — the tracker's
//! [`min_pending_clock`](EpochTracker::min_pending_clock) — under its own
//! admission, after any fix-up that access posted. Every entry below the
//! floor was resolved under that admission or an earlier one, so its
//! fix-up is already in the owner's mailbox when the owner drains it and
//! flushes the entries below the floor. `finish` flushes the residue,
//! stamps the plan and the edges, and commits the sink (a store writes
//! its manifest last).

use crate::clock::{TicketGate, Turnstile};
use crate::epoch::{EpochPolicy, EpochTracker};
use crate::error::{FinishError, ReplayError, TraceError};
use crate::flight::{FlightRecorder, FlightSink, DEFAULT_WINDOW, UNBOUNDED};
use crate::gate;
use crate::history::{newest_first, AccessRecord};
use crate::plan::DomainPlan;
use crate::shim::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use crate::shim::{Mutex, MutexGuard};
use crate::site::{AccessKind, SiteId};
use crate::stats::{
    add_to, count_st, kind_counts, EpochHistogram, GateCounts, Stats, StatsSnapshot,
};
use crate::store::{
    DirStore, IoReport, RecordOptions, RecordSink, StreamingTraceStore, TraceStore,
};
use crate::sync::{BatonLock, CachePadded, RawLocked, SpinConfig, CACHE_LINE};
use crate::trace::{CrossDomainEdge, DumpTrigger, TraceBundle};
use parking_lot::RwLock;
use std::cell::{Cell, UnsafeCell};
use std::marker::PhantomData;
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

/// `REOMP_DOMAINS` and `REOMP_FLIGHT`, read one way for thread and rank
/// sessions: `D > 1` domains is an empty (hashed, stamped) plan, anything
/// else one domain (`0` and counts beyond `u32` with a warning, malformed
/// values silently); the flight window is `n` when `n` is a positive
/// `u32`.
#[must_use]
pub fn env_plan_and_window() -> (Option<DomainPlan>, Option<u32>) {
    let plan = std::env::var("REOMP_DOMAINS")
        .ok()
        .and_then(|raw| raw.trim().parse::<u64>().ok())
        .and_then(|d| match u32::try_from(d) {
            // Not clamped to u32::MAX: that would allocate 4 billion
            // domains; and a domain-less session is always a mistake.
            Ok(0) | Err(_) => {
                eprintln!("reomp: REOMP_DOMAINS={d} is degenerate; keeping 1");
                None
            }
            Ok(d) => Some(d),
        })
        .filter(|&d| d > 1)
        .map(DomainPlan::new);
    let window = std::env::var("REOMP_FLIGHT")
        .ok()
        .and_then(|s| s.parse::<u32>().ok())
        .filter(|&n| n > 0);
    (plan, window)
}

/// Tuning knobs for a session.
#[derive(Debug, Clone)]
pub struct SessionConfig {
    /// DE run-boundary policy (see [`EpochPolicy`]).
    pub epoch_policy: EpochPolicy,
    /// Replay only: how many of the accesses a domain admitted last are
    /// attached to a divergence report (see [`crate::history`]). It only
    /// bounds the report: the accesses are read back from the trace below
    /// the replay cursors when a divergence is reported, so replay keeps
    /// no per-lane memory for them and a gate does no work for them. `0`
    /// disables the history; record runs ignore it.
    pub ring_capacity: usize,
    /// Replay spin-wait/watchdog policy.
    pub spin: SpinConfig,
    /// Record runs: flush a per-thread lane into the session's sink once
    /// it holds this many stable records (clamped to ≥ 1), which bounds
    /// every lane at about this many 32-byte entries.
    pub flush_records: usize,
    /// The site map of a record run (see [`DomainPlan`] and
    /// `racedet::DomainPlanner`). `None` — the default — is one domain that
    /// gates every site: the classic single-gate behavior and trace format
    /// byte-for-byte. Stamped into the trace exactly when set; replay
    /// ignores it and runs the map the bundle carries.
    pub plan: Option<DomainPlan>,
    /// Bounded in-situ recording: retain only the last `n` chunks of every
    /// `(thread, domain)` record stream in memory (`REOMP_FLIGHT=<n>`)
    /// instead of streaming everything to the store. Nothing is persisted
    /// unless [`Session::dump`] (or a panic/divergence trigger) fires.
    /// `None` — the default — records unbounded.
    pub flight: Option<u32>,
    /// Run the per-chunk RLE compression stage on streamed record files.
    pub compress: bool,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            epoch_policy: EpochPolicy::default(),
            ring_capacity: 64,
            spin: SpinConfig::default(),
            flush_records: 4096,
            plan: None,
            flight: None,
            compress: false,
        }
    }
}

/// One record of a thread's lane, in clock order. `value` is final for
/// every scheme except a DE store's, which a fix-up may still lower.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct RecEntry {
    pub clock: u64,
    pub value: u64,
    pub site: u64,
    pub kind: u8,
}

/// State guarded by a domain's record admission (lock `L` for ST, the
/// ticket gate for DC/DE) during record runs.
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
    /// a plain field because it is only touched under the domain's
    /// admission.
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
}

impl StBuilder {
    pub(crate) fn push(&mut self, tid: u32, site: SiteId, kind: AccessKind) {
        self.tids.push(tid);
        self.sites.push(site.raw());
        self.kinds.push(kind.code());
    }
}

/// One thread's record-side state in one gate domain — the thread's
/// "own record file" of Fig. 3-(b), here one per thread *per domain*.
/// Lives on cache lines of its own (`DomainRecord::lanes`), so the append
/// that follows every gate stays on a line only this thread writes.
///
/// The record buffer is **owner-written**: only the owning thread writes
/// entries. It fills the slot at `len` and then publishes `len + 1` with a
/// Release store, so an append takes no lock and no locked instruction.
/// Every path that reads or rewrites *published* entries holds the lane's
/// cold `drained` mutex: the owner's threshold flush and its grow/compact,
/// the foreign drains of `finish` and [`Session::dump`], and the count of
/// [`Session::stats`]. A foreign drain flushes the live entries
/// `[taken, len)` and advances `taken`;
/// only the owner moves entries (compacting the live ones to the front),
/// and only under that mutex, so an entry never moves while another thread
/// may read it.
#[derive(Default)]
pub(crate) struct RecordLane {
    /// The entry storage, in clock order. Slots below `len` are published;
    /// the owner writes the slot at `len` without a lock. Replaced (grown)
    /// and compacted by the owner alone, under `taken`.
    slots: UnsafeCell<Box<[UnsafeCell<RecEntry>]>>,
    /// Slots written, counted from the start of `slots`. Written only by
    /// the owner; Release-stored after the slot it publishes.
    ///
    /// A `std` atomic in every build, not routed through `crate::shim`:
    /// the slots it publishes are plain memory, which the model checker
    /// never reorders, and every other thread reads it under the cold
    /// lock — so an instrumented length would add scheduling points and
    /// nothing the model could check. Its slot-then-length ordering is
    /// checked on instrumented slots by `reomp-model`'s `lane_mini`.
    len: std::sync::atomic::AtomicUsize,
    /// The cold lock, and what drains have taken from the lane.
    drained: Mutex<Drained>,
    /// DE fix-up mailbox: `(clock, epoch)` corrections to store entries of
    /// this lane, posted under the gate exclusion by whichever thread's
    /// access resolved the store — the only cross-thread write a lane
    /// sees, and only for the non-first, non-final stores of a run.
    /// Drained by whoever is about to move entries out of the lane.
    pub fixups: Mutex<Vec<(u64, u64)>>,
    /// The thread's access count in this domain — the `seq` a
    /// cross-domain edge anchors at. Advanced by the owner alone, with a
    /// load and a store, under the gate exclusion; only maintained for
    /// multi-domain sessions.
    pub seq: AtomicU64,
}

// SAFETY: `slots` is shared under the protocol in the type docs: the owner
// writes only slots at or past `len` without the `drained` lock, every other
// access to entries (and every replacement of the storage) holds it, and
// `RecEntry` is plain `Copy` data. Every other field is `Sync` itself.
unsafe impl Sync for RecordLane {}

/// One gate domain's record-side state: its own admission + clock +
/// tracker and its own set of per-thread lanes. Aligned to [`CACHE_LINE`]
/// so the words every entrant of one domain writes (lock or ticket,
/// `published`) never share a line with another domain's.
#[repr(align(128))]
pub(crate) struct DomainRecord {
    /// Gate state, behind the lock `L` that admits ST sessions (locked at
    /// `gate_in`, unlocked at `gate_out`). DC/DE sessions never lock it.
    pub gate: RawLocked<RecCore>,
    /// The admission of DC/DE sessions (`Some` exactly when the scheme is
    /// clocked): **every** accessor of [`DomainRecord::gate`]'s core —
    /// plain, critical and edge-anchoring gates alike, and out-of-band
    /// pausers with a ghost ticket — holds the currently-served ticket, so
    /// the `RecCore` hand-off rides the gate's `serving` release/acquire
    /// pair.
    pub ticket: Option<TicketGate>,
    /// Per-thread lanes, indexed by `tid`.
    pub lanes: Box<[CachePadded<RecordLane>]>,
    /// Number of accesses this domain has completed (mirrors the clock):
    /// written under the domain's admission, read lock-free by *other*
    /// domains' gates when they stamp a cross-domain edge. Only maintained
    /// for multi-domain sessions.
    pub published: AtomicU64,
}

thread_local! {
    /// The [`DomainRecord`] (by address; 0 for none) whose admission this
    /// thread holds while a recorded region runs — set by `gate::record_in`,
    /// restored when the region ends.
    static HELD: Cell<usize> = const { Cell::new(0) };
    /// The chunk-order lock (by address; 0 for none) this thread holds
    /// while a batch that left an ST builder reaches the stream.
    static ORDER_HELD: Cell<usize> = const { Cell::new(0) };
}

/// A domain's chunk-order lock (`RecordState::st_order`), taken before `L`
/// is released for a batch that leaves the ST builder and held across its
/// append. Noted per thread, so that the panic hook's dump on a thread
/// whose append panicked does not wait for the lock its own thread holds.
pub(crate) struct OrderTurn<'a>(MutexGuard<'a, Vec<[u64; 8]>>);

impl<'a> OrderTurn<'a> {
    pub(crate) fn take(order: &'a Mutex<Vec<[u64; 8]>>) -> Self {
        let turn = OrderTurn(order.lock());
        ORDER_HELD.with(|held| held.set(order as *const _ as usize));
        turn
    }

    /// Whether this thread holds `order`.
    fn held_here(order: &Mutex<Vec<[u64; 8]>>) -> bool {
        ORDER_HELD.with(Cell::get) == order as *const _ as usize
    }

    /// Count the batch `tids`/`kinds` into the domain's tally.
    pub(crate) fn count(&mut self, tids: &[u32], kinds: &[u8]) {
        count_st(&mut self.0, tids, kinds);
    }
}

impl Drop for OrderTurn<'_> {
    fn drop(&mut self) {
        ORDER_HELD.with(|held| held.set(0));
    }
}

// `repr(align)` takes a literal; keep it in step with the padding constant.
const _: () = assert!(std::mem::align_of::<DomainRecord>() == CACHE_LINE);

/// What has left a [`RecordLane`], under its cold lock.
#[derive(Default)]
struct Drained {
    /// Leading slots a foreign drain has flushed: the live entries are
    /// `[taken, len)`.
    taken: usize,
    /// The gates of every entry flushed, per kind code (as
    /// [`kind_counts`]), boxed to keep the lane one line.
    flushed: Box<[u64; 8]>,
}

/// The first storage a lane allocates, in entries; it doubles when full.
const LANE_FIRST_SLOTS: usize = 16;

impl RecordLane {
    /// Append `entry` (owner only) and return the lane's length counted
    /// from the start of its storage: the number of live entries, plus
    /// whatever a foreign drain took since the owner last held the cold
    /// lock — so a length at the flush threshold sends the owner to
    /// [`Session::flush_lane`], which compacts and counts exactly.
    #[inline]
    pub(crate) fn push(&self, entry: RecEntry) -> usize {
        // ORDERING: only the owner writes `len`; this is its own last
        // store.
        let n = self.len.load(Ordering::Relaxed);
        // SAFETY: the storage is replaced only by the owner — this thread —
        // and only inside `push_cold`, so this shared borrow cannot
        // overlap a replacement.
        let slots = unsafe { &*self.slots.get() };
        let Some(slot) = slots.get(n) else {
            return self.push_cold(entry);
        };
        // SAFETY: slot `n` is at the published length: no other thread
        // reads it before the store below publishes it, and only the
        // owner writes slots.
        unsafe { *slot.get() = entry };
        // ORDERING: Release publishes the slot to a drain's Acquire load
        // of `len`.
        self.len.store(n + 1, Ordering::Release);
        n + 1
    }

    /// [`RecordLane::push`] into full storage: under the cold lock,
    /// compact, grow if still full, then append.
    #[cold]
    #[inline(never)]
    fn push_cold(&self, entry: RecEntry) -> usize {
        let mut drained = self.drained.lock();
        self.compact(&mut drained);
        // ORDERING: only the owner writes `len`.
        let n = self.len.load(Ordering::Relaxed);
        // SAFETY: the owner holds the cold lock, so no drain holds a
        // borrow of the storage, and the owner holds none elsewhere.
        let slots = unsafe { &mut *self.slots.get() };
        if n == slots.len() {
            let cap = (2 * n).max(LANE_FIRST_SLOTS);
            let mut grown: Box<[UnsafeCell<RecEntry>]> =
                std::iter::repeat_with(UnsafeCell::default)
                    .take(cap)
                    .collect();
            for (dst, src) in grown.iter_mut().zip(slots.iter_mut()) {
                *dst.get_mut() = *src.get_mut();
            }
            *slots = grown;
        }
        *slots[n].get_mut() = entry;
        // ORDERING: Release, as in `push`.
        self.len.store(n + 1, Ordering::Release);
        n + 1
    }

    /// The live entries `[taken, len)`, for the holder of the cold lock
    /// (`drained` is its guard) to read, fix up and flush.
    fn live<'g>(&'g self, drained: &'g mut MutexGuard<'_, Drained>) -> &'g mut [RecEntry] {
        // ORDERING: Acquire pairs with the owner's Release publish: every
        // slot below the loaded length is written.
        let len = self.len.load(Ordering::Acquire);
        // SAFETY: the cold lock is held, so the owner is not replacing or
        // compacting the storage, and no other lock holder borrows it; the
        // owner writes only slots at or past `len`, so `[taken, len)` is
        // this holder's alone. `UnsafeCell<RecEntry>` has `RecEntry`'s
        // layout.
        let live = unsafe { &(&*self.slots.get())[drained.taken..len] };
        // SAFETY: as above — the cells are this holder's alone.
        unsafe { std::slice::from_raw_parts_mut(UnsafeCell::raw_get(live.as_ptr()), live.len()) }
    }

    /// Move the live entries to the front of the storage (owner only,
    /// under the cold lock), so that `len` counts exactly the live entries.
    fn compact(&self, drained: &mut MutexGuard<'_, Drained>) {
        let gone = std::mem::replace(&mut drained.taken, 0);
        if gone == 0 {
            return;
        }
        // ORDERING: only the owner writes `len`.
        let n = self.len.load(Ordering::Relaxed);
        // SAFETY: the owner holds the cold lock: no drain borrows the
        // storage, and the owner has no other borrow of it.
        let slots = unsafe { &mut *self.slots.get() };
        for i in gone..n {
            let entry = *slots[i].get_mut();
            *slots[i - gone].get_mut() = entry;
        }
        // ORDERING: Release, as in `push`; the entries moved above are
        // also ordered before the next drain by the cold lock.
        self.len.store(n - gone, Ordering::Release);
    }

    /// Apply the posted fix-ups to `live` (this lane's live entries, under
    /// its cold lock). The target of a fix-up is missing only while a
    /// flight dump races the owner between its gate and its append; such a
    /// fix-up waits in the mailbox for the next drain.
    fn apply_fixups(&self, live: &mut [RecEntry]) {
        self.fixups.lock().retain(|&(clock, epoch)| {
            match live.binary_search_by_key(&clock, |e| e.clock) {
                Ok(i) => live[i].value = epoch,
                Err(_) => return true,
            }
            false
        });
    }
}

impl DomainRecord {
    /// Take this domain's one record admission: a served ticket when the
    /// scheme is clocked, lock `L` (ST) otherwise. Returns whether it
    /// locked `L` — what `lock_acquires` counts.
    #[inline]
    pub(crate) fn admit(&self) -> bool {
        match &self.ticket {
            Some(ticket) => {
                ticket.enter();
                false
            }
            None => {
                self.gate.lock();
                true
            }
        }
    }

    /// Give back the admission [`DomainRecord::admit`] granted.
    ///
    /// # Safety
    /// The calling thread holds it: a matching `admit` on this thread,
    /// not yet released.
    #[inline]
    pub(crate) unsafe fn release(&self) {
        match &self.ticket {
            // The served slot is implicit; `exit` does not read the ticket.
            Some(ticket) => ticket.exit(0),
            // SAFETY: forwarded contract — for ST, `admit` locked `L`.
            None => unsafe { self.gate.unlock() },
        }
    }

    /// Note this thread as the holder of this domain's admission while a
    /// recorded region runs; returns the note it replaces.
    #[inline]
    pub(crate) fn note_held(&self) -> usize {
        HELD.with(|held| held.replace(self as *const Self as usize))
    }

    /// Put back the note [`DomainRecord::note_held`] replaced.
    #[inline]
    pub(crate) fn restore_note(outer: usize) {
        HELD.with(|held| held.set(outer));
    }

    /// Out-of-band exclusive access to the gate core (`finish`, residue
    /// flushes, flight dumps, trace assembly) through the session's one
    /// admission: `L` for ST, a **ghost ticket** for DC/DE. A ghost ticket
    /// assigns no clock; it only occupies the served slot while `f` runs,
    /// which is why pausing leaves no hole in the recorded clock sequence.
    ///
    /// On a thread whose recorded region holds the admission already — a
    /// panic hook's dump — `f` runs at once instead of waiting for itself:
    /// the region has not touched the core since it was admitted.
    pub(crate) fn pause<R>(&self, f: impl FnOnce(&mut RecCore) -> R) -> R {
        if HELD.with(Cell::get) == self as *const Self as usize {
            // SAFETY: this thread holds the admission and is inside the
            // region, where nothing borrows the core (`record_out` takes
            // it only after the note is restored).
            return f(unsafe { self.gate.get() });
        }
        self.admit();
        // SAFETY: admitted above, so this thread is the unique accessor
        // (see the `ticket` field docs).
        let out = f(unsafe { self.gate.get() });
        // SAFETY: admitted above on this thread.
        unsafe { self.release() };
        out
    }
}

pub(crate) struct RecordState {
    /// Per-domain gate instances (length = configured domain count).
    pub domains: Box<[DomainRecord]>,
    /// The session's one sink; read-locked for concurrent appends (each
    /// stream serializes its own writes), write-locked only to take it at
    /// commit time.
    pub sink: RwLock<Option<Box<dyn RecordSink>>>,
    /// Per-domain chunk-order locks for the shared ST streams: acquired
    /// *before* the domain's gate lock is released when a batch leaves the
    /// builder (a gate's steal or a residue flush) and held across its
    /// append, so two batches can never reach that domain's stream out of
    /// execution order. Each guards the gates of those batches, per
    /// thread and kind code.
    pub st_order: Vec<Mutex<Vec<[u64; 8]>>>,
    /// Set after the first append failure; flushing stops and `finish`
    /// surfaces the error instead of committing a partial trace.
    pub failed: AtomicBool,
    /// The first append failure.
    pub error: Mutex<Option<TraceError>>,
    /// Cross-domain happens-before edges collected so far (multi-domain
    /// sessions only; appended outside the gate locks).
    pub edges: Mutex<Vec<CrossDomainEdge>>,
}

impl RecordState {
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

/// One thread's replay-side state in one gate domain, the counterpart of
/// [`RecordLane`]: only the owning thread's gates write it.
pub(crate) struct ReplayLane {
    /// Read position into the thread's own trace for this domain (DC/DE):
    /// the records below it are the accesses this thread was admitted
    /// for, which is where [`Session::replay_history`] reads them back.
    pub cursor: AtomicUsize,
    /// The cross-domain edges anchored in this thread's stream (DC/DE).
    pub anchors: Anchors,
}

/// One replay stream's cross-domain edge anchors, sorted by position and
/// walked by a cursor that only the stream's current gate-holder advances
/// (a DC/DE lane's owner; ST's turn holder, under the baton). A gate
/// compares its position with [`Anchors::due`] alone: a stream with no
/// anchor left pays one predictable branch and no lookup.
///
/// `std` atomics in every build, like [`RecordLane`]'s `len`: one writer
/// at a time, handed on by the admission the model checker already
/// instruments, so shim atomics would add scheduling points and nothing
/// the model could check.
pub(crate) struct Anchors {
    /// One entry per anchored access, ascending by position.
    list: Box<[Anchor]>,
    /// Index into `list` of the next anchor not yet waited for.
    next: std::sync::atomic::AtomicUsize,
    /// `list[next]`'s position, or `u64::MAX` past the last anchor.
    due: std::sync::atomic::AtomicU64,
}

/// An anchored access's stream position and its waits, `(foreign domain,
/// completed count)`, merged by max over the edges anchored there (see
/// [`TraceBundle::edge_index`]).
type Anchor = (u64, Vec<(u32, u64)>);

impl Anchors {
    fn new(mut list: Vec<Anchor>) -> Anchors {
        list.sort_unstable_by_key(|a| a.0);
        Anchors {
            due: std::sync::atomic::AtomicU64::new(list.first().map_or(u64::MAX, |a| a.0)),
            list: list.into_boxed_slice(),
            next: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// Whether the access at stream position `seq` is the next anchor.
    #[inline(always)]
    pub(crate) fn due(&self, seq: u64) -> bool {
        // ORDERING: written only by the stream's gate-holder, whose
        // admission ordered every earlier holder's store before this load.
        self.due.load(Ordering::Relaxed) == seq
    }
}

/// ST replay's turn words (Fig. 4 l.10–17), together on one line: the
/// baton reader writes them all, and every waiter spins on `next_tid`.
pub(crate) struct StTurn {
    /// The baton lock `L` of Fig. 4.
    pub baton: BatonLock,
    /// Shared read position into this domain's record stream.
    pub st_pos: AtomicUsize,
    /// The published `next_tid` (Fig. 4 line 13).
    pub next_tid: AtomicU32,
    /// Site hash published with `next_tid` for replay validation.
    pub next_site: AtomicU64,
    /// Kind code published with `next_tid`.
    pub next_kind: AtomicU32,
    /// The cross-domain edges anchored in this domain's shared stream.
    pub anchors: Anchors,
}

/// One gate domain's replay-side state. A replay gate writes the one line
/// its protocol communicates through — the turnstile (DC/DE) or the ST
/// turn line (plus the turnstile's completion count when ST runs with
/// D > 1) — and everything else it writes is on its own lane.
pub(crate) struct DomainReplay {
    /// The `next_clock` turnstile (DC/DE) — also ST's abort flag, and the
    /// completion count cross-domain edges wait on.
    pub turnstile: CachePadded<Turnstile>,
    /// ST: the baton and the words published with `next_tid`.
    pub st: CachePadded<StTurn>,
    /// Per-thread lanes, indexed by `tid`.
    pub lanes: Box<[CachePadded<ReplayLane>]>,
}

pub(crate) struct ReplayState {
    pub bundle: TraceBundle,
    /// Per-domain replay gates (length = the bundle's domain count).
    pub domains: Box<[DomainReplay]>,
}

/// The ring behind a buffered or bounded record run: the shared recorder,
/// the store a dump materializes into (bounded runs only — a buffered
/// run's unbounded ring becomes its bundle instead), and the dumps taken
/// so far.
struct FlightCtl {
    recorder: Arc<FlightRecorder>,
    target: Option<Box<dyn StreamingTraceStore>>,
    dumps: Mutex<Vec<(DumpTrigger, IoReport)>>,
}

/// One thread's session-side state: its counter slot, its registration
/// flag and its pending barrier snapshot. Kept in a [`CachePadded`] so
/// everything a gate of thread `tid` writes outside the gate domain is on
/// lines only `tid` writes.
#[derive(Default)]
pub(crate) struct ThreadSlot {
    /// The thread's counters (see [`crate::stats`] for the slot model).
    pub stats: Stats,
    /// Whether a [`ThreadCtx`] for this `tid` is live: swapped in by
    /// [`Session::register_thread`], cleared when the context drops. It
    /// keeps the slot's writer unique, and its Release/Acquire pair hands
    /// the counters from one registration to the next.
    live: AtomicBool,
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
    /// The site map every gate consults (see the module docs).
    plan: DomainPlan,
    mode: Mode,
    scheme: Scheme,
    nthreads: u32,
    /// `slots[tid]` for thread `tid`'s gates, plus one last slot for the
    /// session's own out-of-band work (`finish`, commit, dumps).
    slots: Box<[CachePadded<ThreadSlot>]>,
    pub(crate) rec: Option<RecordState>,
    pub(crate) rep: Option<ReplayState>,
    /// The ring of a [`Session::record_with`] or
    /// [`Session::record_flight`] run.
    flight: Option<FlightCtl>,
    /// Invoked (once) on the first replay failure — the divergence trigger
    /// a linked flight recorder's dump hangs off.
    failure_hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    /// Taken by the session slot's writers — `finish`'s residue flush and
    /// [`Session::dump`], which may run concurrently — so that slot, too,
    /// has one writer at a time. Cold: never touched by a gate.
    session_writer: Mutex<()>,
    active: AtomicU32,
    finished: AtomicBool,
    failure: Mutex<Option<String>>,
}

impl Session {
    /// A session whose gates do nothing (baseline `w/o ReOMP`).
    #[must_use]
    pub fn passthrough(nthreads: u32) -> Arc<Session> {
        Arc::new(Session::build(
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

    /// Start a record run with explicit configuration. Its lanes flush
    /// into an in-memory ring that never evicts, and the finished report
    /// carries the bundle.
    #[must_use]
    pub fn record_with(scheme: Scheme, nthreads: u32, cfg: SessionConfig) -> Arc<Session> {
        Arc::new(Session::record_into_ring(
            scheme, nthreads, cfg, UNBOUNDED, None,
        ))
    }

    /// Start a record run that streams its trace into `store` as it runs
    /// (see [`SessionConfig::flush_records`]).
    ///
    /// The trace never has to fit in memory: full per-thread lanes are
    /// appended to the store as self-delimiting chunks, and
    /// [`Session::finish`] commits the store atomically. The finished
    /// report carries the [`IoReport`] instead of an in-memory bundle.
    pub fn record_streaming_with(
        scheme: Scheme,
        nthreads: u32,
        cfg: SessionConfig,
        store: &dyn StreamingTraceStore,
    ) -> Result<Arc<Session>, TraceError> {
        let sink = store.begin_record(Session::record_options(scheme, nthreads, &cfg))?;
        Ok(Arc::new(Session::build(
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
        let window = cfg.flight.unwrap_or(DEFAULT_WINDOW);
        Ok(Arc::new(Session::record_into_ring(
            scheme,
            nthreads,
            cfg,
            window,
            Some(Box::new(store)),
        )))
    }

    /// A record session whose sink is a [`FlightRecorder`] ring of
    /// `window` chunks per stream, dumping into `target` when one is given.
    fn record_into_ring(
        scheme: Scheme,
        nthreads: u32,
        cfg: SessionConfig,
        window: u32,
        target: Option<Box<dyn StreamingTraceStore>>,
    ) -> Session {
        let recorder = Arc::new(FlightRecorder::new(
            Session::record_options(scheme, nthreads, &cfg),
            window,
        ));
        let sink = Box::new(FlightSink::new(Arc::clone(&recorder)));
        let mut session = Session::build(scheme, nthreads, cfg, None, Some(sink));
        session.flight = Some(FlightCtl {
            recorder,
            target,
            dumps: Mutex::new(Vec::new()),
        });
        session
    }

    /// The options a record session's sink is opened with.
    fn record_options(scheme: Scheme, nthreads: u32, cfg: &SessionConfig) -> RecordOptions {
        RecordOptions::new(
            scheme,
            nthreads,
            cfg.plan.as_ref().map_or(1, DomainPlan::domains),
            // Every recording writes the site/kind columns.
            true,
        )
        .with_compression(cfg.compress)
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
    /// a run. The dump is a consistent snapshot when gates are quiescent;
    /// concurrent gated accesses may straddle it. Fails unless the session
    /// was started with [`Session::record_flight`].
    pub fn dump(&self, trigger: DumpTrigger) -> Result<IoReport, TraceError> {
        let (ctl, target) = self
            .flight
            .as_ref()
            .and_then(|ctl| Some((ctl, ctl.target.as_deref()?)))
            .ok_or_else(|| TraceError::Corrupt("session has no flight window to dump".into()))?;
        let rec = self.rec.as_ref().expect("flight runs record");
        if rec.failed.load(Ordering::SeqCst) {
            return Err(TraceError::Corrupt(
                "an earlier lane flush failed; the window is incomplete".into(),
            ));
        }
        let floors = self.flush_residues()?;
        let io = ctl.recorder.dump_into(
            target,
            trigger,
            self.cfg.plan.as_ref(),
            &self.sorted_edges(),
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
    /// site map always comes from the bundle (a trace can only be
    /// replayed under the map it was recorded with), so
    /// [`SessionConfig::plan`] is ignored here. A bundle whose
    /// cross-domain edges admit no order of its accesses is refused: its
    /// replay could only end at the watchdog.
    pub fn replay_with(
        bundle: TraceBundle,
        cfg: SessionConfig,
    ) -> Result<Arc<Session>, TraceError> {
        bundle.validate()?;
        if !bundle.edges.is_empty() && !bundle.linearize().consistent {
            let n = bundle.edges.len();
            return Err(TraceError::Corrupt(format!(
                "the {n} cross-domain edges admit no order"
            )));
        }
        let scheme = bundle.scheme;
        let nthreads = bundle.nthreads;
        Ok(Arc::new(Session::build(
            scheme,
            nthreads,
            cfg,
            Some(bundle),
            None,
        )))
    }

    /// Build a session from the `REOMP_MODE`/`REOMP_SCHEME`/`REOMP_DIR`
    /// environment: a record run streams its trace into the directory
    /// store (or keeps a flight window when `REOMP_FLIGHT` is set), a
    /// replay run loads it from there. Unset or `off` mode yields a
    /// passthrough session.
    pub fn from_env(nthreads: u32) -> Result<Arc<Session>, TraceError> {
        let mode = std::env::var("REOMP_MODE").unwrap_or_else(|_| "off".into());
        let scheme = std::env::var("REOMP_SCHEME")
            .ok()
            .and_then(|s| Scheme::parse(&s))
            .unwrap_or(Scheme::De);
        let mut cfg = SessionConfig::default();
        (cfg.plan, cfg.flight) = env_plan_and_window();
        // Replay watchdog override: seconds, `0` disables the watchdog
        // entirely (oversubscribed CI boxes legitimately exceed the 30 s
        // default on long DE replays).
        if let Some(secs) = std::env::var("REOMP_SPIN_TIMEOUT")
            .ok()
            .and_then(|s| s.parse::<u64>().ok())
        {
            cfg.spin.timeout = (secs > 0).then(|| Duration::from_secs(secs));
        }
        match mode.to_ascii_lowercase().as_str() {
            // A record run persists into `REOMP_DIR`: streamed as it
            // records, or — with a flight window — only when a dump
            // trigger fires.
            "record" if cfg.flight.is_some() => {
                Session::record_flight(scheme, nthreads, cfg, Session::env_store())
            }
            "record" => {
                Session::record_streaming_with(scheme, nthreads, cfg, &Session::env_store())
            }
            "replay" => {
                let (bundle, _) = Session::env_store().load()?;
                Session::replay_with(bundle, cfg)
            }
            _ => Ok(Arc::new(Session::build(scheme, nthreads, cfg, None, None))),
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

    /// The session's mode follows from what it is given: a record sink
    /// (its one sink), a bundle to replay, or neither (passthrough).
    fn build(
        scheme: Scheme,
        nthreads: u32,
        mut cfg: SessionConfig,
        bundle: Option<TraceBundle>,
        sink: Option<Box<dyn RecordSink>>,
    ) -> Session {
        assert!(nthreads > 0, "a session needs at least one thread");
        let mode = match (&sink, &bundle) {
            (Some(_), _) => Mode::Record,
            (None, Some(_)) => Mode::Replay,
            (None, None) => Mode::Passthrough,
        };
        // The ≥ 1 clamp lives here, once, so every consumer — the ST
        // steal, the lane flush — sees the same value and the record/flush
        // paths cannot disagree.
        cfg.flush_records = cfg.flush_records.max(1);
        // A trace replays under exactly the site map it was recorded with.
        let plan = match &bundle {
            Some(bundle) => bundle.partition(),
            None => cfg.plan.clone().unwrap_or_default(),
        };
        let domains = plan.domains();
        // The scheme chooses the admission: ST records under `L` (a ticket
        // doubles its contended cost, EXPERIMENTS.md "Record admission per
        // scheme"), DC/DE through the ticket gate.
        let clocked = scheme != Scheme::St;
        let rec = sink.map(|sink| RecordState {
            domains: (0..domains)
                .map(|_| DomainRecord {
                    ticket: clocked.then(TicketGate::new),
                    gate: RawLocked::new(RecCore::new(
                        (scheme == Scheme::De).then(|| EpochTracker::new(cfg.epoch_policy, 0)),
                        (scheme == Scheme::St).then(|| StBuilder {
                            tids: Vec::new(),
                            sites: Vec::new(),
                            kinds: Vec::new(),
                        }),
                    )),
                    lanes: (0..nthreads).map(|_| CachePadded::default()).collect(),
                    published: AtomicU64::new(0),
                })
                .collect(),
            sink: RwLock::new(Some(sink)),
            st_order: (0..domains)
                .map(|_| Mutex::new(vec![[0; 8]; nthreads as usize]))
                .collect(),
            failed: AtomicBool::new(false),
            error: Mutex::new(None),
            edges: Mutex::new(Vec::new()),
        });
        let rep = bundle.map(|bundle| {
            // Each anchor goes to the stream it is counted in: ST keys
            // name the domain's shared stream (thread 0), DC/DE keys a
            // thread's lane. `validate` bounded every key.
            let st = bundle.is_st();
            let streams = if st { 1 } else { nthreads };
            let mut anchors: Vec<Vec<Anchor>> = vec![Vec::new(); (domains * streams) as usize];
            for ((dom, tid, seq), waits) in bundle.edge_index() {
                anchors[(dom * streams + tid) as usize].push((seq, waits));
            }
            let mut anchors = anchors.into_iter().map(Anchors::new);
            // Streams are built domain-major, each domain's in tid order.
            let mut take = |owns: bool| {
                if owns {
                    anchors.next().expect("one anchor list per stream")
                } else {
                    Anchors::new(Vec::new())
                }
            };
            ReplayState {
                domains: (0..domains)
                    .map(|dom| DomainReplay {
                        // Windowed (flight-recorder) bundles start each
                        // domain's completed-access count at the checkpointed
                        // base; full traces start at 0 as always.
                        turnstile: CachePadded(Turnstile::starting_at(bundle.clock_base(dom))),
                        st: CachePadded(StTurn {
                            baton: BatonLock::new(),
                            st_pos: AtomicUsize::new(0),
                            next_tid: AtomicU32::new(TID_NONE),
                            next_site: AtomicU64::new(0),
                            next_kind: AtomicU32::new(0),
                            anchors: take(st),
                        }),
                        lanes: (0..nthreads)
                            .map(|_| {
                                CachePadded(ReplayLane {
                                    cursor: AtomicUsize::new(0),
                                    anchors: take(!st),
                                })
                            })
                            .collect(),
                    })
                    .collect(),
                bundle,
            }
        });
        Session {
            slots: (0..=nthreads).map(|_| CachePadded::default()).collect(),
            cfg,
            plan,
            mode,
            scheme,
            nthreads,
            rec,
            rep,
            flight: None,
            failure_hook: Mutex::new(None),
            session_writer: Mutex::new(()),
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
        self.plan.domains()
    }

    /// The configuration the session runs with (what
    /// [`Session::from_env`] read, for one).
    #[must_use]
    pub fn config(&self) -> &SessionConfig {
        &self.cfg
    }

    /// The session's site map: whether a site is gated, and which domain
    /// orders it. Record and replay of one trace compute it identically.
    #[must_use]
    pub fn plan(&self) -> &DomainPlan {
        &self.plan
    }

    /// Live statistics snapshot: every thread's slot and the session's
    /// own, summed, with the counts read back from the records. Callable
    /// while workers are gating; each counter is then some value it held
    /// during the call, with two exceptions. On an ST recording the call
    /// takes each domain's `L` and then its chunk-order lock, so it waits
    /// out a batch append in flight, and that domain's gates wait with
    /// it. On an ST replay `gates` and `records_read` can run one ahead
    /// while a baton reader is between storing the stream position and
    /// publishing the turn, and step back at the next call.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.snapshots().1
    }

    /// Every thread's counters — its slot and its [`Session::gate_counts`]
    /// — their sum with the session slot's, and the gates per domain.
    fn snapshots(&self) -> (Vec<StatsSnapshot>, StatsSnapshot, Vec<u64>) {
        let GateCounts {
            mut threads,
            domains,
        } = self.gate_counts();
        let mut total = self.session_stats().snapshot();
        for (s, slot) in threads.iter_mut().zip(self.slots.iter()) {
            s.absorb(&slot.stats.snapshot());
            match self.mode {
                Mode::Record => s.records_written = s.gates,
                // One `next_clock++` or baton release per admitted gate.
                Mode::Replay => (s.records_read, s.comms) = (s.gates, s.comms + s.gates),
                Mode::Passthrough => {}
            }
            total.absorb(s);
        }
        (threads, total, domains)
    }

    /// The gate counts the run's records hold (see [`crate::stats`]).
    fn gate_counts(&self) -> GateCounts {
        if let Some(rep) = &self.rep {
            return GateCounts::of_prefixes(&rep.bundle, |dom, stream| {
                let d = &rep.domains[dom as usize];
                if !rep.bundle.is_st() {
                    // ORDERING: owner-written, read as `replay_history`
                    // reads it; `finish` runs after every context dropped.
                    return d.lanes[stream as usize].cursor.load(Ordering::Relaxed);
                }
                // A turn still published (its gate diverged, or is in its
                // region) is not admitted yet. The turn is read again after
                // the position, so the two are from one moment unless a
                // baton reader stored the position between them and has not
                // yet published its turn: then the count runs one ahead.
                loop {
                    // ORDERING: Acquire pairs with the reader's Release
                    // publish, which follows its `st_pos` store, so a
                    // published turn has its position; the Acquire load of
                    // `st_pos` keeps the second read of the turn after it.
                    let turn = d.st.next_tid.load(Ordering::Acquire);
                    let pos = d.st.st_pos.load(Ordering::Acquire);
                    if d.st.next_tid.load(Ordering::Acquire) == turn {
                        return pos.saturating_sub(usize::from(turn < self.nthreads));
                    }
                }
            });
        }
        let mut counts = GateCounts::new(self.nthreads, self.domains());
        let Some(rec) = &self.rec else {
            return counts;
        };
        for (dom, drec) in (0..).zip(rec.domains.iter()) {
            if self.scheme == Scheme::St {
                // `L`, then the chunk-order lock, as a gate takes them: a
                // batch is in the builder or in the tally.
                drec.pause(|core| {
                    let mut rows = rec.st_order[dom as usize].lock().clone();
                    let builder = core.st.as_ref().expect("st builder");
                    count_st(&mut rows, &builder.tids, &builder.kinds);
                    for (tid, row) in rows.iter().enumerate() {
                        counts.add(dom, tid, row, false);
                    }
                });
                continue;
            }
            for (tid, lane) in drec.lanes.iter().enumerate() {
                let mut drained = lane.drained.lock();
                let mut row = *drained.flushed;
                for e in lane.live(&mut drained).iter() {
                    row[usize::from(e.kind).min(7)] += 1;
                }
                counts.add(dom, tid, &row, false);
            }
        }
        for e in rec.edges.lock().iter() {
            counts.threads[e.thread as usize].sync_edges += 1;
        }
        counts
    }

    /// Thread `tid`'s counter slot — what its gates bump.
    #[inline]
    pub(crate) fn thread_stats(&self, tid: u32) -> &Stats {
        &self.slots[tid as usize].stats
    }

    /// The session's own counter slot, for work no thread context owns
    /// (`finish`, the sink commit, flight dumps). Its writers hold
    /// `session_writer`.
    fn session_stats(&self) -> &Stats {
        &self.slots[self.nthreads as usize].stats
    }

    /// Register the calling thread as `tid` (0-based, `< nthreads`).
    ///
    /// The returned context is the handle through which the thread passes
    /// gates. A `tid` may be re-registered in a later parallel region after
    /// the previous context was dropped, on any OS thread; cursors, clocks
    /// and counters persist across regions.
    ///
    /// # Panics
    /// Panics when `tid >= nthreads`, when the session has finished, and
    /// when `tid` still has a live context: each thread's lanes and
    /// counters have one writer at a time (see [`crate::stats`]).
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
        // Acquire: the previous context's last counter stores (its drop
        // cleared the flag with Release) come before this one's first.
        assert!(
            !self.slots[tid as usize].live.swap(true, Ordering::AcqRel),
            "tid {tid} already has a live ThreadCtx"
        );
        self.active.fetch_add(1, Ordering::SeqCst);
        ThreadCtx {
            session: Arc::clone(self),
            tid,
            _one_writer: PhantomData,
        }
    }

    /// Snapshot every domain's published completion count (record mode,
    /// multi-domain). Index `d` is domain `d`'s count.
    pub(crate) fn snapshot_domain_counts(&self) -> Option<Vec<u64>> {
        let rec = self.rec.as_ref()?;
        if self.domains() <= 1 {
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

    /// Whether `tid` has an unconsumed barrier snapshot: one load of a
    /// flag on the thread's own line, no lock (only `tid` itself sets or
    /// takes its snapshot).
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
        }
    }

    /// Enforce the stream's next cross-domain edge, which
    /// [`Anchors::due`] says anchors at the gating access: wait until every
    /// listed foreign domain's turnstile reaches its stamped count, then
    /// move the stream's cursor to its next anchor. A failed wait leaves
    /// the cursor in place, so a retried access waits again.
    #[cold]
    #[inline(never)]
    pub(crate) fn wait_edges(
        &self,
        anchors: &Anchors,
        tid: u32,
        site: SiteId,
    ) -> Result<(), ReplayError> {
        let rep = self.rep.as_ref().expect("replay mode");
        // ORDERING: the cursor is the gate-holder's own (see `Anchors`).
        let next = anchors.next.load(Ordering::Relaxed);
        let stats = self.thread_stats(tid);
        for &(j, count) in &anchors.list[next].1 {
            stats.bump_edge_wait();
            rep.domains[j as usize].turnstile.wait_at_least(
                count,
                tid,
                site,
                &self.cfg.spin,
                stats,
            )?;
        }
        let due = anchors.list.get(next + 1).map_or(u64::MAX, |a| a.0);
        // ORDERING: as above; the next holder is ordered after this one by
        // the stream's admission.
        anchors.next.store(next + 1, Ordering::Relaxed);
        // ORDERING: as above.
        anchors.due.store(due, Ordering::Relaxed);
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
    #[cold]
    #[inline(never)]
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

    /// The last `ring_capacity` accesses domain `dom` admitted, newest
    /// first (for divergence reports), read back from the trace: ST's are
    /// the shared stream below `st_seq`, the record being validated (every
    /// record below it was admitted in stream order); a DC/DE thread's are
    /// its stream below its cursor, which advances only on admission. The
    /// lanes' windows are merged by [`newest_first`]. Records without
    /// validation columns have no site or kind to report and are skipped;
    /// a recording always writes the columns.
    pub(crate) fn replay_history(&self, dom: u32, st_seq: u64) -> Vec<AccessRecord> {
        let cap = self.cfg.ring_capacity;
        let Some(rep) = self.rep.as_ref().filter(|_| cap > 0) else {
            return Vec::new();
        };
        let access = |clock, site: Option<SiteId>, kind: Option<AccessKind>, thread| {
            Some(AccessRecord {
                clock,
                site: site?,
                kind: kind?,
                thread,
            })
        };
        let mut recent = Vec::new();
        if let Some(st) = rep.bundle.st_stream(dom) {
            let end = st_seq as usize;
            recent.extend(
                (end.saturating_sub(cap)..end)
                    .rev()
                    .filter_map(|p| access(p as u64, st.site_at(p), st.kind_at(p), st.tids[p])),
            );
        } else {
            for (tid, lane) in (0..).zip(rep.domains[dom as usize].lanes.iter()) {
                let trace = rep.bundle.thread(dom, tid);
                // ORDERING: another thread's cursor only grows and the
                // trace below it is immutable, so any value read names
                // records that thread really was admitted for.
                let end = lane.cursor.load(Ordering::Relaxed);
                recent.extend((end.saturating_sub(cap)..end).rev().filter_map(|p| {
                    access(trace.values[p], trace.site_at(p), trace.kind_at(p), tid)
                }));
            }
        }
        newest_first(recent, cap)
    }

    /// Finish the run and produce the final report. A record run flushes
    /// its residue into its sink, stamps the domain plan and the edges,
    /// and commits the sink; a buffered run's ring then becomes the
    /// report's bundle. All [`ThreadCtx`]s must have been dropped.
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
        if self.mode == Mode::Record {
            let committed = self.commit().map_err(FinishError::Stream)?;
            match self.flight.as_ref().filter(|ctl| ctl.target.is_none()) {
                Some(ctl) => {
                    let buffered = ctl.recorder.take_bundle();
                    debug_assert!(buffered.validate().is_ok(), "buffered bundle is consistent");
                    bundle = Some(buffered);
                }
                None => io = Some(committed),
            }
        }
        let (thread_stats, stats, domain_gates) = self.snapshots();
        let fully_consumed =
            (self.rep.as_ref()).map(|rep| stats.records_read == rep.bundle.total_records());
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

    /// Flush everything still buffered in the session into its sink: the
    /// shared ST builders and the per-thread lanes, fix-ups applied.
    /// Returns DE's per-domain clock floors (empty for ST/DC) — the
    /// epoch-floor provenance a flight-recorder dump checkpoints.
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
            }
            // ST: steal what the shared builder still holds, taking the
            // chunk-order lock before `L` is released, as a gate does.
            // A panic hook's dump on the thread whose append of a stolen
            // batch panicked leaves the builder to a later flush: it holds
            // the chunk-order lock, and would wait for itself.
            let order = &rec.st_order[dom as usize];
            if self.scheme == Scheme::St && !OrderTurn::held_here(order) {
                let (mut turn, (tids, sites, kinds)) = drec.pause(|core| {
                    let b = core.st.as_mut().expect("st builder");
                    let batch = (
                        std::mem::take(&mut b.tids),
                        std::mem::take(&mut b.sites),
                        std::mem::take(&mut b.kinds),
                    );
                    (OrderTurn::take(order), batch)
                });
                if !tids.is_empty() {
                    turn.count(&tids, &kinds);
                    self.append_st_chunk(dom, &tids, &sites, &kinds, self.nthreads)?;
                }
            }
            // Per-thread residues. The owner keeps appending meanwhile;
            // this drain takes what it has published.
            for (tid, lane) in (0..).zip(drec.lanes.iter()) {
                let mut drained = lane.drained.lock();
                self.drain_lane(dom, tid, &mut drained, <[RecEntry]>::len, self.nthreads)?;
            }
        }
        Ok(floors)
    }

    /// Flush all residual records into the sink, stamp the domain plan and
    /// the collected cross-domain edges, and commit the sink (a store
    /// writes its manifest last).
    fn commit(&self) -> Result<IoReport, TraceError> {
        let rec = self.rec.as_ref().expect("record state");
        // Surface a mid-run flush failure instead of committing a trace
        // with holes in it.
        if let Some(e) = rec.error.lock().take() {
            return Err(e);
        }
        self.flush_residues()?;
        self.with_sink(|sink| {
            if let Some(plan) = &self.cfg.plan {
                sink.put_plan(plan)?;
            }
            let edges = self.sorted_edges();
            if edges.is_empty() {
                Ok(())
            } else {
                sink.append_edges(&edges)
            }
        })?;
        let sink = rec.sink.write().take().ok_or_else(sink_committed)?;
        sink.commit(self.gate_counts().threads.iter().map(|t| t.gates).sum())
    }

    /// Run `f` on the session's sink, unless it was committed already.
    fn with_sink<R>(
        &self,
        f: impl FnOnce(&dyn RecordSink) -> Result<R, TraceError>,
    ) -> Result<R, TraceError> {
        let rec = self.rec.as_ref().expect("record state");
        let guard = rec.sink.read();
        f(guard.as_deref().ok_or_else(sink_committed)?)
    }

    /// Count one appended chunk of `bytes` in counter slot `slot`: a
    /// thread's (`tid`), or the session's own (`nthreads`), whose writers —
    /// `finish` and dumps, which may run concurrently — take turns on
    /// `session_writer`.
    fn count_chunk(&self, slot: u32, bytes: u64) {
        let _turn = (slot == self.nthreads).then(|| self.session_writer.lock());
        let stats = &self.slots[slot as usize].stats;
        stats.add_io_written(bytes);
        stats.bump_chunk_flush();
    }

    /// Drain the oldest `cut(live)` live entries of thread `tid`'s lane in
    /// domain `dom` — whose cold lock `drained` is — into the sink as one
    /// chunk, fix-ups applied, and count them in the lane's tally and the
    /// chunk in counter slot `slot`. The cold lock stays held across the
    /// append: the owner's flush and a dump may drain one lane
    /// concurrently, and two drained batches must reach the stream in the
    /// order they were drained.
    fn drain_lane(
        &self,
        dom: u32,
        tid: u32,
        drained: &mut MutexGuard<'_, Drained>,
        cut: impl FnOnce(&[RecEntry]) -> usize,
        slot: u32,
    ) -> Result<(), TraceError> {
        let lane =
            &self.rec.as_ref().expect("record state").domains[dom as usize].lanes[tid as usize];
        let live = lane.live(drained);
        let cut = cut(live);
        if cut == 0 {
            return Ok(());
        }
        lane.apply_fixups(live);
        let entries = &live[..cut];
        let values: Vec<u64> = entries.iter().map(|e| e.value).collect();
        let sites: Vec<u64> = entries.iter().map(|e| e.site).collect();
        let kinds: Vec<u8> = entries.iter().map(|e| e.kind).collect();
        let bytes = self.with_sink(|sink| {
            sink.append_thread_chunk(dom, tid, &values, Some(&sites), Some(&kinds))
        })?;
        self.count_chunk(slot, bytes);
        drained.taken += cut;
        add_to(&mut drained.flushed, &kind_counts(&kinds));
        Ok(())
    }

    /// Append one chunk of a domain's shared ST stream, counted in
    /// counter slot `slot`.
    #[cold]
    pub(crate) fn append_st_chunk(
        &self,
        dom: u32,
        tids: &[u32],
        sites: &[u64],
        kinds: &[u8],
        slot: u32,
    ) -> Result<(), TraceError> {
        let bytes =
            self.with_sink(|sink| sink.append_st_chunk(dom, tids, Some(sites), Some(kinds)))?;
        self.count_chunk(slot, bytes);
        Ok(())
    }

    /// The lane flush, run by thread `tid` when the gate that just
    /// appended to its lane in domain `dom` found the lane's length at the
    /// flush threshold: under the lane's cold lock, persist the lane's
    /// stable prefix as one chunk and compact the rest to the front.
    /// `floor` is what that gate read under its own admission — DE's
    /// oldest pending store, `u64::MAX` when nothing can change — so every
    /// entry below it is final once the mailbox is drained. Failures are
    /// latched and surfaced at `finish`.
    #[cold]
    #[inline(never)]
    pub(crate) fn flush_lane(&self, dom: u32, tid: u32, floor: u64) {
        let rec = self.rec.as_ref().expect("record state");
        // ORDERING: `failed` is a sticky go/no-go hint; a stale `false`
        // only means one more flush attempt whose error is latched again
        // under `error`'s mutex, and a stale `true` skips work that would
        // be discarded anyway. Nothing is published through this flag.
        if rec.failed.load(Ordering::Relaxed) {
            return;
        }
        let lane = &rec.domains[dom as usize].lanes[tid as usize];
        let mut drained = lane.drained.lock();
        // The threshold counts *stable* entries: a DE store still pending
        // (at or above the floor) is not yet part of any chunk, so chunk
        // boundaries do not depend on when provisional entries arrive.
        let stable = |live: &[RecEntry]| {
            let cut = live.partition_point(|e| e.clock < floor);
            if cut >= self.cfg.flush_records {
                cut
            } else {
                0
            }
        };
        if let Err(e) = self.drain_lane(dom, tid, &mut drained, stable, tid) {
            rec.record_failure(e);
        }
        lane.compact(&mut drained);
    }

    /// The cross-domain edges collected so far (they stay collected), in
    /// deterministic order.
    fn sorted_edges(&self) -> Vec<CrossDomainEdge> {
        let rec = self.rec.as_ref().expect("record state");
        let mut edges = rec.edges.lock().clone();
        edges.sort_by_key(|e| (e.domain, e.thread, e.seq));
        edges
    }
}

/// The error of an append or stamp after the sink was committed.
fn sink_committed() -> TraceError {
    TraceError::Corrupt("record sink already committed".into())
}

impl std::fmt::Debug for Session {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Session")
            .field("mode", &self.mode)
            .field("scheme", &self.scheme)
            .field("nthreads", &self.nthreads)
            .field("domains", &self.domains())
            .finish_non_exhaustive()
    }
}

/// Chain the process panic hook so a panic dumps `session`'s flight
/// recorder (trigger [`DumpTrigger::Panic`]) before the previous hook
/// runs. Holds only a weak reference; once the session is gone the hook
/// falls through to the previous one. A panic *inside* a gated region
/// dumps the window as it stood when the region was entered — its thread
/// holds that domain's admission, so the dump reads the domain without
/// waiting for it — and the panicking access is recorded after the dump,
/// when its gate releases during the unwind.
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
///
/// `Send` but not `Sync`: it may move to another thread, but two threads
/// cannot gate through one context at once — its thread's lanes and
/// counters have one writer at a time.
#[derive(Debug)]
pub struct ThreadCtx {
    session: Arc<Session>,
    tid: u32,
    _one_writer: PhantomData<Cell<()>>,
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
    /// waiters are released either way. If `f` panics, the gate still
    /// exits — recording the access, or handing replay on to its
    /// successor — before the panic resumes.
    pub fn try_gate_at<R>(
        &self,
        site: SiteId,
        addr: u64,
        kind: AccessKind,
        f: impl FnOnce() -> R,
    ) -> Result<R, ReplayError> {
        let session = &*self.session;
        match (session.mode, session.plan.route(site)) {
            (Mode::Record, Some(dom)) => {
                let (drec, outer) = gate::record_in(session, dom, self.tid);
                Ok(gate::exit_after(f, || {
                    gate::record_out(session, drec, dom, self.tid, (site, addr, kind), outer)
                }))
            }
            (Mode::Replay, Some(dom)) => {
                if let Err(e) = gate::replay_in(session, dom, self.tid, site, kind) {
                    session.fail(&e);
                    return Err(e);
                }
                Ok(gate::exit_after(f, || {
                    gate::replay_out(session, dom, self.tid)
                }))
            }
            // Passthrough, and a site the plan leaves ungated, run
            // untouched.
            _ => Ok(f()),
        }
    }
}

impl Drop for ThreadCtx {
    fn drop(&mut self) {
        // Release: hands this context's counters to the next registration.
        self.session.slots[self.tid as usize]
            .live
            .store(false, Ordering::Release);
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
    /// The same counters per thread (index = `tid`): its passages and
    /// records, and what its own gates counted — the waits *it* sat
    /// through. What `finish`/commit/dumps did on no thread's behalf (the
    /// residue chunks) is in `stats` only. This is the hook per-thread wait
    /// attribution builds on.
    pub thread_stats: Vec<StatsSnapshot>,
    /// Admitted gate passages per gate domain, read back from its record
    /// streams (empty for single-domain sessions; else it sums to
    /// `stats.gates`). A lopsided breakdown means the site→domain
    /// partition is not spreading the load.
    pub domain_gates: Vec<u64>,
    /// The recorded trace (buffered record runs only; a streaming or
    /// flight run's trace lives in its store or ring).
    pub bundle: Option<TraceBundle>,
    /// I/O totals of the committed trace (streaming and flight record
    /// runs only).
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
        // The closure ran, and a passthrough gate counts nothing.
        assert_eq!(report.stats, StatsSnapshot::default());
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
        assert_eq!(s.domains(), 4);
        assert_eq!(s.cfg.spin.timeout, Some(Duration::from_secs(120)));

        // 0 disables the watchdog entirely (oversubscribed-CI escape hatch).
        std::env::set_var("REOMP_SPIN_TIMEOUT", "0");
        let s = Session::from_env(2).unwrap();
        assert_eq!(s.cfg.spin.timeout, None);

        // Garbage values fall back to the defaults. (`REOMP_DOMAINS`'s
        // degenerate values: `tests/site_map.rs`.)
        std::env::set_var("REOMP_SPIN_TIMEOUT", "soon");
        let s = Session::from_env(2).unwrap();
        assert_eq!(s.cfg.spin.timeout, SpinConfig::default().timeout);

        std::env::remove_var("REOMP_DOMAINS");
        std::env::remove_var("REOMP_SPIN_TIMEOUT");
    }

    #[test]
    fn domain_partition_is_stable_and_total() {
        let cfg = SessionConfig {
            plan: Some(DomainPlan::new(4)),
            ..Default::default()
        };
        let s = Session::record_with(Scheme::Dc, 1, cfg);
        assert_eq!(s.domains(), 4);
        for raw in 0..64u64 {
            let site = SiteId(raw);
            let dom = s.plan().domain_of(site);
            assert!(dom < 4);
            assert_eq!(
                dom,
                s.plan().domain_of(site),
                "partition must be a function"
            );
        }
        // D = 1 (and the clamped 0) always map to domain 0.
        let s = Session::record_with(
            Scheme::Dc,
            1,
            SessionConfig {
                plan: Some(DomainPlan::new(0)),
                ..Default::default()
            },
        );
        assert_eq!(s.domains(), 1, "domain count clamps to >= 1");
        assert_eq!(s.plan().domain_of(SiteId(u64::MAX)), 0);
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
        assert_eq!(s.plan().domain_of(a), 1);
        assert_eq!(s.plan().domain_of(b), 0);
        assert_eq!(s.plan(), &plan);
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
        assert_eq!(replay.plan().domain_of(a), 1);
        assert_eq!(replay.plan().domain_of(b), 0);
    }

    #[test]
    fn multi_domain_record_produces_per_domain_streams() {
        let plan = DomainPlan::with_assignments(2, [(SiteId(2), 0), (SiteId(3), 1)]);
        let cfg = SessionConfig {
            plan: Some(plan),
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
        padded::<CachePadded<ReplayLane>>("replay lane");
        // ST's five turn words fit one 64-byte line.
        assert!(size_of::<StTurn>() <= 64, "StTurn spans more than a line");

        // The `CACHE_LINE` blocks `x` occupies.
        fn blocks<T>(x: &T) -> std::ops::RangeInclusive<usize> {
            let start = x as *const T as usize;
            start / CACHE_LINE..=(start + size_of::<T>() - 1) / CACHE_LINE
        }
        // Neighbours in the actual containers are at least a line apart.
        fn apart<T>(a: &T, b: &T) -> bool {
            (a as *const T as usize).abs_diff(b as *const T as usize) >= CACHE_LINE
        }
        let cfg = SessionConfig {
            plan: Some(DomainPlan::new(2)),
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
        // The words the owner writes on every append — the storage header,
        // the published length, `seq` — sit on the lane's own line.
        assert!(
            size_of::<RecordLane>() <= CACHE_LINE,
            "RecordLane spans a line"
        );
        for lane in rec.domains.iter().flat_map(|d| d.lanes.iter()) {
            let line = blocks(&**lane);
            assert_eq!(blocks(&lane.slots), line);
            assert_eq!(blocks(&lane.len), line);
            assert_eq!(blocks(&lane.seq), line);
        }
        // The ticket gate's two words share one 64-byte line.
        assert!(
            size_of::<TicketGate>() <= 64,
            "TicketGate spans more than a line"
        );
        for d in rec.domains.iter() {
            let ticket = d.ticket.as_ref().expect("DC builds a ticket gate");
            let start = ticket as *const TicketGate as usize;
            assert_eq!(start / 64, (start + size_of::<TicketGate>() - 1) / 64);
        }
        let c0 = s.register_thread(0);
        c0.gate(SiteId(2), AccessKind::Store, || ());
        drop(c0);
        let replay = Session::replay(s.finish().unwrap().bundle.unwrap()).unwrap();
        let rep = replay.rep.as_ref().unwrap();
        assert!(apart(&rep.domains[0], &rep.domains[1]));
        fn disjoint<A, B>(a: &A, b: &B) -> bool {
            let (a, b) = (blocks(a), blocks(b));
            a.end() < b.start() || b.end() < a.start()
        }
        for d in rep.domains.iter() {
            // The turnstile the DC/DE waiters spin on shares no line with
            // the ST turn words or with any thread's lane.
            let turnstile: &Turnstile = &d.turnstile;
            assert!(disjoint(turnstile, &*d.st));
            for lane in d.lanes.iter() {
                assert!(disjoint(turnstile, &**lane));
                assert!(disjoint(&*d.st, &**lane));
            }
            assert!(apart(&d.lanes[0], &d.lanes[1]));
        }
        assert!(apart(&rep.domains[0].lanes[0], &rep.domains[1].lanes[1]));
    }

    #[test]
    fn a_tid_has_one_live_context_at_a_time() {
        const PER_HOP: u64 = 5_000;
        const HOPS: u64 = 6;
        let s = Session::record(Scheme::Dc, 2);
        let ctx = s.register_thread(0);
        let second =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| s.register_thread(0)));
        assert!(
            second.is_err(),
            "a second live context for tid 0 is refused"
        );
        drop(s.register_thread(1));
        for _ in 0..PER_HOP {
            ctx.gate(SiteId(0), AccessKind::Load, || ());
        }
        drop(ctx);
        // The tid hops across OS threads, one registration at a time: the
        // counts each context leaves behind are where the next one finds
        // them.
        for _ in 1..HOPS {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let ctx = s.register_thread(0);
                for _ in 0..PER_HOP {
                    ctx.gate(SiteId(0), AccessKind::Store, || ());
                }
            })
            .join()
            .unwrap();
        }
        let report = s.finish().unwrap();
        let t0 = &report.thread_stats[0];
        assert_eq!(t0.gates, HOPS * PER_HOP);
        assert_eq!(t0.records_written, HOPS * PER_HOP);
        assert_eq!(t0.gates_of(AccessKind::Load), PER_HOP);
        assert_eq!(report.stats.gates, HOPS * PER_HOP);
    }

    #[test]
    fn reregistered_tid_accumulates_and_live_stats_are_monotone() {
        const FIRST: u64 = 20_000;
        const SECOND: u64 = 300;
        // ST's gates steal full builders meanwhile, so its tally and
        // builder are read while they move.
        for scheme in Scheme::ALL {
            let s = Session::record(scheme, 2);
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
                    plan: Some(DomainPlan::new(domains)),
                    ..Default::default()
                };
                let s = Session::record_with(scheme, 2, cfg.clone());
                run(&s);
                let bundle = s.finish().unwrap().bundle.unwrap();
                assert_eq!(bundle.domains, domains);

                let store = MemStore::new();
                let cfg = SessionConfig {
                    flush_records: 4,
                    plan: Some(DomainPlan::new(domains)),
                    ..Default::default()
                };
                let s = Session::record_streaming_with(scheme, 2, cfg, &store).unwrap();
                run(&s);
                let report = s.finish().unwrap();
                assert!(report.bundle.is_none(), "streaming keeps no bundle");
                let io = report.io.expect("streaming report carries io totals");
                assert!(io.chunks > 0, "{scheme:?}/{domains}");
                // Every run flushes chunks, several per stream at D = 1,
                // and the manifest counts — `load` checks it — every record.
                let flushes = if domains > 1 { 1 } else { 6 };
                assert!(
                    report.stats.chunk_flushes >= flushes,
                    "{scheme:?}/{domains}"
                );
                let (loaded, _) = store.load().unwrap();
                assert_eq!(loaded.total_records(), report.stats.records_written);
                assert_eq!(loaded, bundle, "{scheme:?}/{domains}: streamed ≡ one-shot");
            }
        }
    }

    #[test]
    fn buffered_lanes_stay_bounded_and_flush_into_the_same_bundle() {
        const GATES: usize = 10_000;
        const FLUSH: usize = 64;
        // Three threads take turns on two sites in blocks of six stores
        // (cross-thread store runs, so DE posts fix-ups) and six loads.
        let run = |scheme: Scheme, flush_records: usize| {
            let cfg = SessionConfig {
                flush_records,
                ..Default::default()
            };
            let s = Session::record_with(scheme, 3, cfg);
            let ctxs: Vec<_> = (0..3).map(|t| s.register_thread(t)).collect();
            let lanes = &s.rec.as_ref().unwrap().domains[0].lanes;
            let mut peak = 0;
            for i in 0..GATES {
                let kind = [AccessKind::Store, AccessKind::Load][i / 6 % 2];
                ctxs[i % 3].gate(SiteId(1 + (i / 12 % 2) as u64), kind, || ());
                peak = lanes
                    .iter()
                    .map(|l| l.live(&mut l.drained.lock()).len())
                    .fold(peak, usize::max);
            }
            drop(ctxs);
            (s.finish().unwrap(), peak)
        };
        for scheme in [Scheme::Dc, Scheme::De] {
            let (bounded, peak) = run(scheme, FLUSH);
            assert!(peak <= FLUSH, "{scheme:?}: a lane held {peak} entries");
            let (whole, _) = run(scheme, usize::MAX);
            assert_eq!(bounded.bundle, whole.bundle, "{scheme:?}");
            assert_eq!(bounded.bundle.unwrap().total_records(), GATES as u64);
            assert!(bounded.stats.chunk_flushes > whole.stats.chunk_flushes);
            if scheme == Scheme::De {
                assert!(
                    bounded.stats.deferred_finalizations > 0,
                    "fix-ups exercised"
                );
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
    fn mid_run_dumps_leave_the_recorded_bundle_unchanged() {
        // Three threads take turns on store runs that cross threads (so
        // DE posts fix-ups into lanes that have not flushed them yet) and
        // loads that end each run. Dumping at two points where no store
        // is pending drains every lane from a foreign thread mid-run; the
        // final window must equal the one of the same run without them.
        let x = SiteId(0xfeed);
        let run = |flush_records: usize, dump_at: &[usize]| {
            let dir = flight_dir(&format!("dumps-{flush_records}-{}", dump_at.len()));
            let store = DirStore::new(&dir);
            let cfg = SessionConfig {
                flight: Some(1 << 16),
                flush_records,
                ..Default::default()
            };
            let s = Session::record_flight(Scheme::De, 3, cfg, DirStore::new(&dir)).unwrap();
            let ctxs: Vec<_> = (0..3).map(|t| s.register_thread(t)).collect();
            for round in 0..12 {
                for (i, ctx) in ctxs.iter().enumerate().take(1 + round % 3) {
                    ctx.gate(x, AccessKind::Store, || ());
                    ctxs[(i + round) % 3].gate(x, AccessKind::Store, || ());
                }
                ctxs[round % 3].gate(x, AccessKind::Load, || ());
                if dump_at.contains(&round) {
                    s.dump(DumpTrigger::Manual).unwrap();
                }
            }
            drop(ctxs);
            s.dump(DumpTrigger::Manual).unwrap();
            let report = s.finish().unwrap();
            assert!(report.stats.deferred_finalizations > 0, "fix-ups exercised");
            let (bundle, _) = store.load().unwrap();
            bundle.validate().unwrap();
            let _ = std::fs::remove_dir_all(&dir);
            bundle
        };
        for flush_records in [2, 64] {
            let quiet = run(flush_records, &[]);
            let dumped = run(flush_records, &[3, 7]);
            assert_eq!(quiet.total_records(), dumped.total_records());
            for tid in 0..3 {
                assert_eq!(
                    quiet.thread(0, tid).values,
                    dumped.thread(0, tid).values,
                    "flush_records {flush_records}, thread {tid}"
                );
            }
            assert_eq!(quiet, dumped, "flush_records {flush_records}");
        }
    }

    /// Recording always writes the site/kind columns, but a trace without
    /// them (an older file, or one stripped on purpose) still persists in
    /// chunks and replays, unvalidated.
    #[test]
    fn chunked_bundle_without_columns_replays_unvalidated() {
        use crate::store::{MemStore, StreamingTraceStore, TraceStore};
        let s = Session::record(Scheme::Dc, 1);
        let ctx = s.register_thread(0);
        for _ in 0..7 {
            ctx.gate(SiteId(9), AccessKind::Load, || ());
        }
        drop(ctx);
        let mut bundle = s.finish().unwrap().bundle.unwrap();
        assert!(bundle.has_validation());
        bundle.threads[0].sites = None;
        bundle.threads[0].kinds = None;

        let store = MemStore::new();
        store.save_chunked(&bundle, 2).unwrap();
        let (loaded, _) = store.load().unwrap();
        assert_eq!(loaded, bundle);
        assert_eq!(loaded.threads[0].sites, None);

        // Another site than recorded: with the columns this diverges.
        let s = Session::replay(loaded).unwrap();
        let ctx = s.register_thread(0);
        for _ in 0..7 {
            ctx.try_gate(SiteId(10), AccessKind::Store, || ()).unwrap();
        }
        drop(ctx);
        let report = s.finish().unwrap();
        assert_eq!(report.fully_consumed, Some(true));
        assert_eq!(report.stats.records_read, 7);
        assert_eq!(report.stats.validate_checks, 0);
    }

    /// A panic in the append of a batch a gate stole from the ST builder,
    /// under `install_panic_dump`: the hook's dump runs on the thread that
    /// holds the chunk-order lock, so it leaves the builder to a later
    /// flush instead of waiting for that lock.
    #[test]
    fn panic_in_a_stolen_append_dumps_without_waiting_for_itself() {
        use crate::flight::FlightSink;
        /// A flight sink whose second ST append panics.
        struct PanicsOnce(FlightSink, AtomicU32);
        impl RecordSink for PanicsOnce {
            fn append_thread_chunk(
                &self,
                dom: u32,
                tid: u32,
                values: &[u64],
                sites: Option<&[u64]>,
                kinds: Option<&[u8]>,
            ) -> Result<u64, TraceError> {
                self.0.append_thread_chunk(dom, tid, values, sites, kinds)
            }
            fn append_st_chunk(
                &self,
                dom: u32,
                tids: &[u32],
                sites: Option<&[u64]>,
                kinds: Option<&[u8]>,
            ) -> Result<u64, TraceError> {
                let n = self.1.load(Ordering::Relaxed);
                self.1.store(n + 1, Ordering::Relaxed);
                assert_ne!(n, 1, "deliberate test panic in an append");
                self.0.append_st_chunk(dom, tids, sites, kinds)
            }
            fn put_plan(&self, plan: &DomainPlan) -> Result<(), TraceError> {
                self.0.put_plan(plan)
            }
            fn append_edges(&self, edges: &[CrossDomainEdge]) -> Result<(), TraceError> {
                self.0.append_edges(edges)
            }
            fn put_checkpoint(&self, checkpoint: &crate::Checkpoint) -> Result<(), TraceError> {
                self.0.put_checkpoint(checkpoint)
            }
            fn commit(self: Box<Self>, total_records: u64) -> Result<IoReport, TraceError> {
                Box::new(self.0).commit(total_records)
            }
        }
        let cfg = SessionConfig {
            flush_records: 2,
            flight: Some(8),
            ..SessionConfig::default()
        };
        let opts = Session::record_options(Scheme::St, 1, &cfg);
        let recorder = Arc::new(FlightRecorder::new(opts, 8));
        let sink = PanicsOnce(FlightSink::new(Arc::clone(&recorder)), AtomicU32::new(0));
        let mut session = Session::build(Scheme::St, 1, cfg, None, Some(Box::new(sink)));
        session.flight = Some(FlightCtl {
            recorder,
            target: Some(Box::new(crate::store::MemStore::new())),
            dumps: Mutex::new(Vec::new()),
        });
        let session = Arc::new(session);
        install_panic_dump(&session);
        // On a thread of its own, under a deadline: a dump waiting for the
        // lock its own thread holds must fail this test, not hang it.
        let (tx, rx) = std::sync::mpsc::channel();
        let recording = Arc::clone(&session);
        let worker = std::thread::spawn(move || {
            let ctx = recording.register_thread(0);
            // The second steal, at the fourth gate, panics in its append.
            let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                for site in 0..4 {
                    ctx.gate(SiteId(site), AccessKind::Store, || ());
                }
            }));
            ctx.gate(SiteId(4), AccessKind::Store, || ());
            let _ = tx.send(panicked.is_err());
        });
        match rx.recv_timeout(std::time::Duration::from_secs(10)) {
            Ok(panicked) => assert!(panicked),
            Err(e) => {
                eprintln!("panic_in_a_stolen_append: HUNG or died ({e})");
                std::process::exit(101);
            }
        }
        worker.join().unwrap();
        // The unwind released the lock and its note: a dump flushes the
        // builder again.
        session.dump(DumpTrigger::Manual).unwrap();
        let triggers: Vec<_> = session.dumps().iter().map(|(t, _)| *t).collect();
        assert_eq!(triggers, [DumpTrigger::Panic, DumpTrigger::Manual]);
        assert!(session.rec.as_ref().unwrap().domains[0]
            .pause(|core| { core.st.as_ref().unwrap().tids.is_empty() }));
    }

    #[test]
    fn report_save_requires_bundle() {
        let s = Session::passthrough(1);
        let report = s.finish().unwrap();
        let store = crate::store::MemStore::new();
        assert!(report.save_to(&store).is_err());
    }
}
